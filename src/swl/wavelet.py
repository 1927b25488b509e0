"""Coordinate-level tests for orthonormal wavelets and scaling functions.

A candidate's dilation-model coordinates determine whether its dilated
translates form an orthonormal system through a family of coordinate sums,
one per integer pair (p, q); the system is orthonormal exactly when the
sum is 1 at (0, 0) and 0 elsewhere.  Two independently coded routes
evaluate the sums here:

* the literal nested change-of-basis triple sum, innermost first, using
  the row/column support enumerations directly;
* the inner-product form: transport the candidate with the group action
  and take the coordinate dot product.

Both are computed and must agree; the report carries the worse residual
and the route disagreement.

Completeness is probed by the rank of a window-truncated coordinate
matrix.  A finite window can only ever certify a *necessary* condition, so
reports label the rank test as a window surrogate; singular values too
close to the decision threshold yield an ``inconclusive`` verdict instead
of a pass/fail call.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .alpha import AlphaMatrix
from .core import CheckReport, FCoordVec, GCoordVec, PLUS, Window, check_radius, csum
from .filters import coords_at_omega
from .group_action import act_DT_on_G

_WINDOW_SURROGATE_NOTE = "necessary-condition check at a finite window, not a proof"


def _pq_grid(pq_range) -> list[tuple[int, int]]:
    if isinstance(pq_range, int):
        r = check_radius(pq_range)
        return [(p, q) for p in range(-r, r + 1) for q in range(-r, r + 1)]
    return [(int(p), int(q)) for p, q in pq_range]


def _k_grid(k_range) -> list[int]:
    if isinstance(k_range, int):
        r = check_radius(k_range)
        return list(range(-r, r + 1))
    return [int(k) for k in k_range]


def _slack(candidate_tail_sq: float, per_q_tails: Iterable[float]) -> float:
    # each (p, q) sum uses one transported copy of the candidate, so the
    # transfer allowance is the worst single-q clipped tail, not their sum
    eps = math.sqrt(max(0.0, candidate_tail_sq))
    worst = max(per_q_tails, default=0.0)
    return 2.0 * eps + eps * eps + 2.0 * worst


# -- orthonormality -----------------------------------------------------------

def _pair_sums_literal(psi: GCoordVec, A: AlphaMatrix, qs: Sequence[int],
                       w: Window) -> dict[int, GCoordVec]:
    """Literal innermost-first evaluation of the nested coordinate sums.

    For each q, returns the vector U_q with
    U_q[(s,j,mu)] = sum_{i,n} alpha_{i,n}^{s,j,mu} sum_{r,k,l}
                    conj(alpha_{i,n-q}^{r,k,l}) psi[(r,k,l)],
    so that the (p, q) sum is <psi, shift of U_q by p>.
    """
    # innermost: X[(i, nu)] = sum conj(alpha_{i,nu}^{r,k,l}) psi[(r,k,l)]
    x: dict = {}
    for (r, k, l), val in psi.items():
        entries, _ = A.column(r, k, l, w)
        for key, a in entries:
            x[key] = x.get(key, 0j) + a.conjugate() * val
    out: dict[int, GCoordVec] = {}
    for q in qs:
        u: dict = {}
        for (i, nu), val in x.items():
            entries, _ = A.row(i, nu + q, w)
            for key, a in entries:
                u[key] = u.get(key, 0j) + a * val
        out[q] = GCoordVec._from_clean(u)
    return out


def orthonormality_residuals(psi: GCoordVec, A: AlphaMatrix, pq_range, w: Window):
    """Residual grid |LHS(p,q) - delta| plus the two-route disagreement.

    Returns (residuals, disagreement, per_q_transfer_tails).
    """
    grid = _pq_grid(pq_range)
    qs = sorted({q for _, q in grid})

    route_a = _pair_sums_literal(psi, A, qs, w)
    route_b = {}
    per_q_tails: list[float] = []
    for q in qs:
        sink: list[float] = []
        route_b[q] = act_DT_on_G(psi, 0, q, A, w, sink)
        per_q_tails.append(math.fsum(sink))

    residuals = {}
    disagreement = 0.0
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        # route A: <psi, U_q shifted by p> with U_q from the literal sums
        uq = route_a[q]
        lhs_a = csum(val * uq[(s, j, m - p)].conjugate() for (s, j, m), val in psi.items())
        # route B: (D^p T^q psi, psi) via the group action
        vq = route_b[q]
        lhs_b = csum(
            vq[(s, j, m - p)] * val.conjugate() for (s, j, m), val in psi.items()
        )
        residuals[(p, q)] = abs(lhs_a - delta)
        disagreement = max(disagreement, abs(lhs_a - lhs_b.conjugate()))
    return residuals, disagreement, per_q_tails


def check_wavelet_orthonormality(psi: GCoordVec, A: AlphaMatrix, pq_range, w: Window,
                                 tol: float = 1e-9, *,
                                 candidate_tail_sq: float = 0.0) -> CheckReport:
    """Orthonormality of {D^p T^q psi} tested coordinate-wise on a (p, q) grid.

    ``candidate_tail_sq`` is the l2 mass of the candidate lost to the
    window that produced ``psi`` (zero for exactly represented
    candidates); it widens the acceptance band accordingly and is recorded
    in the report.
    """
    residuals, disagreement, per_q_tails = orthonormality_residuals(psi, A, pq_range, w)
    slack = _slack(candidate_tail_sq, per_q_tails)
    notes = [f"triple-sum and inner-product routes agree within {disagreement:.3e}"]
    if slack > 0.0:
        notes.append(f"window slack {slack:.3e} from candidate tail and transfer clipping")
    return CheckReport.from_residuals(
        "wavelet_orthonormality", residuals, tol, window=w, notes=notes, slack=slack
    )


# -- completeness -------------------------------------------------------------

def completeness_matrix(psi: GCoordVec, A: AlphaMatrix, labels: Sequence[tuple[int, int]],
                        row_window, w: Window) -> np.ndarray:
    """Window-truncated completeness matrix: rows (m, q), columns (s, j)."""
    if isinstance(row_window, int):
        rows = [(m, q) for m in range(-row_window, row_window + 1)
                for q in range(-row_window, row_window + 1)]
    else:
        rows = [(int(m), int(q)) for m, q in row_window]
    qs = sorted({q for _, q in rows})
    uq = _pair_sums_literal(psi, A, qs, w)
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for r, (m, q) in enumerate(rows):
        vec = uq[q]
        for c, (s, j) in enumerate(labels):
            mat[r, c] = vec[(s, j, m)].conjugate()
    return mat


def check_wavelet_completeness(psi: GCoordVec, A: AlphaMatrix,
                               labels: Sequence[tuple[int, int]], row_window,
                               w: Window, rank_svd_threshold: float = 1e-8) -> CheckReport:
    """Rank test: the truncated completeness matrix should have full column rank."""
    labels = [(int(s), int(j)) for s, j in labels]
    mat = completeness_matrix(psi, A, labels, row_window, w)
    sigma = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    rank = int(np.sum(sigma > rank_svd_threshold))
    near = [float(s) for s in sigma if rank_svd_threshold / 10.0 < s < rank_svd_threshold * 10.0]
    zero_cols = [lab for c, lab in enumerate(labels) if not np.any(np.abs(mat[:, c]) > 0.0)]

    passed = rank == len(labels)
    residual = 0.0 if passed else float(len(labels) - rank)
    notes = [_WINDOW_SURROGATE_NOTE, f"rank {rank} of {len(labels)} wanted"]
    verdict = "pass" if passed else "fail"
    if near:
        verdict = "inconclusive"
        passed = False
        notes.append(f"singular values near threshold: {near}")
    if zero_cols:
        notes.append(f"columns with no support in the window: {zero_cols}")
    details = [(("sigma", c), float(s)) for c, s in enumerate(sigma)]
    return CheckReport(
        check_name="wavelet_completeness",
        passed=passed,
        max_residual=residual,
        tol=0.0,
        window=w,
        details=details,
        notes=notes,
        verdict=verdict,
    )


# -- compact support on [1, 2] ------------------------------------------------

def check_example_unit_interval(candidate: GCoordVec, A: AlphaMatrix, pq_range,
                                labels: Sequence[tuple[int, int]], w: Window,
                                tol: float = 1e-9, row_window=None) -> CheckReport:
    """Specialized wavelet test for candidates supported in [1, 2].

    Only the positive-branch scale-0 coordinates can be nonzero there, so
    the general sums collapse to a single change-of-basis lookup per term.
    The general-form residuals are evaluated too; a discrepancy between
    the two would be reported, never reconciled silently.
    """
    slice_coeffs: dict[int, complex] = {}
    for (s, j, m), val in candidate.items():
        if s != PLUS or m != 0:
            raise ValueError(
                f"candidate has a coordinate outside the (+, *, 0) slice: {(s, j, m)}"
            )
        slice_coeffs[j] = val

    grid = _pq_grid(pq_range)
    residuals = {}
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        lhs = csum(
            cj.conjugate() * A.entry(k, 1 + q, PLUS, j, -p) * ck
            for j, cj in slice_coeffs.items()
            for k, ck in slice_coeffs.items()
        )
        residuals[(p, q)] = abs(lhs - delta)

    # general-form agreement
    gen_res, _, _ = orthonormality_residuals(candidate, A, pq_range, w)
    mismatch = max(
        (abs(residuals[pq] - gen_res[pq]) for pq in gen_res if pq in residuals),
        default=0.0,
    )

    # rank matrix with entries sum_k alpha_{k,1+q}^{s,j,m} c_k
    if row_window is None:
        row_window = pq_range if isinstance(pq_range, int) else 3
    rows = [(m, q) for m in range(-row_window, row_window + 1)
            for q in range(-row_window, row_window + 1)]
    labels = [(int(s), int(j)) for s, j in labels]
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for r, (m, q) in enumerate(rows):
        for c, (s, j) in enumerate(labels):
            mat[r, c] = csum(
                A.entry(k, 1 + q, s, j, m) * ck for k, ck in slice_coeffs.items()
            )
    sigma = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    rank = int(np.sum(sigma > 1e-8))

    notes = [
        f"general-form residuals agree within {mismatch:.3e}",
        f"rank {rank} of {len(labels)} wanted at row window {row_window}",
        _WINDOW_SURROGATE_NOTE,
    ]
    ortho = CheckReport.from_residuals(
        "compact_support_wavelet", residuals, tol, window=w, notes=notes
    )
    if rank != len(labels):
        ortho.passed = False
        ortho.verdict = "fail"
        ortho.notes.append("completeness rank deficient")
    return ortho


# -- scaling-function coordinate identity --------------------------------------

def translate_autocorrelation(phi: FCoordVec, k: int) -> complex:
    """sum over (i, n) of phi[(i, n)] conj(phi[(i, n-k)])."""
    return csum(val * phi[(i, n - k)].conjugate() for (i, n), val in phi.items())


def check_scaling_coordinate_identity(phi: FCoordVec, k_range,
                                      tol: float = 1e-9) -> CheckReport:
    """Orthonormal integer translates iff the coordinate autocorrelation is delta.

    Cross-checked by sampling the trigonometric polynomial with the
    autocorrelation coefficients at 256 points on the circle, where it
    must equal the squared per-omega coordinate norm, identically 1.
    """
    ks = _k_grid(k_range)
    auto = {k: translate_autocorrelation(phi, k) for k in ks}
    residuals = {("k", k): abs(auto[k] - (1.0 if k == 0 else 0.0)) for k in ks}

    thetas = np.arange(256) / 256.0
    omega_pows = {k: np.exp(2j * np.pi * k * thetas) for k in ks}
    poly = sum(auto[k] * omega_pows[k] for k in ks)
    # direct per-omega norm: sum_i |sum_n phi_i^(n) omega^n|^2
    per_label = coords_at_omega(phi, np.exp(2j * np.pi * thetas))
    direct = sum((np.abs(g) ** 2 for g in per_label.values()), np.zeros(256))
    cross = float(np.max(np.abs(poly - direct)))

    notes = [f"autocorrelation polynomial matches per-omega norm within {cross:.3e}"]
    return CheckReport.from_residuals(
        "scaling_coordinate_identity", residuals, tol, notes=notes
    )
