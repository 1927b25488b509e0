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
and the route disagreement.  Each route transports the candidate one
translation q at a time: the literal column pass is built once, then for
each q the literal row pass and the group-action copy are built, that q's
sums for every p are taken as aligned array products with compensated
(``fsum``) totals, and both copies are dropped before the next q.  So only
one q's copies are ever held, whatever the size of the (p, q) grid.

Completeness is probed by the rank of a window-truncated coordinate
matrix, read from the same literal row passes, again one q at a time.  A
finite window can only ever certify a *necessary* condition, so reports
label the rank test as a window surrogate; singular values too close to
the decision threshold yield an ``inconclusive`` verdict instead of a
pass/fail call.
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

def _column_pass(psi: GCoordVec, A: AlphaMatrix, w: Window) -> tuple[dict, float]:
    """Innermost literal sum, shared by every q:
    X[(i, nu)] = sum_{r,k,l} conj(alpha_{i,nu}^{r,k,l}) psi[(r,k,l)],
    plus an l2-norm bound on what the window clipped from the columns.
    """
    x: dict = {}
    tail = 0.0
    for (r, k, l), val in psi.items():
        entries, clipped = A.column(r, k, l, w)
        for key, a in entries:
            x[key] = x.get(key, 0j) + a.conjugate() * val
        if clipped > 0.0:
            tail += abs(val) * math.sqrt(clipped)
    return x, tail


def _row_pass(x: dict, q: int, A: AlphaMatrix, w: Window) -> tuple[GCoordVec, float]:
    """Outer literal sum for one q:
    U_q[(s,j,mu)] = sum_{i,nu} alpha_{i,nu+q}^{s,j,mu} X[(i, nu)],
    so that the (p, q) sum is <psi, shift of U_q by p>; plus an l2-norm
    bound on what the window clipped from the rows.
    """
    u: dict = {}
    tail = 0.0
    for (i, nu), val in x.items():
        entries, clipped = A.row(i, nu + q, w)
        for key, a in entries:
            u[key] = u.get(key, 0j) + a * val
        if clipped > 0.0:
            tail += abs(val) * math.sqrt(clipped)
    return GCoordVec._from_clean(u), tail


def _cdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Compensated sum of a * conj(b), the same sum as ``csum``.

    Each component of each product is rounded as Python's complex product
    rounds it; numpy's complex multiply may fuse it into one FMA instead.
    """
    re = a.real * b.real + a.imag * b.imag
    im = a.imag * b.real - a.real * b.imag
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


class _ShiftedPsi:
    """The candidate's keys as int64 codes, for sums against shifted vectors.

    Each (s, j) group of psi gets a dense id and key (s, j, m) the code
    ``id * span + (m - base)``, where [base, base + span) holds every
    m - p for the shifts p asked for.  Labels never enter the code, so Haar
    labels of any size cannot overflow it.
    """

    def __init__(self, psi: GCoordVec, ps: Sequence[int]):
        self.groups: dict[tuple[int, int], int] = {}
        ids, ms, vals = [], [], []
        for (s, j, m), val in psi.items():
            ids.append(self.groups.setdefault((s, j), len(self.groups)))
            ms.append(m)
            vals.append(val)
        self.base = min(ms, default=0) - max(ps, default=0)
        self.span = max(ms, default=0) - min(ps, default=0) - self.base + 1
        self.codes = np.array(ids, dtype=np.int64) * self.span + (
            np.array(ms, dtype=np.int64) - self.base)
        self.values = np.array(vals, dtype=complex)

    def sums(self, vec: GCoordVec, ps: Iterable[int]) -> dict[int, complex]:
        """For each p, the compensated sum over psi's keys (s, j, m) of
        psi[(s, j, m)] * conj(vec[(s, j, m - p)])."""
        group, base, span = self.groups.get, self.base, self.span
        codes, vals = [], []
        for (s, j, m), val in vec.items():
            g = group((s, j))
            if g is not None and base <= m < base + span:
                codes.append(g * span + (m - base))
                vals.append(val)
        codes = np.array(codes, dtype=np.int64)
        order = np.argsort(codes)
        codes, vals = codes[order], np.array(vals, dtype=complex)[order]
        out = {}
        for p in ps:
            want = self.codes - p
            at = np.searchsorted(codes, want)
            hit = at < len(codes)
            hit[hit] = codes[at[hit]] == want[hit]
            out[p] = _cdot(self.values[hit], vals[at[hit]])
        return out


def orthonormality_residuals(psi: GCoordVec, A: AlphaMatrix, pq_range, w: Window):
    """Residual grid |LHS(p,q) - delta| plus the two-route disagreement.

    Returns (residuals, disagreement, per_q_transfer_tails).  Each q is
    transported by both routes, summed for every p of that q with
    compensated totals, and dropped before the next q.  The reported
    residuals are route A's, so each q's tail is what route A clipped: the
    column pass's tail plus that q's row-pass tail.
    """
    grid = _pq_grid(pq_range)
    ps_of: dict[int, set[int]] = {}
    for p, q in grid:
        ps_of.setdefault(q, set()).add(p)

    index = _ShiftedPsi(psi, [p for p, _ in grid])
    x, column_tail = _column_pass(psi, A, w)
    route_a, route_b = {}, {}
    per_q_tails: list[float] = []
    for q in sorted(ps_of):
        # route A: <psi, U_q shifted by p> with U_q from the literal sums
        uq, row_tail = _row_pass(x, q, A, w)
        for p, lhs in index.sums(uq, ps_of[q]).items():
            route_a[(p, q)] = lhs
        per_q_tails.append(column_tail + row_tail)
        del uq  # hold one copy at a time: route B builds its own next
        # route B: <psi, D^p T^q psi> via the group action, the conjugate
        # of the coordinate sum (D^p T^q psi, psi)
        for p, lhs in index.sums(act_DT_on_G(psi, 0, q, A, w), ps_of[q]).items():
            route_b[(p, q)] = lhs

    residuals = {}
    disagreement = 0.0
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        residuals[(p, q)] = abs(route_a[(p, q)] - delta)
        disagreement = max(disagreement, abs(route_a[(p, q)] - route_b[(p, q)]))
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
    """Window-truncated completeness matrix: rows (m, q), columns (s, j).

    Entry ((m, q), (s, j)) is conj(U_q[(s, j, m)]).  Each U_q is built from
    the shared column pass for one q at a time, and dropped once its rows
    are read.
    """
    if isinstance(row_window, int):
        rows = [(m, q) for m in range(-row_window, row_window + 1)
                for q in range(-row_window, row_window + 1)]
    else:
        rows = [(int(m), int(q)) for m, q in row_window]
    rows_of: dict[int, list[tuple[int, int]]] = {}
    for r, (m, q) in enumerate(rows):
        rows_of.setdefault(q, []).append((r, m))
    x, _ = _column_pass(psi, A, w)
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for q in sorted(rows_of):
        uq, _ = _row_pass(x, q, A, w)
        for r, m in rows_of[q]:
            for c, (s, j) in enumerate(labels):
                mat[r, c] = uq[(s, j, m)].conjugate()
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

    full = rank == len(labels)
    residual = 0.0 if full else float(len(labels) - rank)
    notes = [_WINDOW_SURROGATE_NOTE, f"rank {rank} of {len(labels)} wanted"]
    verdict = "pass" if full else "fail"
    if near:
        verdict = "inconclusive"
        notes.append(f"singular values near threshold: {near}")
    if zero_cols:
        notes.append(f"columns with no support in the window: {zero_cols}")
    details = [(("sigma", c), float(s)) for c, s in enumerate(sigma)]
    return CheckReport(
        check_name="wavelet_completeness",
        verdict=verdict,
        max_residual=residual,
        tol=0.0,
        window=w,
        details=details,
        notes=notes,
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
