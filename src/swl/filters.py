"""Two-scale relations, transfer functions and quadrature-mirror filter tests.

A refinement filter is a finitely supported sequence h_k, handled as a
Laurent polynomial h(omega) = sum h_k omega^k on the unit circle.  The
module extracts h from a compactly supported scaling function, checks the
orthogonality conditions in both the coefficient domain and on a circle
grid, builds the mirrored high-pass partner, and realizes the coordinate
reconstruction identities that recover a scaling function and its wavelet
from the filtered coordinates.

Filters act on translation-model coordinates by discrete convolution along
the translation exponent, one basis label at a time; equivalently the
transfer function multiplies the per-omega coordinate columns.  Both views
are exposed so tests can hold one against the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .alpha import AlphaMatrix, f_from_g, g_from_f
from .bases import FunctionSpec, UnboundedSupportError, dilate_spec, translate_spec
from .core import (
    CheckReport,
    DROP_THRESHOLD,
    FCoordVec,
    TransIndex,
    Window,
    check_radius,
    coord_equal,
    csum,
)
from .group_action import shift_D
from .quadrature import inner_product

_SQRT1_2 = math.sqrt(0.5)
_DET_FLOOR = 1e-6  # least grid |det| of the pair matrix that check_pair_conditions accepts


@dataclass(frozen=True)
class LaurentPoly:
    """Finitely supported k -> complex coefficient map, evaluated on |omega| = 1."""

    coeffs: tuple[tuple[int, complex], ...]

    @staticmethod
    def from_map(m: Mapping[int, complex] | Iterable[tuple[int, complex]]) -> "LaurentPoly":
        items = m.items() if isinstance(m, Mapping) else m
        acc: dict[int, complex] = {}
        for k, v in items:
            acc[int(k)] = acc.get(int(k), 0j) + complex(v)
        return LaurentPoly(tuple(sorted((k, v) for k, v in acc.items() if abs(v) > DROP_THRESHOLD)))

    def as_dict(self) -> dict[int, complex]:
        return dict(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __call__(self, omega):
        """Evaluate at a point or ndarray of points on the unit circle."""
        if isinstance(omega, np.ndarray):
            acc = np.zeros_like(omega, dtype=complex)
        else:
            acc = 0j
        for k, v in self.coeffs:
            acc = acc + v * omega ** k
        return acc

    def support(self) -> tuple[int, int]:
        if not self.coeffs:
            return (0, 0)
        ks = [k for k, _ in self.coeffs]
        return (min(ks), max(ks))

    def sum_sq(self) -> float:
        return math.fsum(abs(v) ** 2 for _, v in self.coeffs)


def haar_filter() -> LaurentPoly:
    return LaurentPoly.from_map({0: _SQRT1_2, 1: _SQRT1_2})


def daubechies4() -> LaurentPoly:
    """The 4-tap maximally flat orthogonal low-pass filter (closed form)."""
    s3 = math.sqrt(3.0)
    d = 4.0 * math.sqrt(2.0)
    return LaurentPoly.from_map({0: (1 + s3) / d, 1: (3 + s3) / d, 2: (3 - s3) / d, 3: (1 - s3) / d})


def _span(k_range) -> range:
    # a radius r is [-r, r]; an empty span would extract nothing or pass vacuously
    if isinstance(k_range, int):
        r = check_radius(k_range)
        return range(-r, r + 1)
    lo, hi = int(k_range[0]), int(k_range[1])
    if hi < lo:
        raise ValueError(f"empty range ({lo}, {hi})")
    return range(lo, hi + 1)


def extract_two_scale(phi: FunctionSpec, k_range) -> LaurentPoly:
    """Refinement coefficients h_k = (phi, D T^k phi) by direct integration.

    Both factors are compactly supported, so the oracle integrates them
    exactly and no quadrature tolerance applies.
    """
    if not phi.is_compact():
        raise UnboundedSupportError("two-scale extraction needs a compactly supported function")
    out = {}
    for k in _span(k_range):
        out[k] = inner_product(phi, dilate_spec(translate_spec(phi, k), 1))
    return LaurentPoly.from_map(out)


def _even_correlations(a: LaurentPoly, b: LaurentPoly, n_range) -> dict[int, complex]:
    """c_n = sum_k conj(a_k) b_{k+2n}."""
    bmap = b.as_dict()
    out = {}
    for n in _span(n_range):
        out[n] = csum(v.conjugate() * bmap.get(k + 2 * n, 0j) for k, v in a.coeffs)
    return out


def check_filter_orthogonality(h: LaurentPoly, n_range=8, tol: float = 1e-12,
                               grid: int = 1024) -> CheckReport:
    """Shifted self-orthogonality of a low-pass filter, two equivalent routes.

    Coefficient route: sum_k conj(h_k) h_{k+2n} = delta_n.  Circle route:
    |h(omega)|^2 + |h(-omega)|^2 = 2 sampled on a grid.  The circle-route
    values are recomputed from the coefficient sums and the two
    evaluations must agree pointwise; the report fails if either condition
    or the agreement breaks.
    """
    corr = _even_correlations(h, h, n_range)
    residuals = {}
    for n, c in corr.items():
        residuals[("coeff", n)] = abs(c - (1.0 if n == 0 else 0.0))

    thetas = np.arange(grid) / grid
    omega = np.exp(2j * np.pi * thetas)
    direct = np.abs(h(omega)) ** 2 + np.abs(h(-omega)) ** 2
    via_coeffs = 2.0 * sum(c * omega ** (2 * n) for n, c in corr.items())
    match = float(np.max(np.abs(direct - via_coeffs)))
    residuals[("grid", "identity")] = float(np.max(np.abs(direct - 2.0))) / 2.0
    residuals[("grid", "route_match")] = match

    notes = [f"coefficient and circle routes agree within {match:.3e} on {grid} points"]
    return CheckReport.from_residuals("filter_orthogonality", residuals, tol, notes=notes)


def mirror_filter(h: LaurentPoly, m: int = 0) -> LaurentPoly:
    """High-pass partner g(omega) = omega^{2m+1} conj(h(-omega)).

    In coefficients, g_k = (-1)^{1-k} conj(h_{2m+1-k}).
    """
    hmap = h.as_dict()
    out = {}
    for k_h, v in hmap.items():
        k = 2 * m + 1 - k_h
        out[k] = ((-1.0) ** (1 - k)) * v.conjugate()
    return LaurentPoly.from_map(out)


def check_pair_conditions(h: LaurentPoly, g: LaurentPoly, n_range=8, grid: int = 1024,
                          tol: float = 1e-12) -> CheckReport:
    """Joint low/high-pass conditions for a candidate filter pair.

    Coefficient domain: both filters are self-orthogonal under even shifts
    and mutually orthogonal at *all* even lags.  Circle domain:
    g(omega) conj(h(omega)) + g(-omega) conj(h(-omega)) = 0 on a grid, and
    the 2x2 matrix [[h(w), g(w)], [h(-w), g(-w)]] stays invertible, judged
    by the minimum grid |det| against the floor 1e-6.  Completeness of the
    even-shift span has no finite certificate; the report carries the grid
    determinant as supporting evidence only.
    """
    residuals = {}
    for n, c in _even_correlations(h, h, n_range).items():
        residuals[("hh", n)] = abs(c - (1.0 if n == 0 else 0.0))
    for n, c in _even_correlations(g, g, n_range).items():
        residuals[("gg", n)] = abs(c - (1.0 if n == 0 else 0.0))
    for n, c in _even_correlations(h, g, n_range).items():
        residuals[("hg", n)] = abs(c)

    thetas = np.arange(grid) / grid
    omega = np.exp(2j * np.pi * thetas)
    hw, gw = h(omega), g(omega)
    hmw, gmw = h(-omega), g(-omega)
    alt = gw * np.conjugate(hw) + gmw * np.conjugate(hmw)
    residuals[("grid", "alternation")] = float(np.max(np.abs(alt)))
    det = hw * gmw - gw * hmw
    min_det = float(np.min(np.abs(det)))

    notes = [
        f"min grid |det| = {min_det:.6g} (floor {_DET_FLOOR:g})",
        "span completeness not decidable at a finite window; grid determinant is evidence only",
    ]
    report = CheckReport.from_residuals("filter_pair_conditions", residuals, tol, notes=notes)
    if min_det < _DET_FLOOR:
        report.verdict = "fail"
        report.notes.append("determinant not bounded away from zero on the grid")
    report.details.append((("grid", "min_abs_det"), min_det))
    return report


def filter_action_on_coords(coords: FCoordVec, h: LaurentPoly) -> FCoordVec:
    """Convolve the coordinates along the translation exponent, per label."""
    out: dict = {}
    for (i, n), val in coords.items():
        for k, hk in h.coeffs:
            key = TransIndex(i, n + k)
            out[key] = out.get(key, 0j) + hk * val
    return FCoordVec._from_clean(out)


def coords_at_omega(coords: FCoordVec, omegas: np.ndarray) -> dict[int, np.ndarray]:
    """Per-label generating functions sum_n coords[(i, n)] omega^n."""
    out: dict[int, np.ndarray] = {}
    for (i, n), val in coords.items():
        if i not in out:
            out[i] = np.zeros_like(omegas, dtype=complex)
        out[i] += val * omegas ** n
    return out


def reconstruct_scaling_coords(phi_coords: FCoordVec, h: LaurentPoly, A: AlphaMatrix,
                           w: Window, tol: float = 1e-10) -> tuple[FCoordVec, CheckReport]:
    """Recover the scaling coordinates from their own filtered version.

    Pipeline: convolve by h (coordinates of the once-unscaled function),
    transfer to the dilation model, shift one scale up, transfer back.  For
    a true refinement pair (phi, h) this reproduces the input; the report
    compares the two.
    """
    filtered = filter_action_on_coords(phi_coords, h)
    lifted = shift_D(g_from_f(filtered, A, w), 1)
    rebuilt = f_from_g(lifted, A, w)
    report = coord_equal(rebuilt, phi_coords, tol, name="two_scale_reconstruction", window=w)
    return rebuilt, report


def construct_wavelet_coords(phi_coords: FCoordVec, h: LaurentPoly, A: AlphaMatrix,
                             w: Window) -> FCoordVec:
    """Candidate wavelet coordinates built from the scaling coordinates.

    Same pipeline as the reconstruction but with the alternating-flip
    coefficients (-1)^{1-k} h_{1-k}; the result is determined only up to a
    unimodular factor, so callers compare against both signs.
    """
    flipped = LaurentPoly.from_map(
        {1 - k_h: ((-1.0) ** k_h) * v for k_h, v in h.coeffs}
    )
    filtered = filter_action_on_coords(phi_coords, flipped)
    lifted = shift_D(g_from_f(filtered, A, w), 1)
    return f_from_g(lifted, A, w)


def scaling_coords_from_filter(h: LaurentPoly, levels: int = 12) -> tuple[FCoordVec, float]:
    """Cascade the refinement relation to exact local-average coordinates.

    Seeds the unit-cell masses with the eigenvector of the cell-refinement
    matrix, then runs the cascade recursion on inner products against
    box/wavelet averages: each level is exact, so the only approximation
    is stopping at ``levels`` (the finest resolved wavelet scale is
    ``levels - 1``).  Returns the coordinates in the Haar-family
    translation model together with the l2 mass the enumeration did not
    capture.  For a filter whose refinement solution has unit norm that
    mass is pure scale truncation; filters violating the admissibility of
    their refinement solution leave a genuine norm deficit here instead,
    which downstream orthonormality checks then (correctly) flag.

    The filter support must start at 0 (translate the filter first if
    not); the scaling function then lives on [0, len - 1].
    """
    hmap = {k: v.real for k, v in h.coeffs}
    if any(abs(v.imag) > 1e-14 for _, v in h.coeffs):
        raise ValueError("cascade seeding needs a real filter")
    k_lo, k_hi = h.support()
    if k_lo != 0:
        raise ValueError("filter support must start at k = 0")
    width = k_hi  # support of the scaling function is [0, width]
    if width < 1:
        raise ValueError("filter too short to refine")

    mat = np.zeros((width, width))
    for k in range(width):
        for l in range(width):
            mat[k, l] = (hmap.get(2 * k - l, 0.0) + hmap.get(2 * k + 1 - l, 0.0)) / math.sqrt(2.0)
    vals, vecs = np.linalg.eig(mat)
    pick = int(np.argmin(np.abs(vals - 1.0)))
    if abs(vals[pick] - 1.0) > 1e-8:
        raise ValueError("cell-refinement matrix has no unit eigenvalue; not a refinement filter")
    mu = np.real(vecs[:, pick])
    mu = mu / mu.sum()

    entries: dict = {TransIndex(0, n): complex(mu[n]) for n in range(width)}
    c_prev = mu
    for level in range(1, levels + 1):
        n_k = width << level
        c_next = np.zeros(n_k)
        step = 1 << (level - 1)
        for k_h, v in hmap.items():
            lo = k_h * step
            a = max(0, lo)
            b = min(n_k, lo + len(c_prev))
            if b > a:
                c_next[a:b] += v * c_prev[a - lo: b - lo]
        p = level - 1
        detail = (c_next[0::2] - c_next[1::2]) / math.sqrt(2.0)
        for l, d in enumerate(detail):
            if abs(d) > DROP_THRESHOLD:
                entries[TransIndex((1 << p) + (l & ((1 << p) - 1)), l >> p)] = complex(d)
        c_prev = c_next

    vec = FCoordVec._from_clean(entries)
    tail = max(0.0, 1.0 - vec.norm_sq())
    return vec, tail
