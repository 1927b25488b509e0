"""Brute-force inner products: the provenance oracle for every closed form.

Inner products ``\\int f(x) conj(g(x)) dx`` are evaluated by one of two
routes, both reading the factors' integer atoms from
``bases.factor_atoms``: (lo, hi, exp, coeffs, fnum, fexp) is ``coeffs``
times e^{2 pi i fnum 2^fexp x} on [lo 2^-exp, hi 2^-exp), the one
description of every basis element and every piecewise FunctionSpec.
The oracle never reads ``alpha``.

* exact piecewise integration of each pair of atoms when both factors
  have atoms -- the antiderivatives are closed forms, so the only error
  is double rounding.  Every atom endpoint is an integer over one common
  power of two (int64, or Python ints past 2^62), so the overlapping
  pairs come from integer comparisons and factors that do not meet give
  0j.  All pairs are integrated at once on arrays: the product
  polynomial, its binomial shift about the left end a, the moments
  integral_0^h u^l e^{i omega u} du (upward recurrence where l <= |omega
  h|, else a series and the downward recurrence), and the phase
  e^{2 pi i freq a}, reduced modulo one turn in exact integer arithmetic
  before rounding, which keeps it accurate for any frequency.  Each
  pair's value depends on that pair alone, and the pairs of one element
  are summed with ``math.fsum``;
* adaptive Gauss-Legendre of order 16 with dyadic bisection when the
  gaussian preset is involved, on the intersection of the two supports
  split at every atom breakpoint, subdividing until the two-level estimate
  difference is below the quadrature tolerance.  Each bisection step
  evaluates both factors once, on the nodes of all its panels: 48 for the
  top panel and its halves, then 32 for a child's halves, since the child's
  own sum is its parent's half.  A panel that has not converged when the
  bisection depth runs out raises ``ArithmeticError``.  The breakpoints
  and the gaussian's +-10 sigma cut are integers over one denominator, so
  they are sorted and clipped exactly.

The coefficient grids of a piecewise function integrate the whole window
in one exact pass: the atoms of every window element against those of
the function, summed per element.  ``inner_products`` runs the same pass
over any list of factors and ``inner_product`` over a list of one, so a
grid holds exactly the values ``inner_product`` gives.  The zero rule of
the coordinate vectors drops the elements that do not meet the function.
For the gaussian, each element goes through the GL16 route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial
from typing import Callable

import numpy as np

from . import bases
from .bases import (
    BasisFamily,
    FunctionSpec,
    K_elem,
    L_elem,
    _evaluate,
    check_dil_label,
    check_trans_label,
    factor_atoms,
)
from .core import _TWO_PI, FCoordVec, GCoordVec, Window, key_columns, keep_mask


# -- exact route: atom pairs on integer dyadic endpoints ----------------------

_WIDE = 1 << 62  # integer columns at or past this magnitude are Python ints


def _int_columns(*cols: list[int]) -> list[np.ndarray]:
    """int64 arrays when every entry is below 2^62 in magnitude, else
    object arrays of Python ints, one dtype for all."""
    flat = [v for c in cols for v in c]
    try:
        arr = np.array(flat, dtype=np.int64)
        wide = len(arr) and (arr.min() <= -_WIDE or arr.max() >= _WIDE)
    except OverflowError:
        wide = True
    if wide:
        arr = np.array(flat, dtype=object)
    ends = np.cumsum([len(c) for c in cols]).tolist()
    return [arr[end - len(c):end] for c, end in zip(cols, ends)]


def _over_pow2(x: np.ndarray, k: int) -> np.ndarray:
    """x / 2^k correctly rounded, for int64 or Python-int arrays."""
    if x.dtype == object:
        den = 1 << k
        return np.array([v / den for v in x.tolist()], dtype=float)
    return np.ldexp(x.astype(float), -k)


def _int_turns(freq: np.ndarray, x: np.ndarray, e: int) -> np.ndarray:
    """(freq x / 2^e) mod 1 for integer arrays, reduced exactly before rounding."""
    if e <= 0:
        return np.zeros(len(x))
    if x.dtype == np.int64 and e <= 64:
        # exact modulo 2^64 in wrapping unsigned arithmetic
        r = (freq.view(np.uint64) * x.view(np.uint64)) & np.uint64((1 << e) - 1)
        return np.ldexp(r.astype(float), -e)
    return _over_pow2((freq * x) % (1 << e), e)


def _coefficients(atoms: tuple[tuple, ...]) -> np.ndarray:
    width = max(len(at[3]) for at in atoms)
    return np.array([at[3] + (0j,) * (width - len(at[3])) for at in atoms], dtype=complex)


def _series_terms(top: int) -> int:
    """Terms t = 1.. the E_top series takes: term t is x^t (top + 1)! /
    (top + t + 1)! of the first, and x < top + 1, so after these the next
    is below 2^-60 of the first."""
    t, ratio = 0, 1.0
    while ratio >= 2.0 ** -60:
        t += 1
        ratio *= (top + 1) / (top + 1 + t)
    return t


def _moments(top: np.ndarray, x: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """E_l = integral_0^1 t^l e^{i x t} dt for l = 0..top of each pair, as
    (real, imaginary) arrays of ``width`` columns (zero past a pair's top).

    The upward recurrence E_l = (e^{ix} - l E_{l-1}) / (ix) multiplies an
    error by l / |x| per step, so it is taken while l <= |x| (and |x| >= 1,
    where E_0 = (e^{ix} - 1) / (ix) does not cancel).  Above that, E_top
    comes from the series e^{ix} sum_t (-ix)^t top! / (top + t + 1)!, whose
    terms fall from the first one on, and the downward (Miller) recurrence
    E_{l-1} = (e^{ix} - ix E_l) / l, which divides an error by l / |x|,
    fills in the rest.  Every step is taken in the component arithmetic of
    Python's complex numbers, so a pair's moments depend on that pair alone.
    """
    size = len(x)
    er_out, ei_out = np.zeros((size, width)), np.zeros((size, width))
    ax = np.abs(x)
    up = np.where(ax >= 1, np.minimum(top, np.floor(ax)), -1)
    cos, sin = np.cos(x), np.sin(x)

    rows = np.flatnonzero(up >= 0)
    if len(rows):
        xs, c, s, u = x[rows], cos[rows], sin[rows], up[rows]
        er, ei = s / xs, -(c - 1.0) / xs
        er_out[rows, 0], ei_out[rows, 0] = er, ei
        for l in range(1, int(u.max()) + 1):
            er, ei = (s - l * ei) / xs, -(c - l * er) / xs
            keep = u >= l
            er, ei = np.where(keep, er, 0.0), np.where(keep, ei, 0.0)
            er_out[rows[keep], l], ei_out[rows[keep], l] = er[keep], ei[keep]

    rows = np.flatnonzero(up < top)
    if len(rows):
        xs, c, s, u, tops = x[rows], cos[rows], sin[rows], up[rows], top[rows]
        hi = int(tops.max())
        terms = np.array([_series_terms(t) for t in range(hi + 1)])[tops]
        tr, ti = 1.0 / (tops + 1), np.zeros(len(rows))
        sr, si = tr, ti
        for t in range(1, int(terms.max()) + 1):
            q = xs / (tops + 1 + t)
            tr, ti = ti * q, -(tr * q)
            live = terms >= t
            sr, si = np.where(live, sr + tr, sr), np.where(live, si + ti, si)
        top_r, top_i = c * sr - s * si, c * si + s * sr
        er_out[rows, tops], ei_out[rows, tops] = top_r, top_i
        er, ei = np.zeros(len(rows)), np.zeros(len(rows))
        for l in range(hi, 0, -1):
            start = tops == l
            er, ei = np.where(start, top_r, er), np.where(start, top_i, ei)
            er, ei = (c + xs * ei) / l, (s - xs * er) / l
            keep = (tops >= l) & (u < l - 1)
            er, ei = np.where(keep, er, 0.0), np.where(keep, ei, 0.0)
            er_out[rows[keep], l - 1], ei_out[rows[keep], l - 1] = er[keep], ei[keep]
    return er_out, ei_out


def _exact_sums(fa: tuple[tuple, ...] | None, gas: list[tuple[tuple, ...] | None]) -> list[complex]:
    """integral f conj(g) for each g of ``gas``, f and each g given by their
    atoms; a g without atoms (None) is left at 0j.

    Every endpoint is an integer over one 2^K, so the overlapping atom pairs
    come from integer comparisons and atoms that meet nothing cost nothing.
    All pairs are integrated at once, and each g's pair integrals are
    summed with ``math.fsum``, which is correctly rounded, so a value does
    not depend on which other pairs share the batch.
    """
    out = [0j] * len(gas)
    ga, owner = [], []
    for k, atoms in enumerate(gas):
        if atoms:
            ga += atoms
            owner += [k] * len(atoms)
    if not fa or not ga:
        return out
    K = max(0, max(at[2] for at in fa), max(at[2] for at in ga))
    D = max([0] + [-at[5] for at in (*fa, *ga) if at[4]])  # frequencies over 2^D
    lo_f, hi_f, nu_f, lo_g, hi_g, nu_g = _int_columns(
        [at[0] << (K - at[2]) for at in fa], [at[1] << (K - at[2]) for at in fa],
        [at[4] << (at[5] + D) if at[4] else 0 for at in fa],
        [at[0] << (K - at[2]) for at in ga], [at[1] << (K - at[2]) for at in ga],
        [at[4] << (at[5] + D) if at[4] else 0 for at in ga])
    # pairs in g-atom order, so each g's pairs are consecutive
    gi, fi = np.nonzero((lo_g[:, None] < hi_f) & (lo_f < hi_g[:, None]))
    if not len(fi):
        return out
    cf, cg = _coefficients(fa), np.conj(_coefficients(ga))
    width = cf.shape[1] + cg.shape[1] - 1
    # binomials from the top row down, so a degree past double range stops here
    comb = [[float(math.comb(k, l)) for l in range(k + 1)] for k in range(width - 1, -1, -1)][::-1]

    A = np.maximum(lo_f[fi], lo_g[gi])
    h = _over_pow2(np.minimum(hi_f[fi], hi_g[gi]) - A, K)
    a = _over_pow2(A, K)
    nu = nu_f[fi] - nu_g[gi]
    omega = _TWO_PI * _over_pow2(nu, D)
    pairs = len(fi)

    # the product polynomial p_f conj(p_g), then p(a + u) in powers of u
    F, G = cf[fi], cg[gi]
    pr, pi = np.zeros((pairs, width)), np.zeros((pairs, width))
    for k in range(cg.shape[1]):
        g_re, g_im = G[:, k, None].real, G[:, k, None].imag
        pr[:, k:k + cf.shape[1]] += F.real * g_re - F.imag * g_im
        pi[:, k:k + cf.shape[1]] += F.real * g_im + F.imag * g_re
    apow = np.ones((pairs, width))
    hpow = np.empty((pairs, width))  # h^{l+1}
    hpow[:, 0] = h
    for l in range(1, width):
        apow[:, l] = apow[:, l - 1] * a
        hpow[:, l] = hpow[:, l - 1] * h
    sr, si = np.zeros((pairs, width)), np.zeros((pairs, width))
    for k in range(width):
        ck = np.array(comb[k])
        sr[:, :k + 1] += (pr[:, k, None] * ck) * apow[:, k::-1]
        si[:, :k + 1] += (pi[:, k, None] * ck) * apow[:, k::-1]

    # integral_0^h u^l e^{i omega u} du = h^{l+1} E_l(omega h)
    top = (np.array([len(at[3]) for at in fa]) - 1)[fi] + (np.array([len(at[3]) for at in ga]) - 1)[gi]
    jr, ji = hpow / np.arange(1, width + 1), np.zeros((pairs, width))
    osc = np.flatnonzero(omega != 0)
    if len(osc):
        er, ei = _moments(top[osc], omega[osc] * h[osc], width)
        jr[osc], ji[osc] = hpow[osc] * er, hpow[osc] * ei
    vr, vi = np.zeros(pairs), np.zeros(pairs)
    for l in range(width):
        vr += sr[:, l] * jr[:, l] - si[:, l] * ji[:, l]
        vi += sr[:, l] * ji[:, l] + si[:, l] * jr[:, l]

    # times e^{2 pi i nu a}, the phase reduced exactly
    if nu.any():
        turns = _TWO_PI * _int_turns(nu, A, K + D)
        c, s = np.cos(turns), np.sin(turns)
        vr, vi = c * vr - s * vi, c * vi + s * vr

    own = np.array(owner)[gi].tolist()
    vr, vi = vr.tolist(), vi.tolist()
    cuts = [0] + [k for k in range(1, pairs) if own[k] != own[k - 1]] + [pairs]
    for lo, hi in zip(cuts, cuts[1:]):
        out[own[lo]] = complex(math.fsum(vr[lo:hi]), math.fsum(vi[lo:hi]))
    return out


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl16(fn: Callable[[np.ndarray], np.ndarray], panels) -> list[complex]:
    """The GL16 sums over the panels (a, b), from one call of ``fn`` on
    all their nodes."""
    mids = [0.5 * (a + b) for a, b in panels]
    halves = [0.5 * (b - a) for a, b in panels]
    vals = fn(np.concatenate([mid + half * _GL_NODES for mid, half in zip(mids, halves)]))
    return [half * complex(np.dot(_GL_WEIGHTS, vals[16 * k:16 * k + 16]))
            for k, half in enumerate(halves)]


def _adaptive(fn, a: float, b: float, tol: float, depth: int,
              whole: complex | None = None) -> complex:
    """GL16 on [a, b] against its two halves, bisecting until they agree;
    ``whole`` is [a, b]'s own sum when the parent panel has it."""
    mid = 0.5 * (a + b)
    if whole is None:
        whole, left, right = _gl16(fn, [(a, b), (a, mid), (mid, b)])
    else:
        left, right = _gl16(fn, [(a, mid), (mid, b)])
    if abs(whole - (left + right)) <= tol:
        return left + right
    if depth <= 0:
        raise ArithmeticError(f"GL16 quadrature did not converge on [{a!r}, {b!r}] "
                              f"within tolerance {tol!r}: bisection depth exhausted")
    return (_adaptive(fn, a, mid, tol / 2, depth - 1, left)
            + _adaptive(fn, mid, b, tol / 2, depth - 1, right))


def inner_products(f, gs, quadrature_tol: float = 1e-10) -> list[complex]:
    """integral f(x) conj(g(x)) dx for each g of ``gs`` (FunctionSpecs and
    basis elements): the exact route in one pass over every g with atoms,
    the GL16 route one g at a time."""
    fe = factor_atoms(f)
    ges = [None] * len(gs) if fe is None else [factor_atoms(g) for g in gs]
    out = _exact_sums(fe, ges)
    sampled = [k for k, ge in enumerate(ges) if ge is None]
    if sampled:
        ff = _gl_factor(f, fe)  # f's cut, once for every g
        for k in sampled:
            out[k] = _sampled(ff, _gl_factor(gs[k], factor_atoms(gs[k])), quadrature_tol)
    return out


def inner_product(f, g, quadrature_tol: float = 1e-10) -> complex:
    """integral f(x) conj(g(x)) dx for FunctionSpecs and basis elements."""
    return inner_products(f, (g,), quadrature_tol)[0]


def _gl_factor(fn, atoms):
    """A factor of the GL16 route: (factor, its atoms, and the half-width
    of its +-10 sigma cut when it has no atoms)."""
    return fn, atoms, fn.support()[1] if atoms is None else None


def _sampled(ff, gg, quadrature_tol: float) -> complex:
    """The GL16 route for two ``_gl_factor``s: dyadic bisection on
    breakpoint-split intervals; a factor with atoms is spanned and
    evaluated from them.

    Every breakpoint is an integer over one denominator, 2^K times the
    denominators of the gaussians' +-10 sigma cuts, so spans and cuts are
    sorted and clipped exactly and each length is rounded to a double once.
    """
    (f, fa, f_half), (g, ga, g_half) = ff, gg
    if fa == () or ga == ():
        return 0j
    halves = [h for h in (f_half, g_half) if h is not None]
    q = math.lcm(*(h.denominator for h in halves))
    K = max([0] + [at[2] for atoms in (fa, ga) if atoms for at in atoms])
    den = q << K
    # each factor's breakpoints over den; the gaussian's are its cut
    points = [{(end * q) << (K - at[2]) for at in atoms for end in at[:2]}
              for atoms in (fa, ga) if atoms]
    points += [{-cut, cut} for cut in (h.numerator * (den // h.denominator) for h in halves)]
    lo, hi = max(map(min, points)), min(map(max, points))
    if hi <= lo:
        return 0j
    cuts = sorted(p for p in set().union(*points) if lo <= p <= hi)

    f_at = f.evaluate if fa is None else partial(_evaluate, fa)
    g_at = g.evaluate if ga is None else partial(_evaluate, ga)

    def integrand(xs: np.ndarray) -> np.ndarray:
        return f_at(xs) * np.conjugate(g_at(xs))

    total_len = (hi - lo) / den
    acc = 0j
    for a, b in zip(cuts, cuts[1:]):
        share = quadrature_tol * ((b - a) / den) / total_len
        acc += _adaptive(integrand, a / den, b / den, share, 40)
    return acc


# -- coefficient grids --------------------------------------------------------

def _grid(f: FunctionSpec, fam: BasisFamily, keys: list[tuple], vec_type, quadrature_tol: float):
    """The coordinates of ``f`` against the elements ``keys``, in key order,
    zero rule applied."""
    fe = factor_atoms(f)
    if fe is None:
        make = L_elem if vec_type is FCoordVec else K_elem
        vals = inner_products(f, [make(fam, *key) for key in keys], quadrature_tol)
    else:
        vals = _exact_sums(fe, [bases.int_atoms(fam, key) for key in keys])
    vals = np.array(vals, dtype=complex)
    kept = np.flatnonzero(keep_mask(vals))
    cols = key_columns([keys[k] for k in kept.tolist()], vec_type._width)
    return vec_type._from_columns(cols, vals[kept])


def oracle_F_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> FCoordVec:
    """All translation-model coefficients of ``f`` inside the window."""
    keys = [(check_trans_label(fam, i), n) for i in w.trans_labels
            for n in range(w.trans_range[0], w.trans_range[1] + 1)]
    return _grid(f, fam, keys, FCoordVec, quadrature_tol)


def oracle_G_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> GCoordVec:
    """All dilation-model coefficients of ``f`` inside the window."""
    keys = [(*check_dil_label(fam, s, j), m) for s, j in w.dil_labels
            for m in range(w.dil_range[0], w.dil_range[1] + 1)]
    return _grid(f, fam, keys, GCoordVec, quadrature_tol)


def norm_sq_of_spec(f: FunctionSpec) -> float:
    """||f||^2 by direct integration (used for truncation-tail accounting)."""
    return inner_product(f, f, 1e-12).real


def g_window_tail_bound(f: FunctionSpec, m_max: int) -> float:
    """Bound on the dilation-coefficient mass beyond the scale cap.

    Coefficients at scales above ``m_max`` only see the part of ``f``
    inside (-2^{-m_max}, 2^{-m_max}), so their total mass is at most the
    squared norm of ``f`` restricted there.
    """
    half = Fraction(1, 1 << m_max) if m_max >= 0 else Fraction(1 << (-m_max))
    if f.kind == "gaussian":
        return _adaptive(lambda xs: np.abs(f.evaluate(xs)) ** 2,
                         float(-half), float(half), 1e-12, 30).real
    pieces = []
    for lo, hi, coeffs in f.pieces:
        a, b = max(lo, -half), min(hi, half)
        if b > a:
            pieces.append((a, b, coeffs))
    if not pieces:
        return 0.0
    clipped = FunctionSpec.piecewise(pieces)
    return inner_product(clipped, clipped).real
