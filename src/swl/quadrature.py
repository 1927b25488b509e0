"""Brute-force inner products: the provenance oracle for every closed form.

Inner products ``\\int f(x) conj(g(x)) dx`` are evaluated by one of two
routes, both reading the factors' integer atoms: (lo, hi, exp, coeffs,
fnum, fexp) is ``coeffs`` times e^{2 pi i fnum 2^fexp x} on
[lo 2^-exp, hi 2^-exp), the one description of every basis element and
every piecewise FunctionSpec.  ``bases.factor_atoms`` gives a factor's
as tuples and ``bases.window_atoms`` those of every element of a window
as integer columns, entry for entry the same.  The oracle never reads
``alpha``.

* exact piecewise integration of each pair of atoms when both factors
  have atoms -- the antiderivatives are closed forms, so the only error
  is double rounding.  The pass runs on one atom table (``_Atoms``).  Every
  atom endpoint is an integer over one common power of two (int64, or
  Python ints past 2^62), so the overlapping pairs come from integer
  comparisons first, and factors that do not meet give 0j.  Only those
  pairs are gathered and integrated, all at once on arrays: the product
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
in one exact pass: the atoms of every window element, built in one
``bases.window_atoms`` call, against those of the function, summed per
element.  ``inner_products`` runs the same pass on the atom table of any
list of factors' tuple atoms and ``inner_product`` on a list of one, so a
grid holds exactly the values ``inner_product`` gives.  The zero rule of
the coordinate vectors drops the elements that do not meet the function.
For the gaussian, each element goes through the GL16 route.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, NamedTuple

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
from .core import _TWO_PI, FCoordVec, GCoordVec, Window, int_columns, key_columns, keep_mask


# -- exact route: atom pairs on integer dyadic endpoints ----------------------

class _Atoms(NamedTuple):
    """An atom table: row k is the polynomial ``coef[k]`` (increasing
    degree, zero past ``deg[k]``) times e^{2 pi i fnum 2^fexp x} on
    [lo 2^-exp, hi 2^-exp), an atom of the factor ``owner[k]``.  ``ints``
    holds the rows lo, hi, exp, fnum and fexp, int64 or Python ints.  The
    exact pass reads f's atoms first (owner -1), then those of the g's
    (owner k for the k-th g, in owner order)."""

    owner: np.ndarray
    ints: np.ndarray
    coef: np.ndarray
    deg: np.ndarray


def _atom_table(fe, ges=()) -> _Atoms:
    """The atom table of f's tuple atoms and then those of each g (None or
    () for a factor without atoms)."""
    ints, coefs = [], []
    for k, atoms in enumerate((fe, *ges), -1):
        for lo, hi, exp, coeffs, fnum, fexp in atoms or ():
            ints.append((lo, hi, exp, fnum, fexp, k, len(coeffs) - 1))
            coefs.append(coeffs)
    width = max(map(len, coefs), default=1)
    coef = np.array([c + (0j,) * (width - len(c)) for c in coefs], dtype=complex)
    try:
        ints = np.array(ints, dtype=np.int64).reshape(-1, 7).T
    except OverflowError:
        ints = np.array(ints, dtype=object).reshape(-1, 7).T
    owner, deg = ints[5].astype(np.int64, copy=False), ints[6].astype(np.int64, copy=False)
    return _Atoms(owner, ints[:5], coef.reshape(-1, width), deg)


def _with_window(fa: _Atoms, owner, lo, hi, exp, amplitude, fnum, fexp) -> _Atoms:
    """f's atom table followed by the constant atoms of ``bases.window_atoms``."""
    coef = np.zeros((len(owner), fa.coef.shape[1]), dtype=complex)
    coef[:, 0] = amplitude
    return _Atoms(np.concatenate([fa.owner, owner]),
                  np.concatenate([fa.ints, np.array([lo, hi, exp, fnum, fexp])], axis=1),
                  np.concatenate([fa.coef, coef]),
                  np.concatenate([fa.deg, np.zeros(len(owner), dtype=np.int64)]))


def _shift_left(x: np.ndarray, s: np.ndarray) -> np.ndarray:
    """x 2^s for integer arrays x and s >= 0, exactly: int64 when every
    entry is below 2^62 in magnitude, else Python ints."""
    if x.dtype != object and s.dtype != object:
        # |x| < 2^e, so an int64 shift is exact while e <= 62 - s
        if (np.frexp(x)[1] <= 62 - s).all():
            return x << s
    return int_columns((x.astype(object) << s.astype(object),))[0]


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


def _series_terms(top: int) -> int:
    """Terms t = 1.. the E_top series takes: term t is x^t (top + 1)! /
    (top + t + 1)! of the first, and x < top + 1, so after these the next
    is below 2^-60 of the first."""
    t, ratio = 0, 1.0
    while ratio >= 2.0 ** -60:
        t += 1
        ratio *= (top + 1) / (top + 1 + t)
    return t


def _series(x: np.ndarray, top: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sum_t (-ix)^t top! / (top + t + 1)! over t = 0.._series_terms(top)
    for each pair, as (real, imaginary) arrays.

    Term t is z_t = z_{t-1} (-i q_t) with q_t = x / (top + 1 + t) and
    z_0 = 1 / (top + 1), so one running product carries the nonzero part of
    each z_t, a second the signed zero of its other part, and t mod 4
    places them; each pair's terms are summed in order.  These are the
    roundings of the step-by-step recurrence in Python's complex
    component arithmetic.
    """
    terms = np.array([_series_terms(t) for t in range(int(top.max()) + 1)])[top]
    q = x[:, None] / (top[:, None] + 1 + np.arange(1, int(terms.max()) + 1))
    main = np.cumprod(np.column_stack([1.0 / (top + 1), q]), axis=1)
    zero = np.cumprod(np.column_stack([np.zeros(len(x)), q]), axis=1)
    re, im = np.empty_like(main), np.empty_like(main)
    re[:, 0::4], im[:, 0::4] = main[:, 0::4], zero[:, 0::4]
    re[:, 1::4], im[:, 1::4] = zero[:, 1::4], -main[:, 1::4]
    re[:, 2::4], im[:, 2::4] = -main[:, 2::4], -zero[:, 2::4]
    re[:, 3::4], im[:, 3::4] = -zero[:, 3::4], main[:, 3::4]
    last = (np.arange(len(x)), terms)
    return np.cumsum(re, axis=1)[last], np.cumsum(im, axis=1)[last]


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
        sr, si = _series(xs, tops)
        top_r, top_i = c * sr - s * si, c * si + s * sr
        er_out[rows, tops], ei_out[rows, tops] = top_r, top_i
        er, ei = np.zeros(len(rows)), np.zeros(len(rows))
        for l in range(int(tops.max()), 0, -1):
            start = tops == l
            er, ei = np.where(start, top_r, er), np.where(start, top_i, ei)
            er, ei = (c + xs * ei) / l, (s - xs * er) / l
            keep = (tops >= l) & (u < l - 1)
            er, ei = np.where(keep, er, 0.0), np.where(keep, ei, 0.0)
            er_out[rows[keep], l - 1], ei_out[rows[keep], l - 1] = er[keep], ei[keep]
    return er_out, ei_out


@lru_cache(maxsize=64)
def _binomials(width: int) -> tuple[np.ndarray, ...]:
    """Rows k < width of Pascal's triangle as read-only doubles; from the
    top row down, so a degree past double range raises before anything is
    built."""
    rows = [np.array([float(math.comb(k, l)) for l in range(k + 1)])
            for k in range(width - 1, -1, -1)][::-1]
    for row in rows:
        row.flags.writeable = False
    return tuple(rows)


def _exact_sums(atoms: _Atoms, nf: int, count: int) -> np.ndarray:
    """integral f conj(g_k) for k < ``count`` from an atom table whose first
    ``nf`` rows are f's; a g without atoms gives 0j.

    Every endpoint is an integer over one 2^K, so the overlapping atom pairs
    come from integer comparisons first, and only those pairs are gathered
    and integrated, all at once.  Each g's pair integrals are summed with
    ``math.fsum``, which is correctly rounded, so a value does not depend on
    which other pairs share the batch.
    """
    out = np.zeros(count, dtype=complex)
    n = len(atoms.owner)
    if not nf or nf == n:
        return out
    ints = atoms.ints
    lo, hi, exp, fnum, fexp = ints[0], ints[1], ints[2], ints[3], ints[4]
    K = max(0, int(exp.max()))
    freq = fnum != 0
    waves = freq.any()  # without a frequency every omega is 0 and every phase 1
    D = -int(fexp.min(initial=0, where=freq))  # frequencies over 2^D
    # endpoints over 2^K and frequencies over 2^D, in one dtype
    shift = K - exp
    ends = _shift_left(np.concatenate([lo, hi, fnum]),
                       np.concatenate([shift, shift, (fexp + D) * freq]))
    lo_f, hi_f, nu_f = ends[:nf], ends[n:n + nf], ends[2 * n:2 * n + nf]
    lo_g, hi_g, nu_g = ends[nf:n], ends[n + nf:2 * n], ends[2 * n + nf:]
    # pairs in g-atom order, so each g's pairs are consecutive
    gi, fi = np.nonzero((lo_g[:, None] < hi_f) & (lo_f < hi_g[:, None]))
    if not len(fi):
        return out
    # each side's coefficients as wide as its highest degree
    deg_f, deg_g = atoms.deg[:nf], atoms.deg[nf:]
    wf, wg = int(deg_f.max()) + 1, int(deg_g.max()) + 1
    width = wf + wg - 1
    comb = _binomials(width)

    A = np.maximum(lo_f[fi], lo_g[gi])
    h = _over_pow2(np.minimum(hi_f[fi], hi_g[gi]) - A, K)
    a = _over_pow2(A, K)
    if waves:
        nu = nu_f[fi] - nu_g[gi]
        omega = _TWO_PI * _over_pow2(nu, D)
    pairs = len(fi)

    # the product polynomial p_f conj(p_g), then p(a + u) in powers of u
    F, G = atoms.coef[fi, :wf], np.conj(atoms.coef[nf:][gi, :wg])
    pr, pi = np.zeros((pairs, width)), np.zeros((pairs, width))
    for k in range(G.shape[1]):
        g_re, g_im = G[:, k, None].real, G[:, k, None].imag
        pr[:, k:k + F.shape[1]] += F.real * g_re - F.imag * g_im
        pi[:, k:k + F.shape[1]] += F.real * g_im + F.imag * g_re
    apow = np.ones((pairs, width))
    hpow = np.empty((pairs, width))  # h^{l+1}
    hpow[:, 0] = h
    for l in range(1, width):
        apow[:, l] = apow[:, l - 1] * a
        hpow[:, l] = hpow[:, l - 1] * h
    sr, si = np.zeros((pairs, width)), np.zeros((pairs, width))
    for k in range(width):
        sr[:, :k + 1] += (pr[:, k, None] * comb[k]) * apow[:, k::-1]
        si[:, :k + 1] += (pi[:, k, None] * comb[k]) * apow[:, k::-1]

    # integral_0^h u^l e^{i omega u} du = h^{l+1} E_l(omega h)
    jr, ji = hpow / np.arange(1, width + 1), np.zeros((pairs, width))
    osc = np.flatnonzero(omega) if waves else ()
    if len(osc):
        top = deg_f[fi[osc]] + deg_g[gi[osc]]
        er, ei = _moments(top, omega[osc] * h[osc], width)
        jr[osc], ji[osc] = hpow[osc] * er, hpow[osc] * ei
    vr, vi = np.zeros(pairs), np.zeros(pairs)
    for l in range(width):
        vr += sr[:, l] * jr[:, l] - si[:, l] * ji[:, l]
        vi += sr[:, l] * ji[:, l] + si[:, l] * jr[:, l]

    # times e^{2 pi i nu a}, the phase reduced exactly
    if waves and nu.any():
        turns = _TWO_PI * _int_turns(nu, A, K + D)
        c, s = np.cos(turns), np.sin(turns)
        vr, vi = c * vr - s * vi, c * vi + s * vr

    own = atoms.owner[nf:][gi].tolist()
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
    out = _exact_sums(_atom_table(fe, ges), len(fe or ()), len(gs)).tolist()
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
    cols = key_columns(keys, vec_type._width)
    fe = factor_atoms(f)
    if fe is None:
        make = L_elem if vec_type is FCoordVec else K_elem
        vals = np.array(inner_products(f, [make(fam, *key) for key in keys], quadrature_tol),
                        dtype=complex)
    else:
        atoms = _with_window(_atom_table(fe), *bases.window_atoms(fam, cols))
        vals = _exact_sums(atoms, len(fe), len(keys))
    kept = keep_mask(vals)
    return vec_type._from_columns(tuple(c[kept] for c in cols), vals[kept])


def oracle_F_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> FCoordVec:
    """All translation-model coefficients of ``f`` inside the window."""
    labels = [check_trans_label(fam, i) for i in w.trans_labels]
    keys = [(i, n) for i in labels for n in range(w.trans_range[0], w.trans_range[1] + 1)]
    return _grid(f, fam, keys, FCoordVec, quadrature_tol)


def oracle_G_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> GCoordVec:
    """All dilation-model coefficients of ``f`` inside the window."""
    labels = [check_dil_label(fam, s, j) for s, j in w.dil_labels]
    keys = [(s, j, m) for s, j in labels for m in range(w.dil_range[0], w.dil_range[1] + 1)]
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
