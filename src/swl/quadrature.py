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
  difference is below the quadrature tolerance.  The breakpoints and the
  gaussians' +-10 sigma cuts are integers over one denominator per pair,
  so they are sorted and clipped exactly.  The intervals of every pair of
  a call are bisected together, level by level, and each level evaluates
  the integrand once, on the nodes of all its panels: 48 for each interval
  and its halves, then 32 for the halves of each child of a panel that did
  not converge, since the child's own sum is its parent's half.  A level
  of more panels than a fixed budget is bisected a chunk at a time from
  the left, so the working set stays bounded when no panel converges.
  Each panel's sum is its own ``np.dot``, and the sums are added up as a
  depth-first recursion would add them.  A panel that has not converged
  when the bisection depth runs out raises ``ArithmeticError``.

The coefficient grids integrate the whole window in one pass of either
route: the atoms of every window element against those of the function,
summed per element.  A window's key columns and element atoms do not
depend on the function, so they are built once per (family, window,
model), in one ``bases.window_atoms`` call, and kept read-only in a small
LRU table (``_element_table``) that every grid of that window reads.
``inner_products`` runs the same passes on the atom table of any
list of factors' tuple atoms and ``inner_product`` on a list of one, so a
grid holds exactly the values ``inner_product`` gives.  The zero rule of
the coordinate vectors drops the elements that do not meet the function.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bases
from .bases import (
    BasisFamily,
    FunctionSpec,
    _dyadic,
    _turns,
    check_dil_label,
    check_trans_label,
    factor_atoms,
)
from .core import (
    _TWO_PI,
    FCoordVec,
    GCoordVec,
    Window,
    ceil_float,
    int_columns,
    keep_mask,
    sorted_unique,
    window_columns,
)


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


def _with_window(fa: _Atoms, owner, ints, amplitude) -> _Atoms:
    """f's atom table followed by a window's constant atoms (``_element_table``)."""
    coef = np.zeros((len(owner), fa.coef.shape[1]), dtype=complex)
    coef[:, 0] = amplitude
    return _Atoms(np.concatenate([fa.owner, owner]),
                  np.concatenate([fa.ints, ints], axis=1),
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


_PANELS = 1024  # the most panels that one integrand call bisects


def _panel_sums(integrand, lo: np.ndarray, hi: np.ndarray, at: np.ndarray) -> np.ndarray:
    """The GL16 sums over the panels [lo, hi] of the intervals ``at``, from
    one call of ``integrand`` on all their nodes; each panel's sum is its
    own ``np.dot``."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    vals = integrand((mid[:, None] + half[:, None] * _GL_NODES).ravel(), np.repeat(at, 16))
    # np.dot casts the weights to the values' type, so casting them once gives the same sums
    weights = _GL_WEIGHTS.astype(vals.dtype)
    return np.array([h * complex(weights.dot(row))
                     for h, row in zip(half.tolist(), vals.reshape(-1, 16))], dtype=complex)


def _bisect(integrand, a: np.ndarray, b: np.ndarray, tol: np.ndarray, at: np.ndarray,
            whole: np.ndarray | None, depth: int) -> np.ndarray:
    """The values of the panels [a, b] of the intervals ``at``, each
    bisected as ``_gl16`` says; ``whole`` holds the panels' own sums when
    their parents have them."""
    mid = 0.5 * (a + b)
    if whole is None:
        ends = np.column_stack([a, b, a, mid, mid, b]).reshape(-1, 2)
        whole, left, right = _panel_sums(integrand, ends[:, 0], ends[:, 1],
                                         np.repeat(at, 3)).reshape(-1, 3).T
    else:
        ends = np.column_stack([a, mid, mid, b]).reshape(-1, 2)
        left, right = _panel_sums(integrand, ends[:, 0], ends[:, 1],
                                  np.repeat(at, 2)).reshape(-1, 2).T
    total = left + right
    d = whole - total
    # Python's complex abs is hypot, and numpy's complex abs differs from it
    split = np.flatnonzero(~(np.hypot(d.real, d.imag) <= tol))
    if len(split) and depth <= 0:
        k = split[0]
        raise ArithmeticError(f"GL16 quadrature did not converge on [{a[k].item()!r}, "
                              f"{b[k].item()!r}] within tolerance {tol[k].item()!r}: "
                              "bisection depth exhausted")
    # the children of the split panels, a chunk at a time from the left,
    # each chunk bisected to the end before the next
    for s in range(0, len(split), _PANELS):
        k = split[s:s + _PANELS]
        kids = _bisect(integrand, np.column_stack([a[k], mid[k]]).ravel(),
                       np.column_stack([mid[k], b[k]]).ravel(), np.repeat(tol[k] / 2, 2),
                       np.repeat(at[k], 2), np.column_stack([left[k], right[k]]).ravel(),
                       depth - 1)
        total[k] = kids[0::2] + kids[1::2]
    return total


def _gl16(integrand, a: np.ndarray, b: np.ndarray, tol: np.ndarray, owner: np.ndarray,
          count: int, depth: int) -> np.ndarray:
    """integral_a^b of ``integrand(x, interval)`` over each interval, summed
    per owner (``count`` of them, interval order): GL16 on each panel
    against its two halves, bisecting until they agree within the panel's
    tolerance, which halves with each split.

    The bisection runs level by level over the panels of every interval,
    with one call of ``integrand`` per level: 48 nodes for each interval and
    its halves, then 32 for the halves of each child of a panel that did not
    converge, since the child's own sum is its parent's half.  A level of
    more than ``_PANELS`` panels goes in chunks from the left, each bisected
    to the end before the next, so the working set stays bounded however
    many panels fail.  The values are those of the recursion: a converged
    panel gives left + right, a split one the sum of its children's values,
    and each owner's intervals are added to 0j in order.  A panel that has
    not converged when the depth runs out raises ``ArithmeticError``, naming
    the leftmost such panel of the first owner that has one.
    """
    out = np.zeros(count, dtype=complex)
    for s in range(0, len(a), _PANELS):
        part = slice(s, s + _PANELS)
        at = np.arange(s, s + len(a[part]))
        np.add.at(out, owner[part], _bisect(integrand, a[part], b[part], tol[part], at, None, depth))
    return out


def _ceil_dyadics(num: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """The least double >= num 2^-exp, of each entry."""
    out = np.zeros(len(num))
    exact = np.zeros(len(num), dtype=bool)
    if num.dtype != object:
        with np.errstate(over="ignore"):  # an overflow is inexact, and so checked below
            out = np.ldexp(num.astype(float), -exp)
            exact = (np.abs(num) <= 1 << 53) & (np.ldexp(out, exp) == num)
    for k in np.flatnonzero(~exact).tolist():
        out[k] = ceil_float(_dyadic(int(num[k]), int(exp[k])))
    return out


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den correctly rounded, for integer arrays (int64 or Python ints)."""
    if num.dtype != object and max(np.abs(num).max(initial=0), den.max(initial=0)) <= 1 << 53:
        return num.astype(float) / den.astype(float)  # both exact, so one rounding
    return np.array([x / y for x, y in zip(num.tolist(), den.tolist())], dtype=float)


def _atom_values(atoms: _Atoms, lower: np.ndarray, upper: np.ndarray, xs: np.ndarray,
                 start: np.ndarray, stop: np.ndarray) -> np.ndarray:
    """The sum of the atom rows [start, stop) at each x, as ``bases._evaluate``
    gives it: the rows are sorted and disjoint, and [lower, upper) of each is
    the set of doubles it holds.  Each x finds the row that holds it, and
    that row's polynomial (Horner, highest degree first) and phase
    (``bases._turns``) are evaluated there; 0j where no row holds x."""
    # k walks to the last row of its run that starts at or before x
    k = start - 1
    while True:
        up = (k + 1 < stop) & (lower[np.minimum(k + 1, stop - 1)] <= xs)
        if not up.any():
            break
        k = k + up
    inside = np.flatnonzero((k >= start) & (xs < upper[np.maximum(k, start)]))
    k, x = k[inside], xs[inside]
    coef = atoms.coef[k]
    val = np.zeros(len(x), dtype=complex)
    for c in range(coef.shape[1] - 1, -1, -1):
        val = val * x + coef[:, c]
    fnum, fexp = atoms.ints[3][k], atoms.ints[4][k]
    waves = np.flatnonzero(fnum != 0)
    if len(waves):
        val[waves] *= np.exp(2j * np.pi * _turns(fnum[waves], fexp[waves], x[waves]))
    out = np.zeros(len(xs), dtype=complex)
    out[inside] = val
    return out


def _intervals(atoms: _Atoms, start: np.ndarray, stop: np.ndarray, qs: list, cuts: list,
               both: np.ndarray, quadrature_tol: float):
    """The GL16 intervals of each pair: the intersection of its two supports,
    split at every breakpoint of its atom rows [start, stop).  Its gaussians
    are cut at +-cuts[p] / qs[p], and ``both`` marks the pairs of two
    gaussians, which have no atom rows.

    The breakpoints and cuts are integers over one denominator per pair,
    2^K (K its finest atom scale, at least 0) times qs[p], so they are
    sorted and clipped exactly, and each end, length and tolerance share is
    rounded to a double once.  Returns the intervals' ends and tolerances,
    their pairs (in pair order, each pair's from left to right) and the
    rows that these pairs read.
    """
    n = len(start)
    lens = stop - start
    has = lens > 0
    offs = np.cumsum(lens) - lens
    pair = np.repeat(np.arange(n), lens)  # the pair of each gathered row
    rows = np.arange(len(pair)) + (start - offs)[pair]
    lo, hi, exp = (atoms.ints[r][rows] for r in range(3))
    K = np.zeros(n, dtype=np.int64)
    if len(rows):
        K[has] = np.maximum(np.maximum.reduceat(exp, offs[has]), 0)
    # int64 while every value below stays under 2^62, else Python ints
    ends = [abs(int(v)) for v in (lo.min(), lo.max(), hi.min(), hi.max())] if len(rows) else [0]
    bits = max(max(ends).bit_length() + max(qs).bit_length() - int(exp.min(initial=0)),
               max(cuts).bit_length()) + int(K.max()) + 1
    dtype = object if atoms.ints.dtype == object or bits >= 62 else np.int64
    q, K = np.array(qs, dtype=dtype), K.astype(dtype)
    den, cut = q << K, np.array(cuts, dtype=dtype) << K
    shift = K[pair] - exp.astype(dtype)
    lo, hi = (lo.astype(dtype) * q[pair]) << shift, (hi.astype(dtype) * q[pair]) << shift
    left, right = -cut, cut.copy()
    if len(rows):
        left[has] = np.maximum(left[has], lo[offs[has]])
        right[has] = np.minimum(right[has], hi[offs[has] + lens[has] - 1])
    is_live = (has | both) & (right > left)
    live = np.flatnonzero(is_live)

    # the breakpoints strictly inside each live pair's span, once each
    points = np.column_stack([lo, hi]).ravel()
    at = np.repeat(pair, 2)
    inner = (points > left[at]) & (points < right[at]) & is_live[at]
    inner[:-1] &= points[:-1] != points[1:]
    kept = np.flatnonzero(inner)
    kp = at[kept]
    # each live pair's intervals: [left, kept..., right]
    cnt = np.bincount(kp, minlength=n)[live]
    first = np.cumsum(cnt) - cnt + np.arange(len(live))
    size = len(kept) + len(live)
    a, b = np.empty(size, dtype=dtype), np.empty(size, dtype=dtype)
    j = np.arange(len(kept)) + (np.cumsum(is_live) - 1)[kp]
    a[j + 1], b[j] = points[kept], points[kept]
    a[first], b[first + cnt] = left[live], right[live]
    ip = np.repeat(live, cnt + 1)
    dn = den[ip]
    span = np.zeros(n)
    span[live] = _ratio((right - left)[live], den[live])
    share = quadrature_tol * _ratio(b - a, dn) / span[ip]
    return _ratio(a, dn), _ratio(b, dn), share, ip, sorted_unique(rows[is_live[pair]])


def _gl_sums(f, atoms: _Atoms, owners: np.ndarray, gaussians: dict, quadrature_tol: float,
             depth: int = 40) -> np.ndarray:
    """integral f conj(g) by the GL16 route for the g of each pair, where f
    or g is a gaussian: the gaussian ``gaussians[p]`` of pair p, or else the
    atoms of owner ``owners[p]`` in ``atoms``; f's atoms, when it has them,
    are owner -1's.  A factor without atoms that is no gaussian is 0.  The
    intervals of all pairs go through one ``_gl16`` bisection.
    """
    n = len(owners)
    f_half = f.support()[1] if isinstance(f, FunctionSpec) and f.kind == "gaussian" else None
    # each pair's atom rows: f's when it has atoms, else its g's (none for a gaussian g)
    if f_half is None:
        start, stop = np.zeros(n, dtype=np.int64), np.full(n, np.count_nonzero(atoms.owner < 0))
        qs, cuts = [1] * n, [0] * n
    else:
        start = np.searchsorted(atoms.owner, owners)
        stop = np.searchsorted(atoms.owner, owners, "right")
        qs, cuts = [f_half.denominator] * n, [f_half.numerator] * n
    sigma = np.full(n, np.nan)
    for p, g in gaussians.items():
        sigma[p] = g.sigma
        halves = [h for h in (f_half, g.support()[1]) if h is not None]
        q = math.lcm(*(h.denominator for h in halves))
        qs[p], cuts[p] = q, min(h.numerator * (q // h.denominator) for h in halves)
    g_gauss = ~np.isnan(sigma)
    a, b, share, ip, used = _intervals(atoms, start, stop, qs, cuts,
                                       g_gauss & (f_half is not None), quadrature_tol)
    lower, upper = np.zeros(len(atoms.owner)), np.zeros(len(atoms.owner))
    lower[used] = _ceil_dyadics(atoms.ints[0][used], atoms.ints[2][used])
    upper[used] = _ceil_dyadics(atoms.ints[1][used], atoms.ints[2][used])

    def integrand(xs: np.ndarray, interval: np.ndarray) -> np.ndarray:
        p = ip[interval]
        gauss = g_gauss[p]
        gv = np.empty(len(xs), dtype=complex)
        s, x = sigma[p[gauss]], xs[gauss]
        gv[gauss] = np.exp(-(x * x) / (2.0 * s * s)) + 0j  # as FunctionSpec.evaluate
        if f_half is None:
            fv = _atom_values(atoms, lower, upper, xs, start[p], stop[p])
        else:
            fv = f.evaluate(xs)
            sel = np.flatnonzero(~gauss)
            gv[sel] = _atom_values(atoms, lower, upper, xs[sel], start[p[sel]], stop[p[sel]])
        return fv * np.conjugate(gv)

    return _gl16(integrand, a, b, share, ip, n, depth)


def inner_products(f, gs, quadrature_tol: float = 1e-10) -> list[complex]:
    """integral f(x) conj(g(x)) dx for each g of ``gs`` (FunctionSpecs and
    basis elements): the exact route in one pass over every g with atoms
    when f has them, the GL16 route in one bisection over the rest."""
    fe = factor_atoms(f)
    ges = [factor_atoms(g) for g in gs]
    atoms = _atom_table(fe, ges)
    out = _exact_sums(atoms, len(fe or ()), len(gs))
    sampled = [k for k, ge in enumerate(ges) if fe is None or ge is None]
    if sampled:
        gaussians = {p: gs[k] for p, k in enumerate(sampled) if ges[k] is None}
        out[sampled] = _gl_sums(f, atoms, np.array(sampled), gaussians, quadrature_tol)
    return out.tolist()


def inner_product(f, g, quadrature_tol: float = 1e-10) -> complex:
    """integral f(x) conj(g(x)) dx for FunctionSpecs and basis elements."""
    return inner_products(f, (g,), quadrature_tol)[0]


# -- coefficient grids --------------------------------------------------------

_TABLES = 16  # the element tables kept: a handful of (family, window, model) at a time


@lru_cache(maxsize=_TABLES)
def _element_table(fam: BasisFamily, w: Window, model: str):
    """The key columns of the window's elements in the model ("F" or "G"),
    in key order, and those elements' atoms as an atom table's window half
    (owner, ints, amplitude), from one ``bases.window_atoms`` call.

    Neither depends on the function whose coordinates are taken, so each
    (family, window, model) is built once and kept, its arrays read-only.
    An invalid label or a scale past 1023 raises here, and a raise is not
    kept, so it raises again on every call."""
    if model == "F":
        labels = [(check_trans_label(fam, i),) for i in w.trans_labels]
        cols = window_columns(labels, *w.trans_range)
    else:
        labels = [check_dil_label(fam, s, j) for s, j in w.dil_labels]
        cols = window_columns(labels, *w.dil_range)
    owner, lo, hi, exp, amplitude, fnum, fexp = bases.window_atoms(fam, cols)
    ints = np.array([lo, hi, exp, fnum, fexp])
    for a in (*cols, owner, ints, amplitude):
        a.flags.writeable = False
    return cols, owner, ints, amplitude


def _grid(f: FunctionSpec, fam: BasisFamily, w: Window, model: str, vec_type,
          quadrature_tol: float):
    """The coordinates of ``f`` against the elements of the window in the
    model, in key order, zero rule applied."""
    cols, *window = _element_table(fam, w, model)
    fe = factor_atoms(f)
    atoms = _with_window(_atom_table(fe), *window)
    count = len(cols[0])
    if fe is None:
        vals = _gl_sums(f, atoms, np.arange(count), {}, quadrature_tol)
    else:
        vals = _exact_sums(atoms, len(fe), count)
    kept = keep_mask(vals)
    return vec_type._from_columns(tuple(c[kept] for c in cols), vals[kept])


def oracle_F_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> FCoordVec:
    """All translation-model coefficients of ``f`` inside the window."""
    return _grid(f, fam, w, "F", FCoordVec, quadrature_tol)


def oracle_G_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> GCoordVec:
    """All dilation-model coefficients of ``f`` inside the window."""
    return _grid(f, fam, w, "G", GCoordVec, quadrature_tol)


def g_window_tail_bound(f: FunctionSpec, m_max: int) -> float:
    """Bound on the dilation-coefficient mass beyond the scale cap.

    Coefficients at scales above ``m_max`` only see the part of ``f``
    inside (-2^{-m_max}, 2^{-m_max}), so their total mass is at most the
    squared norm of ``f`` restricted there.
    """
    half = Fraction(1, 1 << m_max) if m_max >= 0 else Fraction(1 << (-m_max))
    if f.kind == "gaussian":
        return _gl16(lambda xs, _: np.abs(f.evaluate(xs)) ** 2, np.array([float(-half)]),
                     np.array([float(half)]), np.array([1e-12]), np.zeros(1, dtype=np.int64),
                     1, 30)[0].real
    pieces = []
    for lo, hi, coeffs in f.pieces:
        a, b = max(lo, -half), min(hi, half)
        if b > a:
            pieces.append((a, b, coeffs))
    if not pieces:
        return 0.0
    clipped = FunctionSpec.piecewise(pieces)
    return inner_product(clipped, clipped).real
