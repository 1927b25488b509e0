"""Brute-force inner products: the provenance oracle for every closed form.

Inner products ``\\int f(x) conj(g(x)) dx`` are evaluated by one of two
routes, both reading the factors' own description from ``bases``: the
atoms (polynomial pieces times complex exponentials) that every basis
element and every piecewise FunctionSpec is made of, and the support
derived from them.

* exact piecewise integration of each pair of atoms when both factors
  have atoms -- the antiderivatives are closed forms, so the only error
  is double rounding.  The atom-pair loop is also the overlap test: a
  pair of disjoint atoms is skipped, so factors that do not meet give 0j
  without any support check beforehand;
* adaptive Gauss-Legendre of order 16 with dyadic bisection when the
  gaussian preset is involved, on the intersection of the two supports
  split at every atom breakpoint, evaluating both factors on each whole
  node array and subdividing until the two-level estimate difference is
  below the quadrature tolerance.

The coefficient grids pass every window element to ``inner_product`` and
rely on the coordinate vectors' zero rule to drop the 0j of each element
that does not meet the function, so on the exact route each element's
atoms are built once.

Phases of the exponential atoms are reduced modulo one turn in exact
rational arithmetic before rounding, which keeps the exact route accurate
at machine precision even for large frequencies.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

import numpy as np

from .bases import BasisFamily, FunctionSpec, K_elem, L_elem
from .core import (
    DilIndex,
    FCoordVec,
    GCoordVec,
    TransIndex,
    Window,
    cis_frac,
)


def _poly_mul(p: tuple[complex, ...], q: tuple[complex, ...]) -> tuple[complex, ...]:
    out = [0j] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if ci == 0:
            continue
        for k, ck in enumerate(q):
            out[i + k] += ci * ck
    return tuple(out)


def _int_monomial_exp(l: int, c: complex, h: float) -> complex:
    """integral_0^h u^l e^{c u} du, stable for small and large |c h|."""
    if c == 0:
        return h ** (l + 1) / (l + 1)
    if abs(c) * h < 0.5:
        # series: sum_t c^t h^{l+t+1} / (t! (l+t+1))
        acc = 0j
        term = 1.0 + 0j  # c^t / t!
        for t in range(0, 24):
            acc += term * h ** (l + t + 1) / (l + t + 1)
            term *= c / (t + 1)
            if abs(term) * h ** (l + t + 2) < 1e-20 * max(1.0, abs(acc)):
                break
        return acc
    e = np.exp(c * h)
    val = (e - 1.0) / c
    for deg in range(1, l + 1):
        val = (h ** deg) * e / c - (deg / c) * val
    return complex(val)


def _integrate_atom(coeffs: tuple[complex, ...], freq: Fraction, a: Fraction, b: Fraction) -> complex:
    """integral_a^b p(x) e^{2 pi i freq x} dx with exact phase reduction."""
    h = float(b - a)
    af = float(a)
    # shift to u = x - a
    shifted = [0j] * len(coeffs)
    for k, ck in enumerate(coeffs):
        if ck == 0:
            continue
        for l in range(k + 1):
            shifted[l] += ck * math.comb(k, l) * af ** (k - l)
    c = 2j * math.pi * float(freq)
    acc = 0j
    for l, cl in enumerate(shifted):
        if cl != 0:
            acc += cl * _int_monomial_exp(l, c, h)
    return cis_frac(freq * a) * acc


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _gl16(fn: Callable[[np.ndarray], np.ndarray], a: float, b: float) -> complex:
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    vals = fn(mid + half * _GL_NODES)
    return half * complex(np.dot(_GL_WEIGHTS, vals))


def _adaptive(fn, a: float, b: float, tol: float, depth: int) -> complex:
    whole = _gl16(fn, a, b)
    mid = 0.5 * (a + b)
    left = _gl16(fn, a, mid)
    right = _gl16(fn, mid, b)
    if abs(whole - (left + right)) <= tol or depth <= 0:
        return left + right
    return _adaptive(fn, a, mid, tol / 2, depth - 1) + _adaptive(fn, mid, b, tol / 2, depth - 1)


def inner_product(f, g, quadrature_tol: float = 1e-10) -> complex:
    """integral f(x) conj(g(x)) dx for FunctionSpecs and basis elements."""
    fa = f.atoms()
    ga = g.atoms()
    if fa is not None and ga is not None:
        # the atom-pair loop is the overlap test: disjoint factors leave it empty
        acc_re = []
        acc_im = []
        for at_f in fa:
            for at_g in ga:
                a = max(at_f.a, at_g.a)
                b = min(at_f.b, at_g.b)
                if b <= a:
                    continue
                coeffs = _poly_mul(at_f.coeffs, tuple(c.conjugate() for c in at_g.coeffs))
                val = _integrate_atom(coeffs, at_f.freq - at_g.freq, a, b)
                acc_re.append(val.real)
                acc_im.append(val.imag)
        return complex(math.fsum(acc_re), math.fsum(acc_im))

    # sampled route: GL16 with dyadic bisection on breakpoint-split intervals
    sup_f = f.support()
    sup_g = g.support()
    if sup_f is None or sup_g is None:
        return 0j
    lo = max(sup_f[0], sup_g[0])
    hi = min(sup_f[1], sup_g[1])
    if hi <= lo:
        return 0j
    points = {Fraction(lo), Fraction(hi)}
    for atoms in (fa, ga):
        if atoms is not None:
            for at in atoms:
                points.update((at.a, at.b))
    cuts = sorted(p for p in points if lo <= p <= hi)

    def integrand(xs: np.ndarray) -> np.ndarray:
        return f.evaluate(xs) * np.conjugate(g.evaluate(xs))

    total_len = float(hi - lo)
    acc = 0j
    for a, b in zip(cuts, cuts[1:]):
        share = quadrature_tol * float(b - a) / total_len
        acc += _adaptive(integrand, float(a), float(b), share, 40)
    return acc


# -- coefficient grids --------------------------------------------------------

def oracle_F_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> FCoordVec:
    """All translation-model coefficients of ``f`` inside the window."""
    return FCoordVec(
        (TransIndex(i, n), inner_product(f, L_elem(fam, i, n), quadrature_tol))
        for i in w.trans_labels
        for n in range(w.trans_range[0], w.trans_range[1] + 1)
    )


def oracle_G_coords(f: FunctionSpec, fam: BasisFamily, w: Window,
                    quadrature_tol: float = 1e-10) -> GCoordVec:
    """All dilation-model coefficients of ``f`` inside the window."""
    return GCoordVec(
        (DilIndex(s, j, m), inner_product(f, K_elem(fam, s, j, m), quadrature_tol))
        for s, j in w.dil_labels
        for m in range(w.dil_range[0], w.dil_range[1] + 1)
    )


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
