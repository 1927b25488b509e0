"""The exact route against a 50-digit reference on random dyadic pieces.

A piece p(x) on [lo, hi) inside [n, n + 1) is integrated against the
exponential element L_k(x - n) = e^{2 pi i k x} there, so the integrand is
p(x) e^{-2 pi i k x}: degree 0-12, frequency |k| up to 2^10, offsets |n|
up to 10^3.  Small frequencies, pieces at the origin and lone high powers
are drawn often: a high power only shows in the sum near the origin, and
the integrator's recurrences lose accuracy where 2 pi |k| (hi - lo) is
below the degree.

The route expands p about lo and integrates each power of u = x - lo, so
the error is measured against the size of those terms, sum_l |c_l|
(|lo| + u)^l integrated over the piece: on the positive axis that is the
integral of sum_l |c_l| x^l, and on the negative axis it also counts the
cancellation in the expansion about lo.
"""

import math
from fractions import Fraction

import pytest

mpmath = pytest.importorskip("mpmath")
pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swl import EXPONENTIAL, FunctionSpec, L_elem  # noqa: E402
from swl.quadrature import inner_product  # noqa: E402

DIGITS = 50


def _mp(q: Fraction):
    return mpmath.mpf(q.numerator) / q.denominator


def reference(coeffs, lo: Fraction, hi: Fraction, k: int):
    """integral_lo^hi p(x) e^{-2 pi i k x} dx and the size it is measured against."""
    deg = len(coeffs) - 1
    with mpmath.workdps(DIGITS + 60 + 3 * deg):
        a, h = _mp(lo), _mp(hi - lo)
        cs = [mpmath.mpc(c.real, c.imag) for c in coeffs]
        # p(a + u) in powers of u, exactly at this precision
        shifted = [mpmath.fsum(cs[j] * math.comb(j, l) * a ** (j - l) for j in range(l, deg + 1))
                   for l in range(deg + 1)]
        c = mpmath.mpc(0, -2 * mpmath.pi * k)
        if k == 0:
            moments = [h ** (l + 1) / (l + 1) for l in range(deg + 1)]
        else:
            # integral_0^h u^l e^{c u} du by parts: closed form, exact at this precision
            moments = []
            for l in range(deg + 1):
                s = mpmath.fsum((-1) ** t * mpmath.factorial(l) / mpmath.factorial(l - t)
                                * h ** (l - t) / c ** (t + 1) for t in range(l + 1))
                moments.append(mpmath.exp(c * h) * s
                               - (-1) ** l * mpmath.factorial(l) / c ** (l + 1))
        want = mpmath.exp(c * a) * mpmath.fsum(s * m for s, m in zip(shifted, moments))
    # integral_0^h sum_j |c_j| (|lo| + u)^j du: the size of the terms of p(lo + u)
    a, b = abs(lo), abs(lo) + hi - lo
    size = sum(abs(cj) * float((b ** (j + 1) - a ** (j + 1)) / (j + 1))
               for j, cj in enumerate(coeffs))
    return complex(want), size


@st.composite
def pieces(draw):
    n = draw(st.one_of(st.sampled_from([0, -1]), st.integers(-1000, 1000)))
    scale = draw(st.integers(0, 10))
    lo = draw(st.integers(0, (1 << scale) - 1))
    hi = draw(st.integers(lo + 1, 1 << scale))
    if draw(st.booleans()):
        # move the piece to the end of the cell nearer the origin
        lo, hi = (0, hi - lo) if n >= 0 else ((1 << scale) - (hi - lo), 1 << scale)
    deg = draw(st.integers(0, 12))
    # powers low..deg only, so that a lone high power is not hidden behind low ones
    low = draw(st.integers(0, deg))
    part = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    coeffs = (0j,) * low + tuple(complex(draw(part), draw(part)) for _ in range(deg - low)) + (1 + 0j,)
    k = draw(st.one_of(st.integers(-4, 4), st.integers(-(1 << 10), 1 << 10)))
    return n, Fraction(lo, 1 << scale) + n, Fraction(hi, 1 << scale) + n, coeffs, k


@settings(max_examples=120)
@given(case=pieces())
def test_exact_route_matches_mpmath(case):
    n, lo, hi, coeffs, k = case
    f = FunctionSpec.piecewise([(lo, hi, coeffs)])
    got = inner_product(f, L_elem(EXPONENTIAL, k, n))
    want, size = reference(coeffs, lo, hi, k)
    assert abs(got - want) <= 4e-15 * size


def test_high_degree_short_piece():
    # the case the upward recurrence lost: integral_0^{1/8} x^12 e^{2 pi i x} dx
    f = FunctionSpec.piecewise([(0, Fraction(1, 8), (0,) * 12 + (1,))])
    got = inner_product(f, L_elem(EXPONENTIAL, -1, 0))
    want, size = reference((0j,) * 12 + (1 + 0j,), Fraction(0), Fraction(1, 8), -1)
    assert abs(got - want) <= 1e-15 * abs(want)
