"""Basis elements as atoms: one description for supports, point values and the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FunctionSpec, K_elem, L_elem  # noqa: E402
from swl.core import MINUS, PLUS  # noqa: E402
from swl.quadrature import inner_product  # noqa: E402

signs = st.sampled_from([PLUS, MINUS])
shifts = st.integers(-1024, 1024)
scales = st.integers(-10, 48)
exp_labels = st.integers(-64, 64)
haar_labels = st.integers(0, 64)
elements = st.one_of(
    st.builds(lambda i, n: L_elem(HAAR, i, n), haar_labels, shifts),
    st.builds(lambda i, n: L_elem(EXPONENTIAL, i, n), exp_labels, shifts),
    st.builds(lambda s, j, m: K_elem(HAAR, s, j, m), signs, haar_labels, scales),
    st.builds(lambda s, j, m: K_elem(EXPONENTIAL, s, j, m), signs, exp_labels, scales),
)
positions = st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=8)


def _inside(lo: Fraction, hi: Fraction, us) -> list[float]:
    return [float(lo + (hi - lo) * Fraction(u)) for u in us]


@given(elem=elements, us=positions)
def test_array_values_are_point_values_and_vanish_off_support(elem, us):
    lo, hi = elem.support()
    width = float(hi - lo)
    xs = np.array(_inside(lo, hi, us) + [float(lo), float(hi), float(lo) - width,
                                         float(hi) + width, np.nextafter(float(lo), -math.inf)])
    vals = elem.evaluate(xs)
    for x, val in zip(xs, vals):
        point = elem.evaluate(x)
        assert isinstance(point, complex)
        assert point == val
    off = (xs < float(lo)) | (xs >= float(hi))
    assert np.all(vals[off] == 0)
    assert np.all(vals[~off] != 0)


# past 2^10 the phase count in 2^-53 turns overflows 64 bits and must wrap exactly
wide_labels = st.one_of(exp_labels, st.integers(-2 ** 52, 2 ** 52))


@given(elem=st.one_of(
    st.builds(lambda i, n: L_elem(EXPONENTIAL, i, n), wide_labels, shifts),
    st.builds(lambda s, j, m: K_elem(EXPONENTIAL, s, j, m), signs, wide_labels, scales),
), us=positions)
def test_exponential_phases_match_exact_reduction(elem, us):
    if len(elem.index) == 2:
        freq, amp = Fraction(elem.index.i), 1.0
    else:
        freq, amp = elem.index.j * Fraction(2) ** elem.index.m, math.sqrt(2.0 ** elem.index.m)
    lo, hi = elem.support()
    for x in _inside(lo, hi, us):
        if not lo <= x < hi:
            continue
        t = float(freq * Fraction(x) % 1)
        want = amp * complex(math.cos(2 * math.pi * t), math.sin(2 * math.pi * t))
        assert abs(elem.evaluate(x) - want) <= 1e-14 * amp


@pytest.mark.parametrize("s", [PLUS, MINUS])
@pytest.mark.parametrize("j", [-3, 0, 1, 6])
@pytest.mark.parametrize("m", [-2, 0, 3, 6])
def test_gaussian_coordinates_against_mpmath(s, j, m):
    # the GL route against a 30-digit quadrature split at every period
    mpmath = pytest.importorskip("mpmath")
    elem = K_elem(EXPONENTIAL, s, j, m)
    lo, hi = (mpmath.mpf(q.numerator) / q.denominator for q in elem.support())
    freq = j * mpmath.mpf(2) ** m
    with mpmath.workdps(30):
        amp = mpmath.sqrt(mpmath.mpf(2) ** m)
        want = mpmath.quad(lambda x: amp * mpmath.exp(-x * x / 2) * mpmath.expjpi(-2 * freq * x),
                           mpmath.linspace(lo, hi, 2 * abs(j) + 2))
    got = inner_product(FunctionSpec.gaussian(1), elem)
    assert abs(got - complex(want)) <= 1e-10
