"""The one-pass oracle grids against per-element ``inner_product``, bit for bit.

A grid integrates every atom pair of a window at once and sums each
element's pairs with ``math.fsum``; ``inner_product`` runs the same pass on
one element.  These inputs reach past the other fixtures: pieces of degree
up to 12, exponential labels up to 2^8 in magnitude, supports up to 10^3
from the origin, and Haar dilation scales past 62, whose endpoints are
Python ints rather than int64.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FCoordVec, FunctionSpec, GCoordVec, Window  # noqa: E402
from swl.bases import K_elem, L_elem  # noqa: E402
from swl.core import DilIndex, TransIndex  # noqa: E402
from swl.quadrature import inner_product, oracle_F_coords, oracle_G_coords  # noqa: E402


def per_element_F(f, fam, w):
    return FCoordVec((TransIndex(i, n), inner_product(f, L_elem(fam, i, n)))
                     for i in w.trans_labels
                     for n in range(w.trans_range[0], w.trans_range[1] + 1))


def per_element_G(f, fam, w):
    return GCoordVec((DilIndex(s, j, m), inner_product(f, K_elem(fam, s, j, m)))
                     for s, j in w.dil_labels
                     for m in range(w.dil_range[0], w.dil_range[1] + 1))


def _bits(vec):
    return [(key, repr(val)) for key, val in vec.items()]


part = st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False)


@st.composite
def functions(draw):
    # 1-3 pieces on the 1/64 grid of [origin - 3, origin + 3]
    origin = draw(st.one_of(st.just(0), st.integers(-1000, 1000)))
    cuts = sorted(draw(st.sets(st.integers(-192, 192), min_size=2, max_size=6)))
    cuts = cuts[:len(cuts) // 2 * 2]
    pieces = []
    for lo, hi in zip(cuts[0::2], cuts[1::2]):
        deg = draw(st.integers(0, 12))
        coeffs = tuple(complex(draw(part), draw(part)) for _ in range(deg + 1))
        pieces.append((Fraction(lo, 64) + origin, Fraction(hi, 64) + origin, coeffs))
    return origin, FunctionSpec.piecewise(pieces)


labels = st.lists(st.integers(-(1 << 8), 1 << 8), min_size=1, max_size=3)


@settings(max_examples=30)
@given(fn=functions(), trans=labels, dil=labels, m_lo=st.integers(-6, 4))
def test_exponential_grids_match_inner_product(fn, trans, dil, m_lo):
    origin, f = fn
    w = Window(tuple(trans), (origin - 3, origin + 2),
               tuple((s, j) for s in (1, -1) for j in dil), (m_lo, m_lo + 3))
    assert _bits(oracle_F_coords(f, EXPONENTIAL, w)) == _bits(per_element_F(f, EXPONENTIAL, w))
    assert _bits(oracle_G_coords(f, EXPONENTIAL, w)) == _bits(per_element_G(f, EXPONENTIAL, w))


@settings(max_examples=30)
@given(fn=functions(), trans=st.lists(st.integers(0, 40), min_size=1, max_size=3),
       dil=st.lists(st.integers(0, 40), min_size=1, max_size=3), m_lo=st.integers(56, 70))
def test_haar_grids_match_inner_product(fn, trans, dil, m_lo):
    # dilation scales m_lo..m_lo + 3 put the G endpoints past 2^62
    origin, f = fn
    w = Window(tuple(trans), (origin - 3, origin + 2),
               tuple((s, j) for s in (1, -1) for j in dil), (m_lo, m_lo + 3))
    assert _bits(oracle_F_coords(f, HAAR, w)) == _bits(per_element_F(f, HAAR, w))
    assert _bits(oracle_G_coords(f, HAAR, w)) == _bits(per_element_G(f, HAAR, w))
