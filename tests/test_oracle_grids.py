"""The oracle's coefficient grids against the overlap pre-test they no longer run.

The grids pass every window element to ``inner_product`` and let the zero
rule drop the elements that do not meet the function.  The reference below
is the form they replace: an element is integrated only when its support
meets the function's.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FCoordVec, FunctionSpec, GCoordVec, Window  # noqa: E402
from swl.bases import K_elem, L_elem  # noqa: E402
from swl.core import DilIndex, TransIndex  # noqa: E402
from swl.quadrature import inner_product, oracle_F_coords, oracle_G_coords  # noqa: E402


def _overlaps(sup, lo, hi) -> bool:
    return sup is not None and sup[0] < hi and sup[1] > lo


def reference_F(f, fam, w):
    sup = f.support()
    pairs = []
    for i in w.trans_labels:
        for n in range(w.trans_range[0], w.trans_range[1] + 1):
            elem = L_elem(fam, i, n)
            if _overlaps(sup, *elem.support()):
                pairs.append((TransIndex(i, n), inner_product(f, elem)))
    return FCoordVec(pairs)


def reference_G(f, fam, w):
    sup = f.support()
    pairs = []
    for s, j in w.dil_labels:
        for m in range(w.dil_range[0], w.dil_range[1] + 1):
            elem = K_elem(fam, s, j, m)
            if _overlaps(sup, *elem.support()):
                pairs.append((DilIndex(s, j, m), inner_product(f, elem)))
    return GCoordVec(pairs)


def _bits(vec):
    # keys in order, values by repr, so the sign of a zero counts too
    return [(key, repr(val)) for key, val in vec.items()]


coefficients = st.lists(st.complex_numbers(max_magnitude=8.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=4)


@st.composite
def piecewise_specs(draw):
    # 0-3 pieces with breakpoints on the 1/16 grid of [-5, 5], some outside every window cell
    cuts = sorted(draw(st.sets(st.integers(-80, 80), max_size=6)))
    cuts = cuts[:len(cuts) // 2 * 2]
    pieces = [(Fraction(lo, 16), Fraction(hi, 16), tuple(draw(coefficients)))
              for lo, hi in zip(cuts[0::2], cuts[1::2])]
    return FunctionSpec.piecewise(pieces)


functions = st.one_of(
    piecewise_specs(),
    st.sampled_from([0.125, 0.25, 0.5]).map(FunctionSpec.gaussian),
)
windows = st.one_of(
    st.tuples(st.just(HAAR), st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    st.tuples(st.just(EXPONENTIAL), st.integers(0, 2), st.integers(0, 3), st.integers(0, 3)),
)


@settings(max_examples=40)
@given(f=functions, window=windows)
def test_grids_match_the_overlap_pretest(f, window):
    fam, labels, n_radius, m_radius = window
    w = Window.symmetric(fam, labels, n_radius, m_radius)
    assert _bits(oracle_F_coords(f, fam, w)) == _bits(reference_F(f, fam, w))
    assert _bits(oracle_G_coords(f, fam, w)) == _bits(reference_G(f, fam, w))
