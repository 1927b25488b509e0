"""Key grouping against dict and numpy references: ``sum_by_key`` on both
of its sorts, ``sorted_unique``, and the filter convolution's shifted keys."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from swl.core import (DROP_THRESHOLD, FCoordVec, _packed, key_columns,  # noqa: E402
                      sorted_unique, sum_by_key)
from swl.filters import LaurentPoly, filter_action_on_coords  # noqa: E402

_I64 = (-2**63, 2**63 - 1)


def _dict_sums(keys, values) -> dict:
    # each key once in order of its first term, its terms added from 0j in term order
    acc = {}
    for key, v in zip(keys, values):
        acc[key] = acc.get(key, 0j) + v
    return acc


def _bits(values) -> bytes:
    return np.array(list(values), dtype=complex).tobytes()


# components near 0, at the ends of int64 and past it, and spans of 2^31
# whose products with each other fall just below and at 2^62
components = st.one_of(st.integers(-3, 3), st.sampled_from([*_I64, 2**31 - 1, 2**31 - 2, -1]),
                       st.integers(-2**64, 2**64))
values = st.one_of(st.sampled_from([0j, complex(-0.0, -0.0), complex(-0.0, 1.5), complex(2.0, -0.0)]),
                   st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))


@st.composite
def keyed_terms(draw):
    width = draw(st.sampled_from([2, 3]))
    distinct = draw(st.lists(st.tuples(*[components] * width), min_size=1, max_size=6))
    keys = draw(st.lists(st.sampled_from(distinct), max_size=30))
    return width, keys, draw(st.lists(values, min_size=len(keys), max_size=len(keys)))


@given(case=keyed_terms())
# packed: spans 2^31 and 2^31 - 1 multiply to less than 2^62
@example(case=(2, [(0, 0), (2**31 - 1, 2**31 - 2), (0, 0)], [1j, complex(-0.0, -0.0), -1j]))
# lexsort: spans of 2^31 each multiply to 2^62
@example(case=(2, [(0, 2**31 - 1), (2**31 - 1, 0), (0, 2**31 - 1)], [1.0, 2.0, complex(-0.0, 0.0)]))
# lexsort: a component past int64 makes every column Python ints
@example(case=(3, [(1, 2**70, -5), (-1, 0, 2**63), (1, 2**70, -5)], [0.5, -0.25j, 0.5]))
def test_sum_by_key_is_the_dict_sum(case):
    width, keys, vals = case
    (got_cols, sums) = sum_by_key(key_columns(keys, width), np.array(vals, dtype=complex))
    want = _dict_sums(keys, vals)
    assert list(zip(*(c.tolist() for c in got_cols))) == list(want)
    assert sums.tobytes() == _bits(want.values())


def test_packed_codes_take_int64_spans_below_2_62():
    # the code orders the keys as the columns do, first column first
    cols = (np.array([0, 2**31 - 1, 0, 5]), np.array([2**31 - 2, 0, 0, 7]))
    code = _packed(cols)
    assert code is not None
    assert code.argsort(kind="stable").tolist() == np.lexsort(cols[::-1]).tolist()
    # spans multiplying to 2^62, and Python ints, go to lexsort
    assert _packed((cols[0], np.array([2**31 - 1, 0, 0, 7]))) is None
    assert _packed((np.array(_I64), np.array([0, 0]))) is None
    assert _packed(tuple(c.astype(object) for c in cols)) is None


@pytest.mark.parametrize("x", [
    np.array([5, -3, 5, 0, -3, 2**62, -2**63, 2**63 - 1]),
    np.array([2**70, -1, 2**70, 3, -2**80], dtype=object),
    np.array([], dtype=np.int64),
    np.array([], dtype=object),
    np.random.default_rng(5).integers(-40, 40, 5000),
])
def test_sorted_unique_is_numpy_unique(x):
    labels, inverse = sorted_unique(x, return_inverse=True)
    want, want_inverse = np.unique(x, return_inverse=True)
    assert labels.dtype == want.dtype and labels.tolist() == want.tolist()
    assert inverse.dtype == np.intp
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert sorted_unique(x).tolist() == want.tolist()


@given(x=st.one_of(
    st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(_I64)), max_size=40)
    .map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.one_of(st.integers(-3, 3), st.integers(-2**80, 2**80)), max_size=40)
    .map(lambda v: np.array(v, dtype=object)),
))
# repeats only, and the empty arrays of both dtypes
@example(x=np.array([7, 7, 7], dtype=np.int64))
@example(x=np.array([], dtype=np.int64))
@example(x=np.array([], dtype=object))
def test_sorted_unique_inverse_is_numpy_unique(x):
    # the inverse scattered from a stable argsort is numpy's, and it maps
    # every entry back to its own value
    labels, inverse = sorted_unique(x, return_inverse=True)
    want, want_inverse = np.unique(x, return_inverse=True)
    assert labels.tolist() == want.tolist()
    assert inverse.tolist() == want_inverse.reshape(-1).tolist()
    assert labels[inverse].tolist() == x.tolist()


def _dict_convolution(coords: FCoordVec, h: LaurentPoly) -> dict:
    # the terms h_k * c[(i, n)] go to (i, n + k) in the order (i, n) then k
    keys, terms = [], []
    for (i, n), c in coords.items():
        for k, hk in h.coeffs:
            keys.append((i, n + k))
            terms.append(hk * c)
    return {key: v for key, v in _dict_sums(keys, terms).items() if abs(v) > DROP_THRESHOLD}


@pytest.mark.parametrize("entries", [
    # small shifts and labels, so every key shares terms with its neighbours
    {(i, n): complex(i - n, 0.5 * n) for i in range(3) for n in range(-3, 4)},
    # shifts at the ends of int64: n + k leaves it, and the keys are Python ints
    {(0, 2**63 - 2): 1.0, (1, 2**63 - 3): 0.5j, (0, -2**63 + 1): -2.0, (2, -2**63): 0.25},
    # labels past int64
    {(2**70, 0): 1.0, (2**70, 1): -1j, (3, 0): 0.5, (2**70 + 1, 0): 2.0},
])
@pytest.mark.parametrize("taps", [
    {0: 0.5 + 0.25j, 1: -0.3j, 3: 1.1, -2: complex(-0.0, 0.7)},
    # a tap past int64, whose shifted keys still fit it for shifts near -2^63
    {0: 1.0, 2**63 + 1: 0.5j},
])
def test_filter_convolution_is_the_dict_convolution(entries, taps):
    coords, h = FCoordVec(entries), LaurentPoly.from_map(taps)
    got, want = filter_action_on_coords(coords, h), _dict_convolution(coords, h)
    assert list(got.keys()) == list(want)
    assert _bits(got._vals) == _bits(want.values())
