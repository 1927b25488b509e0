"""The Haar alpha table: entries come from the row enumeration, and the
independently coded column table must be its exact transpose.

The oracle stays the outside check on the values themselves.
"""

import math
import tracemalloc

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swl import (  # noqa: E402
    EXPONENTIAL,
    HAAR,
    AlphaMatrix,
    FCoordVec,
    GCoordVec,
    K_elem,
    L_elem,
    Window,
    g_from_f,
    transfer,
)
from swl.alpha import _haar_column, _haar_row, scale_reach  # noqa: E402
from swl.core import MINUS, PLUS, key_columns  # noqa: E402
from swl.quadrature import inner_product  # noqa: E402

A = AlphaMatrix(HAAR)

# plain labels plus the ladder rows (2^r, 0) and (2^{r+1} - 1, -1)
labels = st.one_of(
    st.integers(0, 4096),
    st.integers(0, 12).map(lambda r: 1 << r),
    st.integers(0, 12).map(lambda r: (1 << (r + 1)) - 1),
)
shifts = st.one_of(st.integers(-1024, 1024), st.sampled_from([0, -1, 1, -2]))
signs = st.sampled_from([PLUS, MINUS])


def _top(m_hi: int) -> Window:
    # Haar rows read only the top scale of the window; columns read nothing
    return Window.symmetric(HAAR, 1).with_dil_range(m_hi - 1, m_hi)


@given(i=labels, n=shifts, m_hi=st.integers(-8, 40))
def test_row_entries_appear_in_columns_and_entry(i, n, m_hi):
    w = _top(m_hi)
    entries, _ = A.row(i, n, w)
    for (s, j, m), val in entries:
        column = dict(A.column(s, j, m, w)[0])
        assert column[(i, n)] == val
        assert A.entry(i, n, s, j, m) == val


@given(s=signs, j=st.one_of(st.just(0), labels), m=st.integers(-10, 40))
def test_column_entries_are_row_entries(s, j, m):
    w = _top(m)
    entries, tail = A.column(s, j, m, w)
    assert tail == 0.0
    assert abs(math.fsum(abs(val) ** 2 for _, val in entries) - 1.0) <= 1e-12
    for (i, n), val in entries:
        assert dict(A.row(i, n, w)[0])[(s, j, m)] == val


@given(i=labels, n=shifts, m_hi=st.integers(-8, 40))
def test_row_entries_match_oracle(i, n, m_hi):
    for key, val in A.row(i, n, _top(m_hi))[0]:
        oracle = inner_product(L_elem(HAAR, i, n), K_elem(HAAR, *key))
        assert abs(val - oracle) <= 1e-12


def test_ladder_entry_far_past_underflow_is_zero():
    # 2^{-m/2} underflows long before m = 10^9; the entry must not build that row
    assert A.entry(0, 0, PLUS, 0, 10**9) == 0j
    assert A.entry(1, 0, PLUS, 0, 10**9) == 0j
    assert A.entry(0, -1, MINUS, 0, 1074) != 0j
    assert A.entry(0, -1, MINUS, 0, 1075) == 0j


def test_column_past_the_longest_list_raises_at_once():
    # box and fine wavelet columns list 2^u shifts (u = -m, or -(p + m) for
    # j = 2^p + q); from u = 63 no list holds them, so nothing is enumerated
    w = Window.symmetric(HAAR, 2)
    for s, j, m in [(PLUS, 0, -3000), (MINUS, 0, -63), (PLUS, 5, -3000), (MINUS, 5, -65)]:
        with pytest.raises(ArithmeticError, match="past the longest list"):
            A.column(s, j, m, w)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_ladder_rows_stop_where_their_entries_underflow():
    # a ladder row from scale r + 1 lists entries 2^{(r-m)/2} up to r + 1074;
    # past it they are 0.0, and listing them to the window top only added
    # about 4 m_hi zero terms to this transfer
    assert math.sqrt(2.0 ** -1074) > 0.0 and math.sqrt(2.0 ** -1075) == 0.0
    v = FCoordVec({(0, 0): 0.3 + 0.1j, (1, 0): -0.7j, (3, -1): 1.1, (2, 0): 0.25 - 0.5j})

    def window(m_hi):
        return Window.symmetric(HAAR, 4, 4, 4).with_dil_range(-4, m_hi)

    w = window(2000)
    ref, tail, lasts = {}, 0.0, []
    for (i, n), val in v.items():
        entries, clipped = A.row(i, n, w)
        (s, _, last), _ = entries[-1]
        lasts.append(last)
        # the row as listed to the window top, zeros included
        entries += [((s, 0, m), 0j) for m in range(last + 1, 2001)]
        for key, a in entries:
            ref[key] = ref.get(key, 0j) + a * val
        tail += abs(val) * math.sqrt(clipped)
    assert lasts == [1074, 1074, 1075, 1075]  # r = 0, 0, 1, 1
    got, got_tail = transfer(v, A, w)
    want = GCoordVec(ref)
    assert [(k, x.real.hex(), x.imag.hex()) for k, x in got.items()] == \
        [(k, x.real.hex(), x.imag.hex()) for k, x in want.items()]
    assert got_tail == tail

    small = _traced_peak(g_from_f, v, A, window(2_000))
    assert _traced_peak(g_from_f, v, A, window(20_000)) <= 1.5 * small


def test_coarse_box_rows_match_oracle():
    # rows (0, n), n >= 2 or n <= -3, are coarse boxes whose signs are bits of n
    w = _top(0)
    for n in [*range(2, 64), *range(-65, -2)]:
        entries, clipped = A.row(0, n, w)
        assert clipped == 0.0
        assert abs(sum(abs(val) ** 2 for _, val in entries) - 1.0) <= 1e-12
        for key, val in entries:
            oracle = inner_product(L_elem(HAAR, 0, n), K_elem(HAAR, *key))
            assert abs(val - oracle) <= 1e-12


# -- the scale rule ----------------------------------------------------------------
#
# level(i, n) = bit_length(i) and level(s, j, m) = m + bit_length(j): where
# alpha_{i,n}^{s,j,m} != 0 and i >= 1, level(i, n) <= level(s, j, m), with
# equality when the row or the column has a single entry


def _level(j: int, m: int) -> int:
    return m + j.bit_length()


wide_labels = st.one_of(
    st.integers(1, (1 << 62) - 1),
    st.integers(0, 61).map(lambda r: 1 << r),
    st.integers(1, 61).map(lambda r: (1 << r) - 1),
)
wide_shifts = st.one_of(
    st.sampled_from([0, -1, 1, -2, 2]),
    st.integers(-64, 64),
    st.integers(-(1 << 40), 1 << 40),
)


@given(i=wide_labels, n=wide_shifts, m_hi=st.integers(-8, 80))
def test_row_entries_keep_the_scale_rule(i, n, m_hi):
    entries, _ = _haar_row(i, n, m_hi)
    for (s, j, m), _ in entries:
        assert i.bit_length() <= _level(j, m)
        if len(entries) == 1:
            assert i.bit_length() == _level(j, m)


@given(s=signs, j=st.one_of(st.just(0), wide_labels), level=st.integers(-9, 80))
def test_column_entries_keep_the_scale_rule(s, j, level):
    # a column of level below 0 has 2^{-level} entries (2^{1-level} for j >= 1)
    m = level - j.bit_length()
    entries = _haar_column(s, j, m)
    for (i, n), _ in entries:
        if i >= 1:
            assert i.bit_length() <= _level(j, m)
            if len(entries) == 1:
                assert i.bit_length() == _level(j, m)


@given(keys=st.lists(st.tuples(st.integers(0, (1 << 62) - 1), st.integers(-(1 << 40), 1 << 40)),
                     min_size=1, max_size=8),
       dil=st.lists(st.tuples(signs, st.integers(0, (1 << 62) - 1), st.integers(-80, 80)),
                    min_size=1, max_size=8),
       top=st.integers(-10, 80))
def test_scale_reach_is_the_rule(keys, dil, top):
    # rows: label 0 or level <= top; columns: label 0, or level <= max(top, 0)
    A = AlphaMatrix(HAAR)
    want = [i == 0 or i.bit_length() <= top for i, _ in keys]
    assert scale_reach(A, key_columns(keys, 2), top).tolist() == want
    want = [j == 0 or _level(j, m) <= max(top, 0) for _, j, m in dil]
    assert scale_reach(A, key_columns(dil, 3), top).tolist() == want
    # the rule does not depend on dtype: a label past int64 makes object columns
    wide = key_columns([*dil, (MINUS, (1 << 70) + 3, -60)], 3)
    assert wide[1].dtype == object
    want.append(_level((1 << 70) + 3, -60) <= max(top, 0))
    assert scale_reach(A, wide, top).tolist() == want
    # and the exponential family keeps every key
    assert scale_reach(AlphaMatrix(EXPONENTIAL), key_columns(keys, 2), top).all()
