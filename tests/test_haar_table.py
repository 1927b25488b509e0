"""The Haar alpha table: entries come from the row enumeration, and the
independently coded column table must be its exact transpose.

The oracle stays the outside check on the values themselves.
"""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swl import HAAR, AlphaMatrix, K_elem, L_elem, Window  # noqa: E402
from swl.core import MINUS, PLUS  # noqa: E402
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
