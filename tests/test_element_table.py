"""The oracle's element tables: a window's key columns and element atoms,
built once per (family, window, model) and kept in a small LRU table.

A grid read through a kept table is the grid built from scratch, bit for
bit; the kept arrays are read-only; and an invalid window is never kept, so
it raises on every call.
"""

from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FunctionSpec, Window, cli, quadrature  # noqa: E402
from swl.bases import InvalidLabelError  # noqa: E402
from swl.quadrature import oracle_F_coords, oracle_G_coords  # noqa: E402

GRIDS = {"F": oracle_F_coords, "G": oracle_G_coords}


def _bits(vec):
    # key columns by dtype and value, values by their bytes (signed zeros count)
    return [(c.dtype.str, c.tolist()) for c in vec._cols], vec._vals.tobytes()


@st.composite
def piecewise_specs(draw):
    # 1-3 pieces of degree 0-3 on the 1/16 grid of [-3, 3]
    cuts = sorted(draw(st.sets(st.integers(-48, 48), min_size=2, max_size=6)))
    cuts = cuts[:len(cuts) // 2 * 2]
    part = st.integers(-8, 8).map(lambda v: v / 8)
    pieces = [(Fraction(lo, 16), Fraction(hi, 16),
               tuple(complex(draw(part), draw(part)) for _ in range(draw(st.integers(1, 4)))))
              for lo, hi in zip(cuts[0::2], cuts[1::2])]
    return FunctionSpec.piecewise(pieces)


functions = st.one_of(piecewise_specs(),
                      st.sampled_from([0.25, 0.5, 1.0]).map(FunctionSpec.gaussian))


@st.composite
def windows(draw):
    fam = draw(st.sampled_from([HAAR, EXPONENTIAL]))
    if fam is HAAR:
        trans = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
        dil = draw(st.lists(st.integers(0, 9), min_size=1, max_size=3))
        # scales 56-70 put the dilation endpoints past 2^62: object columns
        m_lo = draw(st.one_of(st.integers(-4, 3), st.integers(56, 70)))
    else:
        trans = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3))
        dil = draw(st.lists(st.integers(-8, 8), min_size=1, max_size=3))
        m_lo = draw(st.integers(-4, 3))
    n_lo = draw(st.integers(-4, 1))
    w = Window(tuple(trans), (n_lo, n_lo + 3), tuple((s, j) for s in (1, -1) for j in dil),
               (m_lo, m_lo + 3))
    return fam, w


@settings(max_examples=40, deadline=None)
@given(window=windows(), model=st.sampled_from(["F", "G"]),
       fs=st.lists(functions, min_size=2, max_size=3))
def test_a_warm_table_gives_the_cold_grids(window, model, fs):
    fam, w = window
    grid = GRIDS[model]
    cold = []
    for f in fs:
        quadrature._element_table.cache_clear()
        cold.append(_bits(grid(f, fam, w)))
    # the first call fills the table, and the rest read it
    quadrature._element_table.cache_clear()
    warm = [_bits(grid(f, fam, w)) for f in fs]
    info = quadrature._element_table.cache_info()
    assert (info.misses, info.hits) == (1, len(fs) - 1)
    assert warm == cold


def test_the_kept_arrays_are_read_only():
    quadrature._element_table.cache_clear()
    for fam, m_lo in ((HAAR, -2), (HAAR, 60), (EXPONENTIAL, -2)):
        w = Window.symmetric(fam, 2, 2, 2).with_dil_range(m_lo, m_lo + 3)
        for model in GRIDS:
            GRIDS[model](FunctionSpec.haar_wavelet(), fam, w)
            cols, *window = quadrature._element_table(fam, w, model)
            for a in (*cols, *window):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = a[0]


def test_an_invalid_window_is_not_kept():
    # a scale past 1023 overflows the amplitude inside window_atoms, and a
    # Haar label below 0 fails its check: each raises on every call
    quadrature._element_table.cache_clear()
    wavelet = FunctionSpec.haar_wavelet()
    deep = Window.symmetric(HAAR, 2).with_dil_range(-2, 1100)
    negative = Window((-1, 0), (-2, 2), ((1, 0),), (0, 2))
    for _ in range(2):
        with pytest.raises(OverflowError):
            oracle_G_coords(wavelet, HAAR, deep)
        with pytest.raises(InvalidLabelError):
            oracle_F_coords(wavelet, HAAR, negative)
    assert quadrature._element_table.cache_info().currsize == 0
    argv = ["coords", "--basis", "haar", "--function", "haar_wavelet", "--model", "G",
            "--window", "2", "--mmax", "1100"]
    assert [cli.run(argv), cli.run(argv)] == [2, 2]
    assert quadrature._element_table.cache_info().currsize == 0
    # the valid part of a window is kept as usual
    assert oracle_F_coords(wavelet, HAAR, deep)
    assert quadrature._element_table.cache_info().currsize == 1
    assert np.isfinite(oracle_F_coords(wavelet, HAAR, deep)._vals).all()
