"""``core.array_fsum`` against ``math.fsum``: the same float, bit for bit,
or the same exception."""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from swl.core import _FSUM_SHORT, array_fsum  # noqa: E402


def _outcome(fn):
    try:
        return repr(fn())
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


def _assert_matches_fsum(x):
    assert _outcome(lambda: array_fsum(x)) == _outcome(lambda: math.fsum(x.tolist()))


# doubles from every binade 2^-1074 .. 2^1000: an integer mantissa of up to
# 53 bits times a power of two, so subnormals come out exact
scaled = st.builds(
    lambda m, e: math.ldexp(m, e),
    st.integers(-(1 << 53) + 1, (1 << 53) - 1),
    st.integers(-1074, 1000 - 53),
)
edges = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         -2.225073858507201e-308, 1.0, -1.0, 2.0 ** 1000 * (2 - 2 ** -52)])
finite = st.one_of(scaled, edges, st.floats(-(2.0 ** 1000), 2.0 ** 1000))


@given(pool=st.lists(finite, min_size=1, max_size=30), size=st.integers(0, 5000),
       paired=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2 ** 32 - 1))
@example(pool=[1.0, 5e-324, -3.5, 2.0 ** 999], size=5000, paired=0.5, seed=1)
def test_matches_fsum_on_finite_arrays(pool, size, paired, seed):
    # values drawn from the pool; a share of the first half reappears
    # negated, so those pairs cancel exactly wherever they land
    rng = np.random.default_rng(seed)
    half = rng.choice(np.array(pool), size // 2)
    negated = -half[rng.random(len(half)) < paired]
    rest = rng.choice(np.array(pool), size - len(half) - len(negated))
    x = np.concatenate([half, negated, rest])
    rng.shuffle(x)
    _assert_matches_fsum(x)


@pytest.mark.parametrize("values", [
    [],
    [-0.0],
    [0.0, -0.0, -0.0],
    [5e-324, -5e-324],
    [math.inf, -math.inf],
    [math.nan],
    [1e308, 1e308, -1e308],
    [math.inf, 1.0],
    [-math.inf, 1e308, 1e308],
    [1e308, -1e308, 1e-300],
    [2.0 ** 1000] * 4096,
    # either side of the length below which math.fsum itself runs
    [0.1] * (_FSUM_SHORT - 1),
    [0.1] * _FSUM_SHORT,
    [1.0, -1.0, 2.0 ** -1074] * (_FSUM_SHORT // 3),
    [1.0, -1.0, 2.0 ** -1074] * (_FSUM_SHORT // 3 + 1),
    [-0.0] * (_FSUM_SHORT - 1),
    [-0.0] * (_FSUM_SHORT + 1),
    [0.0, -0.0] * _FSUM_SHORT,
    [math.nan] + [1.0] * _FSUM_SHORT,
])
def test_matches_fsum_on_special_arrays(values):
    _assert_matches_fsum(np.array(values, dtype=np.float64))
