"""Basis elements and piecewise specs as integer atoms: one description for
supports, point values and the oracle."""

import math
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from swl import EXPONENTIAL, HAAR, FunctionSpec, K_elem, L_elem, Window  # noqa: E402
from swl.bases import int_atoms, window_atoms  # noqa: E402
from swl.core import MINUS, PLUS, key_columns  # noqa: E402
from swl.quadrature import inner_product, oracle_F_coords, oracle_G_coords  # noqa: E402

signs = st.sampled_from([PLUS, MINUS])
shifts = st.integers(-1024, 1024)
scales = st.integers(-10, 48)
exp_labels = st.integers(-64, 64)
haar_labels = st.integers(0, 64)
# past 2^53 an integer endpoint is not a double, so the half-open bounds must round up exactly
wide_haar_labels = st.one_of(haar_labels, st.integers(0, 2 ** 62))
wide_shifts = st.one_of(shifts, st.integers(-2 ** 40, 2 ** 40))
elements = st.one_of(
    st.builds(lambda i, n: L_elem(HAAR, i, n), wide_haar_labels, wide_shifts),
    st.builds(lambda i, n: L_elem(EXPONENTIAL, i, n), exp_labels, shifts),
    st.builds(lambda s, j, m: K_elem(HAAR, s, j, m), signs, haar_labels, scales),
    st.builds(lambda s, j, m: K_elem(EXPONENTIAL, s, j, m), signs, exp_labels, scales),
)
positions = st.lists(st.floats(0, 1, exclude_max=True), min_size=1, max_size=8)


def _inside(lo: Fraction, hi: Fraction, us) -> list[float]:
    return [float(lo + (hi - lo) * Fraction(u)) for u in us]


def _near(points) -> np.ndarray:
    """The double nearest each point and its two neighbours."""
    xs = [float(p) for p in points]
    return np.array(sorted({y for x in xs for y in (math.nextafter(x, -math.inf), x,
                                                    math.nextafter(x, math.inf))}))


def _dyadic(num: int, exp: int) -> Fraction:
    return num * Fraction(2) ** -exp


# the wavelet's midpoint n + (2q+1) 2^-40 lies halfway between two doubles and rounds down
@example(elem=L_elem(HAAR, 2 ** 39 + 2, 2 ** 13), us=[0.5])
@given(elem=elements, us=positions)
def test_array_values_are_point_values_and_vanish_off_support(elem, us):
    lo, hi = elem.support()
    width = hi - lo
    atoms = [(_dyadic(a, e), _dyadic(b, e), coeffs, fnum)
             for a, b, e, coeffs, fnum, _ in int_atoms(elem.fam, elem.index)]
    xs = _near([lo + width * Fraction(u) for u in us] + [lo - width, hi + width]
               + [p for a, b, _, _ in atoms for p in (a, b)])
    vals = elem.evaluate(xs)
    for x, val in zip(xs, vals):
        point = elem.evaluate(x)
        assert isinstance(point, complex)
        assert point == val
        # the atom holding x, judged exactly: float(lo) is not lo past 2^53
        held = [(coeffs, fnum) for a, b, coeffs, fnum in atoms if a <= Fraction(x) < b]
        if not held:
            assert val == 0
        elif held[0][1]:
            assert val != 0
        else:
            assert val == held[0][0][0]  # Haar atoms are constants


# breakpoints on a 2^-70 grid up to 10^6 from the origin: most are not doubles,
# and several may round to the same double
grid_cuts = st.builds(
    lambda base, offsets: sorted({base + d for d in offsets}),
    st.integers(-10 ** 6 << 70, 10 ** 6 << 70),
    st.sampled_from([2 ** 4, 2 ** 37, 2 ** 64]).flatmap(
        lambda spread: st.lists(st.integers(0, spread), min_size=2, max_size=8)),
)


@given(cuts=grid_cuts, keep=st.lists(st.booleans(), min_size=7, max_size=7))
def test_piecewise_values_follow_exact_breakpoints(cuts, keep):
    grid = Fraction(1, 1 << 70)
    pieces = [(a * grid, b * grid, (float(k + 1),))
              for k, (a, b) in enumerate(zip(cuts, cuts[1:])) if keep[k] or k == 0]
    spec = FunctionSpec.piecewise(pieces)
    xs = _near([c * grid for c in cuts])
    vals = spec.evaluate(xs)
    for x, val in zip(xs, vals):
        want = next((c[0] for lo, hi, c in pieces if lo <= Fraction(x) < hi), 0.0)
        assert val == want
        assert spec.evaluate(x) == val


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


@pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("model", ["F", "G"])
def test_haar_gaussian_coordinates_against_mpmath(sigma, model):
    # Haar boxes and wavelets: each dyadic half [a, b) adds its amplitude times
    # sigma sqrt(pi/2) (erf(b / (sigma sqrt 2)) - erf(a / (sigma sqrt 2))), to 30 digits
    mpmath = pytest.importorskip("mpmath")
    w = Window.symmetric(HAAR, 7, 3, 6)
    grid = oracle_F_coords if model == "F" else oracle_G_coords
    got = grid(FunctionSpec.gaussian(sigma), HAAR, w)
    if model == "F":
        keys = [(i, n) for i in w.trans_labels for n in range(-3, 4)]
    else:
        keys = [(s, j, m) for s, j in w.dil_labels for m in range(-3, 7)]
    with mpmath.workdps(30):
        scale = mpmath.mpf(sigma) * mpmath.sqrt(2)
        for key in keys:
            want = 0
            for lo, hi, exp, coeffs, _, _ in int_atoms(HAAR, key):
                a, b = (mpmath.mpf(end) / 2 ** exp for end in (lo, hi))
                want += coeffs[0].real * (mpmath.erf(b / scale) - mpmath.erf(a / scale))
            want *= mpmath.mpf(sigma) * mpmath.sqrt(mpmath.pi / 2)
            assert abs(got.get(key) - complex(want)) <= 1e-10, key


# -- a window's atoms as columns -------------------------------------------------

# past 2^62 the columns hold Python ints; scales past 1023 overflow the
# amplitude 2^(m/2) and those below -1074 underflow it to 0.0
huge = st.integers(-2 ** 70, 2 ** 70)
column_haar_labels = st.one_of(haar_labels, st.integers(0, 2 ** 62), st.integers(0, 2 ** 70))
column_exp_labels = st.one_of(exp_labels, st.integers(-2 ** 62, 2 ** 62), huge)
column_shifts = st.one_of(shifts, st.integers(-2 ** 40, 2 ** 40), huge)
column_scales = st.one_of(scales, st.integers(-1100, 1100), huge)


@st.composite
def window_keys(draw):
    fam = draw(st.sampled_from([HAAR, EXPONENTIAL]))
    labels = column_haar_labels if fam is HAAR else column_exp_labels
    if draw(st.booleans()):
        key, width = st.tuples(labels, column_shifts), 2
    else:
        key, width = st.tuples(signs, labels, column_scales), 3
    return fam, width, draw(st.lists(key, max_size=6))


@example(window=(HAAR, 2, [(2 ** 62, 2 ** 40), (0, -2 ** 40), (2 ** 62 - 1, -2 ** 40)]),
         as_object=False)
@example(window=(HAAR, 3, [(PLUS, 5, -1100), (MINUS, 0, 3)]), as_object=True)
@example(window=(EXPONENTIAL, 3, [(MINUS, -7, -1100), (PLUS, 3, 1100)]), as_object=False)
@example(window=(EXPONENTIAL, 2, [(-3, 2 ** 63), (4, -1)]), as_object=False)
@given(window=window_keys(), as_object=st.booleans())
def test_window_atoms_are_the_int_atoms_of_the_keys_in_order(window, as_object):
    fam, width, keys = window
    cols = key_columns(keys, width)
    if as_object:
        cols = tuple(c.astype(object) for c in cols)
    try:
        want = [(k, *at) for k, key in enumerate(keys) for at in int_atoms(fam, key)]
    except OverflowError as exc:
        with pytest.raises(OverflowError) as raised:
            window_atoms(fam, cols)
        assert raised.value.args == exc.args
        return
    owner, lo, hi, exp, amplitude, fnum, fexp = window_atoms(fam, cols)
    assert owner.tolist() == [w[0] for w in want]
    ints = (lo, hi, exp, fnum, fexp)
    for col, k in zip(ints, (1, 2, 3, 5, 6)):
        assert col.tolist() == [w[k] for w in want]
    # the amplitude is the atom's one coefficient, bit for bit
    assert all(w[4] == (w[4][0].real + 0j,) and w[4][0].imag.hex() == "0x0.0p+0" for w in want)
    assert [a.hex() for a in amplitude.tolist()] == [w[4][0].real.hex() for w in want]
    wide = any(abs(v) >= 2 ** 62 for w in want for v in (w[1], w[2], w[3], w[5], w[6]))
    assert {c.dtype for c in ints} == {np.dtype(object if wide else np.int64)}
    assert owner.dtype == np.int64 and amplitude.dtype == np.float64
