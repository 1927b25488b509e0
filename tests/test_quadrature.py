"""The integration oracle itself: closed-form route, GL route, coefficient grids."""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from swl import EXPONENTIAL, HAAR, DilIndex, K_elem, L_elem, TransIndex, Window
from swl.bases import FunctionSpec, parse_function_spec
from swl.quadrature import (
    _gl16,
    _series,
    _series_terms,
    inner_product,
    oracle_F_coords,
    oracle_G_coords,
)

PHI = FunctionSpec.haar_scaling()
PSI = FunctionSpec.haar_wavelet()


def test_haar_unit_norm_and_mean_zero():
    assert inner_product(PHI, PHI) == 1.0
    assert inner_product(PSI, PHI) == 0j
    assert inner_product(PSI, PSI) == 1.0


def test_exponential_cross_family_value():
    # sqrt(2) * integral_{1/2}^{1} e^{2 pi i x} dx = -i sqrt(2) / pi
    got = inner_product(L_elem(EXPONENTIAL, 1, 0), K_elem(EXPONENTIAL, 1, 0, 1))
    assert got == pytest.approx(-1j * math.sqrt(2) / math.pi, abs=1e-14)
    assert abs(got.imag) == pytest.approx(0.4501581580785531, abs=1e-14)


def test_hermitian_symmetry():
    rng = random.Random(3)
    for _ in range(10):
        f = FunctionSpec.piecewise([(0, 1, (rng.uniform(-1, 1), rng.uniform(-1, 1)))])
        g = FunctionSpec.piecewise([(rng.choice([0, "1/2"]), 2, (rng.uniform(-1, 1),))])
        a = inner_product(f, g)
        b = inner_product(g, f)
        assert a == pytest.approx(b.conjugate(), abs=1e-12)


def test_linearity():
    rng = random.Random(5)
    for _ in range(8):
        c0, c1 = rng.uniform(-1, 1), rng.uniform(-1, 1)
        d0 = rng.uniform(-1, 1)
        f = FunctionSpec.piecewise([(0, 1, (c0, c1))])
        g = FunctionSpec.piecewise([("1/2", "3/2", (d0,))])
        h = FunctionSpec.piecewise([(0, 2, (1.0, 0.0, rng.uniform(-1, 1)))])
        a, b = complex(rng.uniform(-1, 1), rng.uniform(-1, 1)), rng.uniform(-2, 2)
        lhs = a * inner_product(f, h) + b * inner_product(g, h)
        # a*f + b*g assembled piecewise for the left slot
        pieces = [(0, "1/2", (a * c0, a * c1)),
                  ("1/2", 1, (a * c0 + b * d0, a * c1)),
                  (1, "3/2", (b * d0,))]
        rhs = inner_product(FunctionSpec.piecewise(pieces), h)
        assert rhs == pytest.approx(lhs, abs=1e-10)


def test_gaussian_closed_forms():
    g1 = FunctionSpec.gaussian(1.0)
    # integral e^{-x^2} = sqrt(pi)
    assert inner_product(g1, g1).real == pytest.approx(math.sqrt(math.pi), abs=1e-10)
    # against the unit box: sqrt(pi/2) erf(1/sqrt 2)
    want = math.sqrt(math.pi / 2) * math.erf(1 / math.sqrt(2))
    assert inner_product(g1, FunctionSpec.indicator(0, 1)).real == pytest.approx(want, abs=1e-10)


def test_exponential_against_polynomial_is_machine_precision():
    # integral_0^1 x e^{-2 pi i x} dx = -1/(2 pi i) * ... known closed form i/(2 pi)
    f = parse_function_spec("piecewise[(0,1):x]")
    got = inner_product(f, L_elem(EXPONENTIAL, 1, 0))
    assert got == pytest.approx(1j / (2 * math.pi), abs=1e-14)


def test_oracle_F_examples():
    w = Window.symmetric(HAAR, 4, 4, 8)
    assert dict(oracle_F_coords(PSI, HAAR, w).items()) == {(1, 0): 1.0}
    assert len(oracle_F_coords(FunctionSpec.zero(), HAAR, w)) == 0
    w_exp = Window.symmetric(EXPONENTIAL, 4, 4, 4)
    coeffs = oracle_F_coords(FunctionSpec.indicator(0, 3), EXPONENTIAL, w_exp)
    assert dict(coeffs.items()) == {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}


def test_oracle_G_examples():
    w = Window.symmetric(HAAR, 4, 4, 8)
    got = oracle_G_coords(PSI, HAAR, w)
    assert got[(1, 0, 1)] == pytest.approx(-1 / math.sqrt(2), abs=1e-12)
    for m in range(2, 9):
        assert got[(1, 0, m)] == pytest.approx(2.0 ** (-m / 2), abs=1e-12)
    assert got[(1, 1, 0)] == 0j
    assert dict(oracle_G_coords(FunctionSpec.indicator(1, 2), HAAR, w).items()) == {(1, 0, 0): 1.0}
    assert len(oracle_G_coords(FunctionSpec.zero(), HAAR, w)) == 0


def test_parseval_growth_to_function_norm():
    # window covering the support captures the full mass for dyadic steps
    f = parse_function_spec("piecewise[(0,1/2):1; (1/2,2):-1/2]")
    want = inner_product(f, f, 1e-12).real
    assert want == pytest.approx(0.5**2 * 1.5 + 1 * 0.5, abs=1e-14)
    small = oracle_F_coords(f, HAAR, Window.symmetric(HAAR, 1, 2, 4)).norm_sq()
    big = oracle_F_coords(f, HAAR, Window.symmetric(HAAR, 16, 2, 4)).norm_sq()
    assert small < want + 1e-12
    assert big == pytest.approx(want, abs=1e-10)


def test_parseval_exponential_family():
    f = FunctionSpec.indicator(0, 1)
    caught = oracle_F_coords(f, EXPONENTIAL, Window.symmetric(EXPONENTIAL, 6, 2, 2)).norm_sq()
    assert caught == pytest.approx(1.0, abs=1e-12)  # single delta coefficient per cell


def test_g_side_tail_decay():
    # mass of the dilation coefficients of the box concentrates at coarse scales;
    # the residual beyond m_max is bounded by the mass of f near the origin
    f = PHI
    full = oracle_G_coords(f, HAAR, Window.symmetric(HAAR, 2, 2, 20)).norm_sq()
    shallow = oracle_G_coords(f, HAAR, Window.symmetric(HAAR, 2, 2, 5)).norm_sq()
    assert full == pytest.approx(1.0, abs=1e-6)
    assert 1.0 - shallow == pytest.approx(2.0 ** -5, abs=1e-12)


def test_g_window_tail_bound():
    from swl.quadrature import g_window_tail_bound

    # box on [0,1): mass inside (-2^-5, 2^-5) is 2^-5, matching the actual
    # coefficient mass beyond the cap (see test_g_side_tail_decay)
    assert g_window_tail_bound(PHI, 5) == pytest.approx(2.0 ** -5, abs=1e-14)
    assert g_window_tail_bound(FunctionSpec.indicator(1, 2), 4) == 0.0
    g = FunctionSpec.gaussian(1.0)
    # ~ 2 * 2^-6 for a function that is ~1 near the origin
    assert g_window_tail_bound(g, 6) == pytest.approx(2.0 ** -5, rel=1e-3)


def _one_interval(fn, a, b, tol, depth):
    # the GL16 bisection of fn over [a, b] as one interval of one owner
    return _gl16(lambda xs, _: fn(xs), np.array([a]), np.array([b]), np.array([tol]),
                 np.zeros(1, dtype=np.int64), 1, depth)[0]


def test_gl16_non_convergence_raises():
    # 8 panels of width 1/8 cannot resolve sin(10^6 x): their sum, -4.6e-4, is no answer
    with pytest.raises(ArithmeticError, match=r"did not converge on \[0\.0, 0\.125\].*depth"):
        _one_interval(lambda xs: np.sin(1e6 * xs) + 0j, 0.0, 1.0, 1e-10, 3)


def _three_call_adaptive(fn, a, b, tol, depth, splits=None, level=0):
    # GL16 on the whole panel and on each half, each from its own call of fn;
    # splits counts the panels each level bisects
    def gl16(lo, hi):
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return half * complex(np.dot(np.polynomial.legendre.leggauss(16)[1], fn(mid + half * _NODES)))

    whole, mid = gl16(a, b), 0.5 * (a + b)
    left, right = gl16(a, mid), gl16(mid, b)
    if abs(whole - (left + right)) <= tol or depth <= 0:
        return left + right
    if splits is not None:
        splits[level] += 1
    return (_three_call_adaptive(fn, a, mid, tol / 2, depth - 1, splits, level + 1)
            + _three_call_adaptive(fn, mid, b, tol / 2, depth - 1, splits, level + 1))


_NODES = np.polynomial.legendre.leggauss(16)[0]


def test_gl16_calls_the_integrand_once_per_step():
    # one call per bisection level over all intervals: 48 nodes for each
    # interval and its halves, then 32 for the halves of each child of a
    # panel that split (its own sum is the parent's half), with the sums of
    # three calls per panel
    sizes = []

    def fn(xs):
        sizes.append(len(xs))
        return np.exp(-xs * xs + 3j * xs) * np.cos(40.0 * xs)

    cases = [(-3.0, 2.5, 1e-12), (-0.5, 1.5, 1e-10), (-1e-3, 4.0, 1e-13)]
    # each interval alone, then all three in one call
    for intervals in [[case] for case in cases] + [cases]:
        sizes.clear()
        a, b, tol = (np.array(c) for c in zip(*intervals))
        got = _gl16(lambda xs, _: fn(xs), a, b, tol, np.arange(len(a)), len(a), 30)
        calls = list(sizes)
        splits = Counter()
        for k, (lo, hi, eps) in enumerate(intervals):
            # each owner's sum starts from 0j
            want = 0j + _three_call_adaptive(fn, lo, hi, eps, 30, splits)
            assert (got[k].real.hex(), got[k].imag.hex()) == (want.real.hex(), want.imag.hex())
        assert calls == [48 * len(intervals)] + [2 * 32 * splits[l] for l in range(len(splits))]
        assert len(calls) > 1


def test_exact_route_builds_each_element_atoms_once(monkeypatch):
    # a window's element atoms are built in one window_atoms call per
    # (family, window, model) and kept: both routes, a second function and
    # an equal but distinct window read the kept table, and no grid makes
    # an int_atoms call
    from swl import bases, quadrature

    built, windows = Counter(), []
    real_atoms, real_window_atoms = bases.int_atoms, bases.window_atoms

    def counting_atoms(fam, index):
        built[tuple(index)] += 1
        return real_atoms(fam, index)

    def counting_window_atoms(fam, key_columns):
        windows.append(len(key_columns[0]))
        return real_window_atoms(fam, key_columns)

    monkeypatch.setattr(bases, "int_atoms", counting_atoms)
    monkeypatch.setattr(bases, "window_atoms", counting_window_atoms)
    quadrature._ELEMENT_TABLES.clear()
    piecewise = parse_function_spec("piecewise[(-1,1/2):1+x; (5/8,3/4):-2]")
    other = parse_function_spec("piecewise[(-3/4,1/4):x^2]")
    for fam in (HAAR, EXPONENTIAL):
        w = Window.symmetric(fam, 3, 3, 4)
        equal = Window.symmetric(fam, 3, 3, 4)
        assert equal == w and equal is not w
        trans = Counter(TransIndex(i, n) for i in w.trans_labels
                        for n in range(w.trans_range[0], w.trans_range[1] + 1))
        dil = Counter(DilIndex(s, j, m) for s, j in w.dil_labels
                      for m in range(w.dil_range[0], w.dil_range[1] + 1))
        for grid, keys in ((oracle_F_coords, trans), (oracle_G_coords, dil)):
            # the exact route (piecewise f) builds the table
            windows.clear()
            assert grid(piecewise, fam, w)
            assert windows == [sum(keys.values())]
            # the GL16 route (gaussian f), a second function and an equal
            # window read it
            windows.clear()
            assert grid(FunctionSpec.gaussian(0.5), fam, w)
            assert grid(other, fam, w)
            assert grid(piecewise, fam, equal)
            assert windows == []
    assert not built


def test_gl16_grid_cuts_the_gaussian_once(monkeypatch):
    # the +-10 sigma cut is the same for every element of a grid, so a
    # grid computes it once; a gaussian against a gaussian cuts each once
    cuts = []
    real_support = FunctionSpec.support

    def counting_support(spec):
        cuts.append(spec)
        return real_support(spec)

    monkeypatch.setattr(FunctionSpec, "support", counting_support)
    g = FunctionSpec.gaussian(0.5)
    for fam in (HAAR, EXPONENTIAL):
        w = Window.symmetric(fam, 3, 3, 4)
        for grid in (oracle_F_coords, oracle_G_coords):
            cuts.clear()
            assert grid(g, fam, w)
            assert cuts == [g]
    cuts.clear()
    assert inner_product(g, g, 1e-12).real > 0.0
    assert cuts == [g, g]


def _series_steps(x, top):
    # the E_top series as a step-by-step recurrence, each pair stopping after its terms
    terms = np.array([_series_terms(t) for t in top.tolist()])
    tr, ti = 1.0 / (top + 1), np.zeros(len(x))
    sr, si = tr, ti
    for t in range(1, int(terms.max()) + 1):
        q = x / (top + 1 + t)
        tr, ti = ti * q, -(tr * q)
        live = terms >= t
        sr, si = np.where(live, sr + tr, sr), np.where(live, si + ti, si)
    return sr, si


@pytest.mark.parametrize("seed", range(6))
def test_series_sums_are_the_step_by_step_recurrence(seed):
    # the running-product form rounds every term and partial sum as the
    # recurrence does, signed zeros included
    rng = np.random.default_rng(seed)
    top = rng.integers(0, 25, 400)
    x = np.concatenate([rng.uniform(-1, 1, 100) * (top[:100] + 1),
                        rng.uniform(-1, 1, 100) * 10.0 ** rng.uniform(-300, 0, 100),
                        rng.integers(-8, 9, 100) * 2 * np.pi * 2.0 ** -rng.integers(0, 12, 100),
                        rng.choice([-1.0, 1.0], 100) * rng.uniform(0.5, 1, 100)])
    got, want = _series(x, top), _series_steps(x, top)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


def _scale_70_value(mpmath, label):
    # integral of 2^35 e^{2 pi i 2^70 x} conj(e^{2 pi i label x}) over [2^-70, 2^-69)
    with mpmath.workdps(60):
        nu, a = mpmath.mpf(2) ** 70 - label, mpmath.mpf(2) ** -70
        ends = [mpmath.expj(2 * mpmath.pi * nu * x) for x in (a, 2 * a)]
        return complex(mpmath.mpf(2) ** 35 * (ends[1] - ends[0]) / (2j * mpmath.pi * nu))


def test_python_int_fallbacks_hold_their_closed_forms():
    # inputs past the int64 fast paths: a label of 2^70 puts the atom table
    # in Python ints, a scale of 70 takes the phase turns past 2^64 through
    # Python ints, and an endpoint 1 + 2^-60 makes the GL16 route's
    # breakpoint ceilings inexact and its ratios Python divisions
    mpmath = pytest.importorskip("mpmath")
    k = K_elem(EXPONENTIAL, 1, 2**70, 0)
    assert inner_product(k, k) == pytest.approx(1.0, rel=1e-12, abs=0.0)
    fine = K_elem(EXPONENTIAL, 1, 1, 70)
    want = _scale_70_value(mpmath, 2**70 + 1)
    assert abs(inner_product(fine, L_elem(EXPONENTIAL, 2**70 + 1, 0)) - want) <= 1e-12 * abs(want)
    # against label 3 the pair's frequency is a rounding short of one turn
    # over the overlap, so the exact integral, about 7.4e-32, is far below
    # the rounding of its terms: it holds to 1e-12 of the integral of
    # |f||g| (2^-35), not of itself
    want = _scale_70_value(mpmath, 3)
    assert abs(inner_product(fine, L_elem(EXPONENTIAL, 3, 0)) - want) <= 1e-12 * 2.0**-35
    edge = 1 + Fraction(1, 2**60)
    got = inner_product(FunctionSpec.gaussian(1), FunctionSpec.piecewise([(0, edge, (1,))]))
    with mpmath.workdps(40):
        x = mpmath.mpf(edge.numerator) / edge.denominator
        want = complex(mpmath.sqrt(mpmath.pi / 2) * mpmath.erf(x / mpmath.sqrt(2)))
    assert abs(got - want) <= 1e-12 * abs(want)
