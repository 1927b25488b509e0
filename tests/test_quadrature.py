"""The integration oracle itself: closed-form route, GL route, coefficient grids."""

import math
import random
from collections import Counter

import pytest

from swl import EXPONENTIAL, HAAR, DilIndex, K_elem, L_elem, TransIndex, Window, coord_norm_sq
from swl.bases import BasisElement, FunctionSpec, parse_function_spec
from swl.quadrature import (
    inner_product,
    norm_sq_of_spec,
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
    want = norm_sq_of_spec(f)
    assert want == pytest.approx(0.5**2 * 1.5 + 1 * 0.5, abs=1e-14)
    small = coord_norm_sq(oracle_F_coords(f, HAAR, Window.symmetric(HAAR, 1, 2, 4)))
    big = coord_norm_sq(oracle_F_coords(f, HAAR, Window.symmetric(HAAR, 16, 2, 4)))
    assert small < want + 1e-12
    assert big == pytest.approx(want, abs=1e-10)


def test_parseval_exponential_family():
    f = FunctionSpec.indicator(0, 1)
    caught = coord_norm_sq(oracle_F_coords(f, EXPONENTIAL, Window.symmetric(EXPONENTIAL, 6, 2, 2)))
    assert caught == pytest.approx(1.0, abs=1e-12)  # single delta coefficient per cell


def test_g_side_tail_decay():
    # mass of the dilation coefficients of the box concentrates at coarse scales;
    # the residual beyond m_max is bounded by the mass of f near the origin
    f = PHI
    full = coord_norm_sq(oracle_G_coords(f, HAAR, Window.symmetric(HAAR, 2, 2, 20)))
    shallow = coord_norm_sq(oracle_G_coords(f, HAAR, Window.symmetric(HAAR, 2, 2, 5)))
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



def test_exact_route_builds_each_element_atoms_once(monkeypatch):
    # the atom-pair loop is the only overlap test: no support() read precedes it
    built = Counter()
    real_atoms = BasisElement.atoms

    def counting_atoms(self):
        built[self.index] += 1
        return real_atoms(self)

    monkeypatch.setattr(BasisElement, "atoms", counting_atoms)
    f = parse_function_spec("piecewise[(-1,1/2):1+x; (5/8,3/4):-2]")
    for fam in (HAAR, EXPONENTIAL):
        w = Window.symmetric(fam, 3, 3, 4)
        built.clear()
        assert oracle_F_coords(f, fam, w)
        assert built == Counter(TransIndex(i, n) for i in w.trans_labels
                                for n in range(w.trans_range[0], w.trans_range[1] + 1))
        built.clear()
        assert oracle_G_coords(f, fam, w)
        assert built == Counter(DilIndex(s, j, m) for s, j in w.dil_labels
                                for m in range(w.dil_range[0], w.dil_range[1] + 1))
