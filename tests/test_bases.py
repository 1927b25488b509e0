"""Pointwise basis evaluation, supports, and the FunctionSpec mini-language."""

import math
import random

import pytest

from swl import EXPONENTIAL, HAAR, K_elem, L_elem
from swl.bases import (
    FunctionSpec,
    InvalidLabelError,
    SpecParseError,
    UnboundedSupportError,
    dilate_spec,
    parse_function_spec,
    translate_spec,
)
from swl.quadrature import inner_product


def test_eval_L_haar_scaling():
    assert L_elem(HAAR, 0, 0).evaluate(0.3) == 1.0


def test_eval_L_haar_wavelet_second_half():
    assert L_elem(HAAR, 1, 0).evaluate(0.7) == -1.0


def test_eval_L_exponential():
    # e^{2 pi i k (x - n)} with k=2, n=1, x=1.25: phase is half a turn
    got = L_elem(EXPONENTIAL, 2, 1).evaluate(1.25)
    assert got == pytest.approx(complex(math.cos(math.pi), math.sin(math.pi)), abs=1e-15)
    assert got == pytest.approx(-1.0, abs=1e-15)


def test_eval_K_haar_examples():
    # (+, 0, 0) is the box on [1, 2)
    assert K_elem(HAAR, 1, 0, 0).evaluate(1.5) == 1.0
    # one dilation up: sqrt(2) * box on [1/2, 1)
    assert K_elem(HAAR, 1, 0, 1).evaluate(0.6) == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("fam", [HAAR, EXPONENTIAL])
@pytest.mark.parametrize("s,j,m", [(1, 0, 0), (1, 2, 1), (-1, 1, -1), (-1, 0, 2)])
def test_eval_K_zero_outside_support(fam, s, j, m):
    lo, hi = K_elem(fam, s, j, m).support()
    for x in (float(lo) - 1e-12, float(hi), float(hi) + 1e-12, float(lo) - 5.0):
        assert K_elem(fam, s, j, m).evaluate(x) == 0j
    mid = (float(lo) + float(hi)) / 2
    assert K_elem(fam, s, j, m).evaluate(mid) != 0j


def test_eval_L_zero_outside_support():
    for i, n in [(0, 0), (3, -2), (5, 4)]:
        lo, hi = L_elem(HAAR, i, n).support()
        assert L_elem(HAAR, i, n).evaluate(float(lo) - 1e-12) == 0j
        assert L_elem(HAAR, i, n).evaluate(float(hi)) == 0j
        assert L_elem(HAAR, i, n).evaluate(float(hi) + 1e-12) == 0j


def test_invalid_labels_rejected():
    with pytest.raises(InvalidLabelError):
        L_elem(HAAR, -1, 0)
    with pytest.raises(InvalidLabelError):
        K_elem(HAAR, 1, -2, 0)
    with pytest.raises(InvalidLabelError):
        K_elem(EXPONENTIAL, 0, 1, 0)


@pytest.mark.parametrize("fam", [HAAR, EXPONENTIAL])
def test_unit_norms_by_oracle(fam):
    rng = random.Random(1905)
    for _ in range(12):
        i = rng.randint(0, 6) if fam is HAAR else rng.randint(-6, 6)
        n = rng.randint(-3, 3)
        elem = L_elem(fam, i, n)
        assert inner_product(elem, elem).real == pytest.approx(1.0, abs=1e-10)
        j = rng.randint(0, 6) if fam is HAAR else rng.randint(-6, 6)
        s = rng.choice([1, -1])
        m = rng.randint(-3, 3)
        kelem = K_elem(fam, s, j, m)
        assert inner_product(kelem, kelem).real == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("fam", [HAAR, EXPONENTIAL])
def test_orthogonality_of_distinct_indices(fam):
    rng = random.Random(77)
    pairs = 0
    while pairs < 20:
        if rng.random() < 0.5:
            a = (rng.randint(0, 5) if fam is HAAR else rng.randint(-5, 5), rng.randint(-3, 3))
            b = (rng.randint(0, 5) if fam is HAAR else rng.randint(-5, 5), rng.randint(-3, 3))
            if a == b:
                continue
            val = inner_product(L_elem(fam, *a), L_elem(fam, *b))
        else:
            a = (rng.choice([1, -1]), rng.randint(0, 5) if fam is HAAR else rng.randint(-5, 5),
                 rng.randint(-3, 3))
            b = (rng.choice([1, -1]), rng.randint(0, 5) if fam is HAAR else rng.randint(-5, 5),
                 rng.randint(-3, 3))
            if a == b:
                continue
            val = inner_product(K_elem(fam, *a), K_elem(fam, *b))
        assert abs(val) <= 1e-9
        pairs += 1


def test_eval_spec_presets():
    assert FunctionSpec.haar_wavelet().evaluate(0.25) == 1.0
    assert FunctionSpec.haar_wavelet().evaluate(0.75) == -1.0
    # right-open convention
    assert FunctionSpec.indicator(1, 2).evaluate(2.0) == 0j
    assert FunctionSpec.indicator(1, 2).evaluate(1.0) == 1.0
    assert FunctionSpec.gaussian(1.0).evaluate(0.0) == 1.0


def test_spec_validation():
    with pytest.raises(ValueError):
        FunctionSpec.piecewise([(0, 1, (1,)), (0.5, 2, (1,))])  # overlap
    with pytest.raises(ValueError):
        FunctionSpec.piecewise([(0, "1/3", (1,))])  # non-dyadic breakpoint
    with pytest.raises(ValueError):
        FunctionSpec.gaussian(0.0)


def test_parse_presets_and_indicator():
    assert parse_function_spec("haar_wavelet").label == "haar_wavelet"
    spec = parse_function_spec("indicator(1,2)")
    assert spec.evaluate(1.5) == 1.0
    g = parse_function_spec("gaussian(2)")
    assert g.sigma == 2.0


def test_parse_piecewise_with_dyadic_fractions():
    spec = parse_function_spec("piecewise[(0,3/8):1+2*x; (1/2,1):-x^2]")
    assert spec.evaluate(0.25) == pytest.approx(1.5)
    assert spec.evaluate(0.75) == pytest.approx(-0.5625)
    assert spec.evaluate(0.45) == 0j


@pytest.mark.parametrize("bad", [
    "nonsense(",
    "indicator(1/3,1)",
    "piecewise[(0,1):]",
    "piecewise[(1,0):1]",
    "gaussian(-1)",
])
def test_parse_errors(bad):
    with pytest.raises(SpecParseError):
        parse_function_spec(bad)


def test_translate_dilate_exact():
    psi = FunctionSpec.haar_wavelet()
    shifted = translate_spec(psi, 3)
    assert shifted.evaluate(3.25) == 1.0
    scaled = dilate_spec(psi, 1)
    assert scaled.evaluate(0.2) == pytest.approx(math.sqrt(2))
    both = dilate_spec(translate_spec(psi, 1), 1)  # sqrt(2) psi(2x - 1)
    assert both.evaluate(0.6) == pytest.approx(math.sqrt(2))
    assert both.evaluate(0.9) == pytest.approx(-math.sqrt(2))
    with pytest.raises(UnboundedSupportError):
        dilate_spec(FunctionSpec.gaussian(1.0), 1)


def test_transform_matches_oracle_inner_products():
    # (D T f, D T g) = (f, g) for unitary operators, exact piecewise route
    f = parse_function_spec("piecewise[(0,1):1+x]")
    g = parse_function_spec("piecewise[(0,1/2):2; (1/2,1):-1]")
    base = inner_product(f, g)
    DT = lambda spec: dilate_spec(translate_spec(spec, -1), 2)
    assert inner_product(DT(f), DT(g)) == pytest.approx(base, abs=1e-12)
