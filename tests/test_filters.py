"""Two-scale extraction, QMF conditions, mirror construction, coordinate identities."""

import math
import random

import numpy as np
import pytest

from swl import (
    FCoordVec,
    HAAR,
    Window,
    check_filter_orthogonality,
    check_pair_conditions,
    construct_wavelet_coords,
    daubechies4,
    extract_two_scale,
    filter_action_on_coords,
    g_from_f,
    haar_filter,
    mirror_filter,
    reconstruct_scaling_coords,
    scaling_coords_from_filter,
)
from swl.bases import FunctionSpec, UnboundedSupportError
from swl.core import coord_equal
from swl.filters import LaurentPoly, coords_at_omega
from swl.quadrature import oracle_F_coords
from swl.wavelet import check_wavelet_orthonormality

SQ2 = math.sqrt(2.0)
PHI_HAT = FCoordVec({(0, 0): 1.0})


@pytest.fixture(scope="module")
def w70():
    # deep ladder: the reconstruction pipelines need entry dust below 1e-10
    return Window.symmetric(HAAR, 8, 10, 70)


def test_laurent_basics():
    h = LaurentPoly.from_map({0: 1.0, 2: -0.5, 5: 1e-16})
    assert h.support() == (0, 2)
    assert len(h) == 2
    assert h(1.0) == pytest.approx(0.5)
    assert h(np.array([1.0, -1.0]))[1] == pytest.approx(0.5)
    assert h.sum_sq() == pytest.approx(1.25)


def test_extract_haar_two_scale():
    h = extract_two_scale(FunctionSpec.haar_scaling(), 4)
    coeffs = h.as_dict()
    assert set(coeffs) == {0, 1}
    assert coeffs[0] == pytest.approx(1 / SQ2, abs=1e-12)
    assert coeffs[1] == pytest.approx(1 / SQ2, abs=1e-12)


def test_extract_rejects_unbounded_support():
    with pytest.raises(UnboundedSupportError):
        extract_two_scale(FunctionSpec.gaussian(1.0), 4)


def test_extract_zero_function():
    assert len(extract_two_scale(FunctionSpec.zero(), 3)) == 0


@pytest.mark.parametrize("span", [-1, (1, 0)])
def test_empty_span_is_an_input_error(span):
    # an empty span would extract nothing and let every filter check pass
    with pytest.raises(ValueError):
        extract_two_scale(FunctionSpec.haar_scaling(), span)
    with pytest.raises(ValueError):
        check_filter_orthogonality(haar_filter(), span)
    with pytest.raises(ValueError):
        check_pair_conditions(haar_filter(), mirror_filter(haar_filter()), span)


@pytest.mark.parametrize("grid", [0, -3])
def test_empty_circle_grid_is_an_input_error(grid):
    # an empty grid has no maximum to take, and would check nothing
    with pytest.raises(ValueError, match=f"grid={grid}"):
        check_filter_orthogonality(haar_filter(), 2, grid=grid)
    with pytest.raises(ValueError, match=f"grid={grid}"):
        check_pair_conditions(haar_filter(), mirror_filter(haar_filter()), 2, grid=grid)
    assert check_filter_orthogonality(haar_filter(), 2, grid=1).passed


def test_filter_orthogonality_haar_and_d4():
    assert check_filter_orthogonality(haar_filter(), 6, 1e-12).passed
    rep = check_filter_orthogonality(daubechies4(), 8, 1e-12)
    assert rep.passed
    assert rep.max_residual <= 1e-12


def test_filter_orthogonality_norm_deficient_fails():
    rep = check_filter_orthogonality(LaurentPoly.from_map({0: 0.5, 1: 0.5}), 4, 1e-12)
    assert not rep.passed
    assert dict(rep.details)[("coeff", 0)] == pytest.approx(0.5)


def test_filter_orthogonality_routes_always_agree():
    rng = random.Random(8)
    arbitrary = LaurentPoly.from_map({k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                      for k in range(-2, 3)})
    rep = check_filter_orthogonality(arbitrary, 6, 1e-12)
    assert dict(rep.details)[("grid", "route_match")] <= 1e-12


def test_mirror_haar_values():
    g = mirror_filter(haar_filter(), 0)
    coeffs = g.as_dict()
    assert coeffs[0] == pytest.approx(-1 / SQ2)
    assert coeffs[1] == pytest.approx(1 / SQ2)


def test_mirror_zero_and_involution_pattern():
    assert len(mirror_filter(LaurentPoly.from_map({}), 0)) == 0
    h = daubechies4()
    gg = mirror_filter(mirror_filter(h, 0), 0)
    # the two alternating flips compose to an overall sign: double mirror is -h
    diff = max(abs(gg.as_dict().get(k, 0j) + v) for k, v in h.coeffs)
    assert diff <= 1e-15


def test_mirror_satisfies_alternation_exactly():
    for h in (haar_filter(), daubechies4()):
        g = mirror_filter(h, 0)
        thetas = np.arange(257) / 257
        omega = np.exp(2j * np.pi * thetas)
        alt = g(omega) * np.conj(h(omega)) + g(-omega) * np.conj(h(-omega))
        assert float(np.max(np.abs(alt))) <= 1e-12


def test_pair_conditions_haar_min_det_two():
    rep = check_pair_conditions(haar_filter(), mirror_filter(haar_filter(), 0))
    assert rep.passed
    assert dict(rep.details)[("grid", "min_abs_det")] == pytest.approx(2.0, abs=1e-12)


def test_pair_conditions_d4():
    rep = check_pair_conditions(daubechies4(), mirror_filter(daubechies4(), 0), tol=1e-12)
    assert rep.passed and rep.max_residual <= 1e-12


def test_pair_conditions_equal_filters_fail():
    h = haar_filter()
    rep = check_pair_conditions(h, h)
    assert not rep.passed


def test_normalized_pair_matrix_is_unimodular():
    for h in (haar_filter(), daubechies4()):
        g = mirror_filter(h, 0)
        thetas = np.arange(256) / 256
        omega = np.exp(2j * np.pi * thetas)
        det = 0.5 * (h(omega) * g(-omega) - g(omega) * h(-omega))
        assert float(np.max(np.abs(np.abs(det) - 1.0))) <= 1e-10


def test_filter_action_examples(w70, A_haar):
    out = filter_action_on_coords(PHI_HAT, haar_filter())
    assert dict(out.items()) == pytest.approx({(0, 0): 1 / SQ2 + 0j, (0, 1): 1 / SQ2 + 0j})
    # identity filter
    ident = LaurentPoly.from_map({0: 1.0})
    assert coord_equal(filter_action_on_coords(PHI_HAT, ident), PHI_HAT, 0.0).passed
    # high-pass: coordinates of the once-unscaled wavelet up to the mirror sign
    g = mirror_filter(haar_filter(), 0)
    got = filter_action_on_coords(PHI_HAT, g)
    down_psi = oracle_F_coords(
        FunctionSpec.piecewise([(0, 1, (1 / SQ2,)), (1, 2, (-1 / SQ2,))]),
        HAAR, Window.symmetric(HAAR, 4, 4, 8))
    flipped = coord_equal(got, down_psi.scaled(-1.0), 1e-12).passed
    straight = coord_equal(got, down_psi, 1e-12).passed
    assert flipped or straight


def test_transfer_function_route_matches_coefficient_route():
    rng = random.Random(31)
    coords = FCoordVec({(rng.randint(0, 3), rng.randint(-3, 3)):
                        complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9)})
    h = daubechies4()
    filtered = filter_action_on_coords(coords, h)
    omegas = np.exp(2j * np.pi * np.arange(256) / 256)
    labels, values = coords_at_omega(filtered, 256)
    direct = dict(zip(labels.tolist(), values))
    hw = h(omegas)
    labels, values = coords_at_omega(coords, 256)
    for label, series in zip(labels.tolist(), values):
        got = direct.get(label, np.zeros_like(omegas))
        assert float(np.max(np.abs(got - hw * series))) <= 1e-10


def test_reconstruction_reproduces_haar(w70, A_haar):
    rebuilt, rep = reconstruct_scaling_coords(PHI_HAT, haar_filter(), A_haar, w70, tol=1e-10)
    assert rep.passed
    assert rep.max_residual <= 1e-10
    assert rebuilt[(0, 0)] == pytest.approx(1.0, abs=1e-10)


def test_reconstruction_zero_coords(w70, A_haar):
    rebuilt, _ = reconstruct_scaling_coords(FCoordVec({}), haar_filter(), A_haar, w70)
    assert len(rebuilt) == 0
    assert len(construct_wavelet_coords(FCoordVec({}), haar_filter(), A_haar, w70)) == 0


def test_reconstruction_flags_perturbed_filter(w70, A_haar):
    bad = LaurentPoly.from_map({0: 1 / SQ2 + 0.1, 1: 1 / SQ2})
    _, rep = reconstruct_scaling_coords(PHI_HAT, bad, A_haar, w70, tol=1e-10)
    assert not rep.passed
    assert rep.max_residual > 0.01


def test_construction_gives_haar_wavelet_up_to_sign(w70, A_haar):
    psi = construct_wavelet_coords(PHI_HAT, haar_filter(), A_haar, w70)
    target = FCoordVec({(1, 0): 1.0})
    assert (coord_equal(psi, target, 1e-10).passed
            or coord_equal(psi, target.scaled(-1.0), 1e-10).passed)


def test_constructed_wavelet_passes_orthonormality(w70, A_haar):
    psi_hat = construct_wavelet_coords(PHI_HAT, haar_filter(), A_haar, w70)
    psi_tilde = g_from_f(psi_hat, A_haar, w70)
    rep = check_wavelet_orthonormality(psi_tilde, A_haar, 2, w70, 1e-9)
    assert rep.passed


# -- cascade coordinates ----------------------------------------------------------

def test_cascade_haar_is_exact():
    vec, tail = scaling_coords_from_filter(haar_filter(), 8)
    assert dict(vec.items()) == {(0, 0): 1.0}
    assert tail == 0.0


def test_cascade_d4_masses_and_tail():
    vec, tail = scaling_coords_from_filter(daubechies4(), 10)
    # unit-cell masses solve the refinement fixed point and sum to 1
    masses = [vec[(0, n)].real for n in range(3)]
    assert sum(masses) == pytest.approx(1.0, abs=1e-12)
    assert masses[0] == pytest.approx(0.8496793685588857, abs=1e-10)
    assert masses[1] == pytest.approx(1.0 / 6.0, abs=1e-10)
    assert masses[2] == pytest.approx(-0.0163460352255527, abs=1e-10)
    assert 0.0 < tail < 2e-6
    assert vec.norm_sq() + tail == pytest.approx(1.0, abs=1e-12)
    # the masses satisfy the two-cell refinement relation they were solved from
    h = daubechies4().as_dict()
    for k in range(3):
        rhs = sum(h.get(m, 0j).real * (vec[(0, 2 * k - m)].real + vec[(0, 2 * k + 1 - m)].real)
                  for m in range(4)) / SQ2
        assert masses[k] == pytest.approx(rhs, abs=1e-12)


def test_cascade_d4_satisfies_scaling_identity():
    vec, tail = scaling_coords_from_filter(daubechies4(), 12)
    from swl import check_scaling_coordinate_identity

    rep = check_scaling_coordinate_identity(vec, 4, 1e-6)
    assert rep.passed


@pytest.mark.parametrize("phi", [
    {(0, 2**63 - 2): 0.6, (0, 2**63 - 1): 0.8},
    {(0, -2**63 + 1): 0.6, (0, -2**63 + 2): 0.8},
    {(0, 2**62): 0.6, (0, 2**62 + 1): 0.8j},
    {(2**70 + 3, 2**70): 0.6, (2**70 + 3, 2**70 + 1): 0.8},
])
def test_scaling_cross_check_holds_for_far_shifts(phi):
    # the circle cross-check reduces omega's exponents mod the grid in
    # integers: no overflow, and the two sides agree to rounding
    import warnings

    from swl import check_scaling_coordinate_identity

    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        rep = check_scaling_coordinate_identity(FCoordVec(phi), 2)
    (note,) = rep.notes
    assert note.startswith("autocorrelation polynomial matches per-omega norm within ")
    assert float(note.rsplit(" ", 1)[1]) <= 1e-14
    assert rep.max_residual == pytest.approx(0.48)


def test_cascade_rejects_non_refinement_filters():
    with pytest.raises(ValueError):
        scaling_coords_from_filter(LaurentPoly.from_map({1: 1 / SQ2, 2: 1 / SQ2}), 4)
    with pytest.raises(ValueError):
        scaling_coords_from_filter(LaurentPoly.from_map({0: 1.0j, 1: 1.0}), 4)
