"""Wavelet orthonormality/completeness and scaling-identity checks."""

import math
import random

import pytest

from swl import (
    EXPONENTIAL,
    FCoordVec,
    GCoordVec,
    HAAR,
    Window,
    check_scaling_coordinate_identity,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
    oracle_G_coords,
    shift_D,
)
from swl.bases import FunctionSpec
from swl.core import MINUS, PLUS
from swl.wavelet import (
    check_example_unit_interval,
    completeness_matrix,
    orthonormality_residuals,
    translate_autocorrelation,
)

F6 = [(PLUS, 0), (PLUS, 1), (PLUS, 2), (PLUS, 3), (MINUS, 0), (MINUS, 1)]


@pytest.fixture(scope="module")
def psi_tilde():
    return oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, Window.symmetric(HAAR, 4, 4, 60))


@pytest.fixture(scope="module")
def phi_tilde():
    return oracle_G_coords(FunctionSpec.haar_scaling(), HAAR, Window.symmetric(HAAR, 4, 4, 60))


def test_haar_wavelet_passes_orthonormality(psi_tilde, A_haar, w_haar):
    rep = check_wavelet_orthonormality(psi_tilde, A_haar, 3, w_haar, 1e-10)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_routes_agree(psi_tilde, phi_tilde, A_haar, w_haar):
    for cand in (psi_tilde, phi_tilde):
        _, disagreement, _ = orthonormality_residuals(cand, A_haar, 3, w_haar)
        assert disagreement <= 1e-12


def test_haar_scaling_fails_at_one_zero(phi_tilde, A_haar, w_haar):
    rep = check_wavelet_orthonormality(phi_tilde, A_haar, 3, w_haar, 1e-10)
    assert not rep.passed
    res = dict(rep.details)
    # (D phi, phi) = 1/sqrt(2): the box is not a wavelet
    assert res[(1, 0)] == pytest.approx(1 / math.sqrt(2), abs=1e-10)


def test_zero_candidate_fails_at_origin(A_haar, w_haar):
    rep = check_wavelet_orthonormality(GCoordVec({}), A_haar, 1, w_haar, 1e-10)
    assert not rep.passed
    assert dict(rep.details)[(0, 0)] == pytest.approx(1.0)


def test_literal_round_trip_clipping_is_in_the_slack(A_exp):
    # an exactly represented unit vector: the whole residual is what the
    # literal passes clip at q = 0, where the group action does no transfer
    w = Window.symmetric(EXPONENTIAL, 3, 3, 6)
    rep = check_wavelet_orthonormality(GCoordVec({(PLUS, 0, 1): 1.0}), A_exp, 0, w, 1e-6)
    assert rep.max_residual > 1e-2
    assert rep.passed and rep.max_residual <= rep.slack


def test_translate_of_wavelet_still_passes(psi_tilde, A_haar, w_haar):
    # unitarity transport: integer translates of a wavelet are wavelets
    from swl import f_from_g, g_from_f, shift_T

    shifted = g_from_f(shift_T(f_from_g(psi_tilde, A_haar, w_haar), 1), A_haar, w_haar)
    rep = check_wavelet_orthonormality(shifted, A_haar, 2, w_haar, 1e-8)
    assert rep.passed


def test_dilate_of_wavelet_still_passes(psi_tilde, A_haar, w_haar):
    rep = check_wavelet_orthonormality(shift_D(psi_tilde, 1), A_haar, 2, w_haar, 1e-8)
    assert rep.passed


# -- completeness ----------------------------------------------------------------

def test_completeness_haar_full_rank(psi_tilde, A_haar, w_haar):
    rep = check_wavelet_completeness(psi_tilde, A_haar, F6, 6, w_haar, 1e-8)
    assert rep.passed and rep.verdict == "pass"


def test_completeness_random_reachable_subsets(psi_tilde, A_haar, w_haar):
    reachable = [(PLUS, j) for j in range(7)] + [(MINUS, j) for j in (0, 1, 2, 3, 6, 7)]
    rng = random.Random(61)
    for _ in range(8):
        size = rng.randint(1, 6)
        labels = rng.sample(reachable, size)
        rep = check_wavelet_completeness(psi_tilde, A_haar, labels, 6, w_haar, 1e-8)
        assert rep.passed, labels


def test_completeness_zero_candidate_rank_zero(A_haar, w_haar):
    rep = check_wavelet_completeness(GCoordVec({}), A_haar, F6, 6, w_haar, 1e-8)
    assert not rep.passed
    assert "rank 0 of 6" in rep.notes[1]


def test_completeness_indicator_candidate_deficient(A_haar, w_haar):
    # the box on [1,2) as a candidate: within the window, the (+,5) column
    # receives no support at all, so this label set is rank deficient
    cand = GCoordVec({(PLUS, 0, 0): 1.0})
    rep = check_wavelet_completeness(cand, A_haar, [(PLUS, 1), (PLUS, 5)], 6, w_haar, 1e-8)
    assert not rep.passed
    assert any("no support" in n for n in rep.notes)


def test_completeness_matrix_columns_disjoint_for_haar(psi_tilde, A_haar, w_haar):
    import numpy as np

    mat = completeness_matrix(psi_tilde, A_haar, F6, 6, w_haar)
    gram = mat.conj().T @ mat
    off = gram - np.diag(np.diag(gram))
    assert float(np.max(np.abs(off))) < 1e-12


# -- compact support on [1, 2] -----------------------------------------------------

def test_example_shifted_haar_wavelet_passes(A_haar, w_haar):
    cand = GCoordVec({(PLUS, 1, 0): 1.0})  # the wavelet translated into [1, 2)
    rep = check_example_unit_interval(cand, A_haar, 3, F6, w_haar, 1e-10)
    assert rep.passed
    assert rep.max_residual <= 1e-10


def test_example_constant_candidate_fails(A_haar, w_haar):
    cand = GCoordVec({(PLUS, 0, 0): 1.0})  # the box on [1, 2)
    rep = check_example_unit_interval(cand, A_haar, 3, [(PLUS, 0), (PLUS, 1)], w_haar, 1e-10)
    assert not rep.passed
    res = dict(rep.details)
    assert res[(1, 1)] == pytest.approx(1 / math.sqrt(2), abs=1e-12)


def test_example_zero_candidate_fails_at_origin(A_haar, w_haar):
    rep = check_example_unit_interval(GCoordVec({}), A_haar, 1, [(PLUS, 0)], w_haar, 1e-10)
    assert not rep.passed


def test_example_rejects_out_of_slice_coordinates(A_haar, w_haar):
    with pytest.raises(ValueError):
        check_example_unit_interval(GCoordVec({(PLUS, 0, 1): 1.0}), A_haar, 2, F6, w_haar)
    with pytest.raises(ValueError):
        check_example_unit_interval(GCoordVec({(MINUS, 0, 0): 1.0}), A_haar, 2, F6, w_haar)


def test_example_agrees_with_general_form(A_haar, w_haar):
    rng = random.Random(5150)
    coeffs = {(PLUS, j, 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in range(4)}
    rep = check_example_unit_interval(GCoordVec(coeffs), A_haar, 3, F6, w_haar, 1e-10)
    note = next(n for n in rep.notes if "agree" in n)
    agreement = float(note.split()[-1])
    assert agreement <= 1e-8


# -- scaling coordinate identity ----------------------------------------------------

def test_scaling_identity_haar_exact():
    rep = check_scaling_coordinate_identity(FCoordVec({(0, 0): 1.0}), 6, 1e-12)
    assert rep.passed and rep.max_residual == 0.0


def test_scaling_identity_split_mass_fails_at_k1():
    phi = FCoordVec({(0, 0): 1 / math.sqrt(2), (0, 1): 1 / math.sqrt(2)})
    rep = check_scaling_coordinate_identity(phi, 4, 1e-9)
    assert not rep.passed
    assert dict(rep.details)[("k", 1)] == pytest.approx(0.5, abs=1e-12)


def test_scaling_identity_zero_fails_at_k0():
    rep = check_scaling_coordinate_identity(FCoordVec({}), 3, 1e-9)
    assert not rep.passed
    assert dict(rep.details)[("k", 0)] == pytest.approx(1.0)


def test_autocorrelation_values():
    phi = FCoordVec({(0, 0): 0.5, (1, 1): 0.5j})
    assert translate_autocorrelation(phi, 0) == pytest.approx(0.5)
    assert translate_autocorrelation(phi, 1) == 0j  # different labels do not couple


def test_scaling_identity_cross_check_catches_norm(A_haar, w_haar):
    # translate-invariance: a shifted box still passes
    rep = check_scaling_coordinate_identity(FCoordVec({(0, 5): 1.0}), 4, 1e-12)
    assert rep.passed
