"""Periodization model: tabulation, orthonormality/scaling checks, shift action."""

import math

import numpy as np
import pytest

from swl.fourier import (
    PeriodizationError,
    check_orthonormal_translates,
    check_scaling_hypotheses,
    haar_scaling_hat,
    indicator_hat,
    modulated,
    multiplication_check,
    periodize,
    shannon_scaling_hat,
    shannon_wavelet_hat,
    trigamma,
    zero_hat,
)


def test_trigamma_values():
    assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6, rel=1e-13)
    assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6 - 1.0, rel=1e-12)
    # large argument: leading term 1/x
    assert trigamma(1e6) == pytest.approx(1e-6, rel=1e-6)
    with pytest.raises(ValueError):
        trigamma(0.0)


def test_shannon_scaling_support_pattern():
    P = periodize(shannon_scaling_hat(), 64, (-2, 2))
    # nonzero rows only at k in {-1, 0} for theta in [0, 1)
    nz = {k for row, k in enumerate(range(-2, 3)) if np.any(np.abs(P.values[row]) > 0)}
    assert nz == {-1, 0}


def test_shannon_wavelet_one_unit_entry_per_theta():
    P = periodize(shannon_wavelet_hat(), 128, (-3, 3))
    counts = np.sum(np.abs(P.values) > 0.5, axis=0)
    assert counts.min() == counts.max() == 1


def test_zero_function_all_zero():
    P = periodize(zero_hat(), 32, (-2, 2))
    assert not np.any(P.values)
    assert not check_orthonormal_translates(P, 1e-9).passed  # mass 0, not 1


def test_shannon_translates_pass_exactly():
    P = periodize(shannon_scaling_hat(), 512, (-2, 2))
    rep = check_orthonormal_translates(P, 1e-12)
    assert rep.passed and rep.max_residual == 0.0


def test_haar_translates_pass_with_analytic_tail():
    P = periodize(haar_scaling_hat(), 512, (-64, 64))
    rep = check_orthonormal_translates(P, 1e-9)
    assert rep.passed
    assert rep.max_residual < 1e-12
    assert any("tail" in note for note in rep.notes)


def test_haar_tail_is_needed_and_honest():
    # without the closed-form remainder the 1/k decay leaves ~1e-3 on the grid
    P = periodize(haar_scaling_hat(), 64, (-64, 64))
    raw = np.sum(np.abs(P.values) ** 2, axis=0)
    assert np.max(np.abs(raw - 1.0)) > 1e-4
    assert float(np.max(P.tail_sq)) > 1e-4


def test_narrow_indicator_fails():
    P = periodize(indicator_hat([("-1/4", "1/4", 1.0)]), 64, (-4, 4))
    rep = check_orthonormal_translates(P, 1e-9)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(1.0)  # mass vanishes on a theta set


def test_scaling_hypotheses_shannon_and_haar():
    assert check_scaling_hypotheses(periodize(shannon_scaling_hat(), 512, (-2, 2)), 1e-12).passed
    rep = check_scaling_hypotheses(periodize(haar_scaling_hat(), 512, (-64, 64)), 1e-9)
    assert rep.passed
    assert any("assumed" in n for n in rep.notes)


def test_scaling_hypotheses_fail_for_wavelet():
    rep = check_scaling_hypotheses(periodize(shannon_wavelet_hat(), 128, (-3, 3)), 1e-9)
    assert not rep.passed
    # condition (ii) fails at k = 0: the transform vanishes at frequency 0
    assert dict(rep.details)[("omega1", 0)] == pytest.approx(1.0)


@pytest.mark.parametrize("make", [shannon_scaling_hat, haar_scaling_hat, zero_hat])
def test_multiplication_by_omega(make):
    P = periodize(make(), 128, (-8, 8))
    P_shift = periodize(modulated(make(), 1), 128, (-8, 8))
    assert multiplication_check(P, P_shift, 1e-12).passed


def test_multiplication_check_detects_unshifted_copy():
    P = periodize(shannon_scaling_hat(), 128, (-2, 2))
    rep = multiplication_check(P, P, 1e-12)
    assert not rep.passed


def test_multiplication_check_grid_mismatch():
    P = periodize(shannon_scaling_hat(), 128, (-2, 2))
    Q = periodize(shannon_scaling_hat(), 64, (-2, 2))
    with pytest.raises(ValueError):
        multiplication_check(P, Q)


@pytest.mark.parametrize("n_grid,k_range", [(1, (-2, 2)), (64, (2, 1))])
def test_periodize_rejects_a_degenerate_grid(n_grid, k_range):
    with pytest.raises(ValueError):
        periodize(shannon_scaling_hat(), n_grid, k_range)


def test_coverage_error_reports_missed_mass():
    with pytest.raises(PeriodizationError) as err:
        periodize(shannon_wavelet_hat(), 32, (0, 3))
    assert err.value.missed_mass == pytest.approx(0.5)


def test_norm_identity_haar():
    # mean over theta of the per-theta mass is the squared function norm (1)
    P = periodize(haar_scaling_hat(), 512, (-64, 64))
    assert float(np.mean(P.column_norm_sq())) == pytest.approx(1.0, abs=1e-6)


def test_sinc_norms_converge_as_k_range_grows():
    raw_gap = []
    for k in (8, 32, 128):
        P = periodize(haar_scaling_hat(), 64, (-k, k))
        raw = np.sum(np.abs(P.values) ** 2, axis=0)
        raw_gap.append(float(np.max(np.abs(raw - 1.0))))
    assert raw_gap[0] > raw_gap[1] > raw_gap[2]
    # 1/k decay of the raw gap, within a factor
    assert raw_gap[2] < raw_gap[0] / 8


def test_indicator_norm_stability_across_grids():
    for n in (64, 128, 512):
        P = periodize(shannon_scaling_hat(), n, (-2, 2))
        assert float(np.max(np.abs(P.column_norm_sq() - 1.0))) == 0.0
