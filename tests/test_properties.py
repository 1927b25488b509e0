"""Cross-cutting properties: lattice filter family, exponential-family checks.

The two-rotation lattice parametrizes every real orthogonal 4-tap filter
whose even and odd coefficient sums are both 1/sqrt(2):

    h = [c1 c0, s1 c0, -s1 s0, c1 s0],   t1 = pi/4 - t0.

It contains the box filter (t0 = 0) and the 4-tap maximally flat one
(t0 = -pi/12), so it drives the whole filter pipeline across a family
rather than two fixtures.
"""

import math
import random

import numpy as np
import pytest

from swl import (
    AlphaMatrix,
    EXPONENTIAL,
    FCoordVec,
    GCoordVec,
    Window,
    act,
    check_filter_orthogonality,
    check_pair_conditions,
    check_scaling_coordinate_identity,
    check_wavelet_orthonormality,
    daubechies4,
    mirror_filter,
    oracle_F_coords,
    scaling_coords_from_filter,
)
from swl.bases import FunctionSpec
from swl.core import PLUS, coord_equal
from swl.filters import LaurentPoly
from swl.wavelet import check_example_unit_interval


def lattice4(t0: float) -> LaurentPoly:
    t1 = math.pi / 4 - t0
    c0, s0 = math.cos(t0), math.sin(t0)
    c1, s1 = math.cos(t1), math.sin(t1)
    return LaurentPoly.from_map({0: c1 * c0, 1: s1 * c0, 2: -s1 * s0, 3: c1 * s0})


def test_lattice_contains_the_named_filters():
    assert lattice4(0.0).support() == (0, 1)  # the box filter: taps 2, 3 vanish
    d4 = daubechies4().as_dict()
    got = lattice4(-math.pi / 12).as_dict()
    assert max(abs(got[k] - d4[k]) for k in range(4)) <= 1e-15


def test_lattice_family_is_orthogonal_everywhere():
    rng = random.Random(271828)
    for _ in range(12):
        t0 = rng.uniform(-1.3, 1.3)
        h = lattice4(t0)
        rep = check_filter_orthogonality(h, 6, 1e-12)
        assert rep.passed, (t0, rep.max_residual)
        pair = check_pair_conditions(h, mirror_filter(h, 0), 6, 512, 1e-12)
        assert pair.passed, t0
        # the normalized 2x2 circle matrix is unimodular across the family
        omega = np.exp(2j * np.pi * np.arange(128) / 128)
        g = mirror_filter(h, 0)
        det = 0.5 * (h(omega) * g(-omega) - g(omega) * h(-omega))
        assert float(np.max(np.abs(np.abs(det) - 1.0))) <= 1e-10


def test_lattice_cascade_mass_accounting():
    rng = random.Random(314159)
    for _ in range(6):
        t0 = rng.uniform(-1.2, 1.2)
        h = lattice4(t0)
        if abs(h.as_dict().get(0, 0j)) < 1e-3:  # support must start at 0
            continue
        vec, tail = scaling_coords_from_filter(h, 8)
        assert vec.norm_sq() + tail == pytest.approx(1.0, abs=1e-12), t0
        # unit-cell masses always sum to 1 (the refinement fixed point)
        assert sum(vec[(0, n)].real for n in range(3)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("t0", [-math.pi / 12, 0.005])
def test_lattice_smooth_members_have_orthonormal_translates(t0):
    # angles whose scaling coordinates decay fast enough that the cascade
    # truncation sits below the identity tolerance
    vec, tail = scaling_coords_from_filter(lattice4(t0), 12)
    rep = check_scaling_coordinate_identity(vec, 4, max(1e-6, 4.0 * tail))
    assert rep.passed


def test_lazy_filter_translates_not_orthonormal():
    # t0 = pi/4 collapses to taps {0, 3}: the refinement solution is the
    # stretched box on [0, 3), whose integer translates overlap
    vec, tail = scaling_coords_from_filter(lattice4(math.pi / 4), 10)
    rep = check_scaling_coordinate_identity(vec, 4, 1e-6)
    assert not rep.passed
    assert rep.max_residual > 0.1


# -- exponential-family wavelet checks ------------------------------------------

@pytest.fixture(scope="module")
def w_exp_labels():
    # label radius large enough that the worst per-q clipped tail sits well
    # below the known residual, making the failure verdict definite
    return Window.symmetric(EXPONENTIAL, 512, 6, 12)


def test_exponential_single_mode_candidate_fails_as_wavelet(A_exp, w_exp_labels):
    # e^{2 pi i 5 x} restricted to [1, 2): unit norm, orthonormal translates,
    # but dilation pairs it with itself; first failure at (p, q) = (1, 1)
    # with the closed-form magnitude 2 sqrt(2) / (10 pi)
    cand = GCoordVec({(PLUS, 5, 0): 1.0})
    rep = check_wavelet_orthonormality(cand, A_exp, 2, w_exp_labels, 1e-12)
    assert not rep.passed
    res = dict(rep.details)
    want = 2.0 * math.sqrt(2.0) / (10.0 * math.pi)
    assert res[(1, 1)] == pytest.approx(want, abs=1e-12)
    assert res[(1, 1)] > rep.tol + rep.slack  # fails beyond the window allowance
    # pure translates and pure dilates stay orthonormal
    for p in (-2, -1, 1, 2):
        assert res[(p, 0)] <= 1e-12
    for q in (-2, -1, 1, 2):
        assert res[(0, q)] <= 1e-12
    assert res[(0, 0)] <= 1e-12


def test_exponential_candidate_specialized_check_agrees(A_exp, w_exp_labels):
    cand = GCoordVec({(PLUS, 5, 0): 1.0})
    rep = check_example_unit_interval(cand, A_exp, 2, [(PLUS, 4), (PLUS, 5)],
                                      w_exp_labels, 1e-12)
    assert not rep.passed
    res = dict(rep.details)
    assert res[(1, 1)] == pytest.approx(abs(AlphaMatrix(EXPONENTIAL).entry(5, 2, PLUS, 5, -1)),
                                        abs=1e-14)
    note = next(n for n in rep.notes if "agree" in n)
    assert float(note.split()[-1]) <= 1e-12


def test_exponential_act_residual_within_declared_tail(A_exp):
    # fat-tailed family: the act cannot hit tight tolerances at small windows,
    # but its error must stay below the clipped-tail bound it reports
    w = Window.symmetric(EXPONENTIAL, 24, 6, 12)
    v = FCoordVec({(0, 0): 1.0})
    got, tail = act(v, 1, 0, "DT", A_exp, w)
    want = oracle_F_coords(
        FunctionSpec.piecewise([(0, "1/2", (math.sqrt(2),))]), EXPONENTIAL, w
    )
    residual = coord_equal(got, want, 0.0).max_residual
    assert residual <= tail
    assert residual > 1e-9  # documents why only the Haar family meets 1e-8 here
