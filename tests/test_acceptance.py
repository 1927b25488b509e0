"""Acceptance gate: one test per top-level criterion, at the stated tolerances.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them inline).  Windows are chosen per criterion: scale ladders deep enough
that truncation dust sits below the stated tolerance, label sets as
stated.  The exponential-family round trip is verified under its own
qualifying condition (reported clipped tail at or below 1e-10); vectors
whose rows cannot be captured at the stated window are checked against
the reported-tail contract instead.  No feasible window makes those rows
hit 1e-9: exponential rows and columns decay like 1/label, so the mass
clipped at label radius J falls only like 1/J (about 0.4/J for column
(+, 0, 2)), and an l2 tail of 1e-9 would need J near 4e17.
"""

import math
import random
import time

import pytest

from swl import (
    AlphaMatrix,
    EXPONENTIAL,
    FCoordVec,
    GCoordVec,
    HAAR,
    K_elem,
    L_elem,
    Window,
    act_DT_on_F,
    alpha_entry,
    check_filter_orthogonality,
    check_orthonormal_translates,
    check_pair_conditions,
    check_scaling_coordinate_identity,
    check_scaling_hypotheses,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
    construct_wavelet_coords,
    coord_norm_sq,
    daubechies4,
    extract_two_scale,
    f_from_g,
    g_from_f,
    mirror_filter,
    oracle_F_coords,
    oracle_G_coords,
    periodize,
    reconstruct_scaling_coords,
    scaling_coords_from_filter,
    shannon_scaling_hat,
)
from swl.bases import FunctionSpec, apply_DT
from swl.core import MINUS, PLUS, coord_equal
from swl.fourier import haar_scaling_hat
from swl.quadrature import inner_product
from swl.wavelet import check_example_unit_interval

SQ2 = math.sqrt(2.0)


def _verdict(number: int, name: str, ok: bool) -> None:
    print(f"[acceptance] criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")


# -- 1: closed-form alpha vs oracle --------------------------------------------

def test_criterion_1_alpha_validation():
    start = time.monotonic()
    rng = random.Random(20260808)
    worst = 0.0
    for fam, lab_lo in ((HAAR, 0), (EXPONENTIAL, -8)):
        for _ in range(50):
            i = rng.randint(lab_lo, 8)
            j = rng.randint(lab_lo, 8)
            n = rng.randint(-4, 4)
            m = rng.randint(-3, 3)
            s = rng.choice([PLUS, MINUS])
            closed = alpha_entry(fam, i, n, s, j, m)
            oracle = inner_product(L_elem(fam, i, n), K_elem(fam, s, j, m))
            worst = max(worst, abs(closed - oracle))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    _verdict(1, f"alpha vs oracle, worst {worst:.2e}, {elapsed:.1f}s", ok)
    assert worst <= 1e-9
    assert elapsed < 10.0


# -- 2: transfer round trip ------------------------------------------------------

def test_criterion_2_round_trip_haar():
    A = AlphaMatrix(HAAR)
    w = Window.symmetric(HAAR, 8, 8, 76)
    rng = random.Random(11)
    worst = 0.0
    worst_tail = 0.0
    for _ in range(8):
        v = FCoordVec({(rng.randint(0, 4), rng.randint(-4, 4)):
                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9)})
        tails: list[float] = []
        back = f_from_g(g_from_f(v, A, w, tails), A, w, tails)
        rep = coord_equal(back, v, 1e-9)
        worst = max(worst, rep.max_residual)
        worst_tail = max(worst_tail, sum(tails))
    ok = worst <= 1e-9 and worst_tail <= 1e-10
    _verdict(2, f"haar round trip, worst {worst:.2e}, tail {worst_tail:.2e}", ok)
    assert worst <= 1e-9
    assert worst_tail <= 1e-10


def test_criterion_2_round_trip_exponential():
    # m-window radius 12 as stated; the identity claim applies to vectors whose
    # reported clipped tail is at most 1e-10, which at this window means the
    # rows transported to single dilation-side entries (n = 1 and n = -2).
    A = AlphaMatrix(EXPONENTIAL)
    w = Window.symmetric(EXPONENTIAL, 8, 4, 12)
    rng = random.Random(13)
    worst = 0.0
    worst_tail = 0.0
    for _ in range(8):
        v = FCoordVec({(rng.randint(-4, 4), rng.choice([1, -2])):
                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(9)})
        tails: list[float] = []
        back = f_from_g(g_from_f(v, A, w, tails), A, w, tails)
        rep = coord_equal(back, v, 1e-9)
        worst = max(worst, rep.max_residual)
        worst_tail = max(worst_tail, sum(tails))

    # honesty of the reporting on the rows the window cannot capture: the
    # clipped tail must be declared and must dominate the actual residual
    probe = FCoordVec({(0, 0): 1.0})
    tails = []
    back = f_from_g(g_from_f(probe, A, w, tails), A, w, tails)
    residual = coord_equal(back, probe, 1e-9).max_residual
    declared = sum(tails)

    ok = worst <= 1e-9 and worst_tail <= 1e-10 and residual <= declared and declared > 1e-10
    _verdict(2, f"exponential round trip (qualified), worst {worst:.2e}; "
                f"ladder row declares tail {declared:.2e} >= residual {residual:.2e}", ok)
    assert worst <= 1e-9
    assert worst_tail <= 1e-10
    assert residual <= declared
    assert declared > 1e-10  # the stated window genuinely cannot capture these rows


# -- 3: Parseval ------------------------------------------------------------------

def test_criterion_3_parseval():
    chi = FunctionSpec.indicator(0, 3)
    haar_coords = oracle_F_coords(chi, HAAR, Window.symmetric(HAAR, 8, 4, 8))
    exp_coords = oracle_F_coords(chi, EXPONENTIAL, Window.symmetric(EXPONENTIAL, 8, 4, 4))
    nh = coord_norm_sq(haar_coords)
    ne = coord_norm_sq(exp_coords)
    ok = abs(nh - 3.0) <= 1e-12 and abs(ne - 3.0) <= 1e-12
    _verdict(3, f"parseval, haar {nh!r}, exponential {ne!r}", ok)
    assert nh == pytest.approx(3.0, abs=1e-12)
    assert ne == pytest.approx(3.0, abs=1e-12)
    # the exponential coefficients are exactly one delta per unit cell
    assert dict(exp_coords.items()) == {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}


# -- 4: group action ----------------------------------------------------------------

def test_criterion_4_group_action():
    A = AlphaMatrix(HAAR)
    w = Window.symmetric(HAAR, 8, 8, 60)
    psi_hat = FCoordVec({(1, 0): 1.0})
    psi = FunctionSpec.haar_wavelet()
    oracle_w = Window.symmetric(HAAR, 64, 16, 10)
    worst = 0.0
    worst_norm = 0.0
    for p in range(-2, 3):
        for q in range(-2, 3):
            got = act_DT_on_F(psi_hat, p, q, A, w)
            want = oracle_F_coords(apply_DT(psi, p, q), HAAR, oracle_w)
            worst = max(worst, coord_equal(got, want, 1e-8).max_residual)
            worst_norm = max(worst_norm, abs(coord_norm_sq(got) - 1.0))
    ok = worst <= 1e-8 and worst_norm <= 1e-8
    _verdict(4, f"group action vs oracle, worst {worst:.2e}, norm drift {worst_norm:.2e}", ok)
    assert worst <= 1e-8
    assert worst_norm <= 1e-8


# -- 5: wavelet characterization -----------------------------------------------------

def test_criterion_5_wavelet_characterization():
    A = AlphaMatrix(HAAR)
    w = Window.symmetric(HAAR, 8, 10, 60)
    psi = oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, Window.symmetric(HAAR, 4, 4, 60))
    phi = oracle_G_coords(FunctionSpec.haar_scaling(), HAAR, Window.symmetric(HAAR, 4, 4, 60))

    rep_psi = check_wavelet_orthonormality(psi, A, 3, w, 1e-10)

    rep_phi = check_wavelet_orthonormality(phi, A, 3, w, 1e-10)
    phi_fail_res = dict(rep_phi.details)[(1, 0)]

    shifted = GCoordVec({(PLUS, 1, 0): 1.0})
    rep_ex1 = check_example_unit_interval(
        shifted, A, 3, [(PLUS, 0), (PLUS, 1), (PLUS, 2), (MINUS, 0)], w, 1e-10
    )

    reachable = [(PLUS, j) for j in range(7)] + [(MINUS, j) for j in (0, 1, 2, 3, 6, 7)]
    rng = random.Random(48)
    rank_ok = True
    for labels in [reachable[:6]] + [rng.sample(reachable, rng.randint(1, 6)) for _ in range(10)]:
        rep = check_wavelet_completeness(psi, A, labels, 6, w, 1e-8)
        rank_ok = rank_ok and rep.passed

    ok = (rep_psi.passed and rep_ex1.passed and not rep_phi.passed
          and abs(phi_fail_res - 1 / SQ2) <= 1e-10 and rank_ok)
    _verdict(5, f"wavelet characterization, psi residual {rep_psi.max_residual:.2e}, "
                f"phi fails at (1,0) with {phi_fail_res:.12f}", ok)
    assert rep_psi.passed and rep_psi.max_residual <= 1e-10
    assert rep_ex1.passed
    assert not rep_phi.passed
    assert phi_fail_res == pytest.approx(1 / SQ2, abs=1e-10)
    assert rank_ok


# -- 6: scaling identities -------------------------------------------------------------

def test_criterion_6_scaling_identities():
    rep_autocorr = check_scaling_coordinate_identity(FCoordVec({(0, 0): 1.0}), 6, 1e-15)

    shannon = periodize(shannon_scaling_hat(), 512, (-64, 64))
    rep_shannon = check_scaling_hypotheses(shannon, 1e-15)

    haar_hat = periodize(haar_scaling_hat(), 512, (-64, 64))
    rep_haar = check_scaling_hypotheses(haar_hat, 1e-9)
    rep_haar_translates = check_orthonormal_translates(haar_hat, 1e-9)

    ok = (rep_autocorr.passed and rep_autocorr.max_residual == 0.0
          and rep_shannon.passed and rep_shannon.max_residual == 0.0
          and rep_haar.passed and rep_haar_translates.passed)
    _verdict(6, f"scaling identities, haar-hat residual {rep_haar.max_residual:.2e}", ok)
    assert rep_autocorr.passed and rep_autocorr.max_residual == 0.0
    assert rep_shannon.passed and rep_shannon.max_residual == 0.0
    assert rep_haar.passed
    assert rep_haar_translates.passed


# -- 7: filters --------------------------------------------------------------------------

def test_criterion_7_filters():
    start = time.monotonic()
    A = AlphaMatrix(HAAR)
    w = Window.symmetric(HAAR, 8, 10, 70)

    h = extract_two_scale(FunctionSpec.haar_scaling(), 4)
    hmap = h.as_dict()
    extract_ok = (set(hmap) == {0, 1}
                  and abs(hmap[0] - 1 / SQ2) <= 1e-12 and abs(hmap[1] - 1 / SQ2) <= 1e-12)

    rep_h = check_filter_orthogonality(h, 8, 1e-12)
    rep_d4 = check_filter_orthogonality(daubechies4(), 8, 1e-12)

    g = mirror_filter(h, 0)
    rep_pair = check_pair_conditions(h, g, 8, 1024, 1e-12)
    min_det = dict(rep_pair.details)[("grid", "min_abs_det")]

    phi_hat = FCoordVec({(0, 0): 1.0})
    _, rep_rec = reconstruct_scaling_coords(phi_hat, h, A, w, tol=1e-10)
    psi_hat = construct_wavelet_coords(phi_hat, h, A, w)
    target = FCoordVec({(1, 0): 1.0})
    construct_ok = (coord_equal(psi_hat, target, 1e-10).passed
                    or coord_equal(psi_hat, target.scaled(-1.0), 1e-10).passed)

    d4_phi, d4_tail = scaling_coords_from_filter(daubechies4(), 12)
    w_d4 = Window.symmetric(HAAR, 8, 10, 50)
    d4_psi = construct_wavelet_coords(d4_phi, daubechies4(), A, w_d4)
    d4_tilde = g_from_f(d4_psi, A, w_d4)
    rep_d4_wav = check_wavelet_orthonormality(d4_tilde, A, 2, w_d4, 1e-4,
                                              candidate_tail_sq=d4_tail)
    agree_note = next(n for n in rep_d4_wav.notes if "routes agree" in n)
    d4_disagreement = float(agree_note.split()[-1])

    elapsed = time.monotonic() - start
    ok = (extract_ok and rep_h.passed and rep_d4.passed and rep_pair.passed
          and min_det >= 1.0 and rep_rec.passed and construct_ok
          and rep_d4_wav.passed and rep_d4_wav.max_residual <= 1e-4
          and d4_disagreement <= 1e-12 and elapsed < 60.0)
    _verdict(7, f"filters, d4 wavelet residual {rep_d4_wav.max_residual:.2e}, "
                f"route disagreement {d4_disagreement:.2e}, "
                f"min det {min_det:.3g}, {elapsed:.1f}s", ok)
    assert extract_ok
    assert rep_h.passed and rep_h.max_residual <= 1e-12
    assert rep_d4.passed and rep_d4.max_residual <= 1e-12
    assert rep_pair.passed
    assert min_det >= 1.0
    assert rep_rec.passed and rep_rec.max_residual <= 1e-10
    assert construct_ok
    assert rep_d4_wav.passed and rep_d4_wav.max_residual <= 1e-4
    assert d4_disagreement <= 1e-12
    assert elapsed < 60.0
