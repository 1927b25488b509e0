"""Shift actions and the four cross-model group-word actions."""

import math
import random

import pytest

from swl import (
    EXPONENTIAL,
    FCoordVec,
    GCoordVec,
    HAAR,
    AlphaMatrix,
    LaurentPoly,
    Window,
    act,
    construct_wavelet_coords,
    daubechies4,
    f_from_g,
    filter_action_on_coords,
    g_from_f,
    reconstruct_scaling_coords,
    scaling_coords_from_filter,
    shift_D,
    shift_T,
    transfer,
)
from swl.alpha import column_terms, row_terms
from swl.bases import FunctionSpec, dilate_spec, translate_spec
from swl.core import MINUS, PLUS, coord_equal
from swl.quadrature import oracle_F_coords, oracle_G_coords

PSI_HAT = FCoordVec({(1, 0): 1.0})
PHI_HAT = FCoordVec({(0, 0): 1.0})


def test_shift_T_moves_entries():
    assert dict(shift_T(FCoordVec({(1, 0): 1.0}), 1).items()) == {(1, 1): 1.0}


def test_shift_T_identity_and_group_law():
    v = FCoordVec({(1, 0): 1.0, (0, 2): -2j})
    assert shift_T(v, 0) is v
    assert coord_equal(shift_T(shift_T(v, 3), -3), v, 0.0).passed


def test_shift_D_mirrors_shift_T():
    v = GCoordVec({(1, 2, 0): 1.0, (-1, 0, 3): 1j})
    assert dict(shift_D(v, 1).items()) == {(1, 2, 1): 1.0, (-1, 0, 4): 1j}
    assert shift_D(v, 0) is v
    assert coord_equal(shift_D(shift_D(v, -2), 2), v, 0.0).passed


def test_act_DT_p0_collapses_to_shift(A_haar, w_haar):
    v = FCoordVec({(1, 0): 1.0, (0, -2): 0.5j})
    got = act(v, 0, 3, "DT", A_haar, w_haar)[0]
    assert coord_equal(got, shift_T(v, 3), 0.0).passed


def test_act_on_G_q0_collapses_to_shift(A_haar, w_haar):
    v = GCoordVec({(1, 0, 1): 1.0})
    assert coord_equal(act(v, 2, 0, "DT", A_haar, w_haar)[0], shift_D(v, 2), 0.0).passed
    assert coord_equal(act(v, 2, 0, "TD", A_haar, w_haar)[0], shift_D(v, 2), 0.0).passed


@pytest.mark.parametrize("p,q", [(1, 0), (1, 1), (-1, 2), (2, -1), (-2, -2)])
def test_act_DT_on_F_matches_oracle(A_haar, w_haar, p, q):
    got = act(PSI_HAT, p, q, "DT", A_haar, w_haar)[0]
    moved = dilate_spec(translate_spec(FunctionSpec.haar_wavelet(), q), p)
    want = oracle_F_coords(moved, HAAR, Window.symmetric(HAAR, 64, 16, 8))
    assert coord_equal(got, want, 1e-8).passed
    assert got.norm_sq() == pytest.approx(1.0, abs=1e-8)


def test_act_TD_equals_DT_with_doubled_translation(A_haar, w_haar):
    for p in (0, 1, 2):
        for q in (-2, 1, 3):
            a = act(PSI_HAT, p, q, "TD", A_haar, w_haar)[0]
            b = act(PSI_HAT, p, (2 ** p) * q, "DT", A_haar, w_haar)[0]
            assert coord_equal(a, b, 1e-9).passed


def test_act_TD_q0_equals_DT(A_haar, w_haar):
    a = act(PSI_HAT, 2, 0, "TD", A_haar, w_haar)[0]
    b = act(PSI_HAT, 2, 0, "DT", A_haar, w_haar)[0]
    assert coord_equal(a, b, 0.0).passed


def test_act_TD_on_phi_matches_oracle(A_haar, w_haar):
    # T D^{-1} applied to the box: 2^{-1/2} chi_[1,3)
    got = act(PHI_HAT, -1, 1, "TD", A_haar, w_haar)[0]
    want_spec = FunctionSpec.piecewise([(1, 3, (1 / math.sqrt(2),))])
    want = oracle_F_coords(want_spec, HAAR, Window.symmetric(HAAR, 32, 8, 8))
    assert coord_equal(got, want, 1e-8).passed


@pytest.mark.parametrize("p,q", [(1, 1), (-1, 2), (2, -2)])
def test_act_DT_on_G_matches_oracle(A_haar, w_haar, p, q):
    psi_tilde = oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, Window.symmetric(HAAR, 4, 4, 60))
    got = act(psi_tilde, p, q, "DT", A_haar, w_haar)[0]
    moved = dilate_spec(translate_spec(FunctionSpec.haar_wavelet(), q), p)
    want = oracle_G_coords(moved, HAAR, Window.symmetric(HAAR, 80, 6, 62))
    assert coord_equal(got, want, 1e-8).passed


def test_act_TD_on_G_matches_oracle(A_haar, w_haar):
    phi_tilde = oracle_G_coords(FunctionSpec.haar_scaling(), HAAR, Window.symmetric(HAAR, 4, 4, 60))
    got = act(phi_tilde, 1, 2, "TD", A_haar, w_haar)[0]
    want = oracle_G_coords(
        FunctionSpec.piecewise([(2, "5/2", (math.sqrt(2),))]),  # T^2 D phi = sqrt2 chi_[2,5/2)
        HAAR, Window.symmetric(HAAR, 32, 6, 62))
    assert coord_equal(got, want, 1e-8).passed


def test_unitarity_of_actions(A_haar, w_haar):
    rng = random.Random(12)
    v = FCoordVec({(rng.randint(0, 4), rng.randint(-3, 3)): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(8)})
    base = v.norm_sq()
    for p, q in [(1, 1), (-1, 0), (2, -1), (-2, 2)]:
        assert act(v, p, q, "DT", A_haar, w_haar)[0].norm_sq() == pytest.approx(base, abs=1e-8)
        assert act(v, p, q, "TD", A_haar, w_haar)[0].norm_sq() == pytest.approx(base, abs=1e-8)


def test_group_law_on_window(A_haar, w_haar):
    rng = random.Random(2024)
    v = FCoordVec({(rng.randint(0, 3), rng.randint(-2, 2)): rng.uniform(-1, 1) for _ in range(6)})
    for p1, q1, p2, q2 in [(1, 1, -1, 2), (0, 2, 1, -1), (2, -1, 0, 1), (1, 0, 1, 1)]:
        a = act(act(v, p1, q1, "DT", A_haar, w_haar)[0], p2, q2, "DT", A_haar, w_haar)[0]
        b = act(v, p1 + p2, q1 + (2 ** p1) * q2, "DT", A_haar, w_haar)[0]
        assert coord_equal(a, b, 1e-7).passed


def test_model_consistency(A_haar, w_haar):
    v = FCoordVec({(1, 0): 1.0, (2, 1): -0.5, (0, -1): 0.25j})
    for p, q in [(1, 1), (-1, 2), (2, -2)]:
        lhs = g_from_f(act(v, p, q, "DT", A_haar, w_haar)[0], A_haar, w_haar)
        rhs = act(g_from_f(v, A_haar, w_haar), p, q, "DT", A_haar, w_haar)[0]
        assert coord_equal(lhs, rhs, 1e-7).passed


def _uncapped_ladder_column(s, j, m):
    # the whole ladder column (s, 0, m), m > 0: the box, then one wavelet per scale r < m
    from haar_tables import _SQRT1_2, _pow2h
    from swl.core import PLUS, TransIndex

    n = 0 if s == PLUS else -1
    out = [(TransIndex(0, n), complex(_pow2h(-m)))]
    for r in range(m - 1, -1, -1):
        i = (1 << r) if s == PLUS else (1 << (r + 1)) - 1
        if r == m - 1:
            val = -_SQRT1_2 if s == PLUS else _SQRT1_2
        else:
            val = _pow2h(r - m) if s == PLUS else -_pow2h(r - m)
        out.append((TransIndex(i, n), complex(val)))
    return out


def _through_g(v, p, A, w):
    """D^p on translation-model coordinates by the explicit transfer
    composition: to the dilation model, shift the scale, and back."""
    return f_from_g(shift_D(g_from_f(v, A, w), p), A, w)


def test_capped_ladder_column_gives_the_uncapped_action():
    # entries more than 1074 scales below m have amplitude exactly 0.0, so the
    # column stops there; the transfer back must not see the difference from
    # the whole columns, summed term by term in source order
    from haar_tables import _haar_column
    from swl import AlphaMatrix

    w = Window.symmetric(HAAR, 2)
    A = AlphaMatrix(HAAR)
    capped = _through_g(PSI_HAT, 1200, A, w)
    whole = {}
    for (s, j, m), x in shift_D(g_from_f(PSI_HAT, A, w), 1200).items():
        column = _uncapped_ladder_column(s, j, m) if j == 0 and m > 0 else _haar_column(s, j, m)
        for key, a in column:
            whole[key] = whole.get(key, 0j) + a.conjugate() * x
    whole = FCoordVec(whole)
    assert [(k, repr(v)) for k, v in capped.items()] == [(k, repr(v)) for k, v in whole.items()]


def test_ladder_column_stays_small_at_large_scales():
    import time
    import tracemalloc

    from haar_tables import _haar_column
    from swl import AlphaMatrix

    # the box, then the wavelets at scales m - 1 down to m - 1074
    assert len(_haar_column(1, 0, 3000)) == 1 + 1074
    assert len(_haar_column(-1, 0, 3000)) == 1 + 1074
    assert len(_haar_column(1, 0, 500)) == 1 + 500
    w = Window.symmetric(HAAR, 2)
    A = AlphaMatrix(HAAR)
    tracemalloc.start()
    start = time.perf_counter()
    out = _through_g(PSI_HAT, 100000, A, w)
    took = time.perf_counter() - start
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    # the kept wavelets have labels near 2^100000 (12.5 kB each); the whole
    # column would hold 100000 of them
    assert len(out) == 97
    assert peak < 64e6
    assert took < 10.0
    # in the translation model D is a relabel: psi moves to the one wavelet
    # of level 100000, where the transfers clipped the window's ladder rows
    got, tail = act(PSI_HAT, 100000, 0, "DT", A, w)
    assert (dict(got.items()), tail) == ({(1 << 100000, 0): 1.0}, 0.0)


# -- the word evaluator against the transfer compositions it replaced -------------

def _to_g(v, A, w, tails):
    tails.append(row_terms(A, v._cols, w).tails(v._vals)[0])
    return g_from_f(v, A, w)


def _to_f(v, A, w, tails):
    tails.append(column_terms(A, v._cols, w).tails(v._vals)[0])
    return f_from_g(v, A, w)


def _composed(v, p, q, order, A, w, tails):
    """Each word and model as its own chain of shifts and transfers."""
    if isinstance(v, FCoordVec):
        if p == 0:
            return shift_T(v, q)
        if A.fam is HAAR:  # D is native in the Haar translation model
            return shift_D(shift_T(v, q), p) if order == "DT" else shift_T(shift_D(v, p), q)
        if order == "DT":
            return _to_f(shift_D(_to_g(shift_T(v, q), A, w, tails), p), A, w, tails)
        return shift_T(_to_f(shift_D(_to_g(v, A, w, tails), p), A, w, tails), q)
    if q == 0:
        return shift_D(v, p)
    if order == "DT":
        return shift_D(_to_g(shift_T(_to_f(v, A, w, tails), q), A, w, tails), p)
    return _to_g(shift_T(_to_f(shift_D(v, p), A, w, tails), q), A, w, tails)


def _bits(v):
    return type(v), [(c.dtype.str, c.tobytes()) for c in v._cols], v._vals.tobytes()


def _random_pair(rng, fam):
    label = (lambda: rng.randint(0, 9)) if fam is HAAR else (lambda: rng.randint(-3, 3))

    def val():
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))

    f = FCoordVec({(label(), rng.randint(-5, 5)): val() for _ in range(rng.randint(1, 8))})
    g = GCoordVec({(rng.choice([PLUS, MINUS]), label(), rng.randint(-3, 4)): val()
                   for _ in range(rng.randint(1, 8))})
    return f, g


@pytest.mark.parametrize("fam,w", [(HAAR, Window.symmetric(HAAR, 4, 4, 10)),
                                   (EXPONENTIAL, Window.symmetric(EXPONENTIAL, 3, 3, 4))])
def test_act_is_the_composed_words_bit_for_bit(fam, w):
    # every order, model and zero power: the vector's key and value bytes, and
    # the tail summed in transfer order from 0.0
    A, rng = AlphaMatrix(fam), random.Random(18)
    for _ in range(4):
        for v in _random_pair(rng, fam):
            for order in ("DT", "TD"):
                for p in (-1, 0, 1):
                    for q in (-2, 0, 1):
                        tails = []
                        want = _composed(v, p, q, order, A, w, tails)
                        got, tail = act(v, p, q, order, A, w)
                        assert _bits(got) == _bits(want)
                        assert tail.hex() == sum(tails, 0.0).hex()


def test_filter_refinement_is_the_composed_word(A_haar):
    # the convolution, then the translation model's D; the explicit transfer
    # composition agrees with it within what its transfers clipped
    w = Window.symmetric(HAAR, 8, 10, 50)
    h = daubechies4()
    phi, _ = scaling_coords_from_filter(h, 8)
    flipped = LaurentPoly.from_map({1 - k: ((-1.0) ** k) * x for k, x in h.coeffs})
    for filt, got in ((h, reconstruct_scaling_coords(phi, h, A_haar, w)[0]),
                      (flipped, construct_wavelet_coords(phi, h, A_haar, w))):
        conv = filter_action_on_coords(phi, filt)
        assert _bits(got) == _bits(shift_D(conv, 1))
        lifted, tail = transfer(conv, A_haar, w)
        through, back = transfer(shift_D(lifted, 1), A_haar, w)
        gap = math.sqrt(math.fsum(abs(got[k] - through[k]) ** 2
                                  for k in {*got.keys(), *through.keys()}))
        assert gap <= tail + back + 1e-14


def test_haar_translation_model_D_is_exact(A_haar, w_haar):
    # D phi = (L_0 + L_1)/sqrt2, D^-1 psi = (L_0 - L_0(. - 1))/sqrt2, and the
    # wavelet 2^{l/2} psi(2^l x - b) moves one level up or down at the same b;
    # nothing is clipped, whatever the window
    r = math.sqrt(0.5)
    for v, p, q, want in [
        (PHI_HAT, 1, 0, {(0, 0): r, (1, 0): r}),
        (FCoordVec({(0, 3): 1.0}), 1, 0, {(0, 1): r, (1, 1): -r}),
        (FCoordVec({(0, 0): 1.0, (0, 1): 1.0}), 1, 0, {(0, 0): 2 * r}),
        (PSI_HAT, -1, 0, {(0, 0): r, (0, 1): -r}),
        (PSI_HAT, 1, 1, {(3, 0): 1.0}),
        (FCoordVec({(5, -3): 2j}), -2, 0, {(1, -11): 2j}),  # b = 1 - 3 * 4
        (FCoordVec({(5, -3): 2j}), 1, 0, {(13, -2): 2j}),
        (PSI_HAT, 2000, 1, {((1 << 2000) + 1, 0): 1.0}),
    ]:
        got, tail = act(v, p, q, "DT", A_haar, w_haar)
        assert (dict(got.items()), tail) == (want, 0.0)


def test_haar_translation_model_words_make_no_transfer(monkeypatch, A_haar):
    from swl import group_action

    calls = []
    monkeypatch.setattr(group_action, "transfer",
                        lambda v, A, w: calls.append(type(v).__name__) or transfer(v, A, w))
    w = Window.symmetric(HAAR, 8, 10, 50)
    v = FCoordVec({(0, 0): 1.0, (3, -2): 0.5j, (1 << 70, 5): -0.25})
    for order in ("DT", "TD"):
        for p, q in ((1, 0), (-2, 3), (3, -1), (0, 2)):
            act(v, p, q, order, A_haar, w)
    h = daubechies4()
    phi, _ = scaling_coords_from_filter(h, 8)
    construct_wavelet_coords(phi, h, A_haar, w)
    reconstruct_scaling_coords(phi, h, A_haar, w)
    assert calls == []
    # a dilation-model or exponential word transfers as before
    act(GCoordVec({(PLUS, 1, 0): 1.0}), 1, 1, "DT", A_haar, w)
    act(PSI_HAT, 1, 1, "DT", AlphaMatrix(EXPONENTIAL), Window.symmetric(EXPONENTIAL, 2))
    assert calls == ["GCoordVec", "FCoordVec", "FCoordVec", "GCoordVec"]


@pytest.mark.parametrize("fam", [HAAR, EXPONENTIAL])
def test_one_way_transfers_reject_the_other_model(fam):
    A, w = AlphaMatrix(fam), Window.symmetric(fam, 2)
    f, g = FCoordVec({(1, 0): 1.0}), GCoordVec({(PLUS, 1, 0): 1.0})
    with pytest.raises(TypeError):
        g_from_f(g, A, w)
    with pytest.raises(TypeError):
        f_from_g(f, A, w)
    with pytest.raises(TypeError):
        g_from_f(GCoordVec(), A, w)
    with pytest.raises(ValueError):
        act(f, 1, 1, "QD", A, w)
