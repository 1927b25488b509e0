"""Change-of-representation tables against the oracle; transfers and round trips."""

import math
import random

import pytest

from swl import (
    EXPONENTIAL,
    FCoordVec,
    GCoordVec,
    HAAR,
    K_elem,
    L_elem,
    Window,
    alpha_entry,
    alpha_row,
    f_from_g,
    g_from_f,
    oracle_G_coords,
)
from swl.bases import FunctionSpec, InvalidLabelError
from swl.core import MINUS, PLUS, coord_equal
from swl.quadrature import inner_product

SQ2 = math.sqrt(2.0)


# -- single entries ------------------------------------------------------------

def test_exponential_entry_k1_n0():
    got = alpha_entry(EXPONENTIAL, 1, 0, PLUS, 0, 1)
    assert got == pytest.approx(-1j * SQ2 / math.pi, abs=1e-14)
    # the oracle confirms the closed form
    assert got == pytest.approx(
        inner_product(L_elem(EXPONENTIAL, 1, 0), K_elem(EXPONENTIAL, PLUS, 0, 1)), abs=1e-12
    )


def test_exponential_entry_n1_is_kronecker():
    assert alpha_entry(EXPONENTIAL, 3, 1, PLUS, 3, 0) == 1.0
    assert alpha_entry(EXPONENTIAL, 3, 1, PLUS, 2, 0) == 0j
    assert alpha_entry(EXPONENTIAL, 3, 1, MINUS, 3, 0) == 0j
    assert alpha_entry(EXPONENTIAL, 3, 1, PLUS, 3, 1) == 0j


def test_haar_entry_n1_is_kronecker():
    for i in (0, 1, 4, 7):
        assert alpha_entry(HAAR, i, 1, PLUS, i, 0) == 1.0
        assert alpha_entry(HAAR, i, 1, PLUS, i + 1, 0) == 0j


def test_haar_entry_coarse_box():
    # row (0, 2^u + v): coarse-box coefficient 2^{-u/2} at label 0, scale -u
    for u, v in [(1, 0), (2, 3), (3, 5)]:
        n = (1 << u) + v
        assert alpha_entry(HAAR, 0, n, PLUS, 0, -u) == pytest.approx(2.0 ** (-u / 2))
        assert alpha_entry(HAAR, 0, n, PLUS, 0, -u + 1) == 0j


@pytest.mark.parametrize("fam,label_lo", [(HAAR, 0), (EXPONENTIAL, -8)])
def test_entries_match_oracle_random_sample(fam, label_lo):
    rng = random.Random(414213)
    A_entry = lambda *a: alpha_entry(fam, *a)
    for _ in range(60):
        i = rng.randint(label_lo, 8)
        j = rng.randint(label_lo, 8)
        n = rng.randint(-4, 4)
        m = rng.randint(-3, 3)
        s = rng.choice([PLUS, MINUS])
        closed = A_entry(i, n, s, j, m)
        oracle = inner_product(L_elem(fam, i, n), K_elem(fam, s, j, m))
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_invalid_labels():
    with pytest.raises(InvalidLabelError):
        alpha_entry(HAAR, -1, 0, PLUS, 0, 1)
    with pytest.raises(InvalidLabelError):
        alpha_entry(HAAR, 0, 0, 2, 0, 1)


# -- rows -----------------------------------------------------------------------

def test_haar_row_wavelet_ladder(w_haar):
    entries = dict(alpha_row(HAAR, 1, 0, w_haar))
    assert entries[(PLUS, 0, 1)] == pytest.approx(-1 / SQ2)
    for m in range(2, 10):
        assert entries[(PLUS, 0, m)] == pytest.approx(2.0 ** (-m / 2))
    assert all(k[0] == PLUS and k[1] == 0 for k in entries)


def test_haar_row_single_entry(w_haar):
    assert dict(alpha_row(HAAR, 3, 0, w_haar)) == {(PLUS, 1, 1): 1.0}


def test_row_empty_when_window_excludes_everything():
    w = Window.symmetric(HAAR, 4, 4, 4).with_dil_range(-2, 0)
    assert alpha_row(HAAR, 0, 0, w) == []   # ladder starts at m = 1
    w_exp = Window.symmetric(EXPONENTIAL, 4, 4, 4).with_dil_range(-3, 0)
    assert alpha_row(EXPONENTIAL, 2, 0, w_exp) == []


@pytest.mark.parametrize("i,n", [(0, 0), (1, 0), (2, 0), (5, 0), (0, 1), (3, 1), (0, 5),
                                 (6, 3), (0, -1), (1, -1), (4, -1), (2, -2), (0, -6), (5, -4)])
def test_haar_row_mass_with_tail_is_one(A_haar, w_haar, i, n):
    entries, tail = A_haar.row(i, n, w_haar)
    mass = math.fsum(abs(v) ** 2 for _, v in entries)
    assert mass + tail == pytest.approx(1.0, abs=1e-12)
    for key, val in entries:
        assert A_haar.entry(i, n, *key) == pytest.approx(val, abs=1e-14)


@pytest.mark.parametrize("i,n", [(0, 0), (2, 1), (1, 3), (-3, -1), (4, -2), (-2, -5)])
def test_exponential_row_mass_accounting(A_exp, i, n):
    w = Window.symmetric(EXPONENTIAL, 60, 6, 14)
    entries, tail = A_exp.row(i, n, w)
    mass = math.fsum(abs(v) ** 2 for _, v in entries)
    assert mass + tail == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= tail < 0.05
    for key, val in entries[:50]:
        assert A_exp.entry(i, n, *key) == pytest.approx(val, abs=1e-13)


@pytest.mark.parametrize("s,j,m", [(PLUS, 0, 3), (PLUS, 0, 0), (PLUS, 0, -2), (PLUS, 1, 0),
                                   (PLUS, 5, 2), (PLUS, 3, -3), (MINUS, 0, 2), (MINUS, 0, 0),
                                   (MINUS, 0, -1), (MINUS, 2, 1), (MINUS, 7, -2)])
def test_haar_column_transpose_consistency(A_haar, w_haar, s, j, m):
    entries, tail = A_haar.column(s, j, m, w_haar)
    mass = math.fsum(abs(v) ** 2 for _, v in entries)
    assert tail == 0.0  # Haar columns are finite and enumerated whole
    assert mass == pytest.approx(1.0, abs=1e-12)
    for (i, n), val in entries:
        assert A_haar.entry(i, n, s, j, m) == pytest.approx(val, abs=1e-14)


def test_row_case_descriptions(A_haar, A_exp):
    assert "ladder" in A_haar.row_case(1, 0)
    assert A_haar.row_case(3, 0) == "single entry"
    assert "coarse box" in A_haar.row_case(0, 4)
    assert "window-clipped" in A_exp.row_case(0, 0)


# -- transfers ------------------------------------------------------------------

def test_g_from_f_matches_oracle_for_haar_wavelet(A_haar, w_haar):
    psi_hat = FCoordVec({(1, 0): 1.0})
    got = g_from_f(psi_hat, A_haar, w_haar)
    want = oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, Window.symmetric(HAAR, 2, 2, 60))
    assert coord_equal(got, want, 1e-10).passed


def test_g_from_f_unit_vector_examples(A_haar, w_haar):
    assert dict(g_from_f(FCoordVec({(0, 1): 1.0}), A_haar, w_haar).items()) == {(PLUS, 0, 0): 1.0}
    assert len(g_from_f(FCoordVec({}), A_haar, w_haar)) == 0


def test_f_from_g_unit_vector_examples(A_haar, w_haar):
    got = f_from_g(GCoordVec({(PLUS, 0, 0): 1.0}), A_haar, w_haar)
    assert dict(got.items()) == {(0, 1): 1.0}
    assert len(f_from_g(GCoordVec({}), A_haar, w_haar)) == 0


def test_round_trip_haar_random_vectors(A_haar):
    # ladder depth 70: per-entry reconstruction dust ~ 2^{-35} stays under 1e-9
    w = Window.symmetric(HAAR, 8, 10, 70)
    rng = random.Random(99)
    for _ in range(6):
        entries = {}
        for _ in range(10):
            key = (rng.randint(0, 4), rng.randint(-4, 4))
            entries[key] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        v = FCoordVec(entries)
        tails = []
        back = f_from_g(g_from_f(v, A_haar, w, tails), A_haar, w, tails)
        assert coord_equal(back, v, 1e-9).passed
        assert sum(tails) < 1e-8


def test_round_trip_exponential_exact_rows(A_exp, w_exp):
    # rows n = 1 and n = -2 map to single dilation-side entries: no clipping at all
    rng = random.Random(7)
    entries = {(rng.randint(-4, 4), rng.choice([1, -2])): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(8)}
    v = FCoordVec(entries)
    tails = []
    back = f_from_g(g_from_f(v, A_exp, w_exp, tails), A_exp, w_exp, tails)
    assert coord_equal(back, v, 1e-12).passed
    assert sum(tails) == 0.0


def test_exponential_round_trip_reports_honest_tail(A_exp):
    # a unit vector on the scale-ladder row (0, 0) at scale cap 12 loses
    # exactly the 2^{-12} scale tail on the way out; the transfer must say
    # so, and the way back adds the label-clipping tail of the columns
    w = Window.symmetric(EXPONENTIAL, 8, 6, 12)
    v = FCoordVec({(0, 0): 1.0})
    tails = []
    back = f_from_g(g_from_f(v, A_exp, w, tails), A_exp, w, tails)
    assert tails[0] == pytest.approx(math.sqrt(2.0 ** -12), rel=1e-6)
    assert tails[1] > tails[0]  # label clipping dominates for this family
    residual = max(abs(back[k] - v[k]) for k in set(back.keys()) | set(v.keys()))
    assert residual <= sum(tails) + 1e-12
    # the fat tail is real: the columns decay like 1/label, so the mass
    # clipped at label radius J falls only like 1/J
    assert residual > 1e-9


def test_transfer_consistency_with_oracle_presets(A_haar):
    # dilation coordinates via the matrix equal the directly integrated ones
    w = Window.symmetric(HAAR, 16, 6, 60)
    for spec in (FunctionSpec.haar_scaling(), FunctionSpec.indicator(1, 2),
                 FunctionSpec.piecewise([(0, "1/2", (1.0,)), ("3/2", 2, (-0.5,))])):
        from swl.quadrature import oracle_F_coords

        f_hat = oracle_F_coords(spec, HAAR, w)
        via_alpha = g_from_f(f_hat, A_haar, w)
        direct = oracle_G_coords(spec, HAAR, Window.symmetric(HAAR, 64, 4, 60))
        assert coord_equal(via_alpha, direct, 1e-9).passed
