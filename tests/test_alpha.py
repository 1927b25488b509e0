"""Change-of-representation tables against the oracle; transfers and round trips."""

import math
import random

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
    f_from_g,
    g_from_f,
    oracle_G_coords,
    transfer,
)
from swl import alpha
from swl.bases import FunctionSpec, InvalidLabelError
from swl.core import MINUS, PLUS, coord_equal
from swl.quadrature import inner_product

SQ2 = math.sqrt(2.0)


# -- single entries ------------------------------------------------------------

def test_exponential_entry_k1_n0(A_exp):
    got = A_exp.entry(1, 0, PLUS, 0, 1)
    assert got == pytest.approx(-1j * SQ2 / math.pi, abs=1e-14)
    # the oracle confirms the closed form
    assert got == pytest.approx(
        inner_product(L_elem(EXPONENTIAL, 1, 0), K_elem(EXPONENTIAL, PLUS, 0, 1)), abs=1e-12
    )


def test_exponential_entry_n1_is_kronecker(A_exp):
    assert A_exp.entry(3, 1, PLUS, 3, 0) == 1.0
    assert A_exp.entry(3, 1, PLUS, 2, 0) == 0j
    assert A_exp.entry(3, 1, MINUS, 3, 0) == 0j
    assert A_exp.entry(3, 1, PLUS, 3, 1) == 0j


def test_haar_entry_n1_is_kronecker(A_haar):
    for i in (0, 1, 4, 7):
        assert A_haar.entry(i, 1, PLUS, i, 0) == 1.0
        assert A_haar.entry(i, 1, PLUS, i + 1, 0) == 0j


def test_haar_entry_coarse_box(A_haar):
    # row (0, 2^u + v): coarse-box coefficient 2^{-u/2} at label 0, scale -u
    for u, v in [(1, 0), (2, 3), (3, 5)]:
        n = (1 << u) + v
        assert A_haar.entry(0, n, PLUS, 0, -u) == pytest.approx(2.0 ** (-u / 2))
        assert A_haar.entry(0, n, PLUS, 0, -u + 1) == 0j


@pytest.mark.parametrize("fam,label_lo", [(HAAR, 0), (EXPONENTIAL, -8)])
def test_entries_match_oracle_random_sample(fam, label_lo):
    rng = random.Random(414213)
    A_entry = AlphaMatrix(fam).entry
    for _ in range(60):
        i = rng.randint(label_lo, 8)
        j = rng.randint(label_lo, 8)
        n = rng.randint(-4, 4)
        m = rng.randint(-3, 3)
        s = rng.choice([PLUS, MINUS])
        closed = A_entry(i, n, s, j, m)
        oracle = inner_product(L_elem(fam, i, n), K_elem(fam, s, j, m))
        assert closed == pytest.approx(oracle, abs=1e-9)


def test_invalid_labels(A_haar):
    with pytest.raises(InvalidLabelError):
        A_haar.entry(-1, 0, PLUS, 0, 1)
    with pytest.raises(InvalidLabelError):
        A_haar.entry(0, 0, 2, 0, 1)


# -- rows -----------------------------------------------------------------------

def test_haar_row_wavelet_ladder(A_haar, w_haar):
    entries = dict(A_haar.row(1, 0, w_haar)[0])
    assert entries[(PLUS, 0, 1)] == pytest.approx(-1 / SQ2)
    for m in range(2, 10):
        assert entries[(PLUS, 0, m)] == pytest.approx(2.0 ** (-m / 2))
    assert all(k[0] == PLUS and k[1] == 0 for k in entries)


def test_haar_row_single_entry(A_haar, w_haar):
    assert dict(A_haar.row(3, 0, w_haar)[0]) == {(PLUS, 1, 1): 1.0}


def test_row_empty_when_window_excludes_everything(A_haar, A_exp):
    w = Window.symmetric(HAAR, 4, 4, 4).with_dil_range(-2, 0)
    assert A_haar.row(0, 0, w)[0] == []   # ladder starts at m = 1
    w_exp = Window.symmetric(EXPONENTIAL, 4, 4, 4).with_dil_range(-3, 0)
    assert A_exp.row(2, 0, w_exp)[0] == []


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


# the exponential row classes: every positive scale, a single entry, one scale
_EXP_CASES = {
    "all labels at every positive scale (window-clipped)": (0, -1),
    "single entry": (1, -2),
    "all labels at one scale (window-clipped)": (2, 3, 4, 5, -3, -4, -5, -6),
}


def test_exponential_row_column_transpose_consistency(A_exp):
    # rows n = -6..6 hold every class, at the scales m = -2..3 of the window
    w = Window.symmetric(EXPONENTIAL, 3, 6, 3)
    (n_lo, n_hi), (m_lo, m_hi) = w.trans_range, w.dil_range
    assert {n for ns in _EXP_CASES.values() for n in ns} <= set(range(n_lo, n_hi + 1))
    from_rows, from_columns = {}, {}
    for n in range(n_lo, n_hi + 1):
        for k in w.trans_labels:
            entries, _ = A_exp.row(k, n, w)
            # table order: scale by scale, labels in window order
            nonzero = [((s, j, m), val) for m in range(m_lo, m_hi + 1) for s, j in w.dil_labels
                       if (val := A_exp.entry(k, n, s, j, m)) != 0j]
            assert [(tuple(key), val) for key, val in entries] == nonzero
            from_rows.update(((k, n, *key), val) for key, val in nonzero)
    for s, j in w.dil_labels:
        for m in range(m_lo, m_hi + 1):
            entries, _ = A_exp.column(s, j, m, w)
            from_columns.update(((k, n, s, j, m), val) for (k, n), val in entries)
    assert len(from_rows) > 0
    assert from_columns == from_rows
    for text, rows in _EXP_CASES.items():
        for n in rows:
            for k in (0, 2, -5):
                assert A_exp.row_case(k, n) == text


def test_exponential_column_evaluates_only_window_rows(A_exp, monkeypatch):
    # a column at scale -p has 2^p rows; only those in the window are evaluated
    calls = []
    table = alpha._alpha_exp

    def counted(*index):
        calls.append(index)
        return table(*index)

    monkeypatch.setattr(alpha, "_alpha_exp", counted)
    w = Window.symmetric(EXPONENTIAL, 2)
    n_lo, n_hi = w.trans_range
    bound = (n_hi - n_lo + 1) * len(w.trans_labels)
    assert A_exp.column(PLUS, 0, -70, w) == ([], 1.0)
    assert len(calls) <= bound
    for s, m in ((PLUS, -1), (PLUS, 0), (MINUS, 0), (MINUS, 3)):
        calls.clear()
        A_exp.column(s, 1, m, w)
        assert 0 < len(calls) <= bound


def test_row_case_descriptions(A_haar, A_exp):
    assert "ladder" in A_haar.row_case(1, 0)
    assert A_haar.row_case(3, 0) == "single entry"
    assert "coarse box" in A_haar.row_case(0, 4)
    assert "window-clipped" in A_exp.row_case(0, 0)
    # every Haar case, with labels and shifts past int64
    cases = {
        "single entry": [(3, 0), (5, -1), (7, 1), (0, 1), (9, -2), (0, -2), (5, 6), (5, -6),
                         ((1 << 70) + 1, 0), (1 << 70, 5)],
        "geometric scale ladder (truncated at the window top)": [
            (0, 0), (4, 0), (0, -1), (3, -1), (1 << 70, 0), ((1 << 70) - 1, -1)],
        "coarse box plus one wavelet per intermediate scale": [
            (0, 2), (0, 6), (0, -3), (0, 1 << 70)],
    }
    for text, rows in cases.items():
        for i, n in rows:
            assert A_haar.row_case(i, n) == text
    assert A_exp.row_case(2, 0) == "all labels at every positive scale (window-clipped)"
    assert A_exp.row_case(2, -2) == "single entry"
    assert A_exp.row_case(2, 5) == "all labels at one scale (window-clipped)"


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
        g, out_tail = transfer(v, A_haar, w)
        back, back_tail = transfer(g, A_haar, w)
        assert coord_equal(back, v, 1e-9).passed
        assert out_tail + back_tail < 1e-8


def test_round_trip_exponential_exact_rows(A_exp, w_exp):
    # rows n = 1 and n = -2 map to single dilation-side entries: no clipping at all
    rng = random.Random(7)
    entries = {(rng.randint(-4, 4), rng.choice([1, -2])): complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(8)}
    v = FCoordVec(entries)
    g, out_tail = transfer(v, A_exp, w_exp)
    back, back_tail = transfer(g, A_exp, w_exp)
    assert coord_equal(back, v, 1e-12).passed
    assert out_tail + back_tail == 0.0


def test_exponential_round_trip_reports_honest_tail(A_exp):
    # a unit vector on the scale-ladder row (0, 0) at scale cap 12 loses
    # exactly the 2^{-12} scale tail on the way out; the transfer must say
    # so, and the way back adds the label-clipping tail of the columns
    w = Window.symmetric(EXPONENTIAL, 8, 6, 12)
    v = FCoordVec({(0, 0): 1.0})
    g, out_tail = transfer(v, A_exp, w)
    back, back_tail = transfer(g, A_exp, w)
    assert out_tail == pytest.approx(math.sqrt(2.0 ** -12), rel=1e-6)
    assert back_tail > out_tail  # label clipping dominates for this family
    residual = max(abs(back[k] - v[k]) for k in set(back.keys()) | set(v.keys()))
    assert residual <= out_tail + back_tail + 1e-12
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
