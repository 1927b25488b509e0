"""Wavelet orthonormality/completeness and scaling-identity checks."""

import math
import random

import numpy as np
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
from swl.core import MINUS, PLUS, CheckReport
from swl.wavelet import (
    RANK_SVD_THRESHOLD,
    _autocorrelation,
    check_example_unit_interval,
    completeness_matrix,
    orthonormality_residuals,
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


@pytest.mark.parametrize("fam", ["haar", "exponential"])
def test_column_transfers_do_not_grow_with_the_q_radius(fam, psi_tilde, A_haar, A_exp,
                                                         w_haar, w_exp, monkeypatch):
    # one column pass moves psi to the translation model for both routes,
    # whatever the number of q
    import swl.alpha
    import swl.wavelet

    A, w = (A_haar, w_haar) if fam == "haar" else (A_exp, w_exp)
    psi = psi_tilde if fam == "haar" else GCoordVec({(PLUS, 0, 1): 1.0, (MINUS, 2, 0): 0.5j})
    calls = []
    real = swl.alpha.column_terms

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(swl.alpha, "column_terms", counting)
    monkeypatch.setattr(swl.wavelet, "column_terms", counting)
    counts = {}
    for pq in (1, 3):
        calls.clear()
        swl.wavelet._PLANS.clear()
        orthonormality_residuals(psi, A, pq, w)
        counts[pq] = len(calls)
    assert counts == {1: 1, 3: 1}


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
    rep = check_wavelet_completeness(psi_tilde, A_haar, F6, 6, w_haar)
    assert rep.passed and rep.verdict == "pass"


def test_completeness_near_the_threshold_is_inconclusive(psi_tilde, A_haar, w_haar):
    # psi scaled so that its least singular value lands at twice the threshold
    sigma = np.linalg.svd(completeness_matrix(psi_tilde, A_haar, F6, 6, w_haar), compute_uv=False)
    scale = 2.0 * RANK_SVD_THRESHOLD / float(sigma.min())
    scaled = GCoordVec({key: scale * val for key, val in psi_tilde.items()})
    rep = check_wavelet_completeness(scaled, A_haar, F6, 6, w_haar)
    assert rep.verdict == "inconclusive" and not rep.passed
    assert any(n.startswith("singular values near threshold") for n in rep.notes)


def test_completeness_random_reachable_subsets(psi_tilde, A_haar, w_haar):
    reachable = [(PLUS, j) for j in range(7)] + [(MINUS, j) for j in (0, 1, 2, 3, 6, 7)]
    rng = random.Random(61)
    for _ in range(8):
        size = rng.randint(1, 6)
        labels = rng.sample(reachable, size)
        rep = check_wavelet_completeness(psi_tilde, A_haar, labels, 6, w_haar)
        assert rep.passed, labels


def test_completeness_zero_candidate_rank_zero(A_haar, w_haar):
    rep = check_wavelet_completeness(GCoordVec({}), A_haar, F6, 6, w_haar)
    assert not rep.passed
    assert "rank 0 of 6" in rep.notes[1]


def test_completeness_indicator_candidate_deficient(A_haar, w_haar):
    # the box on [1,2) as a candidate: within the window, the (+,5) column
    # receives no support at all, so this label set is rank deficient
    cand = GCoordVec({(PLUS, 0, 0): 1.0})
    rep = check_wavelet_completeness(cand, A_haar, [(PLUS, 1), (PLUS, 5)], 6, w_haar)
    assert not rep.passed
    assert any("no support" in n for n in rep.notes)


def test_completeness_matrix_columns_disjoint_for_haar(psi_tilde, A_haar, w_haar):
    mat = completeness_matrix(psi_tilde, A_haar, F6, 6, w_haar)
    gram = mat.conj().T @ mat
    off = gram - np.diag(np.diag(gram))
    assert float(np.max(np.abs(off))) < 1e-12


def test_negative_row_window_is_an_input_error(psi_tilde, A_haar, w_haar):
    # an empty row grid reads no entry, as an empty (p, q) grid checks none
    with pytest.raises(ValueError, match="non-negative"):
        completeness_matrix(psi_tilde, A_haar, F6, -1, w_haar)
    with pytest.raises(ValueError, match="non-negative"):
        check_example_unit_interval(GCoordVec({(PLUS, 1, 0): 1.0}), A_haar, 1, F6, w_haar,
                                    row_window=-1)


def test_empty_explicit_grids_are_input_errors(psi_tilde, A_haar, w_haar):
    # a check over no (p, q) pair, no shift k or no completeness row tests
    # nothing, and would pass vacuously
    with pytest.raises(ValueError, match="empty"):
        check_wavelet_orthonormality(GCoordVec({}), A_haar, [], w_haar)
    with pytest.raises(ValueError, match="empty"):
        check_scaling_coordinate_identity(FCoordVec({}), [])
    with pytest.raises(ValueError, match="empty"):
        check_example_unit_interval(GCoordVec({(PLUS, 1, 0): 1.0}), A_haar, [], F6, w_haar)
    with pytest.raises(ValueError, match="empty"):
        check_wavelet_completeness(psi_tilde, A_haar, F6, [], w_haar)


def test_invalid_completeness_labels_are_input_errors(psi_tilde, A_haar, w_haar):
    # a sign that is not +-1, or a negative Haar label, is not a column to
    # test; no labels at all would pass with a rank of 0 of 0
    for labels in [[(PLUS, 1), bad, (MINUS, 1)] for bad in [(0, 1), (PLUS, -1), (2, 0)]] + [[]]:
        with pytest.raises(ValueError):
            completeness_matrix(psi_tilde, A_haar, labels, 3, w_haar)
        with pytest.raises(ValueError):
            check_wavelet_completeness(psi_tilde, A_haar, labels, 3, w_haar)
        with pytest.raises(ValueError):
            check_example_unit_interval(GCoordVec({}), A_haar, 1, labels, w_haar)


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


def _entry_residuals(candidate, A, grid):
    """The slice residuals of the [1, 2] example, one ``A.entry`` per
    (p, q, j, k) term: the term-by-term reference."""
    from swl.core import csum

    slice_coeffs = {j: val for (_, j, _), val in candidate.items()}
    residuals = {}
    for p, q in grid:
        lhs = csum(cj.conjugate() * A.entry(k, 1 + q, PLUS, j, -p) * ck
                   for j, cj in slice_coeffs.items() for k, ck in slice_coeffs.items())
        residuals[(p, q)] = abs(lhs - (1.0 if (p, q) == (0, 0) else 0.0))
    return residuals


@pytest.mark.parametrize("fam", ["haar", "exponential"])
def test_example_reads_each_slice_row_once(fam, A_haar, A_exp, monkeypatch):
    # one row layout serves every (k, 1 + q) row: the check reads no entry,
    # and its residuals are the per-entry products' bit for bit
    import swl.alpha

    rng = random.Random(7)
    A = A_haar if fam == "haar" else A_exp
    w = Window.symmetric(HAAR, 8, 10, 60) if fam == "haar" else Window.symmetric(EXPONENTIAL, 6, 6, 6)
    js = (1, 2, 3, 5) if fam == "haar" else (-3, 1, 2, 4)
    candidates = [{(PLUS, j, 0): 0.5 for j in js},
                  {(PLUS, j, 0): complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for j in js}]
    grid = [(p, q) for p in range(-3, 4) for q in range(-3, 4)]
    for coeffs in candidates:
        cand = GCoordVec(coeffs)
        want = _entry_residuals(cand, A, grid)
        entries = []
        real = swl.alpha.AlphaMatrix.entry
        monkeypatch.setattr(swl.alpha.AlphaMatrix, "entry",
                            lambda self, *key: entries.append(key) or real(self, *key))
        rep = check_example_unit_interval(cand, A, 3, [(PLUS, 0), (PLUS, 1)], w, 1e-10)
        monkeypatch.undo()
        assert entries == []
        assert [(k, v.hex()) for k, v in rep.details] == \
            [(k, v.hex()) for k, v in CheckReport.from_residuals("x", want, 1e-10).details]
        assert rep.max_residual.hex() == max(want.values()).hex()


EXAMPLE_CASES = {
    # name: (family, candidate, labels, row window, tol, verdict)
    "shifted wavelet": (HAAR, {(PLUS, 1, 0): 1.0}, F6, 3, 1e-10, "pass"),
    "box": (HAAR, {(PLUS, 0, 0): 1.0}, [(PLUS, 0), (PLUS, 1)], 3, 1e-10, "fail"),
    # the box's residuals pass at tol 1, so its deficient rank decides
    "box, rank deficient": (HAAR, {(PLUS, 0, 0): 1.0}, [(PLUS, 1), (PLUS, 5)], 6, 1.0, "fail"),
    "exponential mode": (EXPONENTIAL, {(PLUS, 5, 0): 1.0}, [(PLUS, 4), (PLUS, 5)], 2, 1e-12,
                         "fail"),
    # scaled below: its residual |c^2 - 1| <= 1 passes at tol 1, so its
    # least singular value, at twice the threshold, decides
    "scaled into the band": (HAAR, {(PLUS, 1, 0): 1.0}, F6, 3, 1.0, "inconclusive"),
}


@pytest.mark.parametrize("case", EXAMPLE_CASES)
def test_example_takes_rank_and_verdict_from_completeness(case, A_haar, A_exp, w_haar):
    fam, coeffs, labels, row_window, tol, verdict = EXAMPLE_CASES[case]
    A, w = (A_haar, w_haar) if fam is HAAR else (A_exp, Window.symmetric(EXPONENTIAL, 512, 6, 12))
    cand = GCoordVec(coeffs)
    if case == "scaled into the band":
        mat = completeness_matrix(cand, A, labels, row_window, w)
        scale = 2.0 * RANK_SVD_THRESHOLD / float(np.linalg.svd(mat, compute_uv=False).min())
        cand = GCoordVec({key: scale * val for key, val in coeffs.items()})
    comp = check_wavelet_completeness(cand, A, labels, row_window, w)
    rep = check_example_unit_interval(cand, A, 2, labels, w, tol, row_window)
    rank = next(n for n in comp.notes if n.startswith("rank "))
    assert f"{rank} at row window {row_window}" in rep.notes
    residuals_pass = rep.max_residual <= rep.tol
    assert rep.verdict == verdict == (comp.verdict if residuals_pass else "fail")


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
    auto = _autocorrelation(phi, [0, 1])
    assert auto[0] == pytest.approx(0.5)
    assert auto[1] == 0j  # different labels do not couple


def test_scaling_identity_cross_check_catches_norm(A_haar, w_haar):
    # translate-invariance: a shifted box still passes
    rep = check_scaling_coordinate_identity(FCoordVec({(0, 5): 1.0}), 4, 1e-12)
    assert rep.passed


def test_shifted_sums_match_a_dict_reference():
    # a transfer's raw terms are summed only where psi's shifts read them:
    # repeated targets in term order, targets outside psi's groups or span
    # skipped, and a sum at the threshold dropped by the zero rule.  Each
    # sum is the compensated sum against the summed vector, bit for bit.
    # psi's groups are found by a label table (dense int64 labels) or by
    # binary search (sparse labels, labels past int64, targets past int64),
    # and a product of real factors is summed by its real part alone.  The
    # reads are the plans' primitives: codes (_KeyIndex), their places
    # among the read groups (_CodeSet, by table or by search), per-group
    # sums in term order (group_sums) and the keys' reads (_read_sums)
    from swl.core import DROP_THRESHOLD, csum, group_sums, key_columns
    from swl.wavelet import _CodeSet, _KeyIndex, _kept_sums, _read_sums, _read_values, _reads

    rng = random.Random(3)

    def bits(z):
        return z.real.hex(), z.imag.hex()

    def read(index, groups, keys, terms):
        places = groups.places(index.code(keys))
        hit = places < len(groups)
        sums = _kept_sums(group_sums(places[hit], terms[hit], len(groups)))
        reads = {p: _reads(groups.places(index.codes - p), len(groups)) for p in ps}
        vals, real = _read_values(psi._vals, reads)
        return _read_sums(vals, reads, ps, sums, real)

    ps = {4, 3, 2, 0, -1, -5, -6}
    cases = [  # psi's labels, other target labels, real psi, real terms, tables expected
        (range(6), [6, 7, 8, 2 ** 63 - 1], False, False, True),
        ([0, 5, 2 ** 40], [1, 2 ** 40 + 1], False, False, False),
        ([0, 2 ** 62 + 1, 2 ** 70 + 3], [1, 2 ** 70 + 4], False, False, False),
        (range(6), [6, 2 ** 70], False, False, True),
        (range(6), [6, 7, 8], True, True, True),
        (range(6), [6, 7, 8], True, False, True),
        (range(6), [6, 7, 8], False, True, True),
    ]
    for labels, others, real_psi, real_terms, tables in cases:
        def key(labels):
            return rng.choice((PLUS, MINUS)), rng.choice(labels), rng.randrange(-6, 7)

        def value(real):
            return complex(rng.gauss(0, 1), 0.0 if real else rng.gauss(0, 1))

        for _ in range(20):
            psi = GCoordVec({**{key(labels): value(real_psi) for _ in range(40)},
                             (PLUS, 0, 6): value(real_psi), (MINUS, 0, 6): value(real_psi)})
            # the other labels are outside psi's groups, and m - p may leave the span
            keys = [key([*labels, *others]) for _ in range(60)]
            keys += rng.choices(keys, k=30)
            terms = [value(real_terms) for _ in keys]
            # read at p = -1: one sum at the threshold, one just above it
            half = DROP_THRESHOLD / 2
            keys += [(PLUS, 0, 7), (MINUS, 0, 7), (PLUS, 0, 7)]
            terms += [complex(half), complex(np.nextafter(DROP_THRESHOLD, 1.0)), complex(half)]
            order = rng.sample(range(len(keys)), len(keys))
            keys, terms = [keys[k] for k in order], [terms[k] for k in order]

            other = GCoordVec._from_terms(key_columns(keys, 3), np.array(terms))
            assert (PLUS, 0, 7) not in other and (MINUS, 0, 7) in other
            index = _KeyIndex(psi._cols, sorted(ps))
            assert bool(index.tables) == tables
            # the read groups as a table and as sorted codes
            parts = [index.codes - p for p in ps] + [index.codes]
            for groups in (_CodeSet(parts, index.stride), _CodeSet(parts, 1 << 62)):
                got = read(index, groups, key_columns(keys, 3), np.array(terms))
                sums = np.zeros(len(groups), dtype=complex)
                sums[groups.places(index.codes)] = psi._vals
                reads = {p: _reads(groups.places(index.codes - p), len(groups)) for p in ps}
                vals, real = _read_values(psi._vals, reads)
                own = _read_sums(vals, reads, ps, sums, real)
                for p in ps:
                    want = csum(x * other[(s, j, m - p)].conjugate() for (s, j, m), x in psi.items())
                    assert bits(got[p]) == bits(want)
                    want = csum(x * psi[(s, j, m - p)].conjugate() for (s, j, m), x in psi.items())
                    assert bits(own[p]) == bits(want)
                empty = read(index, groups, key_columns([], 3), np.zeros(0, dtype=complex))
                assert empty == dict.fromkeys(ps, 0j)
