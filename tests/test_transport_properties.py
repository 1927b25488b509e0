"""Property tests of the wavelet checks' transport and of their streamed sums.

The orthonormality and completeness checks execute a plan built once per
key structure: a chunk of translations q per row pass, and the (p, q)
sums as array products.  The reference forms below are the all-q forms
they replace: every literal vector U_q and every group-action copy is
built first and kept, and each sum is a ``csum`` over dict lookups.
Further down, the per-q forms (a row pass per q) hold the planned passes
to their bits, from a cleared plan table and from a kept plan.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, strategies as st  # noqa: E402

from swl import (  # noqa: E402
    EXPONENTIAL,
    HAAR,
    AlphaMatrix,
    FCoordVec,
    GCoordVec,
    Window,
    act,
    check_scaling_coordinate_identity,
    construct_wavelet_coords,
    daubechies4,
    g_from_f,
    oracle_G_coords,
    scaling_coords_from_filter,
    wavelet,
)
from swl.bases import FunctionSpec  # noqa: E402
from swl.alpha import column_terms, f_from_g, row_terms, scale_reach, transfer  # noqa: E402
from swl.core import (  # noqa: E402
    MINUS, PLUS, csum, keep_mask, offset_column, sum_by_key)
from swl.group_action import shift_D, shift_T  # noqa: E402
from swl.wavelet import _cdot, completeness_matrix, orthonormality_residuals  # noqa: E402

from haar_tables import reference_column, reference_row  # noqa: E402

# -- reference forms ------------------------------------------------------------


def reference_pair_sums(psi, A, qs, w):
    """U_q for every q at once, by the literal nested sums, and for each q
    an l2-norm bound on what its column and row passes clipped."""
    x, column_tail = {}, 0.0
    for (r, k, l), val in psi.items():
        entries, clipped = reference_column(A, r, k, l, w)
        for key, a in entries:
            x[key] = x.get(key, 0j) + a.conjugate() * val
        if clipped > 0.0:
            column_tail += abs(val) * math.sqrt(clipped)
    out, tails = {}, {}
    for q in qs:
        u, row_tail = {}, 0.0
        for (i, nu), val in x.items():
            entries, clipped = reference_row(A, i, nu + q, w)
            for key, a in entries:
                u[key] = u.get(key, 0j) + a * val
            if clipped > 0.0:
                row_tail += abs(val) * math.sqrt(clipped)
        out[q] = GCoordVec(u)
        tails[q] = column_tail + row_tail
    return out, tails


def _grid(pq):
    if isinstance(pq, int):
        return [(p, q) for p in range(-pq, pq + 1) for q in range(-pq, pq + 1)]
    return list(pq)


def reference_residuals(psi, A, pq, w):
    grid = _grid(pq)
    qs = sorted({q for _, q in grid})
    route_a, tails = reference_pair_sums(psi, A, qs, w)
    route_b = {q: act(psi, 0, q, "DT", A, w)[0] for q in qs}
    residuals, disagreement = {}, 0.0
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        uq, vq = route_a[q], route_b[q]
        lhs_a = csum(val * uq[(s, j, m - p)].conjugate() for (s, j, m), val in psi.items())
        lhs_b = csum(vq[(s, j, m - p)] * val.conjugate() for (s, j, m), val in psi.items())
        residuals[(p, q)] = abs(lhs_a - delta)
        disagreement = max(disagreement, abs(lhs_a - lhs_b.conjugate()))
    return residuals, disagreement, [tails[q] for q in qs]


def reference_completeness(psi, A, labels, row_window, w):
    rows = _grid(row_window)
    uq, _ = reference_pair_sums(psi, A, sorted({q for _, q in rows}), w)
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for r, (m, q) in enumerate(rows):
        for c, (s, j) in enumerate(labels):
            mat[r, c] = uq[q][(s, j, m)].conjugate()
    return mat


# -- strategies -------------------------------------------------------------------

W_HAAR = Window.symmetric(HAAR, 4, 4, 6)
W_EXP = Window.symmetric(EXPONENTIAL, 3, 3, 3)
W_D4 = Window.symmetric(HAAR, 8, 10, 50)
FAMILIES = {"haar": (AlphaMatrix(HAAR), W_HAAR), "exponential": (AlphaMatrix(EXPONENTIAL), W_EXP),
            "d4": (AlphaMatrix(HAAR), W_D4)}


def d4_psi(levels: int) -> GCoordVec:
    """The D4 wavelet's dilation-model coordinates after ``levels`` cascade steps."""
    A = AlphaMatrix(HAAR)
    phi, _ = scaling_coords_from_filter(daubechies4(), levels)
    return g_from_f(construct_wavelet_coords(phi, daubechies4(), A, W_D4), A, W_D4)


D4_PSI = d4_psi(8)
# (+, 0), (+, 1), (-, 0) and (+, 5) among W_D4's labels
D4_PICKS = [W_D4.dil_labels.index(lab) for lab in [(PLUS, 0), (PLUS, 1), (MINUS, 0), (PLUS, 5)]]
# rows 2^20 scales apart: the matrix is all that is held for them
GAPPED_ROWS = [(0, 0), (1, 1), (2**20 + 2, 0)]

def _polar(radii):
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     radii, st.floats(0.0, 2.0 * math.pi))


values = _polar(st.floats(1e-6, 1e3))
# values just above the zero rule: a vector keeps them, and its transfers
# may put entries below it
tiny_values = _polar(st.floats(1e-15, 4e-15))
signs = st.sampled_from([PLUS, MINUS])


def g_vectors(labels, vals=values):
    keys = st.tuples(signs, labels, st.integers(-3, 4))
    return st.dictionaries(keys, vals, max_size=6).map(GCoordVec)


family_and_psi = st.one_of(
    st.tuples(st.just("haar"), g_vectors(st.integers(0, 6))),
    st.tuples(st.just("exponential"), g_vectors(st.integers(-3, 3))),
)
# a radius, or explicit pairs (duplicates allowed) whose |p| may exceed the
# candidate's whole scale span
pq_ranges = st.one_of(
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-3, 3)), min_size=1, max_size=8)
    .map(lambda pairs: pairs + pairs[:2]),
)


@given(case=family_and_psi, pq=pq_ranges)
def test_streamed_residuals_match_all_q_reference(case, pq):
    fam, psi = case
    A, w = FAMILIES[fam]
    residuals, disagreement, tails = orthonormality_residuals(psi, A, pq, w)
    ref_residuals, ref_disagreement, ref_tails = reference_residuals(psi, A, pq, w)
    assert list(residuals) == list(ref_residuals)
    tol = 1e-14 * max(1.0, psi.norm_sq())
    for key, ref in ref_residuals.items():
        assert abs(residuals[key] - ref) <= tol
    assert abs(disagreement - ref_disagreement) <= tol
    assert tails == ref_tails


@given(case=family_and_psi, ps=st.lists(st.integers(-12, 12), min_size=1, max_size=6))
def test_q0_route_gap_within_literal_tail(case, ps):
    # at q = 0 the group action is an exact shift, so the whole gap between
    # the routes is what the literal round trip clipped, and its tail covers it
    fam, psi = case
    A, w = FAMILIES[fam]
    _, disagreement, tails = orthonormality_residuals(psi, A, [(p, 0) for p in ps], w)
    norm_sq = psi.norm_sq()
    assert disagreement <= math.sqrt(norm_sq) * tails[0] + 1e-12 * max(1.0, norm_sq)


@given(case=family_and_psi, picks=st.lists(st.integers(0, 13), min_size=1, max_size=4),
       row_window=st.one_of(
           st.integers(0, 3),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), min_size=1, max_size=6)))
# rows below scale 0 read only label-0 rows, here fed by a column of level -1
@example(case=("haar", GCoordVec({(PLUS, 1, -3): 1.0})),
         picks=[W_HAAR.dil_labels.index((PLUS, 0))], row_window=[(-4, 1)])
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=4)
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=8)
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=GAPPED_ROWS)
def test_streamed_completeness_matches_all_q_reference(case, picks, row_window):
    fam, psi = case
    A, w = FAMILIES[fam]
    # each label once: a repeated label is an input error
    labels = list(dict.fromkeys(w.dil_labels[k % len(w.dil_labels)] for k in picks))
    mat = completeness_matrix(psi, A, labels, row_window, w)
    ref = reference_completeness(psi, A, labels, row_window, w)
    assert mat.shape == ref.shape
    assert mat.tobytes() == ref.tobytes()


def test_completeness_passes_take_only_keys_that_reach_the_matrix():
    # by the Haar scale rule, 184 of the D4 candidate's 24,648 keys and 96
    # entries of X can reach rows m in [-4, 4] at labels (+, 0), (+, 1), (-, 0);
    # the 9 shifts of X fit in one chunk, so one row pass takes them all.
    # A second call runs the kept plan: no pass at all
    psi = d4_psi(12)
    A, w = FAMILIES["d4"]
    taken = {"column": [], "row": []}
    calls = {"column": wavelet.column_terms, "row": wavelet.row_terms}

    def counting(kind):
        def terms(A, keys, w, *runs):
            taken[kind].append(len(keys[0]))
            return calls[kind](A, keys, w, *runs)
        return terms

    labels = [(PLUS, 0), (PLUS, 1), (MINUS, 0)]
    wavelet._PLANS.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelet, "column_terms", counting("column"))
        mp.setattr(wavelet, "row_terms", counting("row"))
        first = completeness_matrix(psi, A, labels, 4, w)
        assert len(psi) > 24_000
        assert taken == {"column": [184], "row": [96 * 9]}
        again = completeness_matrix(psi, A, labels, 4, w)
    assert taken == {"column": [184], "row": [96 * 9]}
    assert again.tobytes() == first.tobytes()


def test_array_sums_are_compensated():
    # the large terms cancel exactly; a plain float sum loses the 1 + 1j to them
    a = np.array([1e16 + 1e16j, 1 + 1j, -1e16 - 1e16j])
    assert _cdot(a, np.ones(3, dtype=complex)) == 1 + 1j
    assert _cdot(np.ones(3, dtype=complex), a) == 1 - 1j


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def test_streamed_checks_hold_one_q_of_copies():
    A, w = FAMILIES["d4"]
    psi = D4_PSI
    labels = [(PLUS, 0), (PLUS, 1), (MINUS, 0)]
    streamed = _traced_peak(orthonormality_residuals, psi, A, 2, w)
    all_q = _traced_peak(reference_residuals, psi, A, 2, w)
    assert streamed < 0.5 * all_q
    streamed = _traced_peak(completeness_matrix, psi, A, labels, 4, w)
    all_q = _traced_peak(reference_completeness, psi, A, labels, 4, w)
    assert streamed < 0.5 * all_q


def test_completeness_rows_far_apart_hold_only_the_matrix():
    # a table with a slot per label and every m between the rows would
    # take about 100 MB for the Haar wavelet at labels +0, +1, -0
    A, w = FAMILIES["d4"]
    psi = oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, w)
    labels = [(PLUS, 0), (PLUS, 1), (MINUS, 0)]
    assert _traced_peak(completeness_matrix, psi, A, labels, GAPPED_ROWS, w) < 2e6


def test_completeness_rows_past_int64_codes_are_an_input_error():
    # 9 labels times a span of 2^61 + 1 m values is past int64: the codes
    # of label 8 at m = 0 and label 0 at m = 8 would wrap together
    A, w = FAMILIES["d4"]
    psi = oracle_G_coords(FunctionSpec.haar_wavelet(), HAAR, w)
    labels = [(PLUS, j) for j in range(9)]
    with pytest.raises(ValueError, match="int64"):
        completeness_matrix(psi, A, labels, [(0, 0), (8, 0), (2**61, 0)], w)
    # rows near each other keep their codes in int64
    rows = [(0, 0), (8, 0)]
    got = completeness_matrix(psi, A, labels, rows, w)
    assert got.tobytes() == reference_completeness(psi, A, labels, rows, w).tobytes()


# -- planned row passes ------------------------------------------------------------
#
# The checks' plans transport a chunk of shifts per row pass.  The per-q
# forms below make one ``row_terms`` pass per q and read each sum from a
# dict, as a loop over the keys would; the planned sums must be theirs bit
# for bit.


def _ps_of(grid):
    ps_of = {}
    for p, q in grid:
        ps_of.setdefault(q, set()).add(p)
    return ps_of


def _pass_vector(A, keys, vals, w):
    """A row pass of (keys, vals) summed per key under the zero rule, and its tail."""
    layout = row_terms(A, keys, w)
    return GCoordVec._from_terms(layout.cols, layout.terms(vals)), layout.tails(vals)[0]


def _read(psi, v, ps):
    """{p: sum over psi's keys of psi[(s, j, m)] conj(v[(s, j, m - p)])}, a csum of dict lookups."""
    return {p: csum(x * v[(s, j, m - p)].conjugate() for (s, j, m), x in psi.items()
                    if (s, j, m - p) in v) for p in ps}


def per_q_route_sums(psi, ps_of, A, w):
    """Route A's (p, q) sums and per-q tails, and route B's sums, a row pass per q."""
    layout = column_terms(A, psi._cols, w)
    (i, nu), x = sum_by_key(layout.cols, layout.terms(psi._vals))
    column_tail = layout.tails(psi._vals)[0]
    route_a, tails = {}, []
    for q in sorted(ps_of):
        u, row_tail = _pass_vector(A, (i, offset_column(nu, q)), x, w)
        route_a.update(((p, q), lhs) for p, lhs in _read(psi, u, ps_of[q]).items())
        tails.append(column_tail + row_tail)
    f0, route_b = f_from_g(psi, A, w), {}
    for q in sorted(ps_of):
        v = psi if q == 0 else _pass_vector(A, shift_T(f0, q)._cols, shift_T(f0, q)._vals, w)[0]
        route_b.update(((p, q), lhs) for p, lhs in _read(psi, v, ps_of[q]).items())
    return route_a, tails, route_b


def per_q_completeness(psi, A, labels, row_window, w):
    """The completeness matrix, a row pass per q, over the keys of psi and
    of X that can reach the matrix by the Haar scale rule."""
    rows = _grid(row_window)
    ms, qs = (sorted({row[k] for row in rows}) for k in (0, 1))
    top = max(ms, default=0) + int(max((j for _, j in labels), default=0)).bit_length()
    reach = scale_reach(A, psi._cols, top)
    layout = column_terms(A, tuple(c[reach] for c in psi._cols), w)
    cols, x = sum_by_key(layout.cols, layout.terms(psi._vals[reach]))
    reach = scale_reach(A, cols, top)
    (i, nu), x = tuple(c[reach] for c in cols), x[reach]
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for q in qs:
        u, _ = _pass_vector(A, (i, offset_column(nu, q)), x, w)
        for r, (m, row_q) in enumerate(rows):
            for c, (s, j) in enumerate(labels):
                if row_q == q:
                    mat[r, c] = u.get((s, j, m), 0j)
    return np.conj(mat)


def _sum_bytes(sums):
    return np.array([sums[pq] for pq in sorted(sums)], dtype=complex).tobytes()


# small Haar candidates with labels past int64 among their groups (the labels
# of a coefficient file's wide candidate), and small exponential candidates;
# values near the zero rule give copies whose entries it drops, which route B
# then transports without them
wide_labels = st.sampled_from([2**40, 2**62 + 1, 2**70 + 3])
chunk_values = st.one_of(values, tiny_values)
chunk_cases = st.one_of(
    st.tuples(st.just("haar"), g_vectors(st.one_of(st.integers(0, 6), wide_labels), chunk_values)),
    st.tuples(st.just("exponential"), g_vectors(st.integers(-3, 3), chunk_values)),
)


WIDE_PSI = GCoordVec({(PLUS, j, 0): 0.5 for j in (1, 2**40, 2**70 + 3)})
# X entries the zero rule drops: those of the ladder column (+, 0, 2), at
# (0, 0), (2, 0) and (1, 0)
LADDER_DROP_PSI = GCoordVec({(PLUS, 1, 0): 0.5, (PLUS, 0, 2): 1.2e-15})


def _translation_copy(psi, A, w):
    """X's key columns and values, from the plans' column pass."""
    copy, cols = wavelet._copy_pass(A, psi._cols, w)
    return cols, copy.sums(psi._vals)[0]


@given(case=chunk_cases, pq=pq_ranges)
@example(case=("haar", WIDE_PSI), pq=1)
@example(case=("haar", LADDER_DROP_PSI), pq=1)
# X entries below the zero rule, which route B's copy drops and route A's
# keeps: at q != 0 alone the disagreement is what they carried
@example(case=("exponential", GCoordVec({(PLUS, -2, -1): 1e-14, (MINUS, -2, 1): 5e-15})),
         pq=[(p, q) for p in range(-2, 3) for q in (-1, 1)])
def test_chunked_route_sums_match_a_pass_per_q(case, pq):
    fam, psi = case
    A, w = FAMILIES[fam]
    grid = _grid(pq)
    ref_a, ref_tails, ref_b = per_q_route_sums(psi, _ps_of(grid), A, w)
    # from a cleared plan table, and again from the plan it kept
    wavelet._PLANS.clear()
    for _ in range(2):
        route_a, route_b, tails = wavelet._route_sums(psi, A, grid, w)
        assert sorted(route_a) == sorted(ref_a) == sorted(route_b) == sorted(ref_b)
        assert _sum_bytes(route_a) == _sum_bytes(ref_a)
        assert np.array(tails).tobytes() == np.array(ref_tails).tobytes()
        assert _sum_bytes(route_b) == _sum_bytes(ref_b)
    assert wavelet._PLANS.info().hits == 1
    # and the check's own report of them, bit for bit
    residuals, disagreement, per_q_tails = orthonormality_residuals(psi, A, pq, w)
    for p, q in grid:
        delta = 1.0 if (p, q) == (0, 0) else 0.0
        assert residuals[(p, q)].hex() == abs(ref_a[(p, q)] - delta).hex()
    assert disagreement.hex() == max(abs(ref_a[key] - ref_b[key]) for key in grid).hex()
    assert np.array(per_q_tails).tobytes() == np.array(ref_tails).tobytes()


@given(case=chunk_cases)
@example(case=("d4", D4_PSI))
@example(case=("haar", WIDE_PSI))
def test_kept_entries_of_the_copy_are_f_from_g(case):
    # route B's copy of psi in the translation model is route A's X under
    # the zero rule, and that is the adjoint transfer of psi bit for bit
    fam, psi = case
    A, w = FAMILIES[fam]
    cols, x = _translation_copy(psi, A, w)
    keep = keep_mask(x)
    f0 = f_from_g(psi, A, w)
    assert [c.dtype for c in cols] == [c.dtype for c in f0._cols]
    assert [c[keep].tolist() for c in cols] == [c.tolist() for c in f0._cols]
    assert x[keep].tobytes() == f0._vals.tobytes()


@given(case=chunk_cases, picks=st.lists(st.integers(0, 13), min_size=1, max_size=4),
       row_window=st.one_of(
           st.integers(0, 3),
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), min_size=1, max_size=6)))
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=4)
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=GAPPED_ROWS)
# rows 2^60 scales apart: one slot of codes for the 4 labels fits in int64 and
# two would not, so each q is a chunk
@example(case=("d4", D4_PSI), picks=D4_PICKS, row_window=[(0, 0), (0, 1), (2**60, 1)])
def test_chunked_completeness_matches_a_pass_per_q(case, picks, row_window):
    fam, psi = case
    A, w = FAMILIES[fam]
    # each label once: a repeated label is an input error
    labels = list(dict.fromkeys(w.dil_labels[k % len(w.dil_labels)] for k in picks))
    ref = per_q_completeness(psi, A, labels, row_window, w).tobytes()
    wavelet._PLANS.clear()
    assert completeness_matrix(psi, A, labels, row_window, w).tobytes() == ref
    assert completeness_matrix(psi, A, labels, row_window, w).tobytes() == ref
    assert wavelet._PLANS.info().hits == 1


def _row_passes(psi, A, pq, w):
    """(rows, runs) of each row pass of the orthonormality check, from a
    cleared plan table; a second call, which runs the kept plan, makes none."""
    passes = []
    real = wavelet.row_terms

    def counting(A, keys, w, runs):
        passes.append((len(keys[0]), runs))
        return real(A, keys, w, runs)

    wavelet._PLANS.clear()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(wavelet, "row_terms", counting)
        first = orthonormality_residuals(psi, A, pq, w)
        made = list(passes)
        assert orthonormality_residuals(psi, A, pq, w) == first
    assert passes == made
    return made


def test_a_d4_verify_size_copy_keeps_one_q_per_chunk():
    # the D4 candidate's translation-model copy has 24,650 rows, past the
    # row budget: each of the 5 shifts is a pass of its own.  The zero rule
    # drops none of the copy's entries, so route B's sums are route A's
    psi = d4_psi(12)
    A, w = FAMILIES["d4"]
    x = _translation_copy(psi, A, w)[1]
    assert keep_mask(x).all()
    assert _row_passes(psi, A, 2, w) == [(24_650, 1)] * 5
    assert 24_650 > wavelet.ROW_BUDGET


@pytest.mark.parametrize("w", [W_HAAR, Window.symmetric(HAAR, 4).with_dil_range(-48, 48)])
def test_a_copy_with_dropped_entries_carries_both_columns(w):
    # LADDER_DROP_PSI, also the CLI smoke's dropping.json (at the CLI's
    # --window 4 --pq 1): the zero rule drops entries of its copy, so route B
    # runs route A's one pass of its three shifts again over X's kept
    # entries alone, and lays out no pass of its own; its sums are those of
    # a pass of its own over f_from_g(psi) (test_chunked_route_sums_match_a_pass_per_q)
    A = FAMILIES["haar"][0]
    x = _translation_copy(LADDER_DROP_PSI, A, w)[1]
    assert int(keep_mask(x).sum()) < len(x)
    assert _row_passes(LADDER_DROP_PSI, A, 1, w) == [(3 * len(x), 3)]
    ref_a, _, ref_b = per_q_route_sums(LADDER_DROP_PSI, _ps_of(_grid(1)), A, w)
    route_a, route_b, _ = wavelet._route_sums(LADDER_DROP_PSI, A, _grid(1), w)
    assert _sum_bytes(route_b) == _sum_bytes(ref_b)
    assert _sum_bytes(route_a) == _sum_bytes(ref_a)


# -- the scaling check's autocorrelation --------------------------------------------


def reference_autocorrelation(phi, ks):
    """{k: sum over (i, n) of phi[(i, n)] conj(phi[(i, n - k)])}, a ``csum``
    over dict lookups for each k."""
    return {k: csum(val * phi[(i, n - k)].conjugate() for (i, n), val in phi.items()) for k in ks}


# phis with labels past int64, real ones (whose imaginary sums are +0.0) and
# empty ones, their shifts near 0, far from it or past int64; radii, and
# explicit ks (duplicates allowed) some of which no pair reaches
phis = st.builds(
    lambda entries, offset: FCoordVec({(i, n + offset): v for (i, n), v in entries.items()}),
    st.dictionaries(st.tuples(st.one_of(st.integers(0, 6), wide_labels), st.integers(-5, 5)),
                    st.one_of(values, values.map(lambda v: complex(v.real, 0.0))), max_size=10),
    st.sampled_from([0, 2**40, -2**62, -2**63 + 5, 2**63 - 6, 2**70]),
)
k_grids = st.one_of(
    st.integers(0, 4),
    st.lists(st.one_of(st.integers(-12, 12), st.sampled_from([-2**62, 2**62, -2**70, 2**70])),
             min_size=1, max_size=6),
)


@given(phi=phis, k_range=k_grids)
@example(phi=FCoordVec({}), k_range=[-2**62, 0, 2**62])
@example(phi=FCoordVec({}), k_range=3)
# the index's base, the lowest shift less the largest k, is below int64
@example(phi=FCoordVec({(0, -2**63): 1.0, (0, -2**63 + 1): 0.5j}), k_range=2)
@example(phi=FCoordVec({(1, 0): 0.5, (2**40, 0): 0.5, (2**70 + 3, 0): 0.5, (2**70 + 3, 1): 0.5j}),
         k_range=[-2**62, -1, 0, 1, 2**70])
def test_autocorrelation_is_the_dict_sum(phi, k_range):
    # every k from one _KeyIndex over phi's keys, bit for bit the csum over
    # dict lookups; a k past phi's shift range has the empty sum
    ks = wavelet._k_grid(k_range)
    got = wavelet._autocorrelation(phi, ks)
    want = reference_autocorrelation(phi, ks)
    assert list(got) == list(want)
    assert np.array(list(got.values())).tobytes() == np.array(list(want.values())).tobytes()
    # and the check's residuals are theirs (its circle cross-check takes
    # omega^n, which leaves double range for shifts far from 0)
    if all(abs(n) < 2**40 for _, n in phi.keys()):
        details = dict(check_scaling_coordinate_identity(phi, k_range).details)
        for k in ks:
            assert details[("k", k)].hex() == abs(want[k] - (1.0 if k == 0 else 0.0)).hex()


def test_a_shift_range_past_int64_raises():
    # phi's own shift range needs codes past int64: an input error, never a wrap
    phi = FCoordVec({(0, -2**62): 0.6, (0, 2**62): 0.8})
    for k_range in (2, [0]):
        with pytest.raises(ValueError, match="int64"):
            check_scaling_coordinate_identity(phi, k_range)


# -- the group action -------------------------------------------------------------


@given(psi=g_vectors(st.integers(0, 6)), q=st.integers(-3, 3), m_hi=st.integers(4, 20))
def test_TD_equals_D_T_squared_within_reported_tails(psi, q, m_hi):
    # T^q D = D T^{2q}; the two words clip different ladder rows, and each
    # reports what it clipped
    w = W_HAAR.with_dil_range(-8, m_hi)
    A = FAMILIES["haar"][0]
    td, td_tail = act(psi, 1, q, "TD", A, w)
    dt, dt_tail = act(psi, 1, 2 * q, "DT", A, w)
    gap = math.sqrt(math.fsum(abs(td[k] - dt[k]) ** 2 for k in {*td.keys(), *dt.keys()}))
    assert gap <= math.fsum([td_tail, dt_tail]) + 1e-12 * math.sqrt(psi.norm_sq())


def reference_haar_D(v, p):
    """D^p of Haar translation-model coordinates as a dict, from the
    elements themselves: L_{2^l+r}(. - n) = 2^{l/2} psi(2^l x - b) with
    b = r + n 2^l, and the box L_0(. - n).  Each box output's terms are
    summed from 0j in source order, and the zero rule applies to them."""
    wavelets, terms = {}, {}
    for (i, n), x in v.items():
        level = i.bit_length() - 1
        b = (i - (1 << level)) + (n << level) if i else n
        if i and level + p >= 0:  # one wavelet at the same b
            top = level + p
            wavelets[((1 << top) + b % (1 << top), b >> top)] = x
        elif p > 0:  # the box at b >> p, then a wavelet per level below p
            if p <= 1074:
                terms.setdefault((0, b >> p), []).append(complex(math.sqrt(2.0 ** -p)) * x)
            for lam in range(max(p - 1074, 0), p):
                c = b >> (p - lam)
                amp = math.sqrt(2.0 ** (lam - p))
                amp = -amp if (b >> (p - lam - 1)) & 1 else amp
                terms.setdefault(((1 << lam) + c % (1 << lam), c >> lam), []).append(complex(amp) * x)
        else:  # a run of 2^u boxes, a wavelet's second half negative
            u = -p - max(level, 0)
            amp = math.sqrt(2.0 ** -u)
            for t in range(1 << u):
                neg = i and t >= 1 << (u - 1)
                terms.setdefault((0, (b << u) + t), []).append(complex(-amp if neg else amp) * x)
    out = dict(wavelets)
    for key, ts in terms.items():
        total = 0j
        for t in ts:
            total += t
        if abs(total) > 1e-15:
            out[key] = total
    return out


def _entry_bits(v):
    return sorted((k, x.real.hex(), x.imag.hex()) for k, x in dict(v.items()).items())


# Haar translation-model vectors: labels past int64 or near where D's keys
# leave it, wavelets at shifts near +-2^62 or 2^58, boxes near 0 or (for the
# identities alone) far out too
far_shifts = st.sampled_from([0, 0, 2**58 + 1, 2**62 - 8, -2**62 + 3])
haar_f_vectors = st.builds(
    lambda entries, far, box_far: FCoordVec(
        {(i, n + (far if i or box_far else 0)): x for (i, n), x in entries.items()}),
    st.dictionaries(st.tuples(st.one_of(st.integers(0, 9), wide_labels,
                                        st.sampled_from([2**58 + 5, 2**61 - 1])),
                              st.integers(-5, 5)),
                    values, min_size=1, max_size=6),
    far_shifts, st.booleans(),
)


@given(v=haar_f_vectors, p=st.one_of(st.integers(-3, 3), st.sampled_from([64, 1100, 2000])),
       q=st.integers(-3, 3), m_hi=st.integers(12, 30))
# keys that just leave int64: a label of level 63 and shifts near 2^63
@example(v=FCoordVec({(2**61 - 1, 3): 1.0, (0, 1): 0.5j}), p=3, q=1, m_hi=20)
@example(v=FCoordVec({(1, 2**60 + 1): 1.0, (0, -2**60): 0.5j}), p=-3, q=-1, m_hi=20)
def test_haar_translation_model_D_is_the_dilation_model_D(v, p, q, m_hi):
    A, w = FAMILIES["haar"][0], W_HAAR.with_dil_range(-8, m_hi)
    got = shift_D(v, p)
    # the element-by-element dict form, bit for bit
    assert _entry_bits(got) == _entry_bits(FCoordVec(reference_haar_D(v, p)))
    scale = math.sqrt(v.norm_sq())
    # D^-p undoes it, to rounding
    if abs(p) <= 3:
        back = shift_D(got, -p)
        gap = math.sqrt(math.fsum(abs(back[k] - v[k]) ** 2 for k in {*back.keys(), *v.keys()}))
        assert gap <= 1e-14 * scale
    # T D = D T^2, bit for bit, and act's words make no transfer
    assert _entry_bits(shift_T(shift_D(v, 1), q)) == _entry_bits(shift_D(shift_T(v, 2 * q), 1))
    assert act(v, 1, q, "TD", A, w) == (shift_D(shift_T(v, 2 * q), 1), 0.0)
    # the transfers' route, where its columns stay small (boxes near 0), within its tails
    if abs(p) <= 3 and all(i or abs(n) < 64 for i, n in v.keys()):
        g, to_g = transfer(v, A, w)
        through, back_tail = transfer(shift_D(g, p), A, w)
        gap = math.sqrt(math.fsum(abs(got[k] - through[k]) ** 2
                                  for k in {*got.keys(), *through.keys()}))
        assert gap <= to_g + back_tail + 1e-13 * scale
