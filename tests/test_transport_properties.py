"""Property tests of the wavelet checks' transport and of their streamed sums.

The orthonormality and completeness checks transport the candidate one
translation q at a time and take the (p, q) sums as array products.  The
reference forms below are the all-q forms they replace: every literal
vector U_q and every group-action copy is built first and kept, and each
sum is a ``csum`` over dict lookups.
"""

import math
import tracemalloc

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swl import (  # noqa: E402
    EXPONENTIAL,
    HAAR,
    AlphaMatrix,
    GCoordVec,
    Window,
    act_DT_on_G,
    act_TD_on_G,
    construct_wavelet_coords,
    daubechies4,
    g_from_f,
    scaling_coords_from_filter,
)
from swl.core import MINUS, PLUS, csum  # noqa: E402
from swl.wavelet import _cdot, completeness_matrix, orthonormality_residuals  # noqa: E402

# -- reference forms ------------------------------------------------------------


def reference_pair_sums(psi, A, qs, w):
    """U_q for every q at once, by the literal nested sums, and for each q
    an l2-norm bound on what its column and row passes clipped."""
    x, column_tail = {}, 0.0
    for (r, k, l), val in psi.items():
        entries, clipped = A.column(r, k, l, w)
        for key, a in entries:
            x[key] = x.get(key, 0j) + a.conjugate() * val
        if clipped > 0.0:
            column_tail += abs(val) * math.sqrt(clipped)
    out, tails = {}, {}
    for q in qs:
        u, row_tail = {}, 0.0
        for (i, nu), val in x.items():
            entries, clipped = A.row(i, nu + q, w)
            for key, a in entries:
                u[key] = u.get(key, 0j) + a * val
            if clipped > 0.0:
                row_tail += abs(val) * math.sqrt(clipped)
        out[q] = GCoordVec._from_clean(u)
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
    route_b = {q: act_DT_on_G(psi, 0, q, A, w) for q in qs}
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
FAMILIES = {"haar": (AlphaMatrix(HAAR), W_HAAR), "exponential": (AlphaMatrix(EXPONENTIAL), W_EXP)}

values = st.builds(
    lambda r, t: r * complex(math.cos(t), math.sin(t)),
    st.floats(1e-6, 1e3), st.floats(0.0, 2.0 * math.pi),
)
signs = st.sampled_from([PLUS, MINUS])


def g_vectors(labels):
    keys = st.tuples(signs, labels, st.integers(-3, 4))
    return st.dictionaries(keys, values, max_size=6).map(GCoordVec)


family_and_psi = st.one_of(
    st.tuples(st.just("haar"), g_vectors(st.integers(0, 6))),
    st.tuples(st.just("exponential"), g_vectors(st.integers(-3, 3))),
)
# a radius, or explicit pairs (duplicates allowed) whose |p| may exceed the
# candidate's whole scale span
pq_ranges = st.one_of(
    st.integers(0, 3),
    st.lists(st.tuples(st.integers(-12, 12), st.integers(-3, 3)), max_size=8)
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
           st.lists(st.tuples(st.integers(-6, 6), st.integers(-3, 3)), max_size=6)))
def test_streamed_completeness_matches_all_q_reference(case, picks, row_window):
    fam, psi = case
    A, w = FAMILIES[fam]
    labels = [w.dil_labels[k % len(w.dil_labels)] for k in picks]
    mat = completeness_matrix(psi, A, labels, row_window, w)
    ref = reference_completeness(psi, A, labels, row_window, w)
    assert mat.shape == ref.shape
    assert mat.tobytes() == ref.tobytes()


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
    A = AlphaMatrix(HAAR)
    w = Window.symmetric(HAAR, 8, 10, 50)
    phi, _ = scaling_coords_from_filter(daubechies4(), 8)
    psi = g_from_f(construct_wavelet_coords(phi, daubechies4(), A, w), A, w)
    labels = [(PLUS, 0), (PLUS, 1), (MINUS, 0)]
    streamed = _traced_peak(orthonormality_residuals, psi, A, 2, w)
    all_q = _traced_peak(reference_residuals, psi, A, 2, w)
    assert streamed < 0.5 * all_q
    streamed = _traced_peak(completeness_matrix, psi, A, labels, 4, w)
    all_q = _traced_peak(reference_completeness, psi, A, labels, 4, w)
    assert streamed < 0.5 * all_q


# -- the group action -------------------------------------------------------------


@given(psi=g_vectors(st.integers(0, 6)), q=st.integers(-3, 3), m_hi=st.integers(4, 20))
def test_TD_equals_D_T_squared_within_reported_tails(psi, q, m_hi):
    # T^q D = D T^{2q}; the two words clip different ladder rows, and each
    # reports what it clipped
    w = W_HAAR.with_dil_range(-8, m_hi)
    A = FAMILIES["haar"][0]
    tails = []
    td = act_TD_on_G(psi, 1, q, A, w, tails)
    dt = act_DT_on_G(psi, 1, 2 * q, A, w, tails)
    gap = math.sqrt(math.fsum(abs(td[k] - dt[k]) ** 2 for k in {*td.keys(), *dt.keys()}))
    assert gap <= math.fsum(tails) + 1e-12 * math.sqrt(psi.norm_sq())
