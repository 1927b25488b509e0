"""The wavelet checks' plans and the byte-bounded LRU table that keeps them.

A check on a candidate whose key columns equal those of a kept plan (same
family, window and grid) runs that plan: its reports are bit for bit what
a call on a cleared table gives, whatever the candidate's values.  A match
is exact, never a hash alone; a plan larger than the table's budget is
built, used and not kept.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from swl import (  # noqa: E402
    EXPONENTIAL,
    HAAR,
    AlphaMatrix,
    GCoordVec,
    Window,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
    wavelet,
)
from swl.core import MINUS, PLUS, ByteLRU  # noqa: E402

FAMILIES = {"haar": (AlphaMatrix(HAAR), Window.symmetric(HAAR, 4, 4, 6)),
            "exponential": (AlphaMatrix(EXPONENTIAL), Window.symmetric(EXPONENTIAL, 3, 3, 3))}
LABELS = {"haar": [(PLUS, 0), (PLUS, 1), (MINUS, 0)], "exponential": [(PLUS, 1), (MINUS, -1)]}
# X entries the zero rule drops, so route B runs the passes over the kept ones
LADDER_DROP_PSI = GCoordVec({(PLUS, 1, 0): 0.5, (PLUS, 0, 2): 1.2e-15})
# labels past int64: object-dtype key columns
WIDE_PSI = GCoordVec({(PLUS, j, 0): 0.5 for j in (1, 2**40, 2**70 + 3)})


def _reports(psi, A, w, labels, pq, rows) -> tuple:
    """Both checks' reports as exact bits: residual and note text, slack,
    the completeness matrix bytes and its report."""
    orth = check_wavelet_orthonormality(psi, A, pq, w, 1e-9, candidate_tail_sq=1e-20)
    comp = check_wavelet_completeness(psi, A, labels, rows, w)
    mat = wavelet.completeness_matrix(psi, A, labels, rows, w)
    residuals, disagreement, tails = wavelet.orthonormality_residuals(psi, A, pq, w)
    return (sorted((k, v.hex()) for k, v in residuals.items()), disagreement.hex(),
            [t.hex() for t in tails], orth.slack.hex(), orth.max_residual.hex(), orth.notes,
            orth.verdict, [(k, v.hex()) for k, v in orth.details], mat.tobytes(), mat.shape,
            comp.verdict, comp.notes, [(k, v.hex()) for k, v in comp.details])


def _cold(psi, A, w, labels, pq, rows) -> tuple:
    wavelet._PLANS.clear()
    return _reports(psi, A, w, labels, pq, rows)


def _polar(radii):
    return st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                     radii, st.floats(0.0, 2.0 * math.pi))


values = st.one_of(_polar(st.floats(1e-6, 1e3)), _polar(st.floats(1e-15, 4e-15)),
                   st.floats(1e-3, 1e3).map(complex))


def g_vectors(labels):
    keys = st.tuples(st.sampled_from([PLUS, MINUS]), labels, st.integers(-3, 4))
    return st.dictionaries(keys, values, max_size=6).map(GCoordVec)


candidates = st.one_of(
    st.tuples(st.just("haar"), g_vectors(st.integers(0, 6))),
    st.tuples(st.just("haar"), g_vectors(st.sampled_from([0, 1, 3, 2**40, 2**62 + 1, 2**70 + 3]))),
    st.tuples(st.just("exponential"), g_vectors(st.integers(-3, 3))),
)
grids = st.one_of(st.integers(0, 2),
                  st.lists(st.tuples(st.integers(-6, 6), st.integers(-2, 2)), min_size=1, max_size=6))
row_grids = st.one_of(st.integers(0, 2),
                      st.lists(st.tuples(st.integers(-4, 4), st.integers(-2, 2)), min_size=1, max_size=5))


@settings(max_examples=60, deadline=None)
@given(case=candidates, pq=grids, rows=row_grids)
@example(case=("haar", LADDER_DROP_PSI), pq=1, rows=2)
@example(case=("haar", LADDER_DROP_PSI), pq=[(0, 0), (1, -1), (-1, 1)], rows=[(0, 1), (2, -1)])
@example(case=("haar", WIDE_PSI), pq=1, rows=1)
def test_a_plan_hit_reports_what_a_cleared_table_reports(case, pq, rows):
    fam, psi = case
    A, w = FAMILIES[fam]
    labels = LABELS[fam]
    cold = _cold(psi, A, w, labels, pq, rows)
    # the same call again runs the kept plans, one per check
    hits = wavelet._PLANS.info().hits
    assert _reports(psi, A, w, labels, pq, rows) == cold
    assert wavelet._PLANS.info().hits > hits


@settings(max_examples=40, deadline=None)
@given(case=candidates, pq=grids, rows=row_grids,
       factor=_polar(st.floats(0.5, 2.0)), seed=st.integers(0, 2**16))
@example(case=("haar", LADDER_DROP_PSI), pq=1, rows=2, factor=1.0 + 0j, seed=3)
def test_new_values_on_the_same_keys_hit_the_table(case, pq, rows, factor, seed):
    # every value moved, the keys kept: the plans built for the first
    # candidate serve the second, which reports what a cleared table gives
    fam, psi = case
    A, w = FAMILIES[fam]
    labels = LABELS[fam]
    rng = np.random.default_rng(seed)
    moved = psi._vals * factor * rng.uniform(0.5, 1.5, len(psi._vals))
    other = GCoordVec._from_columns(psi._cols, moved)
    want = _cold(other, A, w, labels, pq, rows)
    wavelet._PLANS.clear()
    _reports(psi, A, w, labels, pq, rows)
    before = wavelet._PLANS.info()
    assert _reports(other, A, w, labels, pq, rows) == want
    after = wavelet._PLANS.info()
    assert after.misses == before.misses and after.hits > before.hits


def test_a_match_is_exact_not_a_hash(monkeypatch):
    # every candidate's columns hash alike, so both share one table slot:
    # the second, of other keys, is a miss that builds its own plan
    monkeypatch.setattr(wavelet, "_digest", lambda c: 0)
    A, w = FAMILIES["haar"]
    one = GCoordVec({(PLUS, 1, 0): 0.5, (PLUS, 2, 1): 0.25})
    two = GCoordVec({(PLUS, 1, 0): 0.5, (PLUS, 3, 1): 0.25})
    assert [c.dtype for c in one._cols] == [c.dtype for c in two._cols]
    want = _cold(two, A, w, LABELS["haar"], 1, 1)
    wavelet._PLANS.clear()
    _reports(one, A, w, LABELS["haar"], 1, 1)
    misses = wavelet._PLANS.info().misses
    assert _reports(two, A, w, LABELS["haar"], 1, 1) == want
    assert wavelet._PLANS.info().misses == misses + 2  # one per check, then hits


def test_a_plan_past_the_budget_is_built_used_and_not_kept(monkeypatch):
    A, w = FAMILIES["haar"]
    want = _cold(LADDER_DROP_PSI, A, w, LABELS["haar"], 2, 2)
    monkeypatch.setattr(wavelet._PLANS, "budget", 64)
    wavelet._PLANS.clear()
    for _ in range(2):
        assert _reports(LADDER_DROP_PSI, A, w, LABELS["haar"], 2, 2) == want
    info = wavelet._PLANS.info()
    assert (info.hits, info.entries, info.held) == (0, 0, 0)
    assert info.misses > 0


def test_the_plans_held_are_counted_in_bytes():
    A, w = FAMILIES["haar"]
    wavelet._PLANS.clear()
    _reports(LADDER_DROP_PSI, A, w, LABELS["haar"], 2, 2)
    info = wavelet._PLANS.info()
    assert info.entries == 2  # one plan per check
    assert 0 < info.held <= wavelet._PLAN_BYTES


# -- the table itself -----------------------------------------------------------


def _table(budget):
    built = []

    def build(key, size):
        def make():
            built.append(key)
            return key, size
        return make

    return ByteLRU(budget, lambda value: value[1]), build, built


def test_the_least_recently_used_values_go_first():
    table, build, built = _table(10)
    for key in "abc":
        table.fetch(key, build(key, 4))
    # a and b held 8 bytes; c made 12, so a went
    assert table.info().entries == 2 and table.info().held == 8
    table.fetch("b", build("b", 4))  # b is now the most recent
    table.fetch("d", build("d", 4))  # so c goes
    table.fetch("b", build("b", 4))
    table.fetch("a", build("a", 4))
    assert built == ["a", "b", "c", "d", "a"]
    assert table.info() == (2, 5, 2, 8)


def test_a_raise_and_a_value_past_the_budget_are_not_kept():
    table, build, built = _table(10)

    def failing():
        raise ArithmeticError("no value")

    for _ in range(2):
        with pytest.raises(ArithmeticError):
            table.fetch("x", failing)
        assert table.fetch("big", build("big", 11)) == ("big", 11)
    assert built == ["big", "big"]
    assert table.info() == (0, 4, 0, 0)
    # and a value past the budget leaves the kept ones in place
    table.fetch("small", build("small", 10))
    table.fetch("big", build("big", 11))
    table.fetch("small", build("small", 10))
    assert built == ["big", "big", "small", "big"]
    assert table.info() == (1, 6, 1, 10)


def test_a_kept_value_that_is_not_the_same_is_replaced():
    table, build, built = _table(10)
    table.fetch("k", build("first", 3))
    assert table.fetch("k", build("second", 5), lambda value: value[0] == "second") == ("second", 5)
    assert table.fetch("k", build("third", 1), lambda value: value[0] == "second") == ("second", 5)
    assert built == ["first", "second"]
    assert table.info() == (1, 2, 1, 5)
    table.clear()
    assert table.info() == (0, 0, 0, 0)
