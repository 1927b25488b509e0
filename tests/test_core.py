"""Coordinate-vector containers, windows and reports."""

import json
import math

import numpy as np
import pytest

from swl import (
    FCoordVec,
    GCoordVec,
    HAAR,
    Window,
    coord_equal,
    oracle_F_coords,
)
from swl.bases import FunctionSpec
from swl.core import (
    DROP_THRESHOLD,
    CheckReport,
    canonical_json,
    coords_from_doc,
    coords_to_doc,
    csum,
    keep_mask,
    key_columns,
    offset_column,
    window_columns,
)


def test_norm_sq_empty_is_zero():
    assert FCoordVec({}).norm_sq() == 0.0
    assert GCoordVec({}).norm_sq() == 0.0


def test_norm_sq_unit_entry():
    assert FCoordVec({(0, 0): 1.0}).norm_sq() == 1.0


def test_norm_sq_chi03_haar_coords():
    # oracle: integral of |chi_[0,3)|^2 = 3, carried by three unit box coefficients
    vec = oracle_F_coords(FunctionSpec.indicator(0, 3), HAAR, Window.symmetric(HAAR, 4, 4, 8))
    assert dict(vec.items()) == {(0, 0): 1.0, (0, 1): 1.0, (0, 2): 1.0}
    assert vec.norm_sq() == pytest.approx(3.0, abs=1e-12)


def test_norm_sq_invariant_under_storage_order():
    entries = [((i, n), complex(i + 1, n)) for i in range(4) for n in range(-3, 3)]
    a = FCoordVec(entries)
    b = FCoordVec(list(reversed(entries)))
    assert a.norm_sq() == b.norm_sq()


def test_drop_threshold_absent_keys_are_zero():
    v = FCoordVec({(0, 0): 1e-16, (1, 0): 1.0})
    assert (0, 0) not in v
    assert v[(0, 0)] == 0j
    assert len(v) == 1


def test_duplicate_keys_accumulate():
    v = FCoordVec([((0, 0), 1.0), ((0, 0), 0.5)])
    assert v[(0, 0)] == 1.5


def test_gcoordvec_rejects_bad_sign():
    with pytest.raises(ValueError):
        GCoordVec({(0, 1, 2): 1.0})
    with pytest.raises(ValueError):
        GCoordVec({(2, 1, 2): 1.0})


def test_vectors_are_immutable():
    v = FCoordVec({(0, 0): 1.0})
    with pytest.raises(AttributeError):
        v._entries = {}


def test_coord_equal_identical_passes_with_zero_residual():
    v = FCoordVec({(0, 0): 1.0, (2, -1): 1j})
    rep = coord_equal(v, v, 0.0)
    assert rep.passed and rep.max_residual == 0.0


def test_coord_equal_mismatch():
    a = FCoordVec({(0, 0): 1.0})
    rep = coord_equal(a, FCoordVec({}), 1e-9)
    assert not rep.passed
    assert rep.max_residual == pytest.approx(1.0)


def test_coord_equal_symmetric():
    a = FCoordVec({(0, 0): 1.0, (1, 2): 0.25})
    b = FCoordVec({(0, 0): 1.0 + 3e-7})
    ra = coord_equal(a, b, 1e-6)
    rb = coord_equal(b, a, 1e-6)
    assert ra.passed == rb.passed
    assert ra.max_residual == rb.max_residual


def test_vector_algebra():
    a = FCoordVec({(0, 0): 1.0, (0, 1): 2.0})
    b = FCoordVec({(0, 1): -2.0})
    assert dict(a.plus(b).items()) == {(0, 0): 1.0}
    assert dict(a.scaled(2j).items()) == {(0, 0): 2j, (0, 1): 4j}


def test_window_validation():
    with pytest.raises(ValueError):
        Window((), (0, 1), ((1, 0),), (0, 1))
    with pytest.raises(ValueError):
        Window((0,), (1, 0), ((1, 0),), (0, 1))
    with pytest.raises(ValueError):
        Window((0,), (0, 1), ((3, 0),), (0, 1))
    w = Window.symmetric(HAAR, 2)
    assert w.trans_labels == (0, 1, 2)
    assert (-1, 2) in w.dil_labels


def test_window_symmetric_exponential_labels():
    w = Window.symmetric("exponential", 3, 1, 2)
    assert w.trans_labels == (-3, -2, -1, 0, 1, 2, 3)
    assert w.dil_range == (-2, 2)


def test_report_pass_iff_within_tolerance():
    rep = CheckReport.from_residuals("x", {("a",): 2e-9, ("b",): 0.5e-9}, 1e-9)
    assert not rep.passed and rep.max_residual == 2e-9
    rep2 = CheckReport.from_residuals("x", {("a",): 0.5e-9}, 1e-9)
    assert rep2.passed
    # slack widens the band and is recorded
    rep3 = CheckReport.from_residuals("x", {("a",): 2e-9}, 1e-9, slack=1.5e-9)
    assert rep3.passed and rep3.slack == 1.5e-9


def test_coords_doc_roundtrip():
    g = GCoordVec({(1, 0, 2): 0.5 - 0.25j, (-1, 3, -1): 1.0})
    doc = coords_to_doc(g, "haar")
    assert doc["model"] == "G" and doc["basis"] == "haar"
    back, basis = coords_from_doc(json.loads(json.dumps(doc)))
    assert basis == "haar"
    assert coord_equal(back, g, 0.0).passed

    f = FCoordVec({(2, -3): 1j})
    back_f, _ = coords_from_doc(coords_to_doc(f, "exponential"))
    assert coord_equal(back_f, f, 0.0).passed


def test_canonical_json_is_sorted_and_precise():
    text = canonical_json({"b": 1.0 / 3.0, "a": [1, 2.5]})
    assert text == '{"a":[1,2.5],"b":0.33333333333333331}'
    assert json.loads(text)["b"] == 1.0 / 3.0


def test_offset_column_is_exact():
    # int64 while the results fit, a d past int64 included, else Python ints
    col = np.array([-2**63, -2**63 + 1])
    for d, want, dtype in ((2**63 + 1, [1, 2], np.int64), (5, [-2**63 + 5, -2**63 + 6], np.int64),
                           (-1, [-2**63 - 1, -2**63], object)):
        got = offset_column(col, d)
        assert got.dtype == dtype and got.tolist() == want
    # a list of shifts: every col[t] + d[k] at [t, k], int64 only if all of them fit
    for ds, dtype in (([5, 2**63 + 1, 0], np.int64), ([5, -1], object),
                      ([2**64, 2**63 + 1], object)):
        got = offset_column(col, ds)
        assert got.dtype == dtype and got.tolist() == [[c + d for d in ds] for c in col.tolist()]
    wide = np.array([2**70, -3], dtype=object)
    assert offset_column(wide, [1, -1]).tolist() == [[2**70 + 1, 2**70 - 1], [-2, -4]]


def test_csum_compensates():
    vals = [complex(1e16, 0), complex(1.0, 1.0), complex(-1e16, 0)]
    assert csum(vals) == complex(1.0, 1.0)


def test_zero_rule_takes_one_modulus():
    # values within 4 ulps of the threshold, where numpy's complex abs and
    # Python's abs can disagree: the array and dict paths keep the same ones
    rng = np.random.default_rng(7)
    ulp = math.ulp(DROP_THRESHOLD)
    mod = DROP_THRESHOLD + ulp * rng.integers(-4, 5, 100_000)
    theta = rng.uniform(0.0, 2.0 * math.pi, len(mod))
    vals = mod * np.cos(theta) + 1j * (mod * np.sin(theta))
    want = [abs(v) > DROP_THRESHOLD for v in vals.tolist()]
    assert keep_mask(vals).tolist() == want
    keys = [(k, 0) for k in range(len(vals))]
    built = FCoordVec(zip(keys, vals.tolist()))
    summed = FCoordVec._from_terms(key_columns(keys, 2), vals)
    assert list(built.keys()) == list(summed.keys()) == [keys[k] for k, w in enumerate(want) if w]
    # numpy's abs puts this one above 1e-15, Python's abs at it
    v = -9.953673776295952e-16 - 9.61445970961608e-17j
    assert not FCoordVec([((0, 0), v)]) and not FCoordVec._from_terms(key_columns([(0, 0)], 2), np.array([v]))


@pytest.mark.parametrize("labels, lo, hi", [
    ([(0,), (3,), (7,)], -2, 4),
    ([(1, 0), (-1, 5)], 0, 0),
    # a component past int64, in the labels or in the range, makes every column Python ints
    ([(1, 2 ** 63), (-1, 1)], -1, 1),
    ([(2,)], 2 ** 63 - 2, 2 ** 63),
    ([(2,)], -2 ** 63 - 1, -2 ** 63),
])
def test_window_columns_are_the_key_columns(labels, lo, hi):
    keys = [(*label, n) for label in labels for n in range(lo, hi + 1)]
    got, want = window_columns(labels, lo, hi), key_columns(keys, len(labels[0]) + 1)
    assert [c.dtype for c in got] == [c.dtype for c in want]
    assert [c.tolist() for c in got] == [c.tolist() for c in want]
