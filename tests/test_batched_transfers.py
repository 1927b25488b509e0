"""The batched Haar blocks and the array-backed transfers.

The blocks relabel the single-entry rows and columns of whole key arrays
and expand the multi-entry ones, for every Haar key: int64 arithmetic
while the values stay below 2^62, Python ints past that.  No Haar key of a
transfer goes through the scalar tables ``_haar_row`` and ``_haar_column``;
they are the references here, with the transfer as a dict accumulation
over them, term by term in source order.
"""

import math
import time

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from swl import (  # noqa: E402
    EXPONENTIAL,
    HAAR,
    AlphaMatrix,
    DilIndex,
    FCoordVec,
    GCoordVec,
    TransIndex,
    Window,
    f_from_g,
    g_from_f,
    shift_D,
    shift_T,
    transfer,
)
from swl.alpha import (  # noqa: E402
    _dil_key,
    _haar_column,
    _haar_column_blocks,
    _haar_row,
    _haar_row_blocks,
    _trans_key,
)
from swl.bases import InvalidLabelError, int_atoms  # noqa: E402
from swl.core import DROP_THRESHOLD, MINUS, PLUS, key_columns  # noqa: E402

A = AlphaMatrix(HAAR)
W = Window.symmetric(HAAR, 4, 4, 8)  # rows read only the top scale, 8


def _near(lo, hi):
    # values near 2^lo .. 2^hi: powers of two, one below, and random bits
    return st.one_of(
        st.integers(lo, hi).map(lambda r: 1 << r),
        st.integers(lo, hi).map(lambda r: (1 << r) - 1),
        st.integers(lo, hi).flatmap(lambda r: st.integers(1 << r, (1 << (r + 1)) - 1)),
    )


# labels hitting every row case: 0 (ladders at n = 0, -1, coarse boxes at
# |n| > 1), 2^r and 2^r - 1 (ladders), and plain wavelet labels
labels = st.one_of(st.just(0), st.integers(1, 300), _near(0, 61))
shifts = st.one_of(st.integers(-4, 4), st.integers(-300, 300),
                   _near(0, 61), _near(0, 61).map(lambda v: -v))
signs = st.sampled_from([PLUS, MINUS])
# down to -12: box and fine wavelet columns have up to 2^12 entries
scales = st.one_of(st.integers(-12, 12), st.integers(-12, 70))


def _single(entries):
    return len(entries) == 1 and entries[0][1] == 1.0 + 0j


def _fits(*values):
    return all(abs(v) < (1 << 62) for v in values)


def _single_targets(blocks, size):
    # each key's target in the single-entry block, None for the other keys
    targets = [None] * size
    for at, counts, cols, alphas, clipped in blocks:
        if counts is None:
            assert alphas is None and clipped is None
            for a, target in zip(at.tolist(), zip(*(c.tolist() for c in cols))):
                assert targets[a] is None
                targets[a] = target
    return targets


@given(keys=st.lists(st.tuples(labels, shifts), min_size=1, max_size=40))
def test_row_map_matches_the_row_table(keys):
    blocks = _haar_row_blocks(*key_columns(keys, 2), W.dil_range[1])
    for (ki, kn), target in zip(keys, _single_targets(blocks, len(keys))):
        entries, tail = _haar_row(ki, kn, W.dil_range[1])
        if target is not None:
            assert entries == [(target, 1.0 + 0j)] and tail == 0.0
        else:
            # a key outside the single-entry block is a multi-entry row
            assert not _single(entries)


@given(keys=st.lists(st.tuples(signs, labels, scales), min_size=1, max_size=40))
def test_column_map_matches_the_column_table(keys):
    blocks = _haar_column_blocks(*key_columns(keys, 3))
    for (ks, kj, km), target in zip(keys, _single_targets(blocks, len(keys))):
        entries = _haar_column(ks, kj, km)
        if target is not None:
            assert entries == [(target, 1.0 + 0j)]
        else:
            # a ladder, or a box or a wavelet column with p + m < 0
            assert not _single(entries)


def test_map_cases_cover_every_branch():
    # one key per row case, and keys at the int64 edge of each relabelling
    rows = [(0, 0), (4, 0), (5, 0), (0, -1), (3, -1), (4, -1), (7, 1), (0, 1), (9, -2),
            (0, 6), (0, -6), (5, 6), (5, -6), ((1 << 61) + 1, 0), (1, 1 << 61),
            (1, -(1 << 61)), (1 << 61, 2), (3, 1 << 61)]
    targets = _single_targets(_haar_row_blocks(*key_columns(rows, 2), W.dil_range[1]), len(rows))
    # ladders and coarse boxes; the last two, whose labels reach 2^62, are single entries too
    assert [t is None for t in targets] == [
        True, True, False, True, True, False, False, False, False,
        True, True, False, False, False, False, False, False, False]
    cols = [(PLUS, 0, 0), (MINUS, 0, 0), (PLUS, 0, 3), (PLUS, 0, -2), (PLUS, 5, 1),
            (MINUS, 5, 1), (PLUS, 5, -2), (MINUS, 6, -3), (PLUS, 1 << 61, 0),
            (PLUS, 3, 60), (PLUS, 1 << 61, 1), (MINUS, 3, 61)]
    targets = _single_targets(_haar_column_blocks(*key_columns(cols, 3)), len(cols))
    # ladders, boxes and p + m < 0; the last two, at scale 62, are single entries too
    assert [t is None for t in targets] == [
        False, False, True, True, False, False, False, True, False, False, False, False]


# -- the element form against the oracle's description ---------------------------

def _level_offset(atoms):
    # a wavelet 2^(a/2) psi(2^a x - b) is two atoms on the halves of its box
    (lo, hi, exp, *_), _ = atoms
    assert hi == lo + 1 and lo % 2 == 0
    return exp - 1, lo >> 1


def _as_columns(*values):
    # each value as a one-entry Python-int column, and as int64 where all fit
    yield tuple(np.array([v], dtype=object) for v in values)
    if _fits(*values):
        yield tuple(np.array([v], dtype=np.int64) for v in values)


wavelet_labels = st.one_of(st.integers(1, 300), _near(1, 75))
far_shifts = st.one_of(shifts, st.integers(-(1 << 62) - 9, -(1 << 62) + 9),
                       st.integers((1 << 62) - 9, (1 << 62) + 9))


@given(i=wavelet_labels, n=far_shifts)
def test_trans_key_inverts_the_atoms_of_a_translation_key(i, n):
    a, b = _level_offset(int_atoms(HAAR, (i, n)))
    for cols in _as_columns(a, b, 1 << (a + 1)):
        assert [int(c[0]) for c in _trans_key(*cols[:2])] == [i, n]


@given(s=signs, j=wavelet_labels, m=st.one_of(st.integers(-12, 12), st.integers(-200, 200)))
def test_dil_key_inverts_the_atoms_of_a_dilation_key(s, j, m):
    a, b = _level_offset(int_atoms(HAAR, (s, j, m)))
    for cols in _as_columns(a, b, j, m):
        assert [int(c[0]) for c in _dil_key(*cols[:2])] == [s, j, m]


# -- transfers against the dict accumulation ---------------------------------------

def reference_transfer(v, to_g, A=A, w=W):
    """The transfer term by term: sums from 0j in source order, keys in
    order of first term, then the zero rule."""
    out, tail = {}, 0.0
    for key, val in v.items():
        entries, clipped = A.row(*key, w) if to_g else A.column(*key, w)
        for target, a in entries:
            out[target] = out.get(target, 0j) + (a if to_g else a.conjugate()) * val
        if clipped > 0.0:
            tail += abs(val) * math.sqrt(clipped)
    return (GCoordVec if to_g else FCoordVec)(out), tail


def _same(a, b):
    # keys, their order and every value bit for bit
    pairs = list(zip(a.items(), b.items()))
    return len(a) == len(b) and all(
        ka == kb and type(ka) is type(kb) and va.real.hex() == vb.real.hex()
        and va.imag.hex() == vb.imag.hex() for (ka, va), (kb, vb) in pairs)


values = st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False)
wide = st.one_of(_near(52, 70), st.integers(0, 40))


@given(entries=st.lists(st.tuples(st.tuples(labels, shifts), values), max_size=30))
def test_g_from_f_matches_the_reference(entries):
    v = FCoordVec(entries)
    got, got_tail = transfer(v, A, W)
    want, tail = reference_transfer(v, to_g=True)
    assert _same(got, want) and got_tail == tail


@given(entries=st.lists(st.tuples(st.tuples(signs, labels, scales), values), max_size=30))
def test_f_from_g_matches_the_reference(entries):
    v = GCoordVec(entries)
    assert _same(f_from_g(v, A, W), reference_transfer(v, to_g=False)[0])


@given(rows=st.lists(st.tuples(st.tuples(wide, st.one_of(wide, wide.map(lambda x: -x))),
                               values), max_size=12),
       cols=st.lists(st.tuples(st.tuples(signs, wide, st.integers(-12, 12)), values),
                     max_size=12))
def test_int64_boundary_matches_the_scalar_path(rows, cols):
    # labels and shifts from 2^52 to 2^70: key columns of either dtype, and
    # targets past int64, which the blocks make on Python ints, reading no
    # row or column one key at a time
    f, g = FCoordVec(rows), GCoordVec(cols)
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_table_calls(mp)
        got_g, got_f = g_from_f(f, A, W), f_from_g(g, A, W)
    assert calls == []
    assert _same(got_g, reference_transfer(f, to_g=True)[0])
    assert _same(got_f, reference_transfer(g, to_g=False)[0])
    for p in (1, -3, 1 << 62):
        assert _same(shift_D(g, p), GCoordVec({(s, j, m + p): x for (s, j, m), x in g.items()}))
        assert _same(shift_T(f, p), FCoordVec({(i, n + p): x for (i, n), x in f.items()}))


def _count_table_calls(mp):
    # AlphaMatrix.row and column, recording each call's name
    calls = []
    for name in ("row", "column"):
        real = getattr(AlphaMatrix, name)
        mp.setattr(AlphaMatrix, name,
                   lambda self, *key, _real=real, _name=name: calls.append(_name) or _real(self, *key))
    return calls


def test_exponential_family_takes_the_scalar_table():
    A_exp, w = AlphaMatrix(EXPONENTIAL), Window.symmetric(EXPONENTIAL, 3, 3, 4)
    f = FCoordVec({(1, 0): 1.0, (-2, 3): 0.5j, (0, -1): 0.25})
    got, got_tail = transfer(f, A_exp, w)
    want, tail = reference_transfer(f, True, A_exp, w)
    assert _same(got, want) and got_tail == tail and tail > 0.0
    assert _same(f_from_g(got, A_exp, w), reference_transfer(got, False, A_exp, w)[0])


@given(entries=st.lists(st.tuples(st.tuples(st.integers(0, 40), st.integers(-8, 8)), values),
                        max_size=25),
       m_hi=st.integers(2, 30))
def test_round_trip_within_the_ladder_tail(entries, m_hi):
    # f_from_g inverts g_from_f up to what the scale ladders lost above m_hi
    v = FCoordVec(entries)
    w = Window.symmetric(HAAR, 4, 4, 4).with_dil_range(-4, m_hi)
    g, out_tail = transfer(v, A, w)
    back, back_tail = transfer(g, A, w)
    err = math.sqrt(back.plus(v.scaled(-1.0)).norm_sq())
    assert back_tail == 0.0  # Haar columns are finite
    assert err <= out_tail + 1e-12 * (1.0 + math.sqrt(v.norm_sq()))


# -- the array-backed vectors ------------------------------------------------------

big_labels = st.one_of(st.integers(0, 6), st.just(1 << 70))
keys_f = st.tuples(big_labels, st.integers(-3, 3))
keys_g = st.tuples(signs, big_labels, st.integers(-3, 3))


def _pairs(keys):
    # repeated keys, values under the zero rule, and the first values cancelled later
    pairs = st.lists(st.tuples(keys, st.one_of(values, st.just(1e-16), st.just(0j))),
                     max_size=30)
    return pairs.map(lambda ps: ps + [(k, -x) for k, x in ps[:3]])


def _bits(items):
    return [(tuple(k), x.real.hex(), x.imag.hex()) for k, x in items]


def _dict_sum(pairs):
    """The reference: each key's values summed from 0j in order in a dict,
    then the zero rule, keys in first-appearance order."""
    acc = {}
    for key, x in pairs:
        acc[tuple(key)] = acc.get(tuple(key), 0j) + complex(x)
    return [(k, x) for k, x in acc.items() if abs(x) > DROP_THRESHOLD]


@given(pairs=_pairs(keys_f), g_pairs=_pairs(keys_g),
       factor=st.one_of(values, st.just(-1.0), st.just(1e-16)))
def test_array_vectors_match_a_vector_built_from_pairs(pairs, g_pairs, factor):
    # construction, plus and scaled against a dict accumulation: the same
    # keys in first-appearance order and the same value bits; NamedTuple
    # keys and the mapping interface read the same entries
    for cls, key_type, ps in ((FCoordVec, TransIndex, pairs), (GCoordVec, DilIndex, g_pairs)):
        built = cls(ps)
        want = _dict_sum(ps)
        assert _bits(built.items()) == _bits(want)
        assert all(type(k) is key_type for k in built)
        assert len(built) == len(want) and bool(built) == bool(want)
        for key, x in want:
            assert key in built and built[key] == x and built.get(key) == x
        assert built.norm_sq() == math.fsum(x.real * x.real + x.imag * x.imag for _, x in want)
        terms = np.array([complex(x) for _, x in ps], dtype=complex)
        assert built == cls._from_terms(key_columns([k for k, _ in ps], len(key_type._fields)), terms)

        other = cls(ps[::-1])
        both = built.plus(other)
        assert _bits(both.items()) == _bits(_dict_sum(list(built.items()) + list(other.items())))
        scaled = [(k, complex(factor) * x) for k, x in built.items()]
        assert _bits(built.scaled(factor).items()) == _bits(
            (k, x) for k, x in scaled if abs(x) > DROP_THRESHOLD)
    with pytest.raises(ValueError):
        FCoordVec(pairs).plus(GCoordVec(g_pairs))
    with pytest.raises(ValueError):
        GCoordVec(g_pairs).plus(FCoordVec(pairs))


def test_vectors_keep_python_int_keys_past_int64():
    big = 1 << 70
    v = GCoordVec({(PLUS, big, 0): 1.0, (MINUS, 3, 2): 2.0})
    assert v._cols[1].dtype == object
    assert list(v.keys()) == [DilIndex(PLUS, big, 0), DilIndex(MINUS, 3, 2)]
    assert v[(PLUS, big, 0)] == 1.0
    # a shift back into int64 range gives int64 columns again
    assert shift_D(GCoordVec({(PLUS, 1, big): 1.0}), -big)._cols[2].dtype == np.int64


# -- the array expansions of the multi-entry rows and columns ----------------------

def _expanded(blocks):
    # position of each key of a multi-entry block -> (its entries as
    # (key tuple, alpha), clipped mass)
    out = {}
    for at, counts, cols, alphas, clipped in blocks:
        if counts is None:
            continue
        keys = list(zip(*(c.tolist() for c in cols)))
        alphas, end = alphas.tolist(), 0
        for k, (a, count) in enumerate(zip(at.tolist(), counts.tolist())):
            assert a not in out
            out[a] = (list(zip(keys[end:end + count], alphas[end:end + count])),
                      0.0 if clipped is None else clipped[k])
            end += count
        assert end == len(keys) == len(alphas)
    return out


def _same_entries(got, want):
    # keys, their order, and alpha bit for bit
    return len(got) == len(want) and all(
        tuple(kg) == tuple(kw) and ag.real.hex() == aw.real.hex() and ag.imag.hex() == aw.imag.hex()
        for (kg, ag), (kw, aw) in zip(got, want))


# ladders at r = 61 and 62, coarse boxes at u = 61 (int64) and u = 62 (Python ints)
edge_rows = st.sampled_from([(1 << 61, 0), ((1 << 62) - 1, -1), (1 << 62, 0), ((1 << 63) - 1, -1),
                             (0, (1 << 61) + 5), (0, -(1 << 62) + 5), (0, (1 << 62) + 5),
                             (0, -(1 << 62) - 1)])


@given(keys=st.lists(st.one_of(st.tuples(labels, shifts), edge_rows), min_size=1, max_size=40),
       m_hi=st.integers(-4, 70))
def test_row_runs_match_the_row_table(keys, m_hi):
    expanded = _expanded(_haar_row_blocks(*key_columns(keys, 2), m_hi))
    for at, (ki, kn) in enumerate(keys):
        entries, tail = _haar_row(ki, kn, m_hi)
        if at in expanded:
            got, clipped = expanded[at]
            assert _same_entries(got, entries) and clipped == tail
        else:
            assert _single(entries)


def _edge_columns(u):
    # wavelet columns at p + m = -u whose shifts (b << u) + k come to 2^62:
    # the first of each pair in int64, the second on Python ints
    p = 61 - u
    return st.sampled_from([(PLUS, (1 << (p + 1)) - 2, -61), (PLUS, (1 << (p + 1)) - 1, -61),
                            (MINUS, (1 << p) + 2, -61), (MINUS, (1 << p) + 1, -61)])


edge_columns = st.one_of(st.sampled_from([(PLUS, 0, 62), (MINUS, 0, 62), (PLUS, 0, 63),
                                          (MINUS, 0, 63)]),
                         st.integers(1, 4).flatmap(_edge_columns))


@given(keys=st.lists(st.one_of(st.tuples(signs, labels, scales), edge_columns),
                     min_size=1, max_size=40))
def test_column_runs_match_the_column_table(keys):
    expanded = _expanded(_haar_column_blocks(*key_columns(keys, 3)))
    for at, (ks, kj, km) in enumerate(keys):
        entries = _haar_column(ks, kj, km)
        if at in expanded:
            got, clipped = expanded[at]
            assert _same_entries(got, entries) and clipped == 0.0
        else:
            assert _single(entries)


def _nonzero(entries):
    # a coarse box past _LADDER_DEPTH levels: the table lists its 0.0 entries, the block does not
    return [(key, a) for key, a in entries if a != 0j]


def test_every_haar_key_is_in_a_block():
    # ladder rows at r = 62 and 63, coarse boxes at u = 62 and past 1074, a
    # wide single entry: entry for entry what the row table lists
    rows = [(1 << 62, 0), ((1 << 63) - 1, -1), (1 << 63, 0), ((1 << 64) - 1, -1), (0, (1 << 62) + 5),
            (0, -(1 << 62) - 1), (0, (1 << 1100) + 7), (0, -(1 << 1080)), ((1 << 70) + 3, 5), (5, 3)]
    for m_hi in (8, 70, 1200):
        cols = key_columns(rows, 2)
        assert cols[0].dtype == object
        expanded = _expanded(_haar_row_blocks(*cols, m_hi))
        for at, key in enumerate(rows):
            entries, tail = _haar_row(*key, m_hi)
            if at in expanded:
                got, clipped = expanded[at]
                assert _same_entries(got, _nonzero(entries)) and clipped == tail
            else:
                assert _single(entries)
    # ladder columns at m = 63, 1074, 1075 and 3000, wavelet columns whose
    # shifts reach 2^62, one in int64 and one on Python ints, and a wide
    # label: every key in a block, in int64 columns and in object columns
    cols = [(PLUS, 0, 63), (MINUS, 0, 1074), (PLUS, 0, 1075), (MINUS, 0, 3000), (PLUS, 0, -12),
            (PLUS, (1 << 60) - 2, -61), (PLUS, (1 << 60) - 1, -61), (MINUS, (1 << 59) + 2, -61),
            (MINUS, (1 << 59) + 1, -61), (PLUS, 5, 1), (MINUS, (1 << 70) + 3, 2)]
    for keys in (cols[:-1], cols):
        key_cols = key_columns(keys, 3)
        assert (key_cols[1].dtype == object) == (keys is cols)
        expanded = _expanded(_haar_column_blocks(*key_cols))
        for at, key in enumerate(keys):
            entries = _haar_column(*key)
            if at in expanded:
                got, clipped = expanded[at]
                assert _same_entries(got, entries) and clipped == 0.0
            else:
                assert _single(entries)
    # and the transfers are the term-by-term ones, with no table call
    w = Window.symmetric(HAAR, 4, 4, 70)
    f = FCoordVec({key: 1.0 + 0.5j * k for k, key in enumerate(rows) if key[1].bit_length() < 1000})
    g = GCoordVec({key: 0.5 - 1j * k for k, key in enumerate(cols)})
    want_g, tail = reference_transfer(f, True, A, w)
    want_f = reference_transfer(g, False, A, w)[0]
    with pytest.MonkeyPatch.context() as mp:
        calls = _count_table_calls(mp)
        (got_g, got_tail), got_f = transfer(f, A, w), f_from_g(g, A, w)
    assert calls == []
    assert _same(got_g, want_g) and got_tail == tail
    assert _same(got_f, want_f)


def test_a_spread_past_the_longest_array_raises_at_once():
    # 2^62 unit boxes for (+, 0, -62): no list or array of them is built, on
    # Python ints (the wide label) or in int64
    for entries in ({(PLUS, 1 << 70, 0): 1.0, (PLUS, 0, -62): 1.0}, {(PLUS, 0, -62): 1.0},
                    {(MINUS, 5, -3000): 1.0}):
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match=r"spreads over 2\^(62|2998) boxes"):
            f_from_g(GCoordVec(entries), A, W)
        assert time.perf_counter() - start < 0.5
    # 2^59 boxes in all: more complex128 alphas than one array can hold
    with pytest.raises(ArithmeticError, match="2\\^59 boxes or more"):
        f_from_g(GCoordVec({(PLUS, 0, -58): 1.0, (MINUS, 0, -58): 1.0}), A, W)
    with pytest.raises(ArithmeticError, match=r"spreads over 2\^59 boxes"):
        f_from_g(GCoordVec({(PLUS, 0, -59): 1.0}), A, W)


def test_a_scale_near_int64_takes_python_ints():
    # p + m past 2^63 is promoted, not wrapped: the label 2^(2^63 + 1) is
    # past memory, as the column table finds it
    for key in ((PLUS, 5, (1 << 63) - 1), (PLUS, 0, (1 << 63) - 1)):
        g = GCoordVec({key: 1.0})
        assert g._cols[2].dtype == np.int64
        with pytest.raises(MemoryError):
            _haar_column(*key)
        with pytest.raises(MemoryError):
            f_from_g(g, A, W)
    # and at the other end the spread of 2^(2^63 - 2) boxes is named
    with pytest.raises(ArithmeticError, match="2\\^9223372036854775806 boxes"):
        f_from_g(GCoordVec({(MINUS, 5, -(1 << 63)): 1.0}), A, W)


@pytest.mark.parametrize("wide", [False, True])
def test_a_negative_label_is_an_input_error(wide):
    # the blocks raise the tables' error, for the first such key; so does D
    big = (1 << 70) if wide else 3
    f = FCoordVec({(big, 0): 1.0, (-1, 5): 1.0, (-2, 0): 1.0})
    g = GCoordVec({(PLUS, big, 1): 1.0, (MINUS, -1, 0): 1.0, (PLUS, -2, 0): 1.0})
    assert (f._cols[0].dtype == object) == (g._cols[1].dtype == object) == wide
    for fn, v, label in ((g_from_f, f, "i=-1"), (shift_D, f, "i=-1"), (f_from_g, g, "j=-1")):
        with pytest.raises(InvalidLabelError, match=label):
            fn(v, A, W) if fn is not shift_D else fn(v, 1)


def test_ladder_tail_takes_python_abs():
    # |e^{3i}| is 1.0, and numpy's complex abs may make it 0.9999999999999999;
    # the tail is summed over the keys in order from Python's abs
    w = Window.symmetric(HAAR, 4, 4, 3)
    z = complex(math.cos(3.0), math.sin(3.0))
    v = FCoordVec({(0, 0): z, (4, 0): 3 * z, (5, 0): z, (0, -1): 0.5 * z, (7, -1): z, (8, 0): z})
    want = 0.0
    for (i, n), val in v.items():
        _, clipped = _haar_row(i, n, 3)
        if clipped > 0.0:
            want += abs(val) * math.sqrt(clipped)
    assert transfer(v, A, w)[1].hex() == want.hex()


def test_d4_check_makes_no_table_calls(monkeypatch):
    # orthonormality at pq = 2 and completeness read no row or column one key at a time
    from swl.filters import construct_wavelet_coords, daubechies4, scaling_coords_from_filter
    from swl.wavelet import check_wavelet_completeness, check_wavelet_orthonormality

    w = Window.symmetric(HAAR, 8, 10, 50)
    phi, tail = scaling_coords_from_filter(daubechies4(), 8)
    psi = g_from_f(construct_wavelet_coords(phi, daubechies4(), A, w), A, w)
    calls = []
    for name in ("row", "column"):
        real = getattr(AlphaMatrix, name)
        monkeypatch.setattr(AlphaMatrix, name,
                            lambda self, *key, _real=real, _name=name: calls.append(_name) or _real(self, *key))
    orth = check_wavelet_orthonormality(psi, A, 2, w, 1e-3, candidate_tail_sq=tail)
    comp = check_wavelet_completeness(psi, A, [(PLUS, 0), (PLUS, 1), (MINUS, 0)], 4, w)
    assert orth.passed and comp.passed
    assert calls == []
