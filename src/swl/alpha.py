"""Closed-form change-of-representation coefficients and coordinate transfer.

``AlphaMatrix(family).entry(i, n, s, j, m)`` returns the inner product
of the translated basis function (i, n) against the dilated basis
function (s, j, m); ``row`` and ``column`` list a row or column within a
window, with the l2 mass the window clipped.  The values come from
per-family closed forms; every case has been cross-validated against the
brute-force integration oracle (see the test suite), which is the point
of keeping the two routes separate.

The Haar family has one implementation, the row and column blocks of
"Batched transfers": ``entry``, ``row`` and ``column`` read the blocks of
one key, as every transfer reads them, and an entry is read from its row.
The scalar row and column tables, written out case by case, live in the
test suite as the reference the blocks are held to, and the oracle stays
the outside check on both.

Row/column structure
--------------------
Haar rows are finite except for four case families whose entries form a
geometric ladder in the scale exponent m (rows (0, 0), (2^r, 0), (0, -1)
and (2^{r+1}-1, -1)); those ladders are truncated at the window's upper
scale bound and the clipped l2 mass is reported.  A ladder starting at
scale r + 1 is listed up to r + 1074 at most: past it every entry is 0.0
in double precision, and a coarse box lists its wavelets down to 1074
levels below the box for the same reason.  Haar columns are always
finite.  Exponential rows and columns are infinite in the label
direction with ~1/label decay and are clipped to the window's label set;
again the clipped mass is reported exactly as 1 - (captured mass).

The exponential table has one support rule, ``_exp_support``: row n lies
on branch + for n >= 0 and - for n < 0, at every scale m >= 1 for n in
{0, -1}, and at the one scale m = -p for n = 2^p + q or n = -2^p - q - 1
(0 <= q < 2^p), so rows 1 and -2 are the single entries at m = 0.  The
entry formulas, ``row_case`` and both enumerations read it; a column
(s, j, m) walks only the rows of ``_exp_rows(s, m)`` inside the window.

Haar scale rule: give a translation key (i, n) the level bit_length(i) and
a dilation key (s, j, m) the level m + bit_length(j).  Where
alpha_{i,n}^{s,j,m} != 0 and i >= 1, level(i, n) <= level(s, j, m), with
equality when the row or the column has a single entry.  ``scale_reach``
reads it as a mask of the keys whose transfers can reach a given level.

Haar element form
-----------------
Every Haar element is a box or a wavelet 2^{a/2} psi(2^a x - b) of level a
and offset b, and a key of either model names one (``_trans_key``,
``_dil_key``): single-entry rows and columns, and D^p (a -> a + p), are
index maps on (a, b).  ``_split`` expands a box into wavelets, ``_spread``
an element into unit boxes.  The blocks, the translation-model D
(``group_action._haar_dilate``) and the filter cascade read these four
helpers; the test suite's scalar tables, written out case by case, are
the references that the blocks and D are tested against.

Batched transfers
-----------------
``row_terms`` and ``column_terms`` lay a transfer out as blocks, one per
case, over whole key arrays.  Almost every Haar row and column is a single
entry of value exactly 1.0, a relabelling of the key: the row's element
read by ``_dil_key``, the column's by ``_trans_key``.
``_haar_row_blocks`` and ``_haar_column_blocks`` put those keys in one
single-entry block and expand the ladders, the coarse boxes (``_split``),
and the box columns at m < 0 and wavelet columns with p + m < 0
(``_spread``) as arrays, entry for entry as the reference tables enumerate
them (but for a coarse box's 0.0 entries past ``_LADDER_DEPTH`` levels),
for every Haar key: int64 while the values stay below 2^62, else Python ints
(``_element_ints``).  The exponential keys are one table block.
``_terms`` lays out every block the same way, as a ``Layout`` that holds
no values: each term's target key, its source key and, for the terms
that are not a single entry's key value, its alpha.  The terms keep
source order; ``Layout.terms`` takes them from one value array over the
source keys, and ``Layout.tails`` sums the clipped tails over the keys in
order with Python's ``abs``, so the transfers give what the term-by-term
loop over ``row``/``column`` gives, bit for bit.  A pass takes its keys
in equal runs (one by default): ``transfer`` lays its vector out in one
run, the wavelet checks' plans a chunk of shifted copies as runs.  Each
run's terms are one contiguous range, and its tail is summed over its
own keys, as a pass of that run alone sums it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bases import HAAR, BasisFamily, check_dil_label, check_trans_label
from .core import (
    DilIndex,
    FCoordVec,
    GCoordVec,
    MINUS,
    PLUS,
    TransIndex,
    Window,
    _TWO_PI,
    _WIDE,
    _as_int64,
    bit_length,
    cmul,
    key_columns,
)


def _pow2h(m: int) -> float:
    # 2^{m/2}
    return math.sqrt(2.0 ** m)


def _cis(num: int, e: int) -> complex:
    # e^{2 pi i num / 2^e}: the phase is reduced mod 1 in integers, and the
    # int division rounds it correctly, so large frequencies keep their phase
    t = (num % (1 << e)) / (1 << e)
    return complex(math.cos(_TWO_PI * t), math.sin(_TWO_PI * t))


# -- exponential family -------------------------------------------------------

def _exp_support(n: int) -> tuple[int, int, float, int]:
    """The support rule of the exponential table: row n has its entries on
    branch s at the scales lo <= m <= hi, with offset q.

    A row n < 0 is the minus-branch mirror of row c = -n - 1 (c = n for
    n >= 0).  Row c = 0 has entries at every scale m >= 1 (hi is inf); row
    c = 2^p + q, 0 <= q < 2^p, has them all at the one scale m = -p, and at
    p = 0 (rows 1 and -2) only the one at j = k.
    """
    s, c = (PLUS, n) if n >= 0 else (MINUS, -n - 1)
    if c == 0:
        return s, 1, math.inf, 0
    p = c.bit_length() - 1
    return s, -p, -p, c - (1 << p)


def _exp_rows(s: int, m: int) -> range:
    """The rows n, in increasing order, whose support holds scale m of
    branch s: the inverse of ``_exp_support``."""
    lo, hi = (0, 1) if m > 0 else (1 << -m, 2 << -m)  # c in [lo, hi)
    return range(lo, hi) if s == PLUS else range(-hi, -lo)


def _alpha_exp(k: int, n: int, s: int, j: int, m: int) -> complex:
    branch, lo, hi, q = _exp_support(n)
    if s != branch or not lo <= m <= hi:
        return 0j
    sgn = 1 if s == PLUS else -1
    if m > 0:  # rows 0 and -1
        if k == j * (1 << m):
            return complex(_pow2h(-m))
        e = _cis(sgn * k, m)
        return sgn * -1j * _pow2h(m) * e * (e - 1.0) / (2.0 * math.pi * (k - j * (1 << m)))
    p = -m
    if k * (1 << p) == j:
        return complex(_pow2h(m))
    if p == 0:  # rows 1 and -2: the single entry j = k
        return 0j
    e1 = _cis(-sgn * j * q, p)
    e2 = _cis(-sgn * j, p)
    return sgn * -1j * _pow2h(p) * e1 * (e2 - 1.0) / (2.0 * math.pi * (k * (1 << p) - j))


def _exp_row(k: int, n: int, w: Window) -> list[tuple[DilIndex, complex]]:
    s, lo, hi, _ = _exp_support(n)
    m_lo, m_hi = w.dil_range
    js = [j for sg, j in w.dil_labels if sg == s]
    return [(DilIndex(s, j, m), val) for m in range(max(lo, m_lo), min(hi, m_hi) + 1)
            for j in js if (val := _alpha_exp(k, n, s, j, m)) != 0j]


def _exp_column(s: int, j: int, m: int, w: Window) -> list[tuple[TransIndex, complex]]:
    # only the rows inside the window: a column at m = -p has 2^p of them
    rows = _exp_rows(s, m)
    n_lo, n_hi = w.trans_range
    return [(TransIndex(k, n), val) for n in range(max(rows.start, n_lo), min(rows.stop, n_hi + 1))
            for k in w.trans_labels if (val := _alpha_exp(k, n, s, j, m)) != 0j]


def _clipped(entries: list) -> tuple[list, float]:
    # an exponential row or column has unit mass: the window clips 1 minus what it keeps
    return entries, max(0.0, 1.0 - math.fsum(abs(v) ** 2 for _, v in entries))


# -- the Haar element form (see "Haar element form" above) --------------------

# A ladder starting at m = r + 1 has entries 2^{(r-m)/2}: 0.0 in double
# precision past m = r + 1074, as 2.0 ** -1075 is.
_LADDER_DEPTH = 1074


def _width(x):
    """The two's-complement width of each entry of an int64 or Python-int array."""
    return bit_length(np.where(x >= 0, x, ~x)) + 1


def _element_ints(reach: int, *cols):
    """``cols`` as int64 while ``reach`` (offset width plus level magnitude, a
    Python int) keeps every value below 2^62, else as Python ints."""
    dtype = np.int64 if reach <= _WIDE.bit_length() - 1 else object
    return tuple(c.astype(dtype, copy=False) for c in cols)


def _trans_key(a, b):
    """The translation key (i, n) of the wavelet of level a >= 0 at offset b."""
    return (1 << a) + (b & ((1 << a) - 1)), b >> a


def _dil_key(a, b):
    """The dilation key (s, j, m) of the wavelet of level a at offset b not
    in {0, -1}: (+, b, a - p) for b = 2^p + q, (-, b + 3 * 2^p, a - p) for
    b = -2^(p+1) + q, 0 <= q < 2^p."""
    plus = b > 0
    p = bit_length(np.where(plus, b, ~b) | 1) - 1
    return np.where(plus, PLUS, MINUS), np.where(plus, b, b + (3 << p)), a - p


def _split(x, u):
    """The box of level u at offset x as its cell's box and one wavelet per
    level l < u, in that order: (entries per box, each entry's box, their
    translation key columns, alphas).  The box (0, x >> u) is at 2^(-u/2),
    the wavelet ``_trans_key(l, x >> (u - l))`` at 2^((l - u)/2), negative
    where bit u - l - 1 of x is set; entries 0.0 in double precision (past
    ``_LADDER_DEPTH`` levels) are not listed.  ``u`` may be Python ints."""
    u = u.astype(np.int64, copy=False)
    box = u <= _LADDER_DEPTH
    low = np.maximum(u - _LADDER_DEPTH, 0)  # the lowest level listed
    counts = u - low + box
    key, pos = _runs(counts)
    x, u = x[key], u[key]
    level = pos + low[key] - box[key]  # -1 for the box
    wave = level >= 0
    lw = np.maximum(level, 0).astype(x.dtype)
    labels, cells = _trans_key(lw, x >> (u - lw))
    neg = wave & (((x >> (u - lw - 1)) & 1) == 1)
    mag = np.sqrt(np.ldexp(1.0, np.where(wave, level - u, -u)))
    return counts, key, (np.where(wave, labels, 0), cells), np.where(neg, -mag, mag).astype(complex)


# numpy holds at most 2^63 - 1 bytes in one array, so fewer than 2^59
# complex128 alphas
_MOST_BOXES = 59


def _spread(b, u, wavelet):
    """Elements of level -u < 0 at offsets ``b`` as the 2^u unit boxes
    (0, (b << u) + t), t ascending, at 2^(-u/2), the second half negative
    where ``wavelet``: (entries per element, each entry's element, their
    translation key columns, alphas).  2^59 boxes or more, past the longest
    array of alphas, raise ``ArithmeticError`` before any array is built;
    ``u`` may be Python ints."""
    top = int(u.max(initial=0))
    if top >= _MOST_BOXES:
        raise ArithmeticError(f"a key spreads over 2^{top} boxes, past the longest array")
    u = u.astype(np.int64, copy=False)
    counts = 1 << u
    if counts.sum(dtype=float) >= 2.0 ** _MOST_BOXES:
        raise ArithmeticError(f"the keys spread over 2^{_MOST_BOXES} boxes or more, "
                              "past the longest array")
    key, pos = _runs(counts)
    neg = wavelet[key] & (pos >= (counts >> 1)[key])
    mag = np.sqrt(np.ldexp(1.0, -u))[key]
    shifts = (b << u)[key] + pos
    return counts, key, (np.zeros_like(shifts), shifts), np.where(neg, -mag, mag).astype(complex)


# -- batched Haar blocks (see "Batched transfers" above) -----------------------

def scale_reach(A: "AlphaMatrix", keys, top: int) -> np.ndarray:
    """Which keys can lead to a dilation target of level at most ``top``
    by the Haar scale rule (module docstring).

    A row (i, n) has no entry there unless i = 0 or its level is at most
    ``top``.  A column (s, j, m) with j >= 1 and level >= 1 has one entry,
    a row (i >= 1) of its own level, so it feeds a row that reaches there
    only if its level is at most ``top``; every other column is kept.  All
    True for the exponential family.
    """
    if A.fam.name != "haar":
        return np.ones(len(keys[0]), dtype=bool)
    if len(keys) == 3:
        label, level = keys[1], bit_length(keys[1]) + keys[2]
    else:
        label, level = keys[0], bit_length(keys[0])
    return (label == 0) | (level <= max(top, 0))


def _haar_row_cases(i: np.ndarray, n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the Haar rows (i, n) that are geometric scale ladders and
    of those that are coarse boxes (a box plus one wavelet per intermediate
    scale); every other row is a single entry.  Takes int64 arrays or
    plain ints."""
    k = i + (n == -1)  # row (i, -1) mirrors row (i + 1, 0)
    ladder = ((n == 0) | (n == -1)) & ((k & (k - 1)) == 0)
    box = (i == 0) & ((n > 1) | (n < -2))
    return ladder, box


def _haar_row_blocks(i: np.ndarray, n: np.ndarray, m_hi: int) -> list:
    """The Haar rows (i, n) of every key up to scale ``m_hi``, as blocks for
    ``_terms``: the single entries, the scale ladders and the coarse boxes.
    A magnitude 2^(k/2) is ``np.sqrt(np.ldexp(1.0, k))``, rounded once as
    in ``_pow2h``.
    """
    if (i < 0).any():  # the label check's input error, for the first such key
        check_trans_label(HAAR, i[np.argmax(i < 0)])
    # a label's level r is far inside +-2^62, so a top past 2^62 lists what
    # 2^62 lists (every ladder to its depth, tail 0.0), and one below -2^62
    # what -2^62 lists (nothing, tail 1.0)
    m_hi = min(max(m_hi, -_WIDE), _WIDE)
    ladder, box = _haar_row_cases(i, n)
    # the wavelet 2^r + t at shift n is of level r at offset t + (n << r), at
    # most r bits wider than n, and a box (0, n) of level 0 at offset n
    r = np.maximum(bit_length(i) - 1, 0)
    i, n, r = _element_ints(int((r + _width(n)).max(initial=0)), i, n, r)
    at = np.flatnonzero(~(ladder | box))
    si, sr = i[at], r[at]
    s, j, m = _dil_key(sr, (n[at] << sr) + (si & ((1 << sr) - 1)))
    blocks = [(at, None, (s, np.where(si > 0, j, 0), m), None, None)]
    # the ladder starts at scale r + 1; a level is int64 whatever the label
    at = np.flatnonzero(ladder)
    li, ln, lr = i[at], n[at], r[at].astype(np.int64)
    counts = np.clip(m_hi - lr, 0, _LADDER_DEPTH)  # up to min(m_hi, r + _LADDER_DEPTH)
    # the clipped mass above m_hi: 2^(r - m_hi), or 1.0 if the ladder starts above it
    clipped = np.where(m_hi <= lr, 1.0, np.ldexp(1.0, np.minimum(lr - m_hi, 0)))
    key, pos = _runs(counts)
    # entry pos: scale r + 1 + pos at 2^(-(1 + pos)/2), negative first in
    # (2^r, 0) and after the first in (2^(r+1) - 1, -1)
    up = ln[key] == 0
    neg = (li[key] > 0) & ((pos == 0) == up)
    mag = np.sqrt(np.ldexp(1.0, -1 - pos))
    cols = np.where(up, PLUS, MINUS), np.zeros_like(pos), lr[key] + 1 + pos
    blocks.append((at, counts, cols, np.where(neg, -mag, mag).astype(complex), clipped))
    # at scale -u the box (0, n) is the box of level u at offset n, its
    # cell the dilation box [2^u, 2^(u+1)) or [-2^(u+1), -2^u)
    at = np.flatnonzero(box)
    bn = n[at]
    u = _width(bn) - 2  # n = 2^u + v or -2^(u+1) + v
    counts, key, (j, _), alphas = _split(bn, u)
    blocks.append((at, counts, (np.where(bn > 0, PLUS, MINUS)[key], j, -u[key]), alphas, None))
    return blocks


def _haar_column_blocks(s: np.ndarray, j: np.ndarray, m: np.ndarray) -> list:
    """The Haar columns (s, j, m) of every key, as blocks for ``_terms``:
    the single entries (label-0 columns at scale 0, wavelet columns with
    p + m >= 0), the ladder columns (s, 0, m > 0), and the box columns
    (s, 0, m < 0) and wavelet columns with p + m < 0 (``_spread``)."""
    if (j < 0).any():  # the label check's input error, for the first such key
        k = np.argmax(j < 0)
        check_dil_label(HAAR, s[k], j[k])
    box = j == 0
    # a label j = 2^p + q is the wavelet at level a = p + m and offset b = 2^p + q
    # or -2^(p+1) + q, of width p + 2; a box is at a = m, b = 1 or -2.  p + m is
    # exact in int64 while |m| < 2^62, and past that no element fits int64
    p = np.maximum(bit_length(j) - 1, 0)
    far = max(-int(m.min(initial=0)), int(m.max(initial=0))) >= _WIDE
    reach = _WIDE if far else int((np.abs(p + m) + p).max(initial=0)) + 2
    s, j, m, p = _element_ints(reach, s, j, m, p)
    a = p + m
    plus = s == PLUS
    b = np.where(box, np.where(plus, 1, -2), np.where(plus, j, j - (3 << p)))
    at = np.flatnonzero(np.where(box, m == 0, a >= 0))
    i, n = _trans_key(a[at], b[at])
    blocks = [(at, None, (np.where(box[at], 0, i), n), None, None)]
    at = np.flatnonzero(box & (m > 0))
    top = np.minimum(m[at], _LADDER_DEPTH + 1).astype(np.int64)  # 2^(-m/2) is 0.0 past it
    counts = np.minimum(top, _LADDER_DEPTH) + 1
    key, pos = _runs(counts)
    # entry 0 is (0, n) at 2^(-m/2), entry k the ladder row of scale r = m - k,
    # label 2^r or 2^(r+1) - 1 (each made once), at 2^(-k/2), negative at k = 1
    # for PLUS and past it for MINUS
    plus, first = s[at][key] == PLUS, pos == 0
    i = np.where(plus, 1, 2) << (m[at][key] - pos)
    i[~plus] -= 1
    i[first] = 0
    neg = ~first & ((pos == 1) == plus)
    mag = np.sqrt(np.ldexp(1.0, -np.where(first, top[key], pos)))
    alphas = np.where(neg, -mag, mag).astype(complex)
    blocks.append((at, counts, (i, np.where(plus, 0, -1)), alphas, None))
    # box and wavelet columns at a < 0: the 2^u unit boxes from b << u, u = -a
    at = np.flatnonzero(a < 0)
    counts, _, cols, alphas = _spread(b[at], -a[at], ~box[at])
    blocks.append((at, counts, cols, alphas, None))
    return blocks


def _runs(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For runs of ``counts`` entries: each entry's run and its place in it."""
    starts = np.cumsum(counts) - counts
    key = np.repeat(np.arange(len(counts)), counts)
    return key, np.arange(len(key)) - starts[key]


def _table_block(keys, entries_of, width: int) -> tuple:
    """Every key read from its table, ``entries_of(*key)``, as one block for ``_terms``."""
    rows = [entries_of(*key) for key in zip(*(c.tolist() for c in keys))]
    table = [entry for entries, _ in rows for entry in entries]
    alphas = np.array([a for _, a in table], dtype=complex)
    return (np.arange(len(rows)), np.array([len(e) for e, _ in rows], dtype=np.int64),
            key_columns([k for k, _ in table], width), alphas, np.array([c for _, c in rows]))


class Layout(NamedTuple):
    """A transfer laid out term by term over its source keys, values aside
    (``_terms``): every term's target key and source key, and the alphas
    of the terms that carry one; the rest are their key's value itself."""

    cols: tuple  # each term's target key columns
    src: np.ndarray  # each term's source key (intp)
    scaled: np.ndarray  # the terms that carry an alpha (intp)
    alphas: np.ndarray  # their alphas, conjugated for a column pass
    clipped: np.ndarray  # the source keys with clipped mass, in order (intp)
    clip_run: np.ndarray  # the run of each
    roots: np.ndarray  # the square root of each one's clipped mass
    bounds: list  # run k's terms are terms[bounds[k]:bounds[k + 1]]

    def terms(self, values: np.ndarray) -> np.ndarray:
        """The terms of a transfer of ``values`` over the source keys."""
        terms = values[self.src]
        terms[self.scaled] = cmul(self.alphas, terms[self.scaled])
        return terms

    def tails(self, values: np.ndarray) -> list[float]:
        """The l2 bound on each run's clipped part, summed over the run's
        keys in order with Python's ``abs`` (numpy's complex abs may differ
        from it in the last bit)."""
        tails = [0.0] * (len(self.bounds) - 1)
        for k, val, root in zip(self.clip_run.tolist(), values[self.clipped].tolist(),
                                self.roots.tolist()):
            tails[k] += abs(val) * root
        return tails


def _terms(keys, blocks: list, conj: bool, runs: int = 1) -> Layout:
    """The layout of a transfer over ``keys``, terms in source order.

    A block is (positions of its keys, entries per key, target key columns,
    alphas, clipped mass per key), each key's entries in table order, and
    each key is in one block.  A single-entry block has None for the
    counts, alphas and clipped mass: one entry per key whose alpha is 1.0,
    so its term is the key's value.  Every other term is alpha (conjugated
    for ``conj``) times the key's value.  The keys are ``runs`` runs of
    equal length, each run's terms one contiguous range.  The target key
    columns are int64 unless some component is past int64.
    """
    width = 5 - len(keys)  # rows map (i, n) to (s, j, m), columns back
    counts = np.zeros(len(keys[0]), dtype=np.int64)
    clip = np.zeros(len(counts))
    for at, block_counts, _, _, clipped in blocks:
        counts[at] = 1 if block_counts is None else block_counts
        if clipped is not None:
            clip[at] = clipped
    # each key's terms start after the terms of the keys before it
    starts = np.cumsum(counts) - counts
    src = np.empty(int(counts.sum()), dtype=np.intp)
    places, scaled, alphas = [], [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=complex)]
    for at, block_counts, _, block_alphas, _ in blocks:
        if block_counts is None:
            places.append(starts[at])
            src[places[-1]] = at
        else:
            key, pos = _runs(block_counts)
            places.append(starts[at][key] + pos)
            src[places[-1]] = at[key]
            scaled.append(places[-1])
            alphas.append(block_alphas.conjugate() if conj else block_alphas)
    cols = []
    for k in range(width):
        parts = [block[2][k] for block in blocks]
        col = np.empty(len(src), dtype=np.result_type(np.int64, *parts))
        for place, part in zip(places, parts):
            col[place] = part
        cols.append(col)
    bounds = [0, *np.cumsum(counts.reshape(runs, -1).sum(axis=1)).tolist()]
    clipped = np.flatnonzero(clip > 0.0)
    return Layout(_as_int64(tuple(cols)), src, np.concatenate(scaled), np.concatenate(alphas),
                  clipped, clipped // max(len(counts) // runs, 1), np.sqrt(clip[clipped]), bounds)


def row_terms(A: "AlphaMatrix", keys, w: Window, runs: int = 1) -> Layout:
    """The layout of the terms sum_(i,n) alpha_{i,n}^{s,j,m} v[(i, n)] of a
    transfer to the dilation model, for translation-model key columns in
    ``runs`` equal runs of keys (``_terms``)."""
    blocks = (_haar_row_blocks(*keys, w.dil_range[1]) if A.fam.name == "haar"
              else [_table_block(keys, lambda i, n: A.row(i, n, w), 3)])
    return _terms(keys, blocks, conj=False, runs=runs)


def column_terms(A: "AlphaMatrix", keys, w: Window) -> Layout:
    """The layout of the terms sum_(s,j,m) conj(alpha_{i,n}^{s,j,m}) v[(s, j, m)]
    of a transfer to the translation model, for dilation-model key columns
    (``_terms``)."""
    blocks = (_haar_column_blocks(*keys) if A.fam.name == "haar"
              else [_table_block(keys, lambda s, j, m: A.column(s, j, m, w), 2)])
    return _terms(keys, blocks, conj=True)


def _one_key(blocks: list, key_type) -> tuple[list, float]:
    """The entries (``key_type`` key, alpha) and the clipped mass of the one
    key laid out in ``blocks``; a single entry's alpha is 1.0."""
    _, counts, cols, alphas, clipped = next(block for block in blocks if len(block[0]))
    keys = [key_type(*key) for key in zip(*(c.tolist() for c in cols))]
    if counts is None:
        return [(keys[0], 1.0 + 0j)], 0.0
    return list(zip(keys, alphas.tolist())), 0.0 if clipped is None else float(clipped[0])


# -- public surface ------------------------------------------------------------

@dataclass(frozen=True)
class AlphaMatrix:
    """Lazily evaluated change-of-representation matrix for one family."""

    fam: BasisFamily

    def entry(self, i: int, n: int, s: int, j: int, m: int) -> complex:
        check_trans_label(self.fam, i)
        check_dil_label(self.fam, s, j)
        if self.fam.name == "exponential":
            return _alpha_exp(int(i), int(n), s, int(j), int(m))
        # the row up to scale m: a scale ladder stops where its entries become 0.0
        blocks = _haar_row_blocks(*key_columns([(int(i), int(n))], 2), int(m))
        return dict(_one_key(blocks, DilIndex)[0]).get((s, int(j), int(m)), 0j)

    def row(self, i: int, n: int, w: Window) -> tuple[list[tuple[DilIndex, complex]], float]:
        """Nonzero entries of row (i, n) within the window, plus clipped mass.

        Rows have unit mass.  Haar scale-ladder tails are summed in closed
        form (they would underflow a 1-minus-captured computation);
        exponential clipping is accounted as 1 minus the captured mass.
        """
        check_trans_label(self.fam, i)
        if self.fam.name == "haar":
            blocks = _haar_row_blocks(*key_columns([(int(i), int(n))], 2), w.dil_range[1])
            return _one_key(blocks, DilIndex)
        return _clipped(_exp_row(int(i), int(n), w))

    def column(self, s: int, j: int, m: int, w: Window) -> tuple[list[tuple[TransIndex, complex]], float]:
        """Nonzero entries of column (s, j, m) within the window, plus clipped mass.

        Haar columns are finite and enumerated whole, so nothing is clipped;
        one of 2^59 unit boxes or more, past the longest array of alphas,
        raises ``ArithmeticError``.  Exponential clipping is accounted as 1
        minus the captured mass.
        """
        check_dil_label(self.fam, s, j)
        if self.fam.name == "haar":
            return _one_key(_haar_column_blocks(*key_columns([(s, int(j), int(m))], 3)), TransIndex)
        return _clipped(_exp_column(s, int(j), int(m), w))

    def row_case(self, i: int, n: int) -> str:
        """Structural description of a row's support (finite vs scale ladder)."""
        if self.fam.name == "exponential":
            _, lo, hi, _ = _exp_support(int(n))
            if lo < hi:
                return "all labels at every positive scale (window-clipped)"
            return "single entry" if lo == 0 else "all labels at one scale (window-clipped)"
        ladder, box = _haar_row_cases(int(i), int(n))
        if ladder:
            return "geometric scale ladder (truncated at the window top)"
        if box:
            return "coarse box plus one wavelet per intermediate scale"
        return "single entry"


def transfer(v: FCoordVec | GCoordVec, A: AlphaMatrix, w: Window):
    """Move ``v`` to the other model: translation coordinates f_hat to the
    dilation coordinates ``sum alpha * f_hat``, dilation coordinates
    f_tilde back to the translation coordinates ``sum conj(alpha) * f_tilde``.

    Returns (vector, tail).  Truncation happens only through the window,
    and ``tail``, an l2-norm bound on the clipped part, is the one place a
    transfer reports it: ``g_from_f`` and ``f_from_g`` return the vector.
    """
    to_g = isinstance(v, FCoordVec)
    layout = (row_terms if to_g else column_terms)(A, v._cols, w)
    vec = (GCoordVec if to_g else FCoordVec)._from_terms(layout.cols, layout.terms(v._vals))
    return vec, layout.tails(v._vals)[0]


def g_from_f(v: FCoordVec, A: AlphaMatrix, w: Window) -> GCoordVec:
    """Transfer translation-model coordinates to the dilation model."""
    if not isinstance(v, FCoordVec):
        raise TypeError(f"g_from_f takes an FCoordVec, not a {type(v).__name__}")
    return transfer(v, A, w)[0]


def f_from_g(v: GCoordVec, A: AlphaMatrix, w: Window) -> FCoordVec:
    """Adjoint transfer: dilation-model coordinates to the translation model."""
    if not isinstance(v, GCoordVec):
        raise TypeError(f"f_from_g takes a GCoordVec, not a {type(v).__name__}")
    return transfer(v, A, w)[0]
