"""Shared domain types: sparse coordinate vectors, windows, tolerances, reports.

Two sparse coordinate models are used throughout:

* translation model -- coefficients indexed by ``(i, n)``: basis label ``i``
  and integer translation exponent ``n``;
* dilation model -- coefficients indexed by ``(s, j, m)``: sign branch
  ``s`` (+1 for the positive half-line, -1 for the negative one), basis
  label ``j`` and integer dyadic scale exponent ``m``.

Absent keys are exact zeros.  All values are double-precision complex; after
arithmetic, entries with modulus <= ``DROP_THRESHOLD`` are dropped so sparse
supports do not fill up with rounding dust.  Every type here is an immutable
value and every operation is pure.

A coordinate vector is stored as key columns (one int64 array per key
component, or object arrays of Python ints once some component is past
int64) and a complex128 value array, each key once in the order it first
appeared.  Every vector is built from key columns and terms: construction
from (key, value) pairs, ``plus`` and the transfers all call
``sum_by_key``, which sums each key's terms from 0j in term order, and then
apply the zero rule (``keep_mask``); ``scaled`` multiplies each value as
Python's complex product does (``cmul``).  The mapping view with NamedTuple
keys is built on first use, only to be read.
"""

from __future__ import annotations

import heapq
import json
import math
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple

import numpy as np

PLUS = 1
MINUS = -1

#: entries with modulus at or below this are treated as exact zeros
DROP_THRESHOLD = 1e-15

_TWO_PI = 2.0 * math.pi


class TransIndex(NamedTuple):
    """Index (i, n) of a translated basis function: label i, shift n."""

    i: int
    n: int


class DilIndex(NamedTuple):
    """Index (s, j, m) of a dilated basis function: sign s, label j, scale m."""

    s: int
    j: int
    m: int


def sign_char(s: int) -> str:
    if s == PLUS:
        return "+"
    if s == MINUS:
        return "-"
    raise ValueError(f"sign must be +1 or -1, got {s!r}")


def sign_value(c: str) -> int:
    if c == "+":
        return PLUS
    if c == "-":
        return MINUS
    raise ValueError(f"sign must be '+' or '-', got {c!r}")


def check_radius(r: int) -> int:
    """A grid radius; a negative one is an empty grid, and a check over it
    would pass vacuously."""
    if r < 0:
        raise ValueError(f"grid radius must be non-negative, got {r}")
    return r


def ceil_float(q: Fraction) -> float:
    """Least double >= q: for a double x, x >= q iff x >= ceil_float(q), and
    x < q iff x < ceil_float(q), so half-open bounds compare exactly."""
    f = float(q)
    return f if f >= q else math.nextafter(f, math.inf)


def csum(values: Iterable[complex]) -> complex:
    """Compensated complex sum (fsum on each component)."""
    vals = [complex(v) for v in values]
    return complex(math.fsum(v.real for v in vals), math.fsum(v.imag for v in vals))


# Below this many terms, every per-exponent bin of the mantissa halves
# (|high| <= 2^27, |low| < 2^26) stays an integer of at most 2^52, so
# ``np.bincount``'s double sums are exact.
_FSUM_TERMS = 1 << 25
# Below this many terms ``math.fsum`` of the list is faster than the bins'
# fixed numpy cost (they crossed between about 700 and 1,100 terms on a
# 2-core x86-64 host, later for wider exponent spreads).
_FSUM_SHORT = 1 << 10


def array_fsum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())`` of a 1-D float64 array, bit for bit.

    Each value is a 53-bit integer mantissa times a power of two; the
    mantissas are split into 27- and 26-bit halves and summed exactly per
    exponent, the bins are combined as one Python int, and a single
    correctly rounded division gives the sum (``fsum`` rounds correctly
    too, and returns +0.0 for an exact zero, all-zero input included).
    Arrays shorter than ``_FSUM_SHORT`` (the empty one too) or of
    ``_FSUM_TERMS`` or more, non-finite input and sums that could come near
    the overflow threshold go to ``math.fsum`` itself, so its results and
    exceptions are kept.
    """
    n = len(x)
    # the absolute sum is at most n max|x|; a nan makes numpy's max and min
    # nan, and fails the test too
    if (n < _FSUM_SHORT or n >= _FSUM_TERMS
            or not max(float(x.max()), -float(x.min())) * n < 2.0 ** 1020):
        return math.fsum(x.tolist())
    mant, exp = np.frexp(x)
    # x = (high 2^26 + low) 2^(exp - 53) with integers |high| <= 2^27 and
    # |low| < 2^26, split exactly in place
    mant *= 2.0 ** 27
    high = np.trunc(mant)
    mant -= high
    mant *= 2.0 ** 26
    lo = int(exp.min())
    bins = np.subtract(exp, lo, dtype=np.intp)
    high = np.bincount(bins, high).tolist()
    low = np.bincount(bins, mant).tolist()
    total = 0
    for k, (h, l) in enumerate(zip(high, low)):
        if h or l:
            total += ((int(h) << 26) + int(l)) << k
    return total / (1 << (53 - lo)) if lo < 53 else float(total << (lo - 53))


# moduli within this relative distance of DROP_THRESHOLD are re-decided
# with ``np.hypot``; numpy's complex abs is a few ulps off it at most
_NEAR_DROP = DROP_THRESHOLD * 2.0 ** -48


def keep_mask(values) -> np.ndarray:
    """The zero rule: which values have modulus above ``DROP_THRESHOLD``.

    The modulus is Python's ``abs`` of a complex (``hypot``), for arrays and
    dicts alike.  numpy's complex ``abs`` may differ from it in the last
    bit, so it only screens, and the moduli near the threshold are taken
    again with ``np.hypot``.
    """
    v = np.asarray(values, dtype=complex)
    mod = np.abs(v)
    keep = mod > DROP_THRESHOLD
    near = np.flatnonzero(np.abs(mod - DROP_THRESHOLD) <= _NEAR_DROP)
    if len(near):
        keep[near] = np.hypot(v.real[near], v.imag[near]) > DROP_THRESHOLD
    return keep


def cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, each component rounded as Python's complex
    product rounds it (numpy's complex multiply may fuse it into an FMA)."""
    out = np.empty(len(a), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def key_columns(keys, width: int) -> tuple[np.ndarray, ...]:
    """Columns of a list of ``width``-tuples of ints: int64 when every
    component fits, else object arrays of Python ints."""
    try:
        flat = np.fromiter(chain.from_iterable(keys), dtype=np.int64, count=width * len(keys))
    except OverflowError:
        return tuple(np.array(c, dtype=object) for c in zip(*keys))
    return tuple(flat[k::width].copy() for k in range(width))


def window_columns(labels: list[tuple], lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """The columns of the keys (*label, n) for each of the ``labels``
    (equal-length tuples, at least one) and each n of lo..hi, label by
    label, as ``key_columns`` gives them, built without the key tuples."""
    # every component of those keys lies between components of these, so they pick the dtype
    ends = key_columns([(*label, n) for label in labels for n in (lo, hi)], len(labels[0]) + 1)
    count = hi - lo + 1
    shifts = ends[-1][0] + np.arange(count, dtype=ends[-1].dtype)
    return (*(np.repeat(c[0::2], count) for c in ends[:-1]), np.tile(shifts, len(labels)))


_WIDE = 1 << 62  # integer columns at or past this magnitude are Python ints


def int_columns(cols: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    """Integer columns (int64 or Python ints) in one dtype: int64 when every
    entry is below 2^62 in magnitude, else object arrays of Python ints."""
    for c in cols:
        if len(c) and (c.min() <= -_WIDE or c.max() >= _WIDE):
            return tuple(c.astype(object) for c in cols)
    return tuple(np.asarray(c, dtype=np.int64) for c in cols)


def bit_length(x: np.ndarray) -> np.ndarray:
    """int.bit_length of each entry of a non-negative int64 or Python-int array."""
    if x.dtype == object:
        return np.array([v.bit_length() for v in x.tolist()], dtype=object)
    e = np.frexp(x)[1].astype(np.int64)
    if len(x) and x.max() >= 1 << 53:
        # the float may round up to 2^e, and then x < 2^(e-1)
        e -= ((x >> np.maximum(e - 1, 0)) == 0) & (x > 0)
    return e


def _as_int64(cols: tuple[np.ndarray, ...]) -> tuple[np.ndarray, ...]:
    # one dtype per vector: int64 unless some component is past int64
    if all(c.dtype == np.int64 for c in cols):
        return cols
    try:
        return tuple(np.array(c.tolist(), dtype=np.int64) for c in cols)
    except OverflowError:
        return tuple(c.astype(object) for c in cols)


_INT64 = range(-(1 << 63), 1 << 63)


def offset_column(col: np.ndarray, d) -> np.ndarray:
    """``col + d`` exactly: int64 while every result fits, else Python ints.

    ``d`` is one int, or a list of ints: then the result is the
    (len(col), len(d)) array of col[t] + d[k], every shift of the column in
    one broadcast, int64 only if every one of them fits.
    """
    row = isinstance(d, list)
    d_lo, d_hi = (min(d), max(d)) if row else (d, d)
    grid, off = (col[:, None], np.array(d, dtype=object)) if row else (col, d)
    if col.dtype == np.int64:
        lo, hi = (int(col.min()), int(col.max())) if len(col) else (0, 0)
        if lo + d_lo in _INT64 and hi + d_hi in _INT64:
            if d_lo in _INT64 and d_hi in _INT64:
                return grid + (off.astype(np.int64) if row else d)
            return (grid.astype(object) + off).astype(np.int64)  # numpy cannot take d itself
    return grid.astype(object) + off


def sorted_unique(x: np.ndarray, return_inverse: bool = False):
    """The distinct values of a 1-D int64 or Python-int array, sorted, and
    with ``return_inverse`` each entry's index among them, as numpy's
    ``unique`` gives them: one sort, each repeat dropped, and the inverse
    scattered from a stable argsort as the running count of new values.
    numpy 2 finds an int64 set with a hash table, several times slower than
    this sort on tens of thousands of labels; the result is the same on
    every numpy."""
    if not return_inverse:
        s = np.sort(x)
        return s[_starts(s)]
    order = np.argsort(x, kind="stable")
    s = x[order]
    new = _starts(s)
    inverse = np.empty(len(x), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[new], inverse


def _starts(s: np.ndarray) -> np.ndarray:
    """Where a run of equal values of the sorted array ``s`` starts."""
    new = np.ones(len(s), dtype=bool)
    new[1:] = s[1:] != s[:-1]
    return new


def _packed(cols: tuple[np.ndarray, ...]) -> np.ndarray | None:
    """One int64 code per key that orders the keys as their columns do,
    first column first, or None when some column is not int64 or the
    product of the columns' spans (max - min + 1) reaches 2^62."""
    if not all(c.dtype == np.int64 for c in cols):
        return None
    los = [int(c.min()) for c in cols]  # Python ints: the spans cannot wrap
    spans = [int(c.max()) - lo + 1 for c, lo in zip(cols, los)]
    if math.prod(spans) >= _WIDE:
        return None
    code = cols[0] - los[0]
    for c, lo, span in zip(cols[1:], los[1:], spans[1:]):
        code *= span
        code += c - lo
    return code


def key_groups(cols: tuple[np.ndarray, ...]):
    """The keys of the terms' key columns, each once in order of its first
    term, and each term's key among them (intp).

    The terms are sorted by key with a stable sort: int64 keys whose
    columns' spans multiply to less than 2^62 by one ``argsort`` of a
    packed code (``_packed``), other keys (Python ints, or wider spans) by
    ``np.lexsort`` of the columns.  Both give the same order, and so the
    same keys and groups.
    """
    size = len(cols[0])
    if size == 0:
        return tuple(c[:0] for c in cols), np.zeros(0, dtype=np.intp)
    code = _packed(cols)
    if code is not None:
        order = code.argsort(kind="stable")
        new = _starts(code[order])
    else:
        order = np.lexsort(cols[::-1])  # stable too
        new = np.zeros(size, dtype=bool)
        new[0] = True
        for c in cols:
            run = c[order]
            new[1:] |= run[1:] != run[:-1]
    if new.all():
        return cols, np.arange(size)
    first = order[new]  # the first term of each key, keys in sorted order
    # the first terms in term order, which is the keys' order, and each
    # sorted key's place in it
    is_first = np.zeros(size, dtype=bool)
    is_first[first] = True
    firsts = np.flatnonzero(is_first)
    place = np.empty(size, dtype=np.intp)
    place[firsts] = np.arange(len(firsts))
    group = np.empty(size, dtype=np.intp)
    group[order] = place[first][np.cumsum(new) - 1]
    return tuple(c[firsts] for c in cols), group


def group_sums(group: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Each of ``size`` groups' terms summed from 0j in term order: the
    sum a dict accumulating the terms one by one takes, bit for bit.
    ``np.bincount`` adds its weights in input order, once per component,
    as complex addition adds them."""
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(group, terms.real, minlength=size)
    out.imag = np.bincount(group, terms.imag, minlength=size)
    return out


def sum_by_key(cols: tuple[np.ndarray, ...], terms: np.ndarray):
    """Sum the terms that share a key.

    Returns (key columns, sums): each key once, in order of its first term
    (``key_groups``), and each sum taken from 0j in term order
    (``group_sums``).  No entry is dropped.
    """
    keys, group = key_groups(cols)
    return keys, group_sums(group, terms, len(keys[0]))


class TableInfo(NamedTuple):
    hits: int
    misses: int
    entries: int
    held: int  # bytes


class ByteLRU:
    """A least-recently-used table bounded by the bytes of what it keeps.

    ``fetch(key, build, same)`` returns the value kept under ``key`` when
    ``same(value)`` holds (always, without ``same``) and marks it the most
    recently used; else it calls ``build()``, keeps the new value under
    ``key`` in place of any stale one, and drops the least recently used
    values until the bytes held (``nbytes`` of each value) are within
    ``budget``.  A raise from ``build`` is not kept, and a value larger
    than the budget is returned but not kept.
    """

    def __init__(self, budget: int, nbytes):
        self.budget, self._nbytes = budget, nbytes
        self._kept: dict = {}  # key -> (value, bytes), least recently used first
        self._hits = self._misses = self._held = 0

    def fetch(self, key, build, same=None):
        kept = self._kept.pop(key, None)
        if kept is not None:
            if same is None or same(kept[0]):
                self._kept[key] = kept
                self._hits += 1
                return kept[0]
            self._held -= kept[1]
        self._misses += 1
        value = build()
        size = self._nbytes(value)
        if size <= self.budget:
            self._kept[key] = value, size
            self._held += size
            while self._held > self.budget:
                self._held -= self._kept.pop(next(iter(self._kept)))[1]
        return value

    def clear(self) -> None:
        self._kept.clear()
        self._hits = self._misses = self._held = 0

    def info(self) -> TableInfo:
        return TableInfo(self._hits, self._misses, len(self._kept), self._held)


class _SparseCoords:
    """Common machinery of the two coordinate-vector types.

    Stored as key columns (``_cols``: one array per key component, int64,
    or object arrays of Python ints when some component is past int64) and
    complex128 values (``_vals``), each key once, in the order the entries
    first appeared.  The constructor checks each key (``_check_key``) and
    sums the pairs as ``_from_terms`` sums terms.  The mapping view (keys as
    NamedTuples) is built on first use.
    """

    __slots__ = ("_cols", "_vals", "_view")
    _key: type
    _width: int

    def __init__(self, entries: Mapping | Iterable = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        keys, vals = [], []
        for key, val in items:
            keys.append(self._check_key(key))
            vals.append(complex(val))
        built = self._from_terms(key_columns(keys, self._width), np.array(vals, dtype=complex))
        for name in _SparseCoords.__slots__:
            object.__setattr__(self, name, getattr(built, name))

    @property
    def _entries(self) -> dict:
        if self._view is None:
            keys = map(self._key._make, zip(*(c.tolist() for c in self._cols)))
            object.__setattr__(self, "_view", dict(zip(keys, self._vals.tolist())))
        return self._view

    # -- mapping-ish interface -------------------------------------------
    def items(self):
        return self._entries.items()

    def keys(self):
        return self._entries.keys()

    def get(self, key, default: complex = 0j) -> complex:
        return self._entries.get(key, default)

    def __getitem__(self, key) -> complex:
        return self._entries.get(key, 0j)

    def __contains__(self, key) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._vals)

    def __bool__(self) -> bool:
        return len(self._vals) > 0

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self._entries.items())[:6])
        more = "" if len(self) <= 6 else f", ... ({len(self)} entries)"
        return f"{type(self).__name__}({{{body}{more}}})"

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- algebra ----------------------------------------------------------
    def norm_sq(self) -> float:
        v = self._vals
        return array_fsum(v.real * v.real + v.imag * v.imag)

    def scaled(self, factor: complex):
        vals = cmul(np.full(len(self._vals), complex(factor)), self._vals)
        keep = keep_mask(vals)
        return self._from_columns(tuple(c[keep] for c in self._cols), vals[keep])

    def plus(self, other: "_SparseCoords"):
        if type(other) is not type(self):
            raise ValueError(f"cannot add {type(other).__name__} to {type(self).__name__}")
        cols = tuple(map(np.concatenate, zip(self._cols, other._cols)))
        return self._from_terms(cols, np.concatenate((self._vals, other._vals)))

    @staticmethod
    def _check_key(key):  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def _from_columns(cls, cols: tuple[np.ndarray, ...], vals: np.ndarray):
        """Internal fast path: unique valid keys and values, zero rule applied."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_cols", _as_int64(cols))
        object.__setattr__(obj, "_vals", vals)
        object.__setattr__(obj, "_view", None)
        return obj

    @classmethod
    def _from_terms(cls, cols: tuple[np.ndarray, ...], terms: np.ndarray):
        """Internal fast path: sum the terms per key (``sum_by_key``) and
        drop the sums at or below ``DROP_THRESHOLD``."""
        keys, sums = sum_by_key(cols, terms)
        keep = keep_mask(sums)
        return cls._from_columns(tuple(c[keep] for c in keys), sums[keep])


class FCoordVec(_SparseCoords):
    """Sparse translation-model coordinate vector: (i, n) -> complex."""

    _key, _width = TransIndex, 2

    @staticmethod
    def _check_key(key) -> TransIndex:
        i, n = key
        return TransIndex(int(i), int(n))


class GCoordVec(_SparseCoords):
    """Sparse dilation-model coordinate vector: (s, j, m) -> complex."""

    _key, _width = DilIndex, 3

    @staticmethod
    def _check_key(key) -> DilIndex:
        s, j, m = key
        s = int(s)
        if s not in (PLUS, MINUS):
            raise ValueError(f"sign component must be +1 or -1, got {s!r}")
        return DilIndex(s, int(j), int(m))


@dataclass(frozen=True)
class Window:
    """Finite index box bounding every truncated sum in the library.

    ``trans_labels``/``trans_range`` bound the translation model,
    ``dil_labels``/``dil_range`` the dilation model.  For the Haar family
    the change-of-basis rows and columns are finite and are enumerated
    exactly; only the geometric scale tails are cut at ``dil_range[1]``.
    For the exponential family rows/columns are clipped to the window and
    the clipped mass is reported by the operations that truncate.
    """

    trans_labels: tuple[int, ...]
    trans_range: tuple[int, int]
    dil_labels: tuple[tuple[int, int], ...]
    dil_range: tuple[int, int]

    def __post_init__(self):
        if not self.trans_labels or not self.dil_labels:
            raise ValueError("window label sets must be non-empty")
        if self.trans_range[0] > self.trans_range[1]:
            raise ValueError(f"empty translation range {self.trans_range}")
        if self.dil_range[0] > self.dil_range[1]:
            raise ValueError(f"empty dilation range {self.dil_range}")
        object.__setattr__(self, "trans_labels", tuple(sorted(set(int(i) for i in self.trans_labels))))
        labels = set()
        for s, j in self.dil_labels:
            s = int(s)
            if s not in (PLUS, MINUS):
                raise ValueError(f"dilation label sign must be +1/-1, got {s!r}")
            labels.add((s, int(j)))
        object.__setattr__(self, "dil_labels", tuple(sorted(labels)))
        object.__setattr__(self, "trans_range", (int(self.trans_range[0]), int(self.trans_range[1])))
        object.__setattr__(self, "dil_range", (int(self.dil_range[0]), int(self.dil_range[1])))

    @classmethod
    def symmetric(cls, family, label_radius: int, n_radius: int | None = None,
                  m_radius: int | None = None) -> "Window":
        """Symmetric window of the given radii for a basis family.

        ``family`` may be a family object or its name.  Haar labels are the
        non-negative integers 0..label_radius; exponential labels run over
        -label_radius..label_radius.
        """
        name = getattr(family, "name", family)
        if n_radius is None:
            n_radius = label_radius
        if m_radius is None:
            m_radius = label_radius
        if name == "haar":
            labels = tuple(range(0, label_radius + 1))
        elif name == "exponential":
            labels = tuple(range(-label_radius, label_radius + 1))
        else:
            raise ValueError(f"unknown basis family {name!r}")
        dil = tuple((s, j) for s in (PLUS, MINUS) for j in labels)
        return cls(labels, (-n_radius, n_radius), dil, (-m_radius, m_radius))

    def with_dil_range(self, m_min: int, m_max: int) -> "Window":
        return Window(self.trans_labels, self.trans_range, self.dil_labels, (m_min, m_max))

    def describe(self) -> dict:
        return {
            "trans_labels": [min(self.trans_labels), max(self.trans_labels)],
            "trans_range": list(self.trans_range),
            "dil_labels": [min(j for _, j in self.dil_labels), max(j for _, j in self.dil_labels)],
            "dil_range": list(self.dil_range),
        }


_DETAIL_CAP = 24


@dataclass
class CheckReport:
    """Outcome of one coordinate-level verification.

    ``verdict`` is ``"pass"``, ``"fail"`` or ``"inconclusive"``, and
    ``passed`` reads it.  A residual check passes exactly when
    ``max_residual <= tol + slack``; ``slack`` collects window-truncation
    allowances accumulated while the check ran (zero when nothing was
    clipped).  The inconclusive verdict (rank decisions too close to the
    singular-value threshold) is not a pass, whatever the residual.
    """

    check_name: str
    verdict: str
    max_residual: float
    tol: float
    window: Window | None = None
    details: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    slack: float = 0.0

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    @classmethod
    def from_residuals(cls, name: str, residuals: Mapping, tol: float, *,
                       window: Window | None = None, notes: Iterable[str] = (),
                       slack: float = 0.0) -> "CheckReport":
        res = {k: float(r) for k, r in residuals.items()}
        worst = res.items()
        if len(res) > _DETAIL_CAP and not any(math.isnan(r) for r in res.values()):
            # only the _DETAIL_CAP largest values and their ties can reach
            # details; a NaN orders nothing, so with one every entry is sorted
            floor = heapq.nlargest(_DETAIL_CAP, res.values())[-1]
            worst = [kv for kv in worst if kv[1] >= floor]
        worst = sorted(worst, key=lambda kv: (-kv[1], repr(kv[0])))
        max_res = worst[0][1] if worst else 0.0
        return cls(
            check_name=name,
            verdict="pass" if max_res <= tol + slack else "fail",
            max_residual=max_res,
            tol=tol,
            window=window,
            details=worst[:_DETAIL_CAP],
            notes=list(notes),
            slack=slack,
        )

    def to_dict(self) -> dict:
        return {
            "check": self.check_name,
            "pass": self.passed,
            "verdict": self.verdict,
            "max_residual": self.max_residual,
            "tol": self.tol,
            "slack": self.slack,
            "window": self.window.describe() if self.window is not None else None,
            "details": [[list(k) if isinstance(k, tuple) else k, r] for k, r in self.details],
            "notes": list(self.notes),
        }


def coord_equal(a: _SparseCoords, b: _SparseCoords, tol: float, *,
                name: str = "coord_equal", window: Window | None = None) -> CheckReport:
    """Entrywise comparison of two coordinate vectors over the union support."""
    residuals = {}
    for key in set(a.keys()) | set(b.keys()):
        residuals[key] = abs(a[key] - b[key])
    if not residuals:
        residuals[("empty",)] = 0.0
    return CheckReport.from_residuals(name, residuals, tol, window=window)


# -- coefficient file format ------------------------------------------------

def coords_to_doc(vec: FCoordVec | GCoordVec, basis: str) -> dict:
    """JSON document for a coordinate vector (model F or G)."""
    if isinstance(vec, FCoordVec):
        model = "F"
        entries = [
            {"i_or_j": k.i, "n_or_m": k.n, "re": v.real, "im": v.imag}
            for k, v in sorted(vec.items())
        ]
    elif isinstance(vec, GCoordVec):
        model = "G"
        entries = [
            {"s": sign_char(k.s), "i_or_j": k.j, "n_or_m": k.m, "re": v.real, "im": v.imag}
            for k, v in sorted(vec.items())
        ]
    else:
        raise TypeError(f"not a coordinate vector: {type(vec).__name__}")
    return {"schema_version": 1, "model": model, "basis": basis, "entries": entries}


def coords_from_doc(doc: Mapping) -> tuple[FCoordVec | GCoordVec, str]:
    """Inverse of :func:`coords_to_doc`; returns (vector, basis name).

    A document of the wrong shape raises ValueError.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"coefficient document must be an object, not {type(doc).__name__}")
    try:
        model = doc["model"]
        basis = doc["basis"]
        entries = doc.get("entries", [])
        if model == "F":
            vec: FCoordVec | GCoordVec = FCoordVec(
                ((rec["i_or_j"], rec["n_or_m"]), complex(rec["re"], rec["im"])) for rec in entries
            )
        elif model == "G":
            vec = GCoordVec(
                ((sign_value(rec["s"]), rec["i_or_j"], rec["n_or_m"]), complex(rec["re"], rec["im"]))
                for rec in entries
            )
        else:
            raise ValueError(f"unknown model {model!r}")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed coefficient document: {exc!r}") from exc
    return vec, basis


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats with 17 significant digits."""
    out: list[str] = []
    _canon(obj, out)
    return "".join(out)


def _canon(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, int):
        try:
            out.append(str(obj))
        except ValueError:  # past Python's limit on int-to-str digits, which stays as it is
            raise ValueError(f"a {obj.bit_length()}-bit label has more decimal digits than "
                             f"the JSON output's limit of {sys.get_int_max_str_digits()}") from None
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in report")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, complex):
        _canon({"re": obj.real, "im": obj.imag}, out)
    elif isinstance(obj, Mapping):
        out.append("{")
        for pos, key in enumerate(sorted(obj.keys(), key=str)):
            if pos:
                out.append(",")
            out.append(json.dumps(str(key)))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for pos, item in enumerate(obj):
            if pos:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
