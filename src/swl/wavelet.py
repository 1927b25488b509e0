"""Coordinate-level tests for orthonormal wavelets and scaling functions.

A candidate's dilation-model coordinates determine whether its dilated
translates form an orthonormal system through a family of coordinate sums,
one per integer pair (p, q); the system is orthonormal exactly when the
sum is 1 at (0, 0) and 0 elsewhere.  Two routes evaluate the sums here,
both from one translation-model copy X of the candidate psi, its column
transfer:

* route A shifts X by q in the translation model, moves it back by the
  row transfer (U_q) and reads <psi, D^p U_q> at psi's own keys: the
  change-of-basis triple sum, in array passes;
* route B does the same from X under the zero rule, which is
  ``f_from_g`` of psi bit for bit, and reads psi itself at q = 0.

Both are computed and must agree; the report carries route A's
residuals and the route disagreement.  They are not independent
arithmetic: where the zero rule drops nothing, route B's copy is X
itself, its q != 0 sums are route A's bit for bit, and the agreement gate
measures only the q = 0 round trip; where the rule drops an entry, route
B runs route A's passes again over the kept entries alone.

Plan and execution.  Everything the two wavelet checks compute from the
candidate's keys, the family, the window and the grid alone is their
*plan*, built once per key structure: the column pass to X and the row
passes of the shifted copies, each a ``_Pass`` (the ``alpha.Layout`` of
the terms that reach a read target: source positions, the alphas of the
terms that carry one, the keys with clipped mass; and each term's
group), and where each shifted key reads its sum (``_KeyIndex`` codes
the keys, and ``_places``, the one lookup, finds each code's place among
the groups' sorted codes by binary search, as it finds a label's group
id); the checks look keys up only while they build a plan.  *Executing*
a plan with the candidate's values is only gathers, ``cmul``, per-group
sums in term order (``core.group_sums``), the zero rule, ``_cdot`` and
the tails, so every sum is bit for bit a ``csum`` of the same products.
Plans are kept in one byte-bounded LRU table, ``_PLANS``
(``core.ByteLRU``, budget ``_PLAN_BYTES``), beside the oracle's element
tables: a candidate whose key columns equal those of a kept plan for the
same family, window and grid (length, dtype and every value compared;
a hash only picks the slot) runs that plan, and any other builds its
own, which the table keeps while it fits.  The scaling check's
autocorrelation <phi, T^k phi> reads its sums the same way, from a
``_KeyIndex`` over phi's own keys.

Completeness is probed by the rank of a window-truncated coordinate
matrix, read from route A's U_q at the matrix's cells.  A finite window
can only ever certify a *necessary* condition, so reports label the rank
test as a window surrogate; singular values within 10x of the fixed
``RANK_SVD_THRESHOLD`` yield an ``inconclusive`` verdict instead of a
pass/fail call.  ``check_wavelet_completeness`` is the one completeness
verdict: the [1, 2] example check takes its rank and verdict from it.  An
explicit grid of (p, q) pairs, shifts k or completeness rows must not be
empty: a check over none would pass vacuously.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .alpha import AlphaMatrix, Layout, column_terms, row_terms, scale_reach
from .bases import check_dil_labels
from .core import (
    ByteLRU,
    CheckReport,
    FCoordVec,
    GCoordVec,
    MINUS,
    PLUS,
    Window,
    array_fsum,
    check_radius,
    cmul,
    csum,
    group_sums,
    keep_mask,
    key_columns,
    key_groups,
    offset_column,
    sorted_unique,
)
from .filters import coords_at_omega

_WINDOW_SURROGATE_NOTE = "necessary-condition check at a finite window, not a proof"
RANK_SVD_THRESHOLD = 1e-8  # completeness rank cut; inconclusive within 10x of it
ROW_BUDGET = 1 << 12  # translation-model rows a chunk of shifts transports in one pass
_CIRCLE_GRID = 256  # points of the scaling check's circle cross-check


def _k_grid(k_range) -> list[int]:
    if isinstance(k_range, int):
        r = check_radius(k_range)
        return list(range(-r, r + 1))
    return _nonempty([int(k) for k in k_range])


def _pq_grid(pq_range) -> list[tuple[int, int]]:
    if isinstance(pq_range, int):
        ks = _k_grid(pq_range)
        return [(p, q) for p in ks for q in ks]
    return _nonempty([(int(p), int(q)) for p, q in pq_range])


def _nonempty(grid: list) -> list:
    """An explicit grid; an empty one raises ``ValueError``, as a negative
    radius does (a check over it would pass vacuously)."""
    if not grid:
        raise ValueError("explicit grid is empty")
    return grid


def _slack(candidate_tail_sq: float, per_q_tails: Iterable[float]) -> float:
    # each (p, q) sum uses one transported copy of the candidate, so the
    # transfer allowance is the worst single-q clipped tail, not their sum
    eps = math.sqrt(max(0.0, candidate_tail_sq))
    worst = max(per_q_tails, default=0.0)
    return 2.0 * eps + eps * eps + 2.0 * worst


# -- orthonormality -----------------------------------------------------------

def _cdot(a: np.ndarray, b: np.ndarray) -> complex:
    """Compensated sum of a * conj(b), the same sum as ``csum`` (each
    component's ``fsum``, bit for bit).

    Each component of each product is rounded as Python's complex product
    rounds it; numpy's complex multiply may fuse it into one FMA instead.
    Where neither factor has a nonzero imaginary part, the real sum takes
    only the real products (the imaginary ones are zeros, which change no
    exact sum) and the imaginary sum is +0.0, what ``fsum`` gives for zeros;
    the full form gives the same bits there, only slower.  Products that
    are exactly zero are left out of the sums for the same reason (a sum
    read at keys with no target is mostly zeros).
    """
    if not (a.imag.any() or b.imag.any()):
        return complex(_nonzero_fsum(a.real * b.real), 0.0)
    re = a.real * b.real + a.imag * b.imag
    im = a.imag * b.real - a.real * b.imag
    return complex(_nonzero_fsum(re), _nonzero_fsum(im))


def _nonzero_fsum(x: np.ndarray) -> float:
    return array_fsum(x[x != 0.0])


_PAST_CODES = np.iinfo(np.int64).max  # codes stay below it
_INT32_TOP = np.iinfo(np.int32).max


def _positions(a: np.ndarray, bound: int) -> np.ndarray:
    """The non-negative positions ``a``, all below ``bound``, as int32
    where it holds them."""
    return a.astype(np.int32 if bound <= _INT32_TOP else np.intp)


def _places(values: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Each query's place among the sorted distinct ``values`` (int64 or
    Python ints), found by binary search, or len(values) where it is not
    one of them."""
    at = np.searchsorted(values, queries)
    hit = at < len(values)
    hit[hit] = values[at[hit]] == queries[hit]
    at[~hit] = len(values)
    return _positions(at, len(values) + 1)


class _KeyIndex:
    """Dilation keys (s, j, m), or translation keys (i, n) as (+, i, n), as
    int64 codes, and the codes of other keys in the same groups, for sums
    read at those keys shifted by each p.

    Each (s, j) group of the keys gets a dense id and key (s, j, m) the
    code ``id * span + (m - base)``, where [base, base + span) holds every
    m - p for the shifts p asked for and for p = 0; a number of groups
    times the span past int64 raises ``ValueError``.  Labels never enter
    the code, so Haar labels of any size cannot overflow it.  A group's id
    is its label's place among its sign's sorted labels (``_places``, the
    one lookup, which serves labels past int64 too); each sign's sorted
    labels are one sort of its keys' labels with repeats dropped
    (``sorted_unique``).
    """

    def __init__(self, cols, ps: Sequence[int]):
        s, j, m = cols
        # the groups of each sign, as sorted labels; ids count PLUS's first
        self.labels = {sg: sorted_unique(j[s == sg]) for sg in (PLUS, MINUS)}
        groups = max(sum(map(len, self.labels.values())), 1)
        # the span holds shift 0 too, so every key has a code in it
        shifts = (*ps, 0)
        self.base = (int(m.min()) if len(m) else 0) - max(shifts)
        self.span = (int(m.max()) if len(m) else 0) - min(shifts) - self.base + 1
        if groups * self.span > _PAST_CODES:
            raise ValueError(f"{groups} groups of {self.span} shifts each "
                             "have more codes than int64 holds")
        # m - base exactly: a base below int64 must not overflow the subtraction
        self.codes = self._ids(s, j) * self.span + offset_column(m, -self.base).astype(np.int64)

    def _ids(self, s, j) -> np.ndarray:
        """The group id of each (s, j), or -1 where the keys have no such group."""
        ids = np.full(len(s), -1, dtype=np.int64)
        start = 0
        for sg, labels in self.labels.items():
            sel = np.flatnonzero(s == sg)
            at = _places(labels, j[sel]).astype(np.int64)
            ids[sel] = np.where(at < len(labels), start + at, -1)
            start += len(labels)
        return ids

    def code(self, keys) -> np.ndarray:
        """The code of each key (s, j, m), -1 where its group is not one of
        the index's or m - base is outside the span."""
        s, j, m = keys
        ids, rel = self._ids(s, j), m - self.base
        hit = np.flatnonzero((ids >= 0) & (rel >= 0) & (rel < self.span))
        codes = np.full(len(ids), -1, dtype=np.int64)
        codes[hit] = ids[hit] * self.span + rel[hit].astype(np.int64)
        return codes


def _read_sums(vals: dict, reads: dict, ps, sums: np.ndarray, real: bool) -> dict:
    """For each p of ``ps``, the compensated sum of vals[p] * conj(sums)
    over the keys that read a group at p: ``reads[p]`` is (those keys, the
    group each reads) and ``vals[p]`` their values, or their real parts
    where ``real`` (the values are real).  A group with no sum (none of
    this pass's terms, or one the zero rule drops) holds a 0, whose product
    adds an exact zero: the sum is the one over the keys that read a sum,
    bit for bit (``_cdot`` sums exactly, and so does its real-only form,
    taken here at once where the sums are real too)."""
    if real and not sums.imag.any():
        re = sums.real
        return {p: complex(_nonzero_fsum(vals[p] * re[reads[p][1]]), 0.0) for p in ps}
    return {p: _cdot(vals[p], sums[reads[p][1]]) for p in ps}


def _read_values(vals: np.ndarray, reads: dict) -> tuple[dict, bool]:
    """Each p's reading keys' values, as ``_read_sums`` takes them, and
    whether they are real (then only their real parts)."""
    real = not vals.imag.any()
    part = vals.real if real else vals
    return {p: part[at] for p, (at, _) in reads.items()}, real


def _reads(places: np.ndarray, size: int) -> tuple:
    """The keys whose place is one of ``size`` groups, and those places."""
    at = np.flatnonzero(places < size)
    return _positions(at, len(places)), places[at]


def _kept_sums(sums: np.ndarray) -> np.ndarray:
    """The sums under the zero rule, in place: each sum it drops a 0."""
    sums[~keep_mask(sums)] = 0
    return sums


class _Pass(NamedTuple):
    """A chunk of transfer passes, one per run of source keys, values
    aside, where their sums are read: the run's ``Layout`` cut to the
    terms whose target is a read group, their sources and clipped keys
    counted from their run's first key, and each term's group (run k's
    groups from k * size)."""

    layout: Layout  # without target key columns
    group: np.ndarray
    size: int  # groups per run

    def placed(self, places: np.ndarray, size: int) -> "_Pass":
        """The chunk with each term's group at ``places`` (one per term)
        among the ``size`` groups of its run."""
        bounds = self.layout.bounds
        offsets = np.repeat(np.arange(len(bounds) - 1) * size, np.diff(bounds))
        return self._replace(group=_positions(places + offsets, (len(bounds) - 1) * size),
                             size=size)

    def sums(self, vals: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
        """Each run's groups' sums, one row per run, each from 0j in term
        order, of the terms of the values ``vals`` over the source keys
        (those where ``keep`` holds)."""
        terms, group = self.layout.terms(vals), self.group
        if keep is not None:
            sel = keep[self.layout.src]
            terms, group = terms[sel], group[sel]
        runs = len(self.layout.bounds) - 1
        return group_sums(group, terms, runs * self.size).reshape(runs, self.size)

    def tails(self, vals: np.ndarray) -> list[float]:
        """Each run's l2 bound on its clipped part (``Layout.tails``)."""
        return self.layout.tails(vals)


def _pass(layout, group: np.ndarray, count: int) -> _Pass:
    """``layout``'s terms whose ``group`` (one per term, -1 for none) is
    read, as a chunk of passes, one per run of ``count`` source keys; each
    term keeps ``group``'s value until the chunk is ``placed``."""
    hit = np.flatnonzero(group >= 0)
    alpha_of = np.full(len(layout.src), -1, dtype=np.intp)
    alpha_of[layout.scaled] = np.arange(len(layout.scaled))
    alpha_of = alpha_of[hit]
    scaled = np.flatnonzero(alpha_of >= 0)
    count = max(count, 1)
    runs = len(layout.bounds) - 1
    cut = layout._replace(
        cols=(), src=_positions(layout.src[hit] % count, count), scaled=_positions(scaled, len(hit)),
        alphas=layout.alphas[alpha_of[scaled]], clipped=_positions(layout.clipped % count, count),
        clip_run=_positions(layout.clip_run, runs), bounds=np.searchsorted(hit, layout.bounds).tolist())
    return _Pass(cut, group[hit], 0)


def _stacked(col: np.ndarray, copies: int) -> np.ndarray:
    """``copies`` copies of ``col`` end to end (``col`` itself for one)."""
    return np.broadcast_to(col, (copies, len(col))).reshape(-1)


def _copy_pass(A: AlphaMatrix, cols, w: Window, top: float = math.inf):
    """The column pass that moves psi, over the dilation keys ``cols``, to
    the translation model once: X[(i, nu)] = sum_{s,j,mu}
    conj(alpha_{i,nu}^{s,j,mu}) psi[(s,j,mu)], with no zero rule, over the
    keys that can reach level ``top`` (``scale_reach``; every key at
    ``top = inf``), and only the X keys that can.  Returns the pass (its
    sources positions in ``cols``, its groups X's keys in the order of
    their first terms, ``key_groups``) and X's key columns."""
    reach = None if top == math.inf else np.flatnonzero(scale_reach(A, cols, top))
    layout = column_terms(A, cols if reach is None else tuple(c[reach] for c in cols), w)
    xcols, group = key_groups(layout.cols)
    if reach is not None:
        kept = scale_reach(A, xcols, top)
        xcols = tuple(c[kept] for c in xcols)
        group = np.where(kept, np.cumsum(kept) - 1, -1)[group]
        layout = layout._replace(src=reach[layout.src], clipped=reach[layout.clipped])
    copy = _pass(layout, group, len(cols[0]))
    return copy.placed(copy.group, len(xcols[0])), xcols


def _row_passes(A: AlphaMatrix, cols, qs: Sequence[int], w: Window, read):
    """The row passes of the translation-model keys ``cols`` shifted by
    each q of ``qs``, in order, a chunk of qs at a time: as many as fit in
    ``ROW_BUDGET`` rows, one at least.  A chunk's shifted key columns are
    stacked into one ``row_terms`` call, one run per q, each run's terms
    bit for bit what a pass of that q alone lays out, and each term's group
    is ``read(target key columns)`` (-1 for a target no sum is read at).
    Yields (the chunk's qs, its passes)."""
    i, n = cols
    size = max(1, ROW_BUDGET // max(len(i), 1))
    for at in range(0, len(qs), size):
        chunk = qs[at:at + size]
        keys = _stacked(i, len(chunk)), np.concatenate([offset_column(n, q) for q in chunk])
        layout = row_terms(A, keys, w, len(chunk))
        yield chunk, _pass(layout, read(layout.cols), len(i))
        del layout  # hold one chunk's layout at a time


# -- plans ----------------------------------------------------------------------

def _kept_keys(cols) -> tuple:
    """The candidate's key columns as a plan keeps them to match a later
    candidate exactly: each column's dtype and its values, int64 ones in
    the narrowest integer dtype that holds them."""
    kept = []
    for c in cols:
        dtype = c.dtype
        if c.dtype == np.int64 and len(c):
            lo, hi = int(c.min()), int(c.max())
            dtype = next((d for d, top in _NARROW if -top - 1 <= lo and hi <= top), dtype)
        kept.append((c.dtype, c.astype(dtype)))  # a copy, whatever the dtype
    return tuple(kept)


_NARROW = [(dtype, int(np.iinfo(dtype).max)) for dtype in (np.int8, np.int16, np.int32)]


def _same_keys(kept: tuple, cols) -> bool:
    """Whether ``cols`` are the kept key columns: length and dtype first,
    then every value."""
    return all(len(c) == len(values) and c.dtype == dtype and np.array_equal(values, c)
               for (dtype, values), c in zip(kept, cols))


_DIGEST_SAMPLES = 256


def _digest(c: np.ndarray) -> int:
    # a hash of some of the column's values, evenly spaced: it only picks
    # the table slot, and the plan there must match the columns exactly
    c = c[::max(1, len(c) // _DIGEST_SAMPLES)]
    return hash(tuple(c.tolist()) if c.dtype == object else c.tobytes())


def _held(obj) -> int:
    """The bytes of the arrays in a plan."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, dict):
        obj = list(obj.values())
    if isinstance(obj, (tuple, list)):
        return sum(_held(o) for o in obj)
    return 0


# the plans kept, in bytes: the two plans of a D4 candidate at the
# d4-verify settings (24,648 keys, pq 2, completeness rows at radius 4) hold
# 2.2 MB together, so a few key structures stay kept
_PLAN_BYTES = 1 << 23
_PLANS = ByteLRU(_PLAN_BYTES, _held)


def _plan(build, psi, A: AlphaMatrix, w: Window, grid):
    """The plan ``build(psi's key columns, A, w, grid)`` for psi's keys,
    from the table of plans (``_PLANS``) where one was built for the same
    family, window, grid and key columns, compared exactly, else built
    and kept while it fits the table's byte budget."""
    cols = psi._cols
    key = (build.__name__, A.fam, w, grid, *((len(c), c.dtype.str, _digest(c)) for c in cols))
    return _PLANS.fetch(key, lambda: build(cols, A, w, grid),
                        lambda plan: _same_keys(plan.keys, cols))


class _OrthonormalityPlan(NamedTuple):
    """What the orthonormality sums take from psi's keys, the family, the
    window and the grid alone: the column pass to X, the row passes of the
    qs a chunk at a time (the chunks' qs in ``chunks``), summed into the
    groups that some shift of psi's keys reads, for each p the keys of psi
    that read a group at m - p and those groups (``_reads``), and, for
    route B at q = 0, each key's own group."""

    keys: tuple
    copy: _Pass
    chunks: list
    rows: list
    reads: dict
    own: np.ndarray | None


def _orthonormality_plan(cols, A: AlphaMatrix, w: Window, grid) -> _OrthonormalityPlan:
    ps_of = _ps_of(grid)
    ps = sorted({p for p, _ in grid})
    index = _KeyIndex(cols, ps)
    copy, xcols = _copy_pass(A, cols, w)
    readable = sorted_unique(np.concatenate([index.codes - p for p in ps]))

    def read(targets):
        codes = index.code(targets)
        return np.where(_places(readable, codes) < len(readable), codes, -1)

    chunks, rows = zip(*_row_passes(A, xcols, sorted(ps_of), w, read))
    del readable
    # the groups: every code a pass sums and some read takes, and psi's own
    # codes where route B reads psi itself at q = 0
    own = 0 in ps_of
    groups = sorted_unique(np.concatenate([row.group for row in rows] + [index.codes] * own))
    rows = [row.placed(_places(groups, row.group), len(groups)) for row in rows]
    reads = {p: _reads(_places(groups, index.codes - p), len(groups)) for p in ps}
    return _OrthonormalityPlan(_kept_keys(cols), copy, list(chunks), rows, reads,
                               _places(groups, index.codes) if own else None)


def _ps_of(grid) -> dict[int, set[int]]:
    ps_of: dict[int, set[int]] = {}
    for p, q in grid:
        ps_of.setdefault(q, set()).add(p)
    return ps_of


def _route_sums(psi: GCoordVec, A: AlphaMatrix, grid, w: Window):
    """Route A's and route B's (p, q) sums over the grid, and each q's tail
    (the qs sorted), executing the check's plan for psi's keys (``_plan``).

    The plan moves psi to the translation model once, and route A
    transports that copy X by each q and sums every p of it with exact
    compensated totals, one chunk of qs at a time.  Route B reads X under
    the zero rule, ``f_from_g`` of psi bit for bit: where the rule drops
    nothing that is X itself, and route B's q != 0 sums are route A's, the
    same bits; where it drops an entry, route B runs the passes again over
    the kept entries alone.  At q = 0 route B's sums are psi's own.  Each
    q's tail is what route A clipped: the column pass's tail plus that q's
    row-pass tail.
    """
    ps_of = _ps_of(grid)
    plan = _plan(_orthonormality_plan, psi, A, w, tuple(sorted(set(grid))))
    vals = psi._vals
    x = plan.copy.sums(vals)[0]
    column_tail = plan.copy.tails(vals)[0]
    keep = keep_mask(x)
    read, real = _read_values(vals, plan.reads)
    route_a, route_b, per_q_tails = {}, {}, []
    for chunk, row in zip(plan.chunks, plan.rows):
        sums_a = _kept_sums(row.sums(x))
        sums_b = None if keep.all() else _kept_sums(row.sums(x, keep))
        for k, (q, tail) in enumerate(zip(chunk, row.tails(x))):
            got = _read_sums(read, plan.reads, ps_of[q], sums_a[k], real)
            route_a.update(((p, q), lhs) for p, lhs in got.items())
            if sums_b is not None:
                got = _read_sums(read, plan.reads, ps_of[q], sums_b[k], real)
            route_b.update(((p, q), lhs) for p, lhs in got.items())
            per_q_tails.append(column_tail + tail)
        del sums_a, sums_b  # each chunk's sums go before the next chunk's are made
    if plan.own is not None:
        # at q = 0, T^q psi is psi itself
        own = np.zeros(plan.rows[0].size, dtype=complex)
        own[plan.own] = vals
        got = _read_sums(read, plan.reads, ps_of[0], own, real)
        route_b.update(((p, 0), lhs) for p, lhs in got.items())
    return route_a, route_b, per_q_tails


def orthonormality_residuals(psi: GCoordVec, A: AlphaMatrix, pq_range, w: Window):
    """Residual grid |LHS(p,q) - delta| plus the two-route disagreement.

    Returns (residuals, disagreement, per_q_transfer_tails), from route A's
    and route B's sums (``_route_sums``); the reported residuals are route
    A's, and so are the tails.  An empty explicit grid raises
    ``ValueError``.
    """
    grid = _pq_grid(pq_range)
    route_a, route_b, per_q_tails = _route_sums(psi, A, grid, w)
    residuals = {}
    disagreement = 0.0
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        residuals[(p, q)] = abs(route_a[(p, q)] - delta)
        disagreement = max(disagreement, abs(route_a[(p, q)] - route_b[(p, q)]))
    return residuals, disagreement, per_q_tails


def check_wavelet_orthonormality(psi: GCoordVec, A: AlphaMatrix, pq_range, w: Window,
                                 tol: float = 1e-9, *,
                                 candidate_tail_sq: float = 0.0) -> CheckReport:
    """Orthonormality of {D^p T^q psi} tested coordinate-wise on a (p, q) grid.

    ``candidate_tail_sq`` is the l2 mass of the candidate lost to the
    window that produced ``psi`` (zero for exactly represented
    candidates); it widens the acceptance band accordingly and is recorded
    in the report.
    """
    residuals, disagreement, per_q_tails = orthonormality_residuals(psi, A, pq_range, w)
    slack = _slack(candidate_tail_sq, per_q_tails)
    notes = [f"triple-sum and inner-product routes agree within {disagreement:.3e}"]
    if slack > 0.0:
        notes.append(f"window slack {slack:.3e} from candidate tail and transfer clipping")
    return CheckReport.from_residuals(
        "wavelet_orthonormality", residuals, tol, window=w, notes=notes, slack=slack
    )


# -- completeness -------------------------------------------------------------

class _CompletenessPlan(NamedTuple):
    """What the completeness matrix takes from psi's keys, the family, the
    window, the labels and the rows alone: the column pass to X over the
    keys that can reach the matrix, the row passes of the qs a chunk at a
    time, summed into the matrix's cells, and for each chunk the rows of
    its qs and where each of their cells is among the chunk's sums."""

    keys: tuple
    copy: _Pass
    rows: list
    cells: list


def _completeness_plan(cols, A: AlphaMatrix, w: Window, grid) -> _CompletenessPlan:
    labels, rows = grid
    ms, qs = (sorted({row[k] for row in rows}) for k in (0, 1))
    index = _KeyIndex(key_columns([(s, j, m) for s, j in labels for m in ms], 3), (0,))
    cells = sorted_unique(index.codes)
    top = max(ms) + int(max(j for _, j in labels)).bit_length()
    copy, xcols = _copy_pass(A, cols, w, top)

    def read(targets):
        at = _places(cells, index.code(targets))
        return np.where(at < len(cells), at, -1)

    passes = [row.placed(row.group, len(cells)) for _, row in _row_passes(A, xcols, qs, w, read)]
    m, q = key_columns(rows, 2)
    ids = index._ids(*key_columns(labels, 2))
    at = _places(cells, ids * index.span + (m - index.base)[:, None])
    # row r reads its cells in run row_q % runs of chunk row_q // runs
    runs = len(passes[0].layout.bounds) - 1
    row_q = np.searchsorted(qs, q)
    at = at + (row_q % runs * len(cells))[:, None]
    return _CompletenessPlan(_kept_keys(cols), copy, passes,
                             [(np.flatnonzero(row_q // runs == k), at[row_q // runs == k])
                              for k in range(len(passes))])


def completeness_matrix(psi: GCoordVec, A: AlphaMatrix, labels: Sequence[tuple[int, int]],
                        row_window, w: Window) -> np.ndarray:
    """Window-truncated completeness matrix: rows (m, q), columns (s, j).

    Entry ((m, q), (s, j)) is conj(U_q[(s, j, m)]), route A's U_q: the
    check's plan for psi's keys (``_plan``) moves psi to the translation
    model once, shifts that copy X by a chunk of qs at a time (as many as
    fit in ``ROW_BUDGET`` rows of X) and sums it only at the cells the
    matrix reads (one ``_KeyIndex`` over the labels and the rows' m values
    codes them), and each chunk's rows read their cells (0 where a cell
    has no sum), so the matrix is all that is held besides one chunk's
    sums, however far apart the rows' m values lie (so long as the index's
    codes fit in int64).  By the Haar scale rule no key of level past
    m_hi + bit_length(j_hi) reaches the matrix, so the copy takes only the
    keys that can: every entry read is summed from the same terms in the
    same order, bit for bit.  An empty row list raises ``ValueError``.
    """
    labels = check_dil_labels(A.fam, labels)
    rows = _pq_grid(row_window)
    plan = _plan(_completeness_plan, psi, A, w, (tuple(labels), tuple(rows)))
    x = plan.copy.sums(psi._vals)[0]
    mat = np.zeros((len(rows), len(labels)), dtype=complex)
    for row, (at, cells) in zip(plan.rows, plan.cells):
        mat[at] = _kept_sums(row.sums(x).reshape(-1))[cells]
    return np.conj(mat)


def check_wavelet_completeness(psi: GCoordVec, A: AlphaMatrix,
                               labels: Sequence[tuple[int, int]], row_window,
                               w: Window) -> CheckReport:
    """Rank test: the truncated completeness matrix should have full column
    rank (singular values above ``RANK_SVD_THRESHOLD``); the residual is
    the rank deficit."""
    labels = check_dil_labels(A.fam, labels)
    mat = completeness_matrix(psi, A, labels, row_window, w)
    sigma = np.linalg.svd(mat, compute_uv=False) if mat.size else np.zeros(0)
    rank = int(np.sum(sigma > RANK_SVD_THRESHOLD))
    near = [float(s) for s in sigma if RANK_SVD_THRESHOLD / 10.0 < s < RANK_SVD_THRESHOLD * 10.0]
    zero_cols = [lab for c, lab in enumerate(labels) if not np.any(np.abs(mat[:, c]) > 0.0)]

    full = rank == len(labels)
    residual = 0.0 if full else float(len(labels) - rank)
    notes = [_WINDOW_SURROGATE_NOTE, f"rank {rank} of {len(labels)} wanted"]
    verdict = "pass" if full else "fail"
    if near:
        verdict = "inconclusive"
        notes.append(f"singular values near threshold: {near}")
    if zero_cols:
        notes.append(f"columns with no support in the window: {zero_cols}")
    details = [(("sigma", c), float(s)) for c, s in enumerate(sigma)]
    return CheckReport(
        check_name="wavelet_completeness",
        verdict=verdict,
        max_residual=residual,
        tol=0.0,
        window=w,
        details=details,
        notes=notes,
    )


# -- compact support on [1, 2] ------------------------------------------------

def _slice_rows(A: AlphaMatrix, labels: list[int], grid, w: Window) -> dict:
    """The entries alpha_{k, 1+q}^{+, j, -p} of the [1, 2] slice, as each
    row (k, 1 + q) for a label k and a q of the grid: {(k, 1 + q): {(s, j,
    m): alpha}} from one ``row_terms`` layout, its window the slice's
    labels at the grid's scales -p.  A row's entries up to a scale are
    those of ``AlphaMatrix.entry``, a single entry's alpha 1.0."""
    if not labels:
        return {}
    ms = [-p for p, _ in grid]
    row_w = Window(w.trans_labels, w.trans_range, [(PLUS, j) for j in labels], (min(ms), max(ms)))
    keys = [(k, 1 + q) for q in sorted({q for _, q in grid}) for k in labels]
    layout = row_terms(A, key_columns(keys, 2), row_w)
    alphas = np.ones(len(layout.src), dtype=complex)
    alphas[layout.scaled] = layout.alphas
    rows = {key: {} for key in keys}
    for at, target, alpha in zip(layout.src.tolist(), zip(*(c.tolist() for c in layout.cols)),
                                 alphas.tolist()):
        rows[keys[at]][target] = alpha
    return rows


def check_example_unit_interval(candidate: GCoordVec, A: AlphaMatrix, pq_range,
                                labels: Sequence[tuple[int, int]], w: Window,
                                tol: float = 1e-9, row_window=None) -> CheckReport:
    """Specialized wavelet test for candidates supported in [1, 2].

    Only the positive-branch scale-0 coordinates can be nonzero there, so
    the general sums collapse to a single change-of-basis lookup per term.
    The general-form residuals are evaluated too; a discrepancy between
    the two would be reported, never reconciled silently.  A residual
    failure fails; else ``check_wavelet_completeness``'s verdict at
    ``row_window`` (``pq_range`` if a radius, else 3) stands.
    """
    labels = check_dil_labels(A.fam, labels)
    slice_coeffs: dict[int, complex] = {}
    for (s, j, m), val in candidate.items():
        if s != PLUS or m != 0:
            raise ValueError(
                f"candidate has a coordinate outside the (+, *, 0) slice: {(s, j, m)}"
            )
        slice_coeffs[j] = val

    grid = _pq_grid(pq_range)
    rows = _slice_rows(A, list(slice_coeffs), grid, w)
    residuals = {}
    for p, q in grid:
        delta = 1.0 if (p == 0 and q == 0) else 0.0
        lhs = csum(
            cj.conjugate() * rows[(k, 1 + q)].get((PLUS, j, -p), 0j) * ck
            for j, cj in slice_coeffs.items()
            for k, ck in slice_coeffs.items()
        )
        residuals[(p, q)] = abs(lhs - delta)

    # general-form agreement
    gen_res, _, _ = orthonormality_residuals(candidate, A, pq_range, w)
    mismatch = max(
        (abs(residuals[pq] - gen_res[pq]) for pq in gen_res if pq in residuals),
        default=0.0,
    )

    if row_window is None:
        row_window = pq_range if isinstance(pq_range, int) else 3
    comp = check_wavelet_completeness(candidate, A, labels, row_window, w)
    rank = len(labels) - int(comp.max_residual)

    notes = [
        f"general-form residuals agree within {mismatch:.3e}",
        f"rank {rank} of {len(labels)} wanted at row window {row_window}",
        _WINDOW_SURROGATE_NOTE,
    ]
    ortho = CheckReport.from_residuals(
        "compact_support_wavelet", residuals, tol, window=w, notes=notes
    )
    if rank != len(labels):
        ortho.notes.append("completeness rank deficient")
    if ortho.verdict == "pass":
        ortho.verdict = comp.verdict
        ortho.notes += [n for n in comp.notes if n.startswith("singular values near")]
    return ortho


# -- scaling-function coordinate identity --------------------------------------

def _autocorrelation(phi: FCoordVec, ks: list[int]) -> dict[int, complex]:
    """{k: sum over (i, n) of phi[(i, n)] conj(phi[(i, n-k)])}, every k read
    from one ``_KeyIndex`` over phi's keys as (+, i, n), as the wavelet
    checks read their sums: phi's codes are the groups, and each k's read
    of a key is the group of the key k below it.  A k that no pair reaches
    (|k| past phi's shift range) has the empty sum and stays out of the
    index; a shift range whose codes would pass int64 raises a
    ``ValueError`` that names it."""
    i, n = phi._cols
    reach = int(n.max()) - int(n.min()) if len(n) else -1
    reached = [k for k in ks if abs(k) <= reach]
    auto = dict.fromkeys(ks, 0j)
    try:
        index = _KeyIndex((np.full(len(i), PLUS), i, n), reached)
    except ValueError:
        raise ValueError(f"phi's shifts run from {int(n.min())} to {int(n.max())}: its "
                         "translates are too far apart to index (codes past int64)") from None
    groups = sorted_unique(index.codes)
    sums = np.zeros(len(groups), dtype=complex)
    sums[_places(groups, index.codes)] = phi._vals
    reads = {k: _reads(_places(groups, index.codes - k), len(groups)) for k in reached}
    vals, real = _read_values(phi._vals, reads)
    auto.update(_read_sums(vals, reads, reached, sums, real))
    return auto


def check_scaling_coordinate_identity(phi: FCoordVec, k_range,
                                      tol: float = 1e-9) -> CheckReport:
    """Orthonormal integer translates iff the coordinate autocorrelation
    (``_autocorrelation``) is delta.

    Cross-checked by sampling the trigonometric polynomial with the
    autocorrelation coefficients at 256 points on the circle, where it
    must equal the squared per-omega coordinate norm (``coords_at_omega``),
    identically 1.  Both sides reduce their exponents mod 256 in integers,
    so shifts anywhere in int64 and past it keep the cross-check exact to
    rounding.
    """
    ks = _k_grid(k_range)
    auto = _autocorrelation(phi, ks)
    residuals = {("k", k): abs(auto[k] - (1.0 if k == 0 else 0.0)) for k in ks}

    # omega_t^k = e^{2 pi i (t k mod 256) / 256}, the exponent reduced in integers
    points = np.arange(_CIRCLE_GRID)
    circle = np.exp(2j * np.pi * points / _CIRCLE_GRID)
    poly = sum(auto[k] * circle[points * (k % _CIRCLE_GRID) % _CIRCLE_GRID] for k in ks)
    # direct per-omega norm: sum_i |sum_n phi_i^(n) omega^n|^2
    _, series = coords_at_omega(phi, _CIRCLE_GRID)
    direct = np.sum(series.real ** 2 + series.imag ** 2, axis=0)
    cross = float(np.max(np.abs(poly - direct)))

    notes = [f"autocorrelation polynomial matches per-omega norm within {cross:.3e}"]
    return CheckReport.from_residuals(
        "scaling_coordinate_identity", residuals, tol, notes=notes
    )
