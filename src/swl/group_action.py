"""Coordinate actions of the dilation/translation group words D^p T^q and T^q D^p.

Each operator is an index map in a model of its own: T^q moves the
translation exponent of the translation model, D^p the scale exponent of
the dilation model.  For the Haar family D is an exact index map in the
translation model too (``shift_D``): a wavelet key is relabelled, and a
box spreads over a box and wavelets or a run of boxes.  So ``act``
evaluates every word by one rule: take the powers innermost first, skip a
zero power, shift where a power is native, and transfer
(``alpha.transfer``) only when a nonzero power needs the other model, then
once more to return to v's model.  T is native in the translation model;
D in the dilation model and, for Haar, in v's own model, so a Haar
translation-model word makes no transfer while a dilation-model or
exponential word transfers as it always has.  The word's tail is its
transfers' tails summed in transfer order; the shifts clip nothing.
"""

from __future__ import annotations

import numpy as np

from .alpha import _LADDER_DEPTH, AlphaMatrix, _runs, transfer
from .core import (
    FCoordVec,
    GCoordVec,
    Window,
    _WIDE,
    bit_length,
    cmul,
    keep_mask,
    offset_column,
    sum_by_key,
)


def shift_T(v: FCoordVec, q: int) -> FCoordVec:
    """Translation by q in the translation model: entry (i, n) -> (i, n + q)."""
    if q == 0:
        return v
    i, n = v._cols
    return FCoordVec._from_columns((i, offset_column(n, q)), v._vals)


def shift_D(v: FCoordVec | GCoordVec, p: int) -> FCoordVec | GCoordVec:
    """Dilation by p.

    In the dilation model: entry (s, j, m) -> (s, j, m + p).  In the
    translation model, where it is the Haar family's D (``_haar_dilate``):
    the element L_{2^l+r}(. - n) = 2^{l/2} psi(2^l x - b), b = r + n 2^l,
    goes to the one element of level l + p at the same b where l + p >= 0,
    and else to a run of boxes; a box goes to a box and wavelets (p > 0) or
    a run of boxes (p < 0).

    Window rule: D is exact in either model.  It clips nothing, whatever
    the window (keys may leave the window's label, shift and scale ranges,
    as translation-model vectors are never clipped to ``trans_labels``),
    so its tail is 0.0 and it takes no window.
    """
    if p == 0:
        return v
    if isinstance(v, FCoordVec):
        return _haar_dilate(v, p)
    s, j, m = v._cols
    return GCoordVec._from_columns((s, j, offset_column(m, p)), v._vals)


def _haar_dilate(v: FCoordVec, p: int) -> FCoordVec:
    """D^p on Haar translation-model coordinates, in one step per key.

    Write a wavelet label as 2^l + r (level l, 0 <= r < 2^l).  A wavelet
    with l + p >= 0 is relabelled: to ((2^p + (n mod 2^p)) << l) + r at
    shift n >> p for p > 0, and to 2^L + (r mod 2^L), L = l + p, at shift
    (n << -p) + (r >> L) for p < 0.  The relabel is a bijection between
    wavelet keys, so those keys keep their values and source order.  For
    p > 0 a box (0, n) goes to the box (0, n >> p) at 2^{-p/2} and the
    wavelet of each level l < p at 2^{(l-p)/2}, negative where bit p - l - 1
    of n is set; terms 0.0 in double precision (past ``_LADDER_DEPTH``
    levels) are not listed.  For p < 0 a box, or a wavelet with l < -p,
    spreads over the 2^u boxes (n << -p) + (r << u) + t, u = -p - l (u = -p
    and r = 0 for a box), at 2^{-u/2}, a wavelet's second half negative.
    Only these box outputs can share keys: their terms are summed per key
    by ``sum_by_key`` in source order and the zero rule applies, and they
    follow the relabelled wavelets.  Entry counts are known before any
    array is built; runs past 2^62 boxes raise ``ArithmeticError``.  The
    arithmetic is int64 where every key stays below 2^62 in magnitude, and
    on Python ints otherwise.
    """
    i, n = v._cols
    if not len(i):
        return v
    level = bit_length(i) - 1  # -1 for a box
    # every label is below 2^bits for p > 0, every shift for p < 0
    if p > 0:
        bits = max(int(level.max()), 0) + p + 1
    else:
        bits = (max(-int(n.min()), int(n.max())) + 1).bit_length() - p
    if bits > _WIDE.bit_length() - 1:
        i, n, level = i.astype(object), n.astype(object), level.astype(object)
    wav, box = np.flatnonzero(level >= max(-p, 0)), np.flatnonzero(level < max(-p, 0))
    lw, nw = level[wav], n[wav]
    r = i[wav] - (1 << lw)
    if p > 0:
        labels = (((1 << p) + (nw & ((1 << p) - 1))) << lw) + r
        shifts = nw >> p
        cols, terms = _box_up(n[box], v._vals[box], p)
    else:
        low = lw + p
        labels = (1 << low) + (r & ((1 << low) - 1))
        shifts = (nw << -p) + (r >> low)
        cols, terms = _box_down(i[box], n[box], level[box], v._vals[box], p)
    (bi, bn), sums = sum_by_key(cols, terms)
    keep = keep_mask(sums)
    return FCoordVec._from_columns((np.concatenate((labels, bi[keep])),
                                    np.concatenate((shifts, bn[keep]))),
                                   np.concatenate((v._vals[wav], sums[keep])))


def _box_up(n, vals, p: int):
    """The terms of D^p, p > 0, on boxes (0, n): per box, the box
    (0, n >> p) while p <= ``_LADDER_DEPTH``, then the wavelets of the
    levels l < p whose amplitude 2^{(l-p)/2} is not 0.0 in double
    precision, l ascending."""
    per = np.arange(max(p - _LADDER_DEPTH, 0), p)
    if p <= _LADDER_DEPTH:
        per = np.concatenate(([-1], per))  # -1: the box
    mag = np.tile(np.sqrt(np.ldexp(1.0, np.where(per < 0, -p, per - p))), len(n))
    lam = np.tile(per.astype(n.dtype), len(n))
    nn = np.repeat(n, len(per))
    wave = lam >= 0
    lw = np.where(wave, lam, 0)
    labels = np.where(wave, (1 << lw) + ((nn >> (p - lw)) & ((1 << lw) - 1)), 0)
    neg = wave & (((nn >> (p - lw - 1)) & 1) == 1)
    alphas = np.where(neg, -mag, mag).astype(complex)
    return (labels, nn >> p), cmul(alphas, np.repeat(vals, len(per)))


def _box_down(i, n, level, vals, p: int):
    """The terms of D^p, p < 0, on boxes and on wavelets of level l < -p:
    each key's run of 2^u boxes (n << -p) + (r << u) + t, t ascending, at
    2^{-u/2}, the second half of a wavelet's run negative."""
    lw = np.maximum(level, 0)
    u = -p - lw
    if len(u) and int(u.max()) >= _WIDE.bit_length() - 1:
        raise ArithmeticError(f"D^{p} spreads a key over 2^{int(u.max())} boxes, "
                              "past the longest array")
    u = u.astype(np.int64)
    counts = np.left_shift(1, u)
    if counts.sum(dtype=float) >= _WIDE:
        raise ArithmeticError(f"D^{p} spreads its keys over more than 2^62 boxes")
    r = np.where(level >= 0, i - (1 << lw), 0)
    start = (n << -p) + (r << u.astype(n.dtype))
    key, pos = _runs(counts)
    neg = (level >= 0)[key] & (pos >= (counts >> 1)[key])
    mag = np.sqrt(np.ldexp(1.0, -u))[key]
    alphas = np.where(neg, -mag, mag).astype(complex)
    shifts = start[key] + pos
    return (np.zeros(len(shifts), dtype=shifts.dtype), shifts), cmul(alphas, vals[key])


def act(v: FCoordVec | GCoordVec, p: int, q: int, order: str, A: AlphaMatrix,
        w: Window) -> tuple[FCoordVec | GCoordVec, float]:
    """Coordinates of D^p T^q v (``order`` "DT") or T^q D^p v ("TD"), in
    v's model, and the l2 bound on what its transfers clipped."""
    # D is native in the dilation model, and for Haar in v's own model
    d_model = type(v) if A.fam.name == "haar" else GCoordVec
    powers = {"DT": ((shift_T, q, FCoordVec), (shift_D, p, d_model)),
              "TD": ((shift_D, p, d_model), (shift_T, q, FCoordVec))}
    if order not in powers:
        raise ValueError(f"order must be 'DT' or 'TD', got {order!r}")
    out, tail = v, 0.0
    for shift, power, native in powers[order]:
        if power != 0 and not isinstance(out, native):
            out, clipped = transfer(out, A, w)
            tail += clipped
        out = shift(out, power)  # the identity at power 0, in either model
    if type(out) is not type(v):
        out, clipped = transfer(out, A, w)
        tail += clipped
    return out, tail
