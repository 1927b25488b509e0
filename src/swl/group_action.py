"""Coordinate actions of the dilation/translation group words D^p T^q and T^q D^p.

Each operator is an index map in a model of its own: T^q moves the
translation exponent of the translation model, D^p the scale exponent of
the dilation model.  For the Haar family D is an exact index map in the
translation model too (``shift_D``): level a -> a + p in ``alpha``'s
Haar element form, so a wavelet key is relabelled, and a box splits into
a box and wavelets or spreads over a run of boxes.  So ``act``
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

from .alpha import AlphaMatrix, _element_ints, _split, _spread, _trans_key, _width, transfer
from .bases import HAAR, check_trans_label
from .core import (
    FCoordVec,
    GCoordVec,
    Window,
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
    and else to a run of boxes; a box, level 0 at offset n, goes to a box
    and wavelets (p > 0) or a run of boxes (p < 0).

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

    The key (2^l + r, n) is the wavelet of level l at offset
    b = r + (n << l), and (0, n) the box of level 0 at offset n; D^p adds p
    to the level.  A wavelet with l + p >= 0 is relabelled to
    ``_trans_key(l + p, b)``, a bijection between wavelet keys, so those
    keys keep their values and source order.  Boxes split for p > 0
    (``_split``), and boxes and wavelets with l + p < 0 spread over
    2^-(l+p) unit boxes (``_spread``).  Only these outputs can share keys:
    their terms are summed per key (``sum_by_key``) in source order under
    the zero rule, after the relabelled wavelets.  Runs of 2^59 boxes or
    more raise ``ArithmeticError`` before any array is built (``_spread``),
    a negative label ``InvalidLabelError``.  The arithmetic is the transfer
    blocks' (``_element_ints``): int64 while level + |p| + the width of n
    stay within 62 bits, else Python ints.
    """
    i, n = v._cols
    if not len(i):
        return v
    if (i < 0).any():  # the transfers' input error, for the first such key
        check_trans_label(HAAR, i[np.argmax(i < 0)])
    level = bit_length(i) - 1  # -1 for a box
    reach = max(int(level.max()), 0) + abs(p) + int(_width(n).max())
    i, n, level = _element_ints(reach, i, n, level)
    wave, lw = level >= 0, np.maximum(level, 0)
    a, b = lw + p, (n << lw) + (i & ((1 << lw) - 1))
    rel = np.flatnonzero(wave & (a >= 0))
    labels, shifts = _trans_key(a[rel], b[rel])
    if p > 0:
        at = np.flatnonzero(~wave)
        _, key, cols, alphas = _split(b[at], a[at])
    else:
        at = np.flatnonzero(a < 0)
        _, key, cols, alphas = _spread(b[at], -a[at], wave[at])
    (bi, bn), sums = sum_by_key(cols, cmul(alphas, v._vals[at][key]))
    keep = keep_mask(sums)
    return FCoordVec._from_columns((np.concatenate((labels, bi[keep])),
                                    np.concatenate((shifts, bn[keep]))),
                                   np.concatenate((v._vals[rel], sums[keep])))


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
