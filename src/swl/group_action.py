"""Coordinate actions of the dilation/translation group words D^p T^q and T^q D^p.

In its own model each operator is a pure index shift: T^q moves the
translation exponent, D^p the scale exponent.  So ``act`` evaluates every
word by one rule: take the powers innermost first, skip a zero power, shift
where a power is native, and transfer (``alpha.transfer``) only when a
nonzero power needs the other model, then once more to return to v's
model.  The word's tail is its transfers' tails summed in transfer order.
"""

from __future__ import annotations

from .alpha import AlphaMatrix, transfer
from .core import FCoordVec, GCoordVec, Window, offset_column


def shift_T(v: FCoordVec, q: int) -> FCoordVec:
    """Translation by q in the translation model: entry (i, n) -> (i, n + q)."""
    if q == 0:
        return v
    i, n = v._cols
    return FCoordVec._from_columns((i, offset_column(n, q)), v._vals)


def shift_D(v: GCoordVec, p: int) -> GCoordVec:
    """Dilation by p in the dilation model: entry (s, j, m) -> (s, j, m + p)."""
    if p == 0:
        return v
    s, j, m = v._cols
    return GCoordVec._from_columns((s, j, offset_column(m, p)), v._vals)


def act(v: FCoordVec | GCoordVec, p: int, q: int, order: str, A: AlphaMatrix,
        w: Window) -> tuple[FCoordVec | GCoordVec, float]:
    """Coordinates of D^p T^q v (``order`` "DT") or T^q D^p v ("TD"), in
    v's model, and the l2 bound on what its transfers clipped."""
    powers = {"DT": ((shift_T, q, FCoordVec), (shift_D, p, GCoordVec)),
              "TD": ((shift_D, p, GCoordVec), (shift_T, q, FCoordVec))}
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

