"""Coordinate actions of the dilation/translation group words D^p T^q and T^q D^p.

In its own model each operator is a pure index shift: translating moves the
translation exponent, dilating moves the scale exponent.  Acting on the
*other* model goes through the change-of-representation matrix; the nested
sums are evaluated innermost-first as transfer compositions, with row and
column supports pruning all zero terms.  Shortcut cases (p = 0 on the
translation side, q = 0 on the dilation side) collapse to exact shifts.
"""

from __future__ import annotations

from .alpha import AlphaMatrix, f_from_g, g_from_f
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


def act_DT_on_F(v: FCoordVec, p: int, q: int, A: AlphaMatrix, w: Window,
                tail_sink: list | None = None) -> FCoordVec:
    """Translation-model coordinates of D^p T^q applied to ``v``."""
    if p == 0:
        return shift_T(v, q)
    u = g_from_f(shift_T(v, q), A, w, tail_sink)
    return f_from_g(shift_D(u, p), A, w, tail_sink)


def act_TD_on_F(v: FCoordVec, p: int, q: int, A: AlphaMatrix, w: Window,
                tail_sink: list | None = None) -> FCoordVec:
    """Translation-model coordinates of T^q D^p applied to ``v``."""
    if p == 0:
        return shift_T(v, q)
    u = shift_D(g_from_f(v, A, w, tail_sink), p)
    return shift_T(f_from_g(u, A, w, tail_sink), q)


def act_DT_on_G(v: GCoordVec, p: int, q: int, A: AlphaMatrix, w: Window,
                tail_sink: list | None = None) -> GCoordVec:
    """Dilation-model coordinates of D^p T^q applied to ``v``."""
    if q == 0:
        return shift_D(v, p)
    x = shift_T(f_from_g(v, A, w, tail_sink), q)
    return shift_D(g_from_f(x, A, w, tail_sink), p)


def act_TD_on_G(v: GCoordVec, p: int, q: int, A: AlphaMatrix, w: Window,
                tail_sink: list | None = None) -> GCoordVec:
    """Dilation-model coordinates of T^q D^p applied to ``v``."""
    if q == 0:
        return shift_D(v, p)
    x = f_from_g(shift_D(v, p), A, w, tail_sink)
    return g_from_f(shift_T(x, q), A, w, tail_sink)
