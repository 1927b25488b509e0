"""The scalar Haar alpha tables: the reference for the program's blocks.

``_haar_row`` enumerates a row (i, n) up to a top scale, with its clipped
mass, and ``_haar_column`` a column (s, j, m), each written out case by
case in plain Python ints.  They are coded independently of
``swl.alpha``'s row and column blocks, which ``AlphaMatrix.entry``/
``row``/``column`` and every transfer read, so the tests hold the blocks
to them entry for entry, and they stay cross-checked against each other
and against the oracle.  ``reference_row`` and ``reference_column`` read
a row or column as the term-by-term references do: from these tables for
the Haar family, from ``AlphaMatrix`` for the exponential one.
"""

import math
import sys

from swl.alpha import _pow2h
from swl.bases import split_haar_label
from swl.core import MINUS, PLUS, DilIndex, TransIndex

_SQRT1_2 = math.sqrt(0.5)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def bit_sign_exponent(u: int, v: int, p: int) -> int:
    """Sign exponent for the coarse-box rows: bit u-p-1 of the offset v."""
    return (v >> (u - p - 1)) & 1


# A ladder starting at m = r + 1 has entries 2^{(r-m)/2}: 0.0 in double
# precision past m = r + 1074, as 2.0 ** -1075 is.
_LADDER_DEPTH = 1074


def _ladder_top(r: int, m_hi: int) -> int:
    # the last scale a ladder starting at m = r + 1 lists
    return min(m_hi, r + _LADDER_DEPTH)


def _ladder_tail(r: int, m_hi: int) -> float:
    # clipped mass of a geometric scale ladder whose entries start at m = r + 1
    if m_hi <= r:
        return 1.0
    return 2.0 ** (r - m_hi)


def _haar_row(i: int, n: int, m_hi: int) -> tuple[list[tuple[DilIndex, complex]], float]:
    out: list[tuple[DilIndex, complex]] = []
    if n == 0:
        if i == 0:
            out = [(DilIndex(PLUS, 0, m), complex(_pow2h(-m)))
                   for m in range(1, _ladder_top(0, m_hi) + 1)]
            return out, _ladder_tail(0, m_hi)
        if _is_pow2(i):
            r = i.bit_length() - 1
            if r + 1 <= m_hi:
                out.append((DilIndex(PLUS, 0, r + 1), complex(-_SQRT1_2)))
            out.extend((DilIndex(PLUS, 0, m), complex(_pow2h(r - m)))
                       for m in range(r + 2, _ladder_top(r, m_hi) + 1))
            return out, _ladder_tail(r, m_hi)
        r, t = split_haar_label(i)
        p = t.bit_length() - 1
        return [(DilIndex(PLUS, t, r - p), 1.0 + 0j)], 0.0
    if n == 1:
        return [(DilIndex(PLUS, i, 0), 1.0 + 0j)], 0.0
    if n > 1:
        u = n.bit_length() - 1
        v = n - (1 << u)
        if i > 0:
            r = i.bit_length() - 1
            t = i - (1 << r)
            return [(DilIndex(PLUS, (n << r) + t, -u), 1.0 + 0j)], 0.0
        return _coarse_box_row(PLUS, u, v), 0.0
    if n == -1:
        if i == 0:
            out = [(DilIndex(MINUS, 0, m), complex(_pow2h(-m)))
                   for m in range(1, _ladder_top(0, m_hi) + 1)]
            return out, _ladder_tail(0, m_hi)
        if _is_pow2(i + 1):
            r = (i + 1).bit_length() - 2
            if r + 1 <= m_hi:
                out.append((DilIndex(MINUS, 0, r + 1), complex(_SQRT1_2)))
            out.extend((DilIndex(MINUS, 0, m), complex(-_pow2h(r - m)))
                       for m in range(r + 2, _ladder_top(r, m_hi) + 1))
            return out, _ladder_tail(r, m_hi)
        r, t = split_haar_label(i)
        p = ((1 << r) - t - 1).bit_length() - 1
        q = t - (1 << r) + (1 << (p + 1))
        return [(DilIndex(MINUS, (1 << p) + q, r - p), 1.0 + 0j)], 0.0
    if n == -2:
        return [(DilIndex(MINUS, i, 0), 1.0 + 0j)], 0.0
    # n < -2, parametrized as n = -2^{u+1} + v
    u = (-n - 1).bit_length() - 1
    v = n + (1 << (u + 1))
    if i > 0:
        r = i.bit_length() - 1
        t = i - (1 << r)
        return [(DilIndex(MINUS, (((1 << u) + v) << r) + t, -u), 1.0 + 0j)], 0.0
    return _coarse_box_row(MINUS, u, v), 0.0


def _coarse_box_row(s: int, u: int, v: int) -> list[tuple[DilIndex, complex]]:
    out = [(DilIndex(s, 0, -u), complex(_pow2h(-u)))]
    for p in range(u):
        j = (1 << p) + (v >> (u - p))
        sign = -1.0 if bit_sign_exponent(u, v, p) else 1.0
        out.append((DilIndex(s, j, -u), complex(sign * _pow2h(p - u))))
    return out


def _shift_count(u: int) -> int:
    # a box or fine wavelet column lists 2^u shifts; a list holds sys.maxsize at most
    if u >= sys.maxsize.bit_length():
        raise ArithmeticError(f"a Haar column of 2^{u} entries is past the longest list")
    return 1 << u


def _haar_column(s: int, j: int, m: int) -> list[tuple[TransIndex, complex]]:
    if j == 0:
        if m > 0:
            n = 0 if s == PLUS else -1
            out = [(TransIndex(0, n), complex(_pow2h(-m)))]
            # below r = m - 1074 every amplitude 2^{(r-m)/2} is 0.0 in double precision
            for r in range(m - 1, max(m - 1075, -1), -1):
                i = (1 << r) if s == PLUS else (1 << (r + 1)) - 1
                if r == m - 1:
                    val = -_SQRT1_2 if s == PLUS else _SQRT1_2
                else:
                    val = _pow2h(r - m) if s == PLUS else -_pow2h(r - m)
                out.append((TransIndex(i, n), complex(val)))
            return out
        if m == 0:
            return [(TransIndex(j, 1 if s == PLUS else -2), 1.0 + 0j)]
        u = -m
        count = _shift_count(u)
        base = (1 << u) if s == PLUS else -(1 << (u + 1))
        return [(TransIndex(0, n), complex(_pow2h(m))) for n in range(base, base + count)]
    # wavelet-type column: a single translated wavelet of the other family
    p, q = split_haar_label(j)
    b = (1 << p) + q if s == PLUS else -(1 << (p + 1)) + q
    a = p + m
    if a >= 0:
        n0 = b >> a
        t = b - (n0 << a)
        return [(TransIndex((1 << a) + t, n0), 1.0 + 0j)]
    u = -a
    count = _shift_count(u)
    amp = _pow2h(a)
    lo = b << u
    half = 1 << (u - 1)
    out = []
    for n in range(lo, lo + count):
        val = amp if (n - lo) < half else -amp
        out.append((TransIndex(0, n), complex(val)))
    return out


def reference_row(A, i, n, w):
    """Row (i, n) of ``A`` up to the window's top scale, with its clipped mass."""
    return _haar_row(i, n, w.dil_range[1]) if A.fam.name == "haar" else A.row(i, n, w)


def reference_column(A, s, j, m, w):
    """Column (s, j, m) of ``A`` within the window, with its clipped mass."""
    return (_haar_column(s, j, m), 0.0) if A.fam.name == "haar" else A.column(s, j, m, w)
