"""Closed-form change-of-representation coefficients and coordinate transfer.

``alpha_entry(family, i, n, s, j, m)`` returns the inner product of the
translated basis function (i, n) against the dilated basis function
(s, j, m).  The values come from per-family case tables; every case has
been cross-validated against the brute-force integration oracle (see the
test suite), which is the point of keeping the two routes separate.

The Haar family has one value table, the row enumeration ``_haar_row``:
a Haar entry is read from its row.  The column table ``_haar_column`` is
coded independently as the transpose, so the two cross-check each other,
and the oracle stays the outside check on both.

Row/column structure
--------------------
Haar rows are finite except for four case families whose entries form a
geometric ladder in the scale exponent m (rows (0, 0), (2^r, 0), (0, -1)
and (2^{r+1}-1, -1)); those ladders are truncated at the window's upper
scale bound and the clipped l2 mass is reported.  Haar columns are always
finite.  Exponential rows and columns are infinite in the label direction
with ~1/label decay and are clipped to the window's label set; again the
clipped mass is reported exactly as 1 - (captured mass).

Transfer directions follow the change-of-representation identities:
dilation coordinates are ``sum alpha * f_hat`` and translation
coordinates are ``sum conj(alpha) * f_tilde``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .bases import BasisFamily, check_dil_label, check_trans_label, split_haar_label
from .core import (
    DilIndex,
    FCoordVec,
    GCoordVec,
    MINUS,
    PLUS,
    TransIndex,
    Window,
    cis_frac,
)

_SQRT1_2 = math.sqrt(0.5)


def _pow2h(m: int) -> float:
    # 2^{m/2}
    return math.sqrt(2.0 ** m)


def _is_pow2(x: int) -> bool:
    return x > 0 and (x & (x - 1)) == 0


def bit_sign_exponent(u: int, v: int, p: int) -> int:
    """Sign exponent for the coarse-box rows: bit u-p-1 of the offset v."""
    return (v >> (u - p - 1)) & 1


# -- exponential family -------------------------------------------------------

def _alpha_exp(k: int, n: int, s: int, j: int, m: int) -> complex:
    if n == 0 or n == -1:
        want = PLUS if n == 0 else MINUS
        if s != want or m <= 0:
            return 0j
        if k == j * (1 << m):
            return complex(_pow2h(-m))
        sgn = 1 if n == 0 else -1
        e = cis_frac(Fraction(sgn * k, 1 << m))
        return sgn * -1j * _pow2h(m) * e * (e - 1.0) / (2.0 * math.pi * (k - j * (1 << m)))
    if n == 1:
        return complex(1.0) if (s == PLUS and m == 0 and k == j) else 0j
    if n == -2:
        return complex(1.0) if (s == MINUS and m == 0 and k == j) else 0j
    if n >= 2:
        p = n.bit_length() - 1
        q = n - (1 << p)
        if s != PLUS or m != -p:
            return 0j
        if k * (1 << p) == j:
            return complex(_pow2h(-p))
        e1 = cis_frac(Fraction(-j * q, 1 << p))
        e2 = cis_frac(Fraction(-j, 1 << p))
        return -1j * _pow2h(p) * e1 * (e2 - 1.0) / (2.0 * math.pi * (k * (1 << p) - j))
    # n <= -3, parametrized as n = -2^p - q - 1
    np_ = -n - 1
    p = np_.bit_length() - 1
    q = np_ - (1 << p)
    if s != MINUS or m != -p:
        return 0j
    if k * (1 << p) == j:
        return complex(_pow2h(-p))
    e1 = cis_frac(Fraction(j * q, 1 << p))
    e2 = cis_frac(Fraction(j, 1 << p))
    return 1j * _pow2h(p) * e1 * (e2 - 1.0) / (2.0 * math.pi * (k * (1 << p) - j))


def _exp_row(k: int, n: int, w: Window) -> list[tuple[DilIndex, complex]]:
    m_lo, m_hi = w.dil_range
    out = []
    if n == 0 or n == -1:
        s = PLUS if n == 0 else MINUS
        js = [j for sg, j in w.dil_labels if sg == s]
        for m in range(max(1, m_lo), m_hi + 1):
            for j in js:
                val = _alpha_exp(k, n, s, j, m)
                if val != 0j:
                    out.append((DilIndex(s, j, m), val))
        return out
    if n == 1 or n == -2:
        s = PLUS if n == 1 else MINUS
        if m_lo <= 0 <= m_hi and (s, k) in set(w.dil_labels):
            out.append((DilIndex(s, k, 0), 1.0 + 0j))
        return out
    s = PLUS if n >= 2 else MINUS
    np_ = n if n >= 2 else -n - 1
    p = np_.bit_length() - 1
    if not (m_lo <= -p <= m_hi):
        return out
    for sg, j in w.dil_labels:
        if sg != s:
            continue
        val = _alpha_exp(k, n, s, j, -p)
        if val != 0j:
            out.append((DilIndex(s, j, -p), val))
    return out


def _exp_column(s: int, j: int, m: int, w: Window) -> list[tuple[TransIndex, complex]]:
    n_lo, n_hi = w.trans_range
    labels = w.trans_labels
    out = []
    if m == 0:
        n = 1 if s == PLUS else -2
        if n_lo <= n <= n_hi and j in labels:
            out.append((TransIndex(j, n), 1.0 + 0j))
        return out
    if m > 0:
        n = 0 if s == PLUS else -1
        if n_lo <= n <= n_hi:
            for k in labels:
                val = _alpha_exp(k, n, s, j, m)
                if val != 0j:
                    out.append((TransIndex(k, n), val))
        return out
    p = -m
    ns = range(1 << p, 1 << (p + 1)) if s == PLUS else range(-(1 << (p + 1)), -(1 << p))
    for n in ns:
        if not (n_lo <= n <= n_hi):
            continue
        for k in labels:
            val = _alpha_exp(k, n, s, j, m)
            if val != 0j:
                out.append((TransIndex(k, n), val))
    return out


# -- Haar family ---------------------------------------------------------------

def _ladder_tail(r: int, m_hi: int) -> float:
    # clipped mass of a geometric scale ladder whose entries start at m = r + 1
    if m_hi <= r:
        return 1.0
    return 2.0 ** (r - m_hi)


def _haar_row(i: int, n: int, m_hi: int) -> tuple[list[tuple[DilIndex, complex]], float]:
    out: list[tuple[DilIndex, complex]] = []
    if n == 0:
        if i == 0:
            out = [(DilIndex(PLUS, 0, m), complex(_pow2h(-m))) for m in range(1, m_hi + 1)]
            return out, _ladder_tail(0, m_hi)
        if _is_pow2(i):
            r = i.bit_length() - 1
            if r + 1 <= m_hi:
                out.append((DilIndex(PLUS, 0, r + 1), complex(-_SQRT1_2)))
            out.extend(
                (DilIndex(PLUS, 0, m), complex(_pow2h(r - m))) for m in range(r + 2, m_hi + 1)
            )
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
            out = [(DilIndex(MINUS, 0, m), complex(_pow2h(-m))) for m in range(1, m_hi + 1)]
            return out, _ladder_tail(0, m_hi)
        if _is_pow2(i + 1):
            r = (i + 1).bit_length() - 2
            if r + 1 <= m_hi:
                out.append((DilIndex(MINUS, 0, r + 1), complex(_SQRT1_2)))
            out.extend(
                (DilIndex(MINUS, 0, m), complex(-_pow2h(r - m))) for m in range(r + 2, m_hi + 1)
            )
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


def _haar_column(s: int, j: int, m: int) -> list[tuple[TransIndex, complex]]:
    if j == 0:
        if m > 0:
            n = 0 if s == PLUS else -1
            out = [(TransIndex(0, n), complex(_pow2h(-m)))]
            for r in range(m - 1, -1, -1):
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
        base = (1 << u) if s == PLUS else -(1 << (u + 1))
        return [
            (TransIndex(0, n), complex(_pow2h(m))) for n in range(base, base + (1 << u))
        ]
    # wavelet-type column: a single translated wavelet of the other family
    p, q = split_haar_label(j)
    b = (1 << p) + q if s == PLUS else -(1 << (p + 1)) + q
    a = p + m
    if a >= 0:
        n0 = b >> a
        t = b - (n0 << a)
        return [(TransIndex((1 << a) + t, n0), 1.0 + 0j)]
    u = -a
    amp = _pow2h(a)
    lo = b << u
    half = 1 << (u - 1)
    out = []
    for n in range(lo, lo + (1 << u)):
        val = amp if (n - lo) < half else -amp
        out.append((TransIndex(0, n), complex(val)))
    return out


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
        i, j, m = int(i), int(j), int(m)
        # Only scale-ladder rows grow with the top scale.  Their amplitudes
        # are 2^{(r-m)/2} with r <= i.bit_length(), and 2.0 ** -1075 rounds
        # to 0.0, so past scale i.bit_length() + 1076 every ladder entry is
        # exactly 0.0 in double precision and the row need not go further.
        entries, _ = _haar_row(i, int(n), min(m, i.bit_length() + 1076))
        return dict(entries).get((s, j, m), 0j)

    def row(self, i: int, n: int, w: Window) -> tuple[list[tuple[DilIndex, complex]], float]:
        """Nonzero entries of row (i, n) within the window, plus clipped mass.

        Rows have unit mass.  Haar scale-ladder tails are summed in closed
        form (they would underflow a 1-minus-captured computation);
        exponential clipping is accounted as 1 minus the captured mass.
        """
        check_trans_label(self.fam, i)
        if self.fam.name == "haar":
            return _haar_row(int(i), int(n), w.dil_range[1])
        entries = _exp_row(int(i), int(n), w)
        captured = math.fsum(abs(v) ** 2 for _, v in entries)
        return entries, max(0.0, 1.0 - captured)

    def column(self, s: int, j: int, m: int, w: Window) -> tuple[list[tuple[TransIndex, complex]], float]:
        """Nonzero entries of column (s, j, m) within the window, plus clipped mass.

        Haar columns are finite and enumerated whole, so nothing is clipped;
        exponential clipping is accounted as 1 minus the captured mass.
        """
        check_dil_label(self.fam, s, j)
        if self.fam.name == "haar":
            return _haar_column(s, int(j), int(m)), 0.0
        entries = _exp_column(s, int(j), int(m), w)
        captured = math.fsum(abs(v) ** 2 for _, v in entries)
        return entries, max(0.0, 1.0 - captured)

    def row_case(self, i: int, n: int) -> str:
        """Structural description of a row's support (finite vs scale ladder)."""
        if self.fam.name == "exponential":
            if n in (0, -1):
                return "all labels at every positive scale (window-clipped)"
            if n in (1, -2):
                return "single entry"
            return "all labels at one scale (window-clipped)"
        if n in (0, -1):
            if i == 0 or _is_pow2(i if n == 0 else i + 1):
                return "geometric scale ladder (truncated at the window top)"
            return "single entry"
        if n in (1, -2) or i > 0:
            return "single entry"
        return "coarse box plus one wavelet per intermediate scale"


def alpha_entry(fam: BasisFamily, i: int, n: int, s: int, j: int, m: int) -> complex:
    """Change-of-representation coefficient for one index pair."""
    return AlphaMatrix(fam).entry(i, n, s, j, m)


def alpha_row(fam: BasisFamily, i: int, n: int, w: Window) -> list[tuple[DilIndex, complex]]:
    """All nonzero row entries within the window (see AlphaMatrix.row)."""
    return AlphaMatrix(fam).row(i, n, w)[0]


def g_from_f(v: FCoordVec, A: AlphaMatrix, w: Window,
             tail_sink: list | None = None) -> GCoordVec:
    """Transfer translation-model coordinates to the dilation model.

    Truncation happens only through the window; when ``tail_sink`` is
    given, an l2-norm bound on the clipped part is appended to it.
    """
    out: dict = {}
    tail = 0.0
    for (i, n), val in v.items():
        entries, clipped = A.row(i, n, w)
        for key, a in entries:
            out[key] = out.get(key, 0j) + a * val
        if clipped > 0.0:
            tail += abs(val) * math.sqrt(clipped)
    if tail_sink is not None:
        tail_sink.append(tail)
    return GCoordVec._from_clean(out)


def f_from_g(v: GCoordVec, A: AlphaMatrix, w: Window,
             tail_sink: list | None = None) -> FCoordVec:
    """Adjoint transfer: dilation-model coordinates to the translation model."""
    out: dict = {}
    tail = 0.0
    for (s, j, m), val in v.items():
        entries, clipped = A.column(s, j, m, w)
        for key, a in entries:
            out[key] = out.get(key, 0j) + a.conjugate() * val
        if clipped > 0.0:
            tail += abs(val) * math.sqrt(clipped)
    if tail_sink is not None:
        tail_sink.append(tail)
    return FCoordVec._from_clean(out)
