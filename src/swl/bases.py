"""Concrete basis families and symbolic test functions.

Two families are supported, both with dilation ratio 2 and translation
step 1:

* ``exponential`` -- labels run over all integers; the generators are the
  complex exponentials e^{2*pi*i*k*x} restricted to [0,1) on the
  translation side and to [1,2) / [-2,-1) on the dilation side.
* ``haar`` -- labels run over the non-negative integers with the composite
  label 2^p + q standing for the Haar wavelet at scale p and offset q
  (recovered by bit inspection); label 0 is the box function.

Every basis element and every piecewise test function is described once,
as atoms in integers: (lo, hi, exp, coeffs, fnum, fexp) is the polynomial
``coeffs`` times e^{2 pi i fnum 2^fexp x} on [lo 2^-exp, hi 2^-exp).
``int_atoms`` gives a basis element's and is the scalar definition: a
basis element's support, its point values (on scalars or whole arrays)
and ``factor_atoms`` (the atoms of any factor; a piecewise FunctionSpec's
pieces at frequency 0) read it.  ``window_atoms`` builds the atoms of
every element of a window at once, as integer columns equal entry for
entry to ``int_atoms`` over the keys; the oracle's grids read those, on
both of its routes.

All intervals are half-open [a, b); pointwise values at breakpoints follow
the left-closed rule.  This is a measure-zero convention with no effect on
any integral, fixed once so evaluation is deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (_WIDE, DilIndex, MINUS, PLUS, TransIndex, bit_length, ceil_float, int_columns,
                   sign_char, sorted_unique)


class InvalidLabelError(ValueError):
    """A basis label outside the family's declared index set."""


class UnboundedSupportError(ValueError):
    """An operation that needs compact support got a function without one."""


@dataclass(frozen=True)
class BasisFamily:
    """One of the two concrete basis families, both with dilation ratio 2
    and translation step 1."""

    name: str

    def __post_init__(self):
        if self.name not in ("exponential", "haar"):
            raise ValueError(f"unknown basis family {self.name!r}")


EXPONENTIAL = BasisFamily("exponential")
HAAR = BasisFamily("haar")


def family(name: str) -> BasisFamily:
    if name == "exponential":
        return EXPONENTIAL
    if name == "haar":
        return HAAR
    raise ValueError(f"unknown basis family {name!r}")


def check_trans_label(fam: BasisFamily, i: int) -> int:
    i = int(i)
    if fam.name == "haar" and i < 0:
        raise InvalidLabelError(f"haar labels are non-negative, got i={i}")
    return i


def check_dil_label(fam: BasisFamily, s: int, j: int) -> tuple[int, int]:
    if s not in (PLUS, MINUS):
        raise InvalidLabelError(f"sign must be +1 or -1, got {s!r}")
    j = int(j)
    if fam.name == "haar" and j < 0:
        raise InvalidLabelError(f"haar labels are non-negative, got j={j}")
    return s, j


def check_dil_labels(fam: BasisFamily, labels) -> list[tuple[int, int]]:
    """The completeness labels (s, j) as ints, each by ``check_dil_label``.
    No labels, or a label given twice, raises ``InvalidLabelError`` that
    names it: a rank of 0 of 0 tests nothing, and a repeated label is a
    repeated column, which no wavelet's matrix can give full rank."""
    labels = [check_dil_label(fam, int(s), int(j)) for s, j in labels]
    if not labels:
        raise InvalidLabelError("no completeness labels to test")
    seen = set()
    for s, j in labels:
        if (s, j) in seen:
            raise InvalidLabelError(f"completeness label {sign_char(s)}{j} is given twice")
        seen.add((s, j))
    return labels


def split_haar_label(label: int) -> tuple[int, int]:
    """Decompose a positive Haar label 2^p + q into (p, q) with 0 <= q < 2^p."""
    if label <= 0:
        raise InvalidLabelError(f"wavelet labels are positive, got {label}")
    p = label.bit_length() - 1
    return p, label - (1 << p)


# -- atoms: p(x) * e^{2 pi i fnum 2^fexp x} on [lo 2^-exp, hi 2^-exp) ----------

_TICKS = 53  # phases are counted in 2^-53 turns
_TICK_MASK = (1 << _TICKS) - 1


def _amplitude(a: int) -> float:
    # 2^{a/2}: 0.0 below scale -1074, and OverflowError past scale 1023
    if a > 1023:
        raise OverflowError(f"scale {a} is past 1023, where the amplitude 2^(scale/2) "
                            "leaves double range")
    return math.sqrt(2.0 ** a)


def _box(a: int, b: int, k: int = 0, e: int = 0) -> tuple[tuple, ...]:
    # 2^{a/2} e^{2 pi i k 2^e x} on [b 2^-a, (b+1) 2^-a)
    return ((b, b + 1, a, (_amplitude(a) + 0j,), k, e),)


def _psi(a: int, b: int) -> tuple[tuple, ...]:
    # 2^{a/2} psi(2^a x - b): +2^{a/2}, then -2^{a/2}, on the halves of the box at scale a
    amp = _amplitude(a)
    b *= 2
    return ((b, b + 1, a + 1, (amp + 0j,), 0, 0), (b + 1, b + 2, a + 1, (-amp + 0j,), 0, 0))


def _dyadic(num: int, exp: int) -> Fraction:
    # num 2^-exp
    return Fraction(num, 1 << exp) if exp >= 0 else Fraction(num << -exp)


def haar_dil_atom(s: int, j: int, m: int) -> tuple[str, int, int]:
    """Map a Haar dilation-side index to a concrete ("psi"|"phi", scale, shift).

    The positive branch at scale 0 is the orthonormal Haar basis of
    L2[1,2): the box on [1,2) plus the wavelets supported there; the
    negative branch mirrors it on [-2,-1).  Dilating by 2^m shifts the
    wavelet scale by m.
    """
    if j == 0:
        return ("phi", m, 1 if s == PLUS else -2)
    p, q = split_haar_label(j)
    if s == PLUS:
        return ("psi", p + m, (1 << p) + q)
    return ("psi", p + m, -(1 << (p + 1)) + q)


def _turns(fnum, fexp, x: np.ndarray) -> np.ndarray:
    """fnum 2^fexp x in turns, reduced to within two 2^-53 turns of its value modulo one.

    The frequency is odd * 2^e with ``odd`` = fnum without its trailing
    zero bits.  Scaling x by 2^e and dropping the integer part are exact.
    The fraction is split into whole 2^-53 turns, multiplied by ``odd``
    exactly in wrapping 64-bit arithmetic, and a remainder below one such
    turn, multiplied in floating point; the bound holds for |odd| < 2^53.
    ``fnum`` and ``fexp`` are ints, or integer arrays (int64 or Python ints)
    with one entry per x; each entry gives the bits its scalar call gives.
    """
    if isinstance(fnum, np.ndarray):
        zeros = bit_length(fnum & -fnum).astype(np.int64) - 1
        odd = fnum >> zeros
        shift, mult = (fexp + zeros).astype(np.int64), (odd & _TICK_MASK).astype(np.uint64)
        odd = odd.astype(float)  # rounded as a Python int is in ``rest * odd``
    else:
        zeros = (fnum & -fnum).bit_length() - 1
        odd = fnum >> zeros
        shift, mult = fexp + zeros, np.uint64(odd & _TICK_MASK)
    rest, ticks = np.modf(np.ldexp(np.modf(np.ldexp(x, shift))[0], _TICKS))
    ticks = (ticks.astype(np.int64).view(np.uint64) * mult) & _TICK_MASK
    return np.ldexp(ticks.astype(float) + rest * odd, -_TICKS)


def _evaluate(atoms, x):
    """Pointwise sum of integer atoms, left-closed at every breakpoint.

    ``x`` is a scalar or an array; a scalar gives a complex scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for lo, hi, exp, coeffs, fnum, fexp in atoms:
        sel = (x >= ceil_float(_dyadic(lo, exp))) & (x < ceil_float(_dyadic(hi, exp)))
        xs = x[sel]
        val = np.zeros(xs.shape, dtype=complex)
        for c in reversed(coeffs):
            val = val * xs + c
        if fnum:
            val *= np.exp(2j * np.pi * _turns(fnum, fexp, xs))
        out[sel] = val
    return out[()]


def int_atoms(fam: BasisFamily, index) -> tuple[tuple, ...]:
    """The one description of a basis element: its atoms in integers.

    An atom (lo, hi, exp, coeffs, fnum, fexp) is the polynomial ``coeffs``
    (increasing degree) times e^{2 pi i fnum 2^fexp x} on
    [lo 2^-exp, hi 2^-exp).  ``index`` is an (i, n) or (s, j, m) tuple of a
    valid label.
    """
    if len(index) == 2:
        i, n = index
        if fam.name == "exponential":
            return _box(0, n, i)
        if i == 0:
            return _box(0, n)
        p, q = split_haar_label(i)
        return _psi(p, q + (n << p))
    s, j, m = index
    if fam.name == "exponential":
        return _box(m, 1 if s == PLUS else -2, j, m)
    kind, a, b = haar_dil_atom(s, j, m)
    return _box(a, b) if kind == "phi" else _psi(a, b)


def window_atoms(fam: BasisFamily, key_columns) -> tuple[np.ndarray, ...]:
    """The atoms of every element of a window, built as columns in one step.

    ``key_columns`` are the (i, n) or (s, j, m) columns of valid labels, as
    ``core.key_columns`` gives them.  The result is (owner, lo, hi, exp,
    amplitude, fnum, fexp): atom k is the constant ``amplitude[k]`` times
    e^{2 pi i fnum 2^fexp x} on [lo 2^-exp, hi 2^-exp), an atom of the
    element ``owner[k]``.  Entry for entry, these are the atoms of
    ``int_atoms`` over the keys in order, amplitudes rounded alike (so a
    scale past 1023 raises ``OverflowError``).  The integer columns are
    int64 while every value is below 2^62 in magnitude, else object arrays
    of Python ints.
    """
    cols = tuple(key_columns)
    top = max((max(-int(c.min()), int(c.max())) for c in cols if len(c)), default=0)
    # a bound on every value the arithmetic below makes
    bound = top + 2 if fam.name == "exponential" else (top + 2) << (top.bit_length() + 3)
    wide = bound >= _WIDE or any(c.dtype == object for c in cols)
    if wide:
        cols = tuple(c.astype(object) for c in cols)
    zeros = cols[0] * 0
    psi = None  # the keys that are wavelets: two atoms each, on the halves of their box
    if len(cols) == 2:
        label, n = cols
        if fam.name == "exponential":
            a, b, fnum, fexp = zeros, n, label, zeros
        else:
            p = bit_length(label | 1) - 1
            psi = label > 0
            a, b = np.where(psi, p, 0), np.where(psi, label - (1 << p) + (n << p), n)
    else:
        s, label, m = cols
        b = np.where(s == PLUS, 1, -2)  # the box on [1, 2) or [-2, -1) at scale m
        if fam.name == "exponential":
            a, fnum, fexp = m, label, m
        else:
            p = bit_length(label | 1) - 1
            psi = label > 0
            a = np.where(psi, p + m, m)
            b = np.where(psi, np.where(s == PLUS, label, label - (3 << p)), b)
    if fam.name == "haar":
        fnum = fexp = zeros
    scales, at = sorted_unique(a, return_inverse=True)
    amp = np.array([_amplitude(int(v)) for v in scales.tolist()])[at]
    owner = np.arange(len(a))
    if psi is not None and psi.any():
        owner = np.repeat(owner, psi + 1)
        second = np.zeros(len(owner), dtype=bool)
        second[1:] = owner[1:] == owner[:-1]
        a, b = (a + psi)[owner], np.where(psi, 2 * b, b)[owner] + second
        # -amp + 0j rounds the sign of -0.0 away
        amp = np.where(second, -amp[owner], amp[owner]) + 0.0
        fnum, fexp = fnum[owner], fexp[owner]
    ints = (b, b + 1, a, fnum, fexp)
    lo, hi, exp, fnum, fexp = int_columns(ints) if wide else ints
    return owner, lo, hi, exp, amp, fnum, fexp


def factor_atoms(factor) -> tuple[tuple, ...] | None:
    """The integer atoms of a basis element or FunctionSpec, None for the
    gaussian: a piecewise spec's pieces at frequency 0, each on the
    coarsest 2^-exp that holds both of its ends."""
    if isinstance(factor, BasisElement):
        return int_atoms(factor.fam, factor.index)
    if factor.kind == "gaussian":
        return None
    out = []
    for lo, hi, coeffs in factor.pieces:
        la, lb = lo.denominator.bit_length() - 1, hi.denominator.bit_length() - 1
        exp = max(la, lb)
        out.append((lo.numerator << (exp - la), hi.numerator << (exp - lb), exp, coeffs, 0, 0))
    return tuple(out)


@dataclass(frozen=True)
class BasisElement:
    """A single basis function bound to its family.

    Its atoms, read from ``int_atoms``, are the one description: the
    support, the point values and the oracle's inner products all read
    them.
    """

    fam: BasisFamily
    index: TransIndex | DilIndex

    def evaluate(self, x):
        return _evaluate(int_atoms(self.fam, self.index), x)

    def support(self) -> tuple[Fraction, Fraction]:
        atoms = int_atoms(self.fam, self.index)
        return _dyadic(atoms[0][0], atoms[0][2]), _dyadic(atoms[-1][1], atoms[-1][2])


def L_elem(fam: BasisFamily, i: int, n: int) -> BasisElement:
    return BasisElement(fam, TransIndex(check_trans_label(fam, i), int(n)))


def K_elem(fam: BasisFamily, s: int, j: int, m: int) -> BasisElement:
    s, j = check_dil_label(fam, s, j)
    return BasisElement(fam, DilIndex(s, j, int(m)))


# -- symbolic test functions --------------------------------------------------

Piece = tuple[Fraction, Fraction, tuple[complex, ...]]


@dataclass(frozen=True)
class FunctionSpec:
    """Symbolic square-integrable test function.

    Either a finite list of polynomial pieces on disjoint half-open
    intervals with dyadic-rational breakpoints, or the gaussian preset
    exp(-x^2 / (2 sigma^2)) (peak value 1).
    """

    kind: str  # "piecewise" | "gaussian"
    pieces: tuple[Piece, ...] = ()
    sigma: float = 0.0
    label: str = ""

    def __post_init__(self):
        if self.kind == "piecewise":
            prev_hi = None
            for lo, hi, coeffs in self.pieces:
                if not (_is_dyadic(lo) and _is_dyadic(hi)):
                    raise ValueError(f"breakpoints must be dyadic rationals, got [{lo}, {hi})")
                if hi <= lo:
                    raise ValueError(f"empty piece [{lo}, {hi})")
                if prev_hi is not None and lo < prev_hi:
                    raise ValueError("pieces must be disjoint and sorted")
                prev_hi = hi
        elif self.kind == "gaussian":
            if self.sigma <= 0:
                raise ValueError("gaussian sigma must be positive")
        else:
            raise ValueError(f"unknown FunctionSpec kind {self.kind!r}")

    # constructors
    @staticmethod
    def piecewise(pieces, label: str = "") -> "FunctionSpec":
        norm = tuple(
            (Fraction(lo), Fraction(hi), tuple(complex(c) for c in coeffs))
            for lo, hi, coeffs in sorted(pieces, key=lambda p: Fraction(p[0]))
        )
        return FunctionSpec("piecewise", norm, label=label)

    @staticmethod
    def haar_scaling() -> "FunctionSpec":
        return FunctionSpec.piecewise([(0, 1, (1,))], label="haar_scaling")

    @staticmethod
    def haar_wavelet() -> "FunctionSpec":
        return FunctionSpec.piecewise(
            [(0, Fraction(1, 2), (1,)), (Fraction(1, 2), 1, (-1,))], label="haar_wavelet"
        )

    @staticmethod
    def indicator(a, b) -> "FunctionSpec":
        return FunctionSpec.piecewise([(a, b, (1,))], label=f"indicator({a},{b})")

    @staticmethod
    def gaussian(sigma: float = 1.0) -> "FunctionSpec":
        return FunctionSpec("gaussian", sigma=float(sigma), label=f"gaussian({sigma})")

    @staticmethod
    def zero() -> "FunctionSpec":
        return FunctionSpec("piecewise", (), label="zero")

    # behaviour
    def evaluate(self, x):
        """Value at a scalar or at every point of an array."""
        if self.kind == "gaussian":
            x = np.asarray(x, dtype=float)
            return (np.exp(-(x * x) / (2.0 * self.sigma * self.sigma)) + 0j)[()]
        return _evaluate(factor_atoms(self), x)

    def support(self) -> tuple[Fraction, Fraction] | None:
        """Support interval, or None for the empty (zero) function."""
        if self.kind == "gaussian":
            half = Fraction(10 * self.sigma).limit_denominator(1 << 20)
            return -half, half
        if not self.pieces:
            return None
        return self.pieces[0][0], self.pieces[-1][1]

    def is_compact(self) -> bool:
        return self.kind == "piecewise"


def translate_spec(spec: FunctionSpec, q: int) -> FunctionSpec:
    """Exact T^q: x -> x - q on a piecewise-polynomial spec."""
    if not spec.is_compact():
        raise UnboundedSupportError("translate_spec needs a piecewise spec")
    out = []
    for lo, hi, coeffs in spec.pieces:
        out.append((lo + q, hi + q, _poly_shift(coeffs, -q)))
    return FunctionSpec.piecewise(out, label=f"T^{q}({spec.label})")


def dilate_spec(spec: FunctionSpec, p: int) -> FunctionSpec:
    """Exact D^p: f(x) -> 2^{p/2} f(2^p x) on a piecewise-polynomial spec."""
    if not spec.is_compact():
        raise UnboundedSupportError("dilate_spec needs a piecewise spec")
    amp = math.sqrt(2.0 ** p)
    factor = Fraction(2) ** p
    out = []
    for lo, hi, coeffs in spec.pieces:
        scaled = tuple(amp * c * (2.0 ** p) ** k for k, c in enumerate(coeffs))
        out.append((lo / factor, hi / factor, scaled))
    return FunctionSpec.piecewise(out, label=f"D^{p}({spec.label})")


def _poly_shift(coeffs: tuple[complex, ...], a) -> tuple[complex, ...]:
    # p(x + a) expanded in x
    a = complex(a)
    out = [0j] * len(coeffs)
    for k, c in enumerate(coeffs):
        for l in range(k + 1):
            out[l] += c * math.comb(k, l) * a ** (k - l)
    return tuple(out)


def _is_dyadic(x: Fraction) -> bool:
    d = Fraction(x).denominator
    return d & (d - 1) == 0


# -- mini-language ------------------------------------------------------------

_NUM = r"-?\d+(?:/\d+|\.\d+)?"
_PRESET_RE = re.compile(r"^(haar_wavelet|haar_scaling|zero)$")
_INDICATOR_RE = re.compile(rf"^indicator\(\s*({_NUM})\s*,\s*({_NUM})\s*\)$")
_GAUSSIAN_RE = re.compile(r"^gaussian\(\s*(\d+(?:\.\d+)?(?:/\d+)?)\s*\)$")
_PIECEWISE_RE = re.compile(r"^piecewise\[(.*)\]$", re.DOTALL)
_PIECE_RE = re.compile(rf"^\(\s*({_NUM})\s*,\s*({_NUM})\s*\)\s*:\s*(.+)$")


class SpecParseError(ValueError):
    """Malformed FunctionSpec text."""


def _parse_number(text: str) -> Fraction:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad numeric literal {text!r}") from exc


def _parse_poly(text: str) -> tuple[complex, ...]:
    # c0 + c1*x + c2*x^2 ...; '**' also accepted for exponents
    text = text.replace("**", "^").replace(" ", "")
    if not text:
        raise SpecParseError("empty polynomial")
    terms = re.findall(r"[+-]?[^+-]+", text)
    coeffs: dict[int, complex] = {}
    for term in terms:
        m = re.match(rf"^([+-]?)((?:{_NUM}))?(?:\*?x(?:\^(\d+))?)?$", term)
        if not m or (m.group(2) is None and "x" not in term):
            raise SpecParseError(f"bad polynomial term {term!r}")
        sign = -1 if m.group(1) == "-" else 1
        coeff = float(_parse_number(m.group(2))) if m.group(2) else 1.0
        power = int(m.group(3)) if m.group(3) else (1 if "x" in term else 0)
        coeffs[power] = coeffs.get(power, 0j) + sign * coeff
    top = max(coeffs)
    return tuple(coeffs.get(k, 0j) for k in range(top + 1))


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse the FunctionSpec mini-language.

    Accepted forms: ``haar_wavelet``, ``haar_scaling``, ``zero``,
    ``indicator(a,b)``, ``gaussian(sigma)`` and
    ``piecewise[(a,b):c0+c1*x+...; ...]`` with dyadic-rational literals
    like ``3/8``.
    """
    text = text.strip()
    if _PRESET_RE.match(text):
        return {
            "haar_wavelet": FunctionSpec.haar_wavelet,
            "haar_scaling": FunctionSpec.haar_scaling,
            "zero": FunctionSpec.zero,
        }[text]()
    m = _INDICATOR_RE.match(text)
    if m:
        a, b = _parse_number(m.group(1)), _parse_number(m.group(2))
        if not (_is_dyadic(a) and _is_dyadic(b)):
            raise SpecParseError("indicator endpoints must be dyadic rationals")
        if b <= a:
            raise SpecParseError("indicator needs a < b")
        return FunctionSpec.indicator(a, b)
    m = _GAUSSIAN_RE.match(text)
    if m:
        return FunctionSpec.gaussian(float(_parse_number(m.group(1))))
    m = _PIECEWISE_RE.match(text)
    if m:
        pieces = []
        for chunk in m.group(1).split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            pm = _PIECE_RE.match(chunk)
            if not pm:
                raise SpecParseError(f"bad piece {chunk!r}")
            lo, hi = _parse_number(pm.group(1)), _parse_number(pm.group(2))
            if not (_is_dyadic(lo) and _is_dyadic(hi)):
                raise SpecParseError("piece breakpoints must be dyadic rationals")
            pieces.append((lo, hi, _parse_poly(pm.group(3))))
        if not pieces:
            raise SpecParseError("piecewise[] needs at least one piece")
        try:
            return FunctionSpec.piecewise(pieces, label=text)
        except ValueError as exc:
            raise SpecParseError(str(exc)) from exc
    raise SpecParseError(f"cannot parse function spec {text!r}")
