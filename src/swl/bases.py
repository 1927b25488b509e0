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
as atoms: polynomial pieces times e^{2 pi i freq x} on half-open dyadic
intervals.  Supports, point values (on scalars or whole arrays) and the
oracle's exact inner products all read the atoms.

All intervals are half-open [a, b); pointwise values at breakpoints follow
the left-closed rule.  This is a measure-zero convention with no effect on
any integral, fixed once so evaluation is deterministic.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .core import DilIndex, MINUS, PLUS, TransIndex, ceil_float


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


def split_haar_label(label: int) -> tuple[int, int]:
    """Decompose a positive Haar label 2^p + q into (p, q) with 0 <= q < 2^p."""
    if label <= 0:
        raise InvalidLabelError(f"wavelet labels are positive, got {label}")
    p = label.bit_length() - 1
    return p, label - (1 << p)


# -- atoms: p(x) * e^{2 pi i freq x} on [a, b) ---------------------------------

class Atom(NamedTuple):
    """One polynomial-times-exponential piece; coefficients in increasing degree."""

    a: Fraction
    b: Fraction
    coeffs: tuple[complex, ...]
    freq: Fraction


_NO_FREQ = Fraction(0)
_TICKS = 53  # phases are counted in 2^-53 turns
_TICK_MASK = (1 << _TICKS) - 1


def _box_atom(a: int, b: int, freq: Fraction = _NO_FREQ) -> Atom:
    # 2^{a/2} e^{2 pi i freq x} on [b 2^-a, (b+1) 2^-a)
    step = Fraction(2) ** (-a)
    return Atom(b * step, (b + 1) * step, (math.sqrt(2.0 ** a) + 0j,), freq)


def _psi_atoms(a: int, b: int) -> tuple[Atom, Atom]:
    # 2^{a/2} psi(2^a x - b): +2^{a/2}, then -2^{a/2}, on the halves of the box at scale a
    step = Fraction(2) ** (-a)
    amp = math.sqrt(2.0 ** a)
    lo, mid, hi = b * step, (b + Fraction(1, 2)) * step, (b + 1) * step
    return Atom(lo, mid, (amp + 0j,), _NO_FREQ), Atom(mid, hi, (-amp + 0j,), _NO_FREQ)


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


def _turns(freq: Fraction, x: np.ndarray) -> np.ndarray:
    """freq * x in turns, reduced to within two 2^-53 turns of its value modulo one.

    ``freq`` is dyadic, odd * 2^e.  Scaling x by 2^e and dropping the
    integer part are exact.  The fraction is split into whole 2^-53 turns,
    multiplied by ``odd`` exactly in wrapping 64-bit arithmetic, and a
    remainder below one such turn, multiplied in floating point; the bound
    holds for |odd| < 2^53.
    """
    num, den = freq.numerator, freq.denominator
    low_bit = (num & -num).bit_length()
    odd = num >> (low_bit - 1)
    rest, ticks = np.modf(np.ldexp(np.modf(np.ldexp(x, low_bit - den.bit_length()))[0], _TICKS))
    ticks = (ticks.astype(np.int64).view(np.uint64) * np.uint64(odd & _TICK_MASK)) & _TICK_MASK
    return np.ldexp(ticks.astype(float) + rest * odd, -_TICKS)


def _evaluate(atoms, x):
    """Pointwise sum of atoms, left-closed at every breakpoint.

    ``x`` is a scalar or an array; a scalar gives a complex scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape, dtype=complex)
    for at in atoms:
        sel = (x >= ceil_float(at.a)) & (x < ceil_float(at.b))
        xs = x[sel]
        val = np.zeros(xs.shape, dtype=complex)
        for c in reversed(at.coeffs):
            val = val * xs + c
        if at.freq:
            val *= np.exp(2j * np.pi * _turns(at.freq, xs))
        out[sel] = val
    return out[()]


@dataclass(frozen=True)
class BasisElement:
    """A single basis function bound to its family.

    Its atoms are the one description: the support, the point values and
    the oracle's exact inner products all read them.
    """

    fam: BasisFamily
    index: TransIndex | DilIndex

    def atoms(self) -> tuple[Atom, ...]:
        """Atoms in increasing position."""
        if isinstance(self.index, TransIndex):
            i, n = self.index
            if self.fam.name == "exponential":
                return (_box_atom(0, n, Fraction(i)),)
            if i == 0:
                return (_box_atom(0, n),)
            p, q = split_haar_label(i)
            return _psi_atoms(p, q + (n << p))
        s, j, m = self.index
        if self.fam.name == "exponential":
            return (_box_atom(m, 1 if s == PLUS else -2, j * Fraction(2) ** m),)
        kind, a, b = haar_dil_atom(s, j, m)
        return (_box_atom(a, b),) if kind == "phi" else _psi_atoms(a, b)

    def evaluate(self, x):
        return _evaluate(self.atoms(), x)

    def support(self) -> tuple[Fraction, Fraction]:
        atoms = self.atoms()
        return atoms[0].a, atoms[-1].b


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
    def atoms(self) -> tuple[Atom, ...] | None:
        """The pieces as atoms of frequency 0; None for the gaussian."""
        if self.kind == "gaussian":
            return None
        return tuple(Atom(lo, hi, coeffs, _NO_FREQ) for lo, hi, coeffs in self.pieces)

    def evaluate(self, x):
        """Value at a scalar or at every point of an array."""
        if self.kind == "gaussian":
            x = np.asarray(x, dtype=float)
            return (np.exp(-(x * x) / (2.0 * self.sigma * self.sigma)) + 0j)[()]
        return _evaluate(self.atoms(), x)

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


def apply_DT(spec: FunctionSpec, p: int, q: int) -> FunctionSpec:
    """Exact D^p T^q on a piecewise spec."""
    return dilate_spec(translate_spec(spec, q), p)


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
