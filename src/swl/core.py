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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, NamedTuple

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


def cis_frac(turns: Fraction) -> complex:
    """e^{2*pi*i*turns} with the angle reduced exactly before rounding.

    ``turns`` is in whole turns, not radians; reducing mod 1 in exact
    rational arithmetic keeps the phase accurate for large frequencies.
    """
    t = float(turns % 1)
    return complex(math.cos(_TWO_PI * t), math.sin(_TWO_PI * t))


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


class _SparseCoords:
    """Common machinery of the two coordinate-vector types."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping | Iterable = ()):
        data: dict = {}
        items = entries.items() if isinstance(entries, Mapping) else entries
        for key, val in items:
            key = self._check_key(key)
            z = complex(val)
            if key in data:
                z += data[key]
            data[key] = z
        data = {k: v for k, v in data.items() if abs(v) > DROP_THRESHOLD}
        object.__setattr__(self, "_entries", data)

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
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self) -> Iterator:
        return iter(self._entries)

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self._entries == other._entries

    def __repr__(self) -> str:
        body = ", ".join(f"{k}: {v:.6g}" for k, v in sorted(self._entries.items())[:6])
        more = "" if len(self._entries) <= 6 else f", ... ({len(self._entries)} entries)"
        return f"{type(self).__name__}({{{body}{more}}})"

    def __setattr__(self, *a):  # pragma: no cover - defensive
        raise AttributeError(f"{type(self).__name__} is immutable")

    # -- algebra ----------------------------------------------------------
    def norm_sq(self) -> float:
        return math.fsum(v.real * v.real + v.imag * v.imag for v in self._entries.values())

    def scaled(self, factor: complex):
        return type(self)((k, factor * v) for k, v in self._entries.items())

    def plus(self, other: "_SparseCoords"):
        out = dict(self._entries)
        for k, v in other.items():
            out[k] = out.get(k, 0j) + v
        return type(self)(out)

    @staticmethod
    def _check_key(key):  # pragma: no cover - overridden
        raise NotImplementedError

    @classmethod
    def _from_clean(cls, data: Mapping):
        """Internal fast path: keys already validated by the producer."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "_entries", {k: v for k, v in data.items() if abs(v) > DROP_THRESHOLD})
        return obj


class FCoordVec(_SparseCoords):
    """Sparse translation-model coordinate vector: (i, n) -> complex."""

    @staticmethod
    def _check_key(key) -> TransIndex:
        i, n = key
        return TransIndex(int(i), int(n))


class GCoordVec(_SparseCoords):
    """Sparse dilation-model coordinate vector: (s, j, m) -> complex."""

    @staticmethod
    def _check_key(key) -> DilIndex:
        s, j, m = key
        s = int(s)
        if s not in (PLUS, MINUS):
            raise ValueError(f"sign component must be +1 or -1, got {s!r}")
        return DilIndex(s, int(j), int(m))


def coord_norm_sq(v: FCoordVec | GCoordVec) -> float:
    """Sum of squared moduli of all stored entries."""
    return v.norm_sq()


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
        worst = sorted(res.items(), key=lambda kv: (-kv[1], repr(kv[0])))
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
    return "".join(_canon(obj))


def _canon(obj):
    if obj is None:
        yield "null"
    elif obj is True:
        yield "true"
    elif obj is False:
        yield "false"
    elif isinstance(obj, str):
        import json as _json

        yield _json.dumps(obj)
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, float):
        if math.isnan(obj) or math.isinf(obj):
            raise ValueError("non-finite float in report")
        yield format(obj, ".17g")
    elif isinstance(obj, complex):
        yield from _canon({"re": obj.real, "im": obj.imag})
    elif isinstance(obj, Mapping):
        yield "{"
        first = True
        for key in sorted(obj.keys(), key=str):
            if not first:
                yield ","
            first = False
            import json as _json

            yield _json.dumps(str(key))
            yield ":"
            yield from _canon(obj[key])
        yield "}"
    elif isinstance(obj, (list, tuple)):
        yield "["
        for pos, item in enumerate(obj):
            if pos:
                yield ","
            yield from _canon(item)
        yield "]"
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
