"""Command-line surface: coordinate dumps, checks and JSON reports.

Every subcommand writes a single JSON document to standard output
(deterministic: sorted keys, 17-significant-digit floats) and exits with
0 on success/pass, 1 when a check fails, 2 on usage or input errors.
Diagnostics go to standard error.

A request builds the top-level parser and then only the parser of the
subcommand it names (``_Command``): the other subcommands' arguments are
never declared.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import __version__
from .alpha import AlphaMatrix
from .bases import BasisFamily, check_dil_label, check_trans_label, family, parse_function_spec
from .core import (
    CheckReport,
    FCoordVec,
    GCoordVec,
    MINUS,
    PLUS,
    Window,
    canonical_json,
    coords_from_doc,
    coords_to_doc,
    sign_char,
    sign_value,
)
from .fourier import (
    check_orthonormal_translates,
    check_scaling_hypotheses,
    haar_scaling_hat,
    indicator_hat,
    modulated,
    multiplication_check,
    periodize,
    shannon_scaling_hat,
    shannon_wavelet_hat,
    zero_hat,
)
from .filters import (
    LaurentPoly,
    check_filter_orthogonality,
    check_pair_conditions,
    construct_wavelet_coords,
    extract_two_scale,
    mirror_filter,
    reconstruct_scaling_coords,
)
from .group_action import act
from .quadrature import (
    g_window_tail_bound,
    inner_product,
    oracle_F_coords,
    oracle_G_coords,
)
from .wavelet import (
    check_scaling_coordinate_identity,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
)

SCHEMA_VERSION = 1

_USAGE_ERROR = 2
_CHECK_FAIL = 1


class InputError(ValueError):
    pass


def _emit(doc: dict, out_path: str | None) -> None:
    doc.setdefault("schema_version", SCHEMA_VERSION)
    text = canonical_json(doc)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _window(fam: BasisFamily, radius: int, m_max: int | None) -> Window:
    w = Window.symmetric(fam, radius)
    if m_max is not None:
        w = w.with_dil_range(-abs(m_max), abs(m_max))
    return w


def _effective(args, **extra) -> dict:
    cfg = {
        "basis": getattr(args, "basis", None),
        "tol": getattr(args, "tol", None),
        "window": getattr(args, "window", None),
        "grid": getattr(args, "grid", None),
    }
    cfg.update(extra)
    return {k: v for k, v in cfg.items() if v is not None}


def _load_coords(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return coords_from_doc(doc)
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read coefficient file {path!r}: {exc}") from exc


def _candidate(args, fam: BasisFamily, w: Window, model: str):
    """The coordinates a subcommand acts on, in model "F" or "G", and the
    function they come from (None for a file).

    ``--coords`` is a coefficient file of that model whose basis is
    ``--basis``; otherwise the oracle takes the coordinates of
    ``--function`` on the window.
    """
    if args.coords:
        vec, basis = _load_coords(args.coords)
        if basis != fam.name:
            raise InputError(f"coefficient file basis {basis!r} does not match --basis")
        if not isinstance(vec, FCoordVec if model == "F" else GCoordVec):
            kind = "translation" if model == "F" else "dilation"
            raise InputError(f"{args.command} needs {kind}-model coordinates (model {model})")
        labels = vec._cols[-2]  # i of the keys (i, n), j of (s, j, m)
        if len(labels):  # bases' label rule, on the first label that can break it
            k = np.argmax(labels < 0)
            if model == "F":
                check_trans_label(fam, labels[k])
            else:
                check_dil_label(fam, vec._cols[0][k], labels[k])
        return vec, None
    spec = parse_function_spec(_required(args.function, "--function or --coords"))
    oracle = oracle_F_coords if model == "F" else oracle_G_coords
    return oracle(spec, fam, w), spec


def _filter_from_arg(text: str) -> LaurentPoly:
    """Filters come as JSON maps {"k": [re, im]} inline or via @file."""
    try:
        if text.startswith("@"):
            with open(text[1:], encoding="utf-8") as fh:
                raw = json.load(fh)
        else:
            raw = json.loads(text)
        if not (isinstance(raw, dict) and all(isinstance(v, list) and len(v) == 2
                                              for v in raw.values())):
            raise ValueError("expected a JSON object of [re, im] pairs")
        coeffs = {int(k): complex(v[0], v[1]) for k, v in raw.items()}
        if not all(cmath.isfinite(c) for c in coeffs.values()):
            raise ValueError("filter coefficients must be finite")
        return LaurentPoly.from_map(coeffs)
    except (OSError, ValueError, TypeError) as exc:
        raise InputError(f"cannot parse filter {text!r}: {exc}") from exc


def _required(value, flag: str):
    if value is None:
        raise InputError(f"{flag} is required")
    return value


def _filter_to_doc(h: LaurentPoly) -> dict:
    return {str(k): [v.real, v.imag] for k, v in h.coeffs}


def _report_doc(report: CheckReport, args, **extra) -> dict:
    return {
        "report": report.to_dict(),
        "config": _effective(args, **extra),
    }


# -- subcommands ----------------------------------------------------------------

def _cmd_coords(args) -> int:
    fam = family(args.basis)
    spec = parse_function_spec(args.function)
    w = _window(fam, args.window, args.mmax)
    if args.model == "F":
        vec = oracle_F_coords(spec, fam, w, quadrature_tol=args.tol)
        doc = coords_to_doc(vec, fam.name)
    else:
        vec = oracle_G_coords(spec, fam, w, quadrature_tol=args.tol)
        doc = coords_to_doc(vec, fam.name)
        doc["scale_tail_bound"] = g_window_tail_bound(spec, w.dil_range[1])
    doc["config"] = _effective(args, model=args.model, function=args.function)
    _emit(doc, args.out)
    return 0


def _cmd_alpha(args) -> int:
    fam = family(args.basis)
    A = AlphaMatrix(fam)
    if args.entry:
        i, n, s, j, m = args.entry
        val = A.entry(int(i), int(n), sign_value(s), int(j), int(m))
        doc = {
            "entry": {"i": int(i), "n": int(n), "s": s, "j": int(j), "m": int(m)},
            "value": {"re": val.real, "im": val.imag},
            "config": _effective(args),
        }
    else:
        i, n = (int(x) for x in args.row)
        w = _window(fam, args.window, args.mmax)
        entries = A.row(i, n, w)[0]
        doc = {
            "row": {"i": i, "n": n, "case": A.row_case(i, n)},
            "entries": [
                {"s": sign_char(k.s), "j": k.j, "m": k.m, "re": v.real, "im": v.imag}
                for k, v in sorted(entries)
            ],
            "config": _effective(args),
        }
    _emit(doc, args.out)
    return 0


def _cmd_act(args) -> int:
    fam = family(args.basis)
    A = AlphaMatrix(fam)
    w = _window(fam, args.window, args.mmax)
    vec, _ = _candidate(args, fam, w, args.model)
    out, tail = act(vec, args.p, args.q, args.order, A, w)
    doc = coords_to_doc(out, fam.name)
    doc["config"] = _effective(args, order=args.order, model=args.model, p=args.p, q=args.q)
    doc["clipped_tail_bound"] = tail
    _emit(doc, args.out)
    return 0


def _cmd_check_wavelet(args) -> int:
    fam = family(args.basis)
    # completeness labels are input: rejected before any coordinate work
    labels = _parse_labels(args.labels, fam) if args.labels else _default_labels(fam, 6)
    A = AlphaMatrix(fam)
    w = _window(fam, args.window, args.mmax)
    vec, spec = _candidate(args, fam, w, "G")
    tail_sq = 0.0 if spec is None else max(0.0, inner_product(spec, spec).real - vec.norm_sq())
    report = check_wavelet_orthonormality(
        vec, A, args.pq, w, args.tol, candidate_tail_sq=tail_sq
    )
    comp = check_wavelet_completeness(vec, A, labels, args.pq * 2, w)
    doc = _report_doc(report, args, pq=args.pq, function=getattr(args, "function", None))
    doc["completeness"] = comp.to_dict()
    _emit(doc, args.out)
    return 0 if (report.passed and comp.passed) else _CHECK_FAIL


def _cmd_check_scaling(args) -> int:
    fam = family(args.basis)
    w = _window(fam, args.window, args.mmax)
    vec, _ = _candidate(args, fam, w, "F")
    report = check_scaling_coordinate_identity(vec, args.krange, args.tol)
    _emit(_report_doc(report, args, krange=args.krange), args.out)
    return 0 if report.passed else _CHECK_FAIL


_FHAT_PRESETS = {
    "shannon_phi": shannon_scaling_hat,
    "shannon_psi": shannon_wavelet_hat,
    "haar_phi": haar_scaling_hat,
    "zero": zero_hat,
}


def _fhat_from_arg(text: str):
    if text in _FHAT_PRESETS:
        return _FHAT_PRESETS[text]()
    import re

    m = re.match(r"^indicator\(\s*(-?[\d/.]+)\s*,\s*(-?[\d/.]+)\s*\)$", text)
    if m:
        try:
            lo, hi = Fraction(m.group(1)), Fraction(m.group(2))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"bad indicator bound in {text!r}: {exc}") from exc
        if hi <= lo:
            raise InputError("indicator needs a < b")
        return indicator_hat([(lo, hi, 1.0)])
    raise InputError(f"unknown frequency-side function {text!r}")


def _cmd_fourier_check(args) -> int:
    spec = _fhat_from_arg(args.fhat)
    P = periodize(spec, args.grid, (-args.krange, args.krange))
    if args.check == "translates":
        report = check_orthonormal_translates(P, args.tol)
    elif args.check == "scaling":
        report = check_scaling_hypotheses(P, args.tol)
    else:
        P_shift = periodize(modulated(spec, 1), args.grid, (-args.krange, args.krange))
        report = multiplication_check(P, P_shift, args.tol)
    doc = _report_doc(report, args, fhat=args.fhat, check=args.check, krange=args.krange)
    if args.csv:
        _write_norm_csv(P, args.csv)
        doc["csv"] = args.csv
    _emit(doc, args.out)
    return 0 if report.passed else _CHECK_FAIL


def _write_norm_csv(P, path: str) -> None:
    norms = P.column_norm_sq()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,column_norm_sq\n")
        for d, t in enumerate(P.thetas()):
            fh.write(f"{t:.17g},{float(norms[d]):.17g}\n")


def _cmd_filter(args) -> int:
    fam = family(args.basis)
    if args.verb == "extract":
        spec = parse_function_spec(_required(args.function, "--function"))
        h = extract_two_scale(spec, args.krange)
        config = {"function": args.function, "krange": args.krange}
        _emit({"filter": _filter_to_doc(h), "config": config}, args.out)
        return 0
    h = _filter_from_arg(_required(args.coeffs, "--coeffs"))
    if args.verb == "mirror":
        g = mirror_filter(h, args.shift_m)
        _emit({"filter": _filter_to_doc(g), "config": _effective(args)}, args.out)
        return 0
    if args.verb == "check-orthogonality":
        report = check_filter_orthogonality(h, args.krange, args.tol, args.grid)
        _emit(_report_doc(report, args), args.out)
        return 0 if report.passed else _CHECK_FAIL
    if args.verb == "check-pair":
        g = _filter_from_arg(args.g_coeffs) if args.g_coeffs else mirror_filter(h, args.shift_m)
        report = check_pair_conditions(h, g, args.krange, args.grid, args.tol)
        _emit(_report_doc(report, args), args.out)
        return 0 if report.passed else _CHECK_FAIL
    # reconstruct: rebuild the scaling coords and emit the wavelet candidate
    A = AlphaMatrix(fam)
    w = _window(fam, args.window, args.mmax)
    spec = parse_function_spec(_required(args.function, "--function"))
    phi = oracle_F_coords(spec, fam, w)
    rebuilt, report = reconstruct_scaling_coords(phi, h, A, w, args.tol)
    psi = construct_wavelet_coords(phi, h, A, w)
    doc = _report_doc(report, args)
    doc["wavelet_coords"] = coords_to_doc(psi, fam.name)
    _emit(doc, args.out)
    return 0 if report.passed else _CHECK_FAIL


def _parse_labels(text: str, fam: BasisFamily) -> list[tuple[int, int]]:
    """Dilation labels such as '+0,+1,-0', each checked against the family."""
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if part[0] not in "+-":
            raise InputError(f"label {part!r} must look like +3 or -0")
        out.append(check_dil_label(fam, sign_value(part[0]), int(part[1:])))
    if not out:
        raise InputError(f"no completeness labels in {text!r}")
    return out


def _default_labels(fam: BasisFamily, count: int) -> list[tuple[int, int]]:
    half = (count + 1) // 2
    return [(PLUS, j) for j in range(half)] + [(MINUS, j) for j in range(count - half)]


# -- parser ----------------------------------------------------------------------

class _Command:
    """A subcommand whose ``ArgumentParser`` is built only when a request names it.

    ``_SubParsersAction`` calls nothing on a subparser but
    ``parse_known_args``, so that builds the real parser from the
    ``add_parser`` keyword arguments (``prog``, ``description``), lets
    ``declare`` add its arguments and defaults, and delegates to it.
    """

    def __init__(self, declare, **kwargs):
        self._declare = declare
        self._kwargs = kwargs

    def parse_known_args(self, args=None, namespace=None):
        parser = argparse.ArgumentParser(**self._kwargs)
        self._declare(parser)
        return parser.parse_known_args(args, namespace)


def _tolerance(text: str) -> float:
    """A ``--tol`` value: a finite, non-negative float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite, non-negative number, got {text!r}")
    return value


def _common(p, tol_default=1e-9):
    p.add_argument("--basis", choices=["exponential", "haar"], default="haar")
    p.add_argument("--window", type=int, default=6, help="symmetric window radius")
    p.add_argument("--mmax", type=int, default=48,
                   help="scale-ladder truncation depth (dilation model)")
    p.add_argument("--tol", type=_tolerance, default=tol_default)
    p.add_argument("--out", help="also write the JSON document to this path")


def _declare_coords(p):
    _common(p, tol_default=1e-10)
    p.add_argument("--function", required=True)
    p.add_argument("--model", choices=["F", "G"], default="F")
    p.set_defaults(fn=_cmd_coords)


def _declare_alpha(p):
    _common(p)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--entry", nargs=5, metavar=("i", "n", "s", "j", "m"))
    group.add_argument("--row", nargs=2, metavar=("i", "n"))
    p.set_defaults(fn=_cmd_alpha)


def _declare_act(p):
    _common(p)
    p.add_argument("--function")
    p.add_argument("--coords", help="coefficient JSON file instead of --function")
    p.add_argument("--model", choices=["F", "G"], default="F")
    p.add_argument("--order", choices=["DT", "TD"], default="DT")
    p.add_argument("-p", type=int, required=True)
    p.add_argument("-q", type=int, required=True)
    p.set_defaults(fn=_cmd_act)


def _declare_check_wavelet(p):
    _common(p)
    p.add_argument("--function")
    p.add_argument("--coords")
    p.add_argument("--pq", type=int, default=3, help="orthonormality grid radius")
    p.add_argument("--labels", help="completeness labels, e.g. '+0,+1,-0'")
    p.set_defaults(fn=_cmd_check_wavelet)


def _declare_check_scaling(p):
    _common(p)
    p.add_argument("--function")
    p.add_argument("--coords")
    p.add_argument("--krange", type=int, default=6)
    p.set_defaults(fn=_cmd_check_scaling)


def _declare_fourier_check(p):
    p.add_argument("--fhat", required=True,
                   help="shannon_phi | shannon_psi | haar_phi | zero | indicator(a,b)")
    p.add_argument("--check", choices=["translates", "scaling", "multiplication"],
                   default="translates")
    p.add_argument("--grid", type=int, default=512)
    p.add_argument("--krange", type=int, default=64)
    p.add_argument("--tol", type=_tolerance, default=1e-9)
    p.add_argument("--csv", help="write per-theta column norms to this CSV path")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_fourier_check)


def _declare_filter(p):
    _common(p, tol_default=1e-12)
    p.add_argument("verb", choices=["extract", "mirror", "check-orthogonality",
                                    "check-pair", "reconstruct"])
    p.add_argument("--function")
    p.add_argument("--coeffs", help='filter as JSON {"0": [re, im], ...} or @file')
    p.add_argument("--g-coeffs", help="explicit high-pass partner for check-pair")
    p.add_argument("--krange", type=int, default=8)
    p.add_argument("--grid", type=int, default=1024)
    p.add_argument("--shift-m", type=int, default=0)
    p.set_defaults(fn=_cmd_filter)


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="swl",
        description="Coordinate spectral models for dyadic dilation and integer "
        "translation: transfers, wavelet/MRA coordinate tests, filter tooling.",
    )
    top.add_argument("--version", action="version", version=f"swl {__version__}")
    sub = top.add_subparsers(dest="command", required=True, parser_class=_Command)
    sub.add_parser("coords", help="oracle coefficients of a test function",
                   declare=_declare_coords)
    sub.add_parser("alpha", help="change-of-representation entries and rows",
                   declare=_declare_alpha)
    sub.add_parser("act", help="apply a group word D^p T^q or T^q D^p", declare=_declare_act)
    sub.add_parser("check-wavelet", help="coordinate orthonormality + completeness",
                   declare=_declare_check_wavelet)
    sub.add_parser("check-scaling", help="translate-autocorrelation identity",
                   declare=_declare_check_scaling)
    sub.add_parser("fourier-check", help="periodization-model checks",
                   declare=_declare_fourier_check)
    sub.add_parser("filter", help="two-scale filter tooling",
                   description="Two-scale filter tooling.  extract reads only "
                   "--function and --krange; the other options do not change it.",
                   declare=_declare_filter)
    return top


def run(argv=None) -> int:
    """Entry point returning the exit code (0 pass, 1 check failure, 2 input error)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        # floating-point overflow and invalid operations raise instead of warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.fn(args)
    except ValueError as exc:  # every input error the library raises is a ValueError
        print(f"swl: error: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except ArithmeticError as exc:  # an input too large for the arithmetic
        print(f"swl: error: numbers out of range: {exc}", file=sys.stderr)
        return _USAGE_ERROR
    except MemoryError:  # an input too large for the memory available
        print("swl: error: out of memory: the request is too large", file=sys.stderr)
        return _USAGE_ERROR


def entry() -> None:  # console script
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    entry()
