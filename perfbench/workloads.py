"""Seeded inputs, operations and correctness checks of the three workloads.

d4-verify          the criterion-7 candidate check on a seeded orthogonal
                   4-tap filter: alpha / transfer / wavelet hot path.
sampled-functions  oracle coordinates of seeded test functions (exact and
                   GL16 quadrature routes), the Haar closed forms held
                   against the oracle, and periodization checks.
cli-mix            in-process ``swl.cli.run`` requests from a fixed menu
                   covering all seven subcommands.

Every workload is a closed loop with one client: the next operation
starts when the previous one has returned.  ``rounds(seed)`` draws all
inputs from the seed before anything is timed; the library only sees the
generated objects.  ``run(tracer, item)`` is one timed operation and
``check(result)`` lists what is wrong with its output (empty when
correct).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

import swl.cli
from swl import (
    EXPONENTIAL,
    HAAR,
    DilIndex,
    FunctionSpec,
    LaurentPoly,
    TransIndex,
    Window,
    check_filter_orthogonality,
    check_orthonormal_translates,
    check_wavelet_completeness,
    check_wavelet_orthonormality,
    construct_wavelet_coords,
    g_from_f,
    haar_scaling_hat,
    oracle_F_coords,
    oracle_G_coords,
    periodize,
    scaling_coords_from_filter,
)
from swl.core import MINUS, PLUS
from swl.fourier import indicator_hat

BESSEL_REL = 1e-12
BOX_TOL = 1e-9  # label-0 coordinates against closed forms, relative to ||f||


def _sq_norm(vec) -> float:
    return math.fsum(abs(v) ** 2 for _, v in vec.items())


# -- d4-verify ---------------------------------------------------------------------

def orthogonal_4tap(theta: float) -> LaurentPoly:
    """h(theta) from the one-parameter orthogonal 4-tap family; theta = pi/3 is D4."""
    c, s = math.cos(theta), math.sin(theta)
    d = 2.0 * math.sqrt(2.0)
    return LaurentPoly.from_map(
        {0: (1 - c + s) / d, 1: (1 + c + s) / d, 2: (1 + c - s) / d, 3: (1 - c - s) / d}
    )


@dataclass
class D4Result:
    h: LaurentPoly
    phi_nnz: int
    psi_f_nnz: int
    psi_g_nnz: int
    orthonormality: object
    completeness: object


_AGREE_RE = re.compile(r"routes agree within ([0-9.eE+-]+)")


class D4Verify:
    name = "d4-verify"
    levels = 12
    window = Window.symmetric(HAAR, 8, 10, 50)
    pq = 2
    tol = 1e-4
    labels = ((PLUS, 0), (PLUS, 1), (MINUS, 0))
    row_window = 4
    theta_range = (math.pi / 4, 2 * math.pi / 5)
    pool = 32

    def rounds(self, seed: int) -> list[list]:
        rng = random.Random(seed)
        return [[orthogonal_4tap(rng.uniform(*self.theta_range))] for _ in range(self.pool)]

    def run(self, tr, h: LaurentPoly) -> D4Result:
        A = tr.alpha(HAAR)
        w = self.window
        phi, tail = tr.call("filters.cascade", scaling_coords_from_filter, h, self.levels)
        psi_f = tr.call("filters.construct_wavelet", construct_wavelet_coords, phi, h, A, w)
        psi_g = tr.call("alpha.g_from_f", g_from_f, psi_f, A, w)
        orth = tr.call("wavelet.orthonormality", check_wavelet_orthonormality,
                       psi_g, A, self.pq, w, self.tol, candidate_tail_sq=tail)
        comp = tr.call("wavelet.completeness", check_wavelet_completeness,
                       psi_g, A, self.labels, self.row_window, w)
        tr.count("core.F_nnz", len(phi))
        tr.count("core.G_nnz", len(psi_g))
        return D4Result(h, len(phi), len(psi_f), len(psi_g), orth, comp)

    def check(self, r: D4Result) -> list[str]:
        problems = []
        filt = check_filter_orthogonality(r.h, 8, 1e-12)
        if not (filt.passed and filt.max_residual <= 1e-12):
            problems.append(f"filter orthogonality residual {filt.max_residual:.3e}")
        for rep in (r.orthonormality, r.completeness):
            if rep.verdict != "pass":
                problems.append(f"{rep.check_name} verdict {rep.verdict!r}")
        if not r.orthonormality.max_residual <= self.tol:
            problems.append(f"orthonormality residual {r.orthonormality.max_residual:.3e}")
        agree = [float(m.group(1)) for m in map(_AGREE_RE.search, r.orthonormality.notes) if m]
        if len(agree) != 1 or not agree[0] <= 1e-12:
            problems.append(f"route disagreement {agree}")
        return problems

    def sizes(self, r: D4Result) -> dict:
        return {
            "cascade_levels": self.levels,
            "window": self.window.describe(),
            "pq": self.pq,
            "completeness_labels": ["+0", "+1", "-0"],
            "row_window": self.row_window,
            "phi_F_nnz": r.phi_nnz,
            "psi_F_nnz": r.psi_f_nnz,
            "psi_G_nnz": r.psi_g_nnz,
        }


# -- sampled-functions ---------------------------------------------------------

@dataclass(frozen=True)
class Piecewise:
    spec: FunctionSpec
    pieces: tuple  # (lo, hi, coefficients) in exact rationals
    step: bool

    def norm_sq(self) -> float:
        """||f||^2 in exact rational arithmetic, independent of the library."""
        total = Fraction(0)
        for lo, hi, coeffs in self.pieces:
            sq: dict[int, Fraction] = {}
            for a, ca in enumerate(coeffs):
                for b, cb in enumerate(coeffs):
                    sq[a + b] = sq.get(a + b, Fraction(0)) + ca * cb
            total += sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1) for k, c in sq.items())
        return float(total)

    def integral(self, a: Fraction, b: Fraction) -> float:
        """The integral of f over [a, b), in exact rational arithmetic."""
        total = Fraction(0)
        for lo, hi, coeffs in self.pieces:
            lo, hi = max(lo, a), min(hi, b)
            if lo < hi:
                total += sum(c * (hi ** (k + 1) - lo ** (k + 1)) / (k + 1)
                             for k, c in enumerate(coeffs))
        return float(total)


@dataclass(frozen=True)
class Gaussian:
    """exp(-x^2 / (2 sigma^2)), the library's peak-1 gaussian."""

    sigma: float
    step = False

    @property
    def spec(self) -> FunctionSpec:
        return FunctionSpec.gaussian(self.sigma)

    def norm_sq(self) -> float:
        return self.sigma * math.sqrt(math.pi)

    def integral(self, a: Fraction, b: Fraction) -> float:
        r = self.sigma * math.sqrt(2.0)
        return self.sigma * math.sqrt(math.pi / 2.0) * (math.erf(b / r) - math.erf(a / r))


def box_coords(f, model: str, w: Window) -> dict:
    """The label-0 coordinates of ``f`` in ``w``, from closed forms.

    In both families the label-0 translation element (0, n) is the box on
    [n, n+1) and the label-0 dilation element (s, 0, m) is 2^(m/2) times the
    box on [2^-m, 2^(1-m)), mirrored to the negative axis for s = -1.
    """
    if model == "F":
        return {TransIndex(0, n): f.integral(Fraction(n), Fraction(n + 1))
                for n in range(w.trans_range[0], w.trans_range[1] + 1)}
    out = {}
    for s in (PLUS, MINUS):
        for m in range(w.dil_range[0], w.dil_range[1] + 1):
            lo, hi = Fraction(2) ** -m, Fraction(2) ** (1 - m)
            if s == MINUS:
                lo, hi = -hi, -lo
            out[DilIndex(s, 0, m)] = math.sqrt(2.0 ** m) * f.integral(lo, hi)
    return out


@dataclass(frozen=True)
class Batch:
    functions: tuple  # Piecewise functions, then one Gaussian
    union: tuple  # (lo, hi, amplitude) parts of a frequency-side indicator union


@dataclass
class BatchResult:
    batch: Batch
    coord_sets: list  # (label, model "F"/"G", window, vector, index of the function in the batch)
    haar_pairs: list  # (function index, oracle F, oracle G, g_from_f of oracle F)
    periodizations: list  # (label, report)


def _random_piecewise(rng: random.Random, step: bool) -> Piecewise:
    count = rng.randint(2, 5)
    cuts = sorted(rng.sample(range(-32, 33), 2 * count))
    pieces = []
    for k in range(count):
        lo, hi = Fraction(cuts[2 * k], 8), Fraction(cuts[2 * k + 1], 8)
        if step:
            coeffs = (Fraction(rng.choice([v for v in range(-8, 9) if v]), 8),)
        else:
            coeffs = tuple(Fraction(rng.randint(-8, 8), 8) for _ in range(rng.randint(0, 6) + 1))
        pieces.append((lo, hi, coeffs))
    spec = FunctionSpec.piecewise([(lo, hi, tuple(float(c) for c in cs)) for lo, hi, cs in pieces])
    return Piecewise(spec, tuple(pieces), step)


def _random_union(rng: random.Random, max_shift: int) -> tuple:
    """Dyadic cells tiling [0, 1) mod 1, each moved by a seeded integer."""
    cells = [(Fraction(0), Fraction(1))]
    for _ in range(rng.randint(2, 6)):
        lo, hi = cells.pop(rng.randrange(len(cells)))
        if hi - lo <= Fraction(1, 8):
            cells.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        cells += [(lo, mid), (mid, hi)]
    parts = []
    for lo, hi in sorted(cells):
        k = rng.randint(-max_shift, max_shift)
        parts.append((lo + k, hi + k, rng.choice((1.0, -1.0))))
    return tuple(parts)


class SampledFunctions:
    name = "sampled-functions"
    steps = 2  # degree-0 functions per batch; they get the Haar transfer check
    others = 6  # degree 0-6 per piece
    haar_window = Window.symmetric(HAAR, 7, 4, 8)  # labels 0-7 resolve a 1/8 grid
    exp_window = Window.symmetric(EXPONENTIAL, 4, 4, 6)
    windows = (haar_window, exp_window)
    gauss_windows = (Window.symmetric(HAAR, 3, 4, 6), Window.symmetric(EXPONENTIAL, 2, 4, 4))
    sigma_range = (0.5, 2.0)
    box_grid, box_k = 512, 64
    union_grid, union_k = 512, 6
    pool = 48

    def rounds(self, seed: int) -> list[list]:
        rng = random.Random(seed)
        out = []
        for _ in range(self.pool):
            funcs = tuple(_random_piecewise(rng, k < self.steps)
                          for k in range(self.steps + self.others))
            funcs += (Gaussian(rng.uniform(*self.sigma_range)),)
            out.append([Batch(funcs, _random_union(rng, self.union_k))])
        return out

    def run(self, tr, b: Batch) -> BatchResult:
        A = tr.alpha(HAAR)
        sets, pairs, reps = [], [], []
        for k, f in enumerate(b.functions):
            if isinstance(f, Gaussian):
                route, windows = "quadrature.gl_route", self.gauss_windows
            else:
                route, windows = "quadrature.exact_route", self.windows
            spec = f.spec
            for fam, w in zip((HAAR, EXPONENTIAL), windows):
                F = tr.call(route, oracle_F_coords, spec, fam, w)
                G = tr.call(route, oracle_G_coords, spec, fam, w)
                sets += [(f"{spec.label or k} {fam.name} F", "F", w, F, k),
                         (f"{spec.label or k} {fam.name} G", "G", w, G, k)]
                tr.count("quadrature.coeffs_computed", len(F) + len(G))
                tr.count("core.F_nnz", len(F))
                tr.count("core.G_nnz", len(G))
                if f.step and fam is HAAR:
                    pairs.append((k, F, G, tr.call("alpha.g_from_f", g_from_f, F, A, w)))
        for label, fhat, grid, k in (
            ("haar_phi", haar_scaling_hat(), self.box_grid, self.box_k),
            ("indicator union", indicator_hat(b.union), self.union_grid, self.union_k),
        ):
            P = tr.call("fourier.periodize", periodize, fhat, grid, (-k, k))
            reps.append((label, tr.call("fourier.check", check_orthonormal_translates, P, 1e-9)))
        return BatchResult(b, sets, pairs, reps)

    def check(self, r: BatchResult) -> list[str]:
        problems = []
        funcs = r.batch.functions
        norms = [f.norm_sq() for f in funcs]
        for label, model, w, vec, k in r.coord_sets:
            # upper bound: Bessel's inequality
            got = _sq_norm(vec)
            if not got <= norms[k] * (1.0 + BESSEL_REL):
                problems.append(f"{label}: squared norm {got!r} exceeds ||f||^2 {norms[k]!r}")
            # lower bound: every label-0 coordinate is present and exact
            scale = max(1.0, math.sqrt(norms[k]))
            want = box_coords(funcs[k], model, w)
            worst = max((abs(vec.get(key) - v) for key, v in want.items()), default=math.inf)
            if not worst <= BOX_TOL * scale:
                problems.append(f"{label}: label-0 coordinates off by {worst:.3e}")
        lo, hi = self.haar_window.dil_range
        labels = set(self.haar_window.dil_labels)
        for k, F, oracle, transfer in r.haar_pairs:
            # labels 0-7 resolve the 1/8 grid: the Haar F set holds all of ||f||^2
            got = _sq_norm(F)
            if not abs(got - norms[k]) <= BESSEL_REL * norms[k]:
                problems.append(f"step function {k}: Haar F squared norm {got!r}, "
                                f"||f||^2 {norms[k]!r}")
            keys = {key for key in set(oracle.keys()) | set(transfer.keys())
                    if (key.s, key.j) in labels and lo <= key.m <= hi}
            worst = max((abs(oracle[key] - transfer[key]) for key in keys), default=math.inf)
            if not worst <= 1e-9:
                problems.append(f"step function {k}: oracle G vs g_from_f differ by {worst:.3e}")
        for label, rep in r.periodizations:
            if not rep.passed:
                problems.append(f"{label}: translates check residual {rep.max_residual:.3e}")
        return problems

    def sizes(self, r: BatchResult) -> dict:
        return {
            "functions_per_batch": {"piecewise": self.steps + self.others, "gaussian": 1},
            "haar_window": self.haar_window.describe(),
            "exponential_window": self.exp_window.describe(),
            "gaussian_haar_window": self.gauss_windows[0].describe(),
            "gaussian_exponential_window": self.gauss_windows[1].describe(),
            "periodize_grids": {"haar_phi": [self.box_grid, 2 * self.box_k + 1],
                                "indicator_union": [self.union_grid, 2 * self.union_k + 1]},
            "coords_last_batch": sum(len(vec) for *_, vec, _ in r.coord_sets),
        }


# -- cli-mix -----------------------------------------------------------------------

def _filter_json(h: LaurentPoly) -> str:
    return json.dumps({str(k): [v.real, v.imag] for k, v in h.coeffs})


_D4 = _filter_json(orthogonal_4tap(math.pi / 3))
_HAAR = json.dumps({"0": [math.sqrt(0.5), 0], "1": [math.sqrt(0.5), 0]})

# (argv, expected exit code); small windows, like the README examples
MENU = (
    (("coords", "--basis", "haar", "--function", "piecewise[(0,1/2):1; (1/2,1):-1]",
      "--model", "G", "--window", "4"), 0),
    (("coords", "--basis", "exponential", "--function",
      "piecewise[(-1/2,1/4):1-x; (1/4,3/4):x^2]", "--window", "3"), 0),
    (("coords", "--basis", "exponential", "--function", "gaussian(1)", "--model", "G",
      "--window", "1", "--mmax", "4"), 0),
    (("coords", "--basis", "haar", "--function", "piecewise[(0,1/3):1]"), 2),
    (("coords", "--basis", "haar", "--function", "piecewise[(0,1):"), 2),
    (("alpha", "--basis", "haar", "--row", "1", "0", "--mmax", "6"), 0),
    (("alpha", "--basis", "exponential", "--row", "2", "0", "--window", "4", "--mmax", "6"), 0),
    (("alpha", "--basis", "exponential", "--entry", "1", "0", "+", "1", "2"), 0),
    (("act", "--basis", "haar", "--function", "haar_wavelet", "-p", "1", "-q", "1",
      "--window", "6"), 0),
    (("act", "--basis", "haar", "--function", "indicator(0,3/4)", "--model", "G",
      "--order", "TD", "-p", "-1", "-q", "2", "--window", "5", "--mmax", "12"), 0),
    (("act", "--basis", "haar", "-p", "1"), 2),
    (("check-wavelet", "--basis", "haar", "--function", "haar_wavelet", "--pq", "3",
      "--window", "6"), 0),
    (("check-wavelet", "--basis", "haar", "--function", "haar_scaling", "--pq", "1",
      "--window", "4"), 1),
    (("check-scaling", "--basis", "haar", "--function", "haar_scaling", "--krange", "6"), 0),
    (("check-scaling", "--basis", "haar", "--function", "indicator(0,2)", "--krange", "4"), 1),
    (("fourier-check", "--fhat", "haar_phi", "--check", "translates", "--grid", "512",
      "--krange", "64"), 0),
    (("fourier-check", "--fhat", "shannon_phi", "--check", "scaling", "--grid", "256",
      "--krange", "8"), 0),
    (("fourier-check", "--fhat", "indicator(0,1)", "--check", "multiplication",
      "--grid", "256", "--krange", "4"), 0),
    (("filter", "extract", "--basis", "haar", "--function", "haar_scaling", "--krange", "4"), 0),
    (("filter", "check-orthogonality", "--coeffs", _D4), 0),
    (("filter", "check-pair", "--coeffs", _D4), 0),
    (("filter", "mirror", "--coeffs", _HAAR, "--shift-m", "1"), 0),
    (("filter", "reconstruct", "--basis", "haar", "--function", "haar_scaling",
      "--coeffs", _HAAR, "--mmax", "70", "--tol", "1e-10"), 0),
)

@dataclass
class Reply:
    argv: tuple
    expected: int
    code: int
    stdout: str
    stderr: str


class CliMix:
    """One round is the whole menu in a seeded order, so every run sees the same mix."""

    name = "cli-mix"
    pool = 128

    def __init__(self):
        self.seen: dict = {}

    def rounds(self, seed: int) -> list[list]:
        rng = random.Random(seed)
        out = []
        for _ in range(self.pool):
            order = list(MENU)
            rng.shuffle(order)
            out.append(order)
        return out

    def run(self, tr, request) -> Reply:
        argv, expected = request
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = swl.cli.run(list(argv))
        return Reply(argv, expected, code, out.getvalue(), err.getvalue())

    def check(self, r: Reply) -> list[str]:
        problems = []
        if r.code != r.expected:
            problems.append(f"{r.argv[0]}: exit code {r.code}, expected {r.expected}")
        if "Traceback" in r.stderr:
            problems.append(f"{r.argv[0]}: traceback on stderr")
        if r.code in (0, 1):
            try:
                if not isinstance(json.loads(r.stdout), dict):
                    problems.append(f"{r.argv[0]}: stdout is not a JSON object")
            except ValueError:
                problems.append(f"{r.argv[0]}: stdout is not JSON")
        elif r.stdout or not r.stderr:
            problems.append(f"{r.argv[0]}: usage error must print to stderr only")
        first = self.seen.setdefault(r.argv, r.stdout)
        if first != r.stdout:
            problems.append(f"{r.argv[0]}: output differs from an earlier identical request")
        return problems

    def sizes(self, r: Reply) -> dict:
        return {"menu_requests": len(MENU),
                "subcommands": sorted({argv[0] for argv, _ in MENU})}


WORKLOADS = {w.name: w for w in (D4Verify, SampledFunctions, CliMix)}


def make_inputs(name: str, seed: int) -> list[list]:
    return WORKLOADS[name]().rounds(seed)
