"""Fourier-periodization coordinate model and its orthonormality tests.

A frequency-side function ``fhat`` is tabulated on the grid
theta_d = d/N, d = 0..N-1, as the coordinate columns
``values[k, d] = conj(fhat(theta_d + k))`` for k in a finite range.  The
translation operator acts on these columns as multiplication by
omega = e^{2 pi i theta}, which is what ``multiplication_check`` verifies.

Orthonormality of the integer translates of the underlying function is the
statement that ``sum_k |fhat(theta + k)|^2 = 1`` almost everywhere; the
check samples it on the grid.  Frequency-side inputs are supplied
analytically (half-open indicator unions and the closed-form box-function
transform), so no FFT error enters the tolerances.  For the box-function
transform, whose periodization converges only like 1/k, the truncated part
``sum_{|k| > K} sin^2(pi theta)/(pi (theta+k))^2`` is restored in closed
form through the trigamma function, keeping the grid check meaningful at
tight tolerances; the partial sums still come from the tabulated values.

Almost-everywhere conditions are tested on the grid only: a sampling
check, not a proof, and the reports say so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .core import CheckReport, ceil_float

_AE_NOTE = "grid sampling check of an almost-everywhere condition, not a proof"


class PeriodizationError(ValueError):
    """The frequency window fails to cover the transform's support."""

    def __init__(self, message: str, missed_mass: float):
        super().__init__(message)
        self.missed_mass = missed_mass


@dataclass(frozen=True)
class FourierSideSpec:
    """Analytic frequency-side function.

    kinds:
      * ``indicator_union`` -- sum of amplitudes over half-open intervals;
      * ``box_transform`` -- e^{-pi i y} sin(pi y)/(pi y), the transform of
        the unit box on [0, 1);
      * ``zero``.

    ``shift`` modulates by e^{-2 pi i shift y}, i.e. translates the
    underlying time-side function by ``shift``.
    """

    kind: str
    parts: tuple[tuple[Fraction, Fraction, complex], ...] = ()
    shift: int = 0

    def value(self, y):
        """Value at a scalar or at every point of an array."""
        y = np.asarray(y, dtype=float)
        if self.kind == "box_transform":
            base = np.exp(-1j * np.pi * y) * np.sinc(y)
        else:
            base = np.zeros(y.shape, dtype=complex)
            for lo, hi, amp in self._float_parts:  # none for "zero"
                base[(y >= lo) & (y < hi)] += amp
        if self.shift:
            base = base * np.exp(-1j * (math.tau * self.shift * y))
        return base[()]

    @cached_property
    def _float_parts(self) -> list[tuple[float, float, complex]]:
        """The parts with each bound as the least double at or above it: the
        points y of [lo, hi) are those with ceil(lo) <= y < ceil(hi).  Kept
        on the spec, so ``periodize`` converts them once, not once per row."""
        return [(ceil_float(lo), ceil_float(hi), amp) for lo, hi, amp in self.parts]

    def tail_sq(self, thetas: np.ndarray, k_min: int, k_max: int) -> np.ndarray:
        """Exact sum of |value(theta+k)|^2 over k outside [k_min, k_max], per theta.

        Zero for the indicator unions that ``covered_by`` accepts for the window.
        """
        if self.kind != "box_transform":
            return np.zeros(len(thetas))
        # box transform: sum sin^2(pi t)/ (pi (t+k))^2 outside the window
        s = np.sin(np.pi * thetas)
        tails = [trigamma(t + k_max + 1) + trigamma(1 - k_min - t) if sd else 0.0
                 for t, sd in zip(thetas.tolist(), s)]
        return (s * s / (math.pi * math.pi)) * np.array(tails)

    def covered_by(self, k_min: int, k_max: int) -> tuple[bool, float]:
        if self.kind in ("zero", "box_transform"):
            return True, 0.0
        lo = min(p[0] for p in self.parts)
        hi = max(p[1] for p in self.parts)
        if k_min <= lo and hi <= k_max + 1:
            return True, 0.0
        missed = 0.0
        for plo, phi, amp in self.parts:
            left = max(0.0, float(min(phi, k_min) - plo))
            right = max(0.0, float(phi - max(plo, k_max + 1)))
            missed += (abs(amp) ** 2) * min(float(phi - plo), left + right)
        return False, missed


def indicator_hat(parts) -> FourierSideSpec:
    norm = tuple((Fraction(lo), Fraction(hi), complex(amp)) for lo, hi, amp in parts)
    return FourierSideSpec("indicator_union", norm)


def shannon_scaling_hat() -> FourierSideSpec:
    return indicator_hat([(Fraction(-1, 2), Fraction(1, 2), 1.0)])


def shannon_wavelet_hat() -> FourierSideSpec:
    return indicator_hat([(-1, Fraction(-1, 2), 1.0), (Fraction(1, 2), 1, 1.0)])


def haar_scaling_hat() -> FourierSideSpec:
    return FourierSideSpec("box_transform")


def zero_hat() -> FourierSideSpec:
    return FourierSideSpec("zero")


def modulated(spec: FourierSideSpec, shift: int = 1) -> FourierSideSpec:
    """Frequency-side form of translating the time-side function by ``shift``."""
    return FourierSideSpec(spec.kind, spec.parts, spec.shift + shift)


def trigamma(x: float) -> float:
    """Trigamma psi_1(x) = sum_{k>=0} 1/(x+k)^2 for x > 0.

    Recurrence up to x >= 10, then the asymptotic Bernoulli series; good to
    ~1e-14 relative, which is far below the tolerances it supports.
    """
    if x <= 0:
        raise ValueError("trigamma needs x > 0")
    acc = 0.0
    while x < 10.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (-1.0 / 30.0 + inv2 * (1.0 / 42.0 + inv2 * (-1.0 / 30.0 + inv2 * (5.0 / 66.0)))))))
    return acc + series


@dataclass(frozen=True)
class PeriodizedFourier:
    """Tabulated periodization coordinates on the grid theta_d = d/N."""

    n_grid: int
    k_min: int
    k_max: int
    values: np.ndarray  # (k_max - k_min + 1, n_grid) complex
    tail_sq: np.ndarray  # (n_grid,) float, exact clipped mass per theta

    def thetas(self) -> np.ndarray:
        return np.arange(self.n_grid) / self.n_grid

    def column_norm_sq(self) -> np.ndarray:
        return np.sum(np.abs(self.values) ** 2, axis=0) + self.tail_sq


def periodize(fhat: FourierSideSpec, n_grid: int = 512,
              k_range: tuple[int, int] = (-64, 64)) -> PeriodizedFourier:
    """Tabulate conj(fhat(theta + k)) on the grid for k in k_range."""
    if n_grid < 2:
        raise ValueError("n_grid must be at least 2")
    k_min, k_max = int(k_range[0]), int(k_range[1])
    if k_max < k_min:
        raise ValueError(f"empty k_range {k_range}")
    ok, missed = fhat.covered_by(k_min, k_max)
    if not ok:
        raise PeriodizationError(
            f"k_range [{k_min}, {k_max}] misses part of the transform's support"
            f" (missed mass {missed:.6g})",
            missed,
        )
    thetas = np.arange(n_grid) / n_grid
    values = np.empty((k_max - k_min + 1, n_grid), dtype=complex)
    for row, k in enumerate(range(k_min, k_max + 1)):
        # row by row: one expression for the whole grid holds several grid-sized temporaries
        values[row] = np.conjugate(fhat.value(thetas + k))
    tail_sq = fhat.tail_sq(thetas, k_min, k_max)
    return PeriodizedFourier(n_grid, k_min, k_max, values, tail_sq)


def check_orthonormal_translates(P: PeriodizedFourier, tol: float = 1e-9) -> CheckReport:
    """Grid test of: integer translates orthonormal iff per-theta mass is 1."""
    norms = P.column_norm_sq()
    residuals = {("theta", d): abs(float(norms[d]) - 1.0) for d in range(P.n_grid)}
    notes = [_AE_NOTE]
    if float(np.max(P.tail_sq)) > 0.0:
        notes.append(
            f"clipped k-tail restored analytically (max {float(np.max(P.tail_sq)):.3e})"
        )
    return CheckReport.from_residuals("orthonormal_translates", residuals, tol, notes=notes)


def check_scaling_hypotheses(P: PeriodizedFourier, tol: float = 1e-9) -> CheckReport:
    """Sufficient conditions for generating a multiresolution ladder.

    (i) per-theta coordinate mass is 1 on the grid; (ii) the column at
    omega = 1 is the unit coordinate vector (transform 1 at frequency 0 and
    0 at every other integer).  Integrability of the time-side function is
    an assumption this check does not test; the report records that.
    """
    residuals = {}
    norms = P.column_norm_sq()
    for d in range(P.n_grid):
        residuals[("mass", d)] = abs(float(norms[d]) - 1.0)
    for row, k in enumerate(range(P.k_min, P.k_max + 1)):
        want = 1.0 if k == 0 else 0.0
        residuals[("omega1", k)] = abs(P.values[row, 0] - want)
    notes = [_AE_NOTE, "L1-integrability of the time-side function assumed, not tested"]
    return CheckReport.from_residuals("scaling_hypotheses", residuals, tol, notes=notes)


def multiplication_check(P: PeriodizedFourier, P_shifted: PeriodizedFourier,
                         tol: float = 1e-12) -> CheckReport:
    """Translation acts as multiplication by omega on the coordinate columns."""
    if (P.n_grid, P.k_min, P.k_max) != (P_shifted.n_grid, P_shifted.k_min, P_shifted.k_max):
        raise ValueError("grid/k_range mismatch between the two periodizations")
    omega = np.exp(2j * np.pi * P.thetas())
    diff = np.abs(P_shifted.values - omega[None, :] * P.values)
    residuals = {}
    for row, k in enumerate(range(P.k_min, P.k_max + 1)):
        d = int(np.argmax(diff[row]))
        residuals[("k", k)] = float(diff[row, d])
    return CheckReport.from_residuals("multiplication_by_omega", residuals, tol)
