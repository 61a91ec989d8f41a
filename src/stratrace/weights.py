"""Weight functions entering kernels and Volterra coefficients.

Three representations: monomial-coefficient polynomials, integer-frequency
sin/cos sums, and tabulated piecewise-linear data on a grid spanning the
interval.  Each is an integrand factor for the exactness-aware engine (it
carries a degree, a phase and breakpoints), plus a canonical id string used
in reports and cache keys.  Every number they are built from must be finite.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .basis import Interval, _integer

__all__ = [
    "WeightFunction",
    "PolynomialWeight",
    "TrigSumWeight",
    "TabulatedWeight",
    "constant_weight",
    "legendre_weight",
]


class WeightFunction:
    """Common surface: call on floats/arrays, expose the quadrature demand."""

    interval: Interval

    def __call__(self, t):
        raise NotImplementedError

    @property
    def degree(self) -> int:
        return 0

    @property
    def phase(self) -> float:
        """Total angular sweep over the interval (0 for non-oscillatory)."""
        return 0.0

    @property
    def breakpoints(self) -> np.ndarray:
        return np.empty(0)

    @property
    def id(self) -> str:
        raise NotImplementedError


def _fmt(x: float) -> str:
    return repr(float(x))


@dataclass(frozen=True)
class PolynomialWeight(WeightFunction):
    """sum_r coeffs[r] * t**r with plain monomial coefficients."""

    coeffs: tuple
    interval: Interval

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("polynomial weight needs at least one coefficient")
        coeffs = tuple(float(c) for c in self.coeffs)
        if not all(math.isfinite(c) for c in coeffs):
            raise ValueError(f"polynomial coefficients must be finite, got {coeffs}")
        object.__setattr__(self, "coeffs", coeffs)

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(np.asarray(t, dtype=float), np.asarray(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def id(self) -> str:
        return "poly:" + ",".join(_fmt(c) for c in self.coeffs)


@dataclass(frozen=True)
class TrigSumWeight(WeightFunction):
    """sum over terms (k, s, c) of s*sin(2 pi k u) + c*cos(2 pi k u),
    where u = (t - t0)/(T - t0).  k = 0 contributes the constant c."""

    terms: tuple
    interval: Interval

    def __post_init__(self):
        norm = tuple((_integer("trig frequency", k), float(s), float(c))
                     for (k, s, c) in self.terms)
        if not norm:
            raise ValueError("trig weight needs at least one term")
        if any(k < 0 for (k, _, _) in norm):
            raise ValueError("trig frequencies must be non-negative integers")
        if not all(math.isfinite(s) and math.isfinite(c) for (_, s, c) in norm):
            raise ValueError(f"trig amplitudes must be finite, got {norm}")
        object.__setattr__(self, "terms", norm)

    def __call__(self, t):
        u = (np.asarray(t, dtype=float) - self.interval.t0) / self.interval.length
        out = np.zeros_like(u)
        for k, s, c in self.terms:
            ang = 2.0 * np.pi * k * u
            out = out + s * np.sin(ang) + c * np.cos(ang)
        return out

    @property
    def phase(self) -> float:
        return 2.0 * np.pi * max(k for (k, _, _) in self.terms)

    @property
    def id(self) -> str:
        return "trig:" + ";".join(f"{k},{_fmt(s)},{_fmt(c)}" for (k, s, c) in self.terms)


@dataclass(frozen=True)
class TabulatedWeight(WeightFunction):
    """Piecewise-linear interpolation of (grid, values) spanning the interval."""

    grid: np.ndarray
    values: np.ndarray
    interval: Interval

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if grid.ndim != 1 or grid.shape != values.shape or len(grid) < 2:
            raise ValueError("tabulated weight needs matching 1-d grid/values with >= 2 points")
        if not (np.all(np.isfinite(grid)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated grid and values must be finite")
        if np.any(np.diff(grid) <= 0):
            raise ValueError("tabulated grid must be strictly increasing")
        tol = 1e-9 * self.interval.length
        if abs(grid[0] - self.interval.t0) > tol or abs(grid[-1] - self.interval.T) > tol:
            raise ValueError(f"tabulated grid must span {self.interval.id}")
        grid = grid.copy()
        grid[0], grid[-1] = self.interval.t0, self.interval.T
        grid.setflags(write=False)
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __call__(self, t):
        return np.interp(np.asarray(t, dtype=float), self.grid, self.values)

    @property
    def degree(self) -> int:
        return 1

    @property
    def breakpoints(self) -> np.ndarray:
        return self.grid[1:-1]

    @property
    def id(self) -> str:
        digest = hashlib.sha256(self.grid.tobytes() + self.values.tobytes()).hexdigest()[:12]
        return f"table:{len(self.grid)}pts:{digest}"


def constant_weight(value: float, interval: Interval) -> PolynomialWeight:
    return PolynomialWeight((float(value),), interval)


def legendre_weight(n: int, interval: Interval, normalized: bool = True) -> PolynomialWeight:
    """Degree-n shifted Legendre polynomial as a monomial-coefficient weight.

    With `normalized` the result has unit L2 norm on the interval.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    base = np.polynomial.legendre.Legendre.basis(n, domain=[interval.t0, interval.T])
    coeffs = base.convert(kind=np.polynomial.polynomial.Polynomial).coef
    scale = np.sqrt((2 * n + 1) / interval.length) if normalized else 1.0
    return PolynomialWeight(tuple(scale * coeffs), interval)
