"""Orthonormal bases of L2 on a closed interval.

Three families are implemented: shifted Legendre polynomials, a trigonometric
(constant + sin/cos harmonics) system, and dyadic Haar wavelets.  Every family
evaluates all its functions q_i with i < count at once, as one block; the
engines take running integrals of these blocks at their own quadrature nodes
(`quadrature._running_integral`), so no family needs an antiderivative of its
own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import Factor

__all__ = ["Interval", "OrthonormalBasis", "FAMILIES"]

FAMILIES = ("legendre", "fourier", "haar")


@dataclass(frozen=True)
class Interval:
    """Closed interval [t0, T] with finite ends and T > t0."""

    t0: float
    T: float

    def __post_init__(self):
        if not (math.isfinite(self.t0) and math.isfinite(self.T)):
            raise ValueError(f"interval ends must be finite, got [{self.t0}, {self.T}]")
        if not (self.T > self.t0):
            raise ValueError(f"need T > t0, got [{self.t0}, {self.T}]")

    @property
    def length(self) -> float:
        return self.T - self.t0

    def contains(self, t) -> bool:
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * self.length
        return bool(np.all((t >= self.t0 - slack) & (t <= self.T + slack)))

    @property
    def id(self) -> str:
        return f"[{self.t0:g},{self.T:g}]"


def _integer(name: str, value) -> int:
    """`value` as an int, refusing floats (even integral ones) and bools: a
    bool is an int to Python, but no index, count, exponent or frequency."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class OrthonormalBasis:
    family: str
    interval: Interval
    max_index: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown basis family {self.family!r}, expected one of {FAMILIES}")
        # a plain int: np.int64(7) becomes 7 and 7.0 is refused, so one basis has one id
        object.__setattr__(self, "max_index", _integer("max_index", self.max_index))
        if self.max_index < 0:
            raise ValueError(f"max_index must be >= 0, got {self.max_index}")
        if self.family == "haar" and not _is_power_of_two(self.max_index + 1):
            raise ValueError(
                "haar basis is depth-limited: max_index + 1 must be a power of two, "
                f"got max_index={self.max_index}"
            )

    @property
    def size(self) -> int:
        return self.max_index + 1

    @property
    def id(self) -> str:
        return f"{self.family}{self.interval.id}:n{self.max_index}"

    # -- pointwise API ------------------------------------------------------

    def evaluate(self, i: int, t):
        """q_i(t); scalar in, scalar out, arrays broadcast."""
        out = self.evaluate_block(t, _integer("i", i) + 1)[:, -1]
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out.reshape(np.shape(t))

    # -- block API (all indices < count at once, used by the engines) -------

    def evaluate_block(self, t, count: int) -> np.ndarray:
        count = _integer("count", count)
        if not (1 <= count <= self.size):
            raise ValueError(f"index {count - 1} out of range for {self.id}")
        return getattr(self, f"_{self.family}_block")(self._check_points(t), count)

    # -- quadrature demand ---------------------------------------------------

    def factor(self, count: int) -> Factor:
        """The integrand factor of one basis block q_i with i < count: the
        degree of the highest basis function in play, the angular sweep of
        the fastest oscillation, and the interior discontinuities."""
        degree = count - 1 if self.family == "legendre" else 0
        phase = 2.0 * np.pi * (count // 2) if self.family == "fourier" else 0.0
        return Factor(degree, phase, self.breakpoints(count))

    def breakpoints(self, count: int) -> np.ndarray:
        """Interior discontinuity points of basis functions with index < count."""
        if self.family != "haar" or count <= 1:
            return np.empty(0)
        level = int(np.floor(np.log2(count - 1)))
        segments = 2 ** (level + 1)
        t0, length = self.interval.t0, self.interval.length
        return t0 + length * np.arange(1, segments) / segments

    # -- internals -----------------------------------------------------------

    def _check_points(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        if not self.interval.contains(t_arr):
            raise ValueError(f"evaluation points fall outside {self.interval.id}")
        return t_arr

    def _legendre_block(self, t, count):
        t0, length = self.interval.t0, self.interval.length
        u = 2.0 * (t - t0) / length - 1.0
        # three-term recurrence, one contiguous row per function
        p = np.empty((count, len(t)))
        p[0] = 1.0
        if count > 1:
            p[1] = u
        for n in range(1, count - 1):
            p[n + 1] = ((2 * n + 1) * u * p[n] - n * p[n - 1]) / (n + 1)
        scale = np.sqrt((2 * np.arange(count) + 1) / length)
        return np.multiply(p.T, scale, out=np.empty((len(t), count)))

    def _fourier_block(self, t, count):
        """Constant, then sin/cos harmonic pairs of frequency k = 1, 2, ...

        The angles 2 pi k u of every sine column are formed at once in the
        output's own sine columns; the cosine columns take cos of the first
        (count - 1) // 2 of them, then the sine columns take sin in place, so
        no array of the output's size is allocated beside it.
        Every entry is the same expression, rounded the same way, as a
        column-by-column evaluation.
        """
        t0, length = self.interval.t0, self.interval.length
        u = (t - t0) / length
        out = np.empty((len(t), count))
        out[:, 0] = 1.0 / np.sqrt(length)
        sines, cosines = out[:, 1::2], out[:, 2::2]
        omega = 2.0 * np.pi * np.arange(1, sines.shape[1] + 1)
        np.multiply(u[:, None], omega, out=sines)
        np.cos(sines[:, :cosines.shape[1]], out=cosines)
        np.sin(sines, out=sines)
        out[:, 1:] *= np.sqrt(2.0 / length)
        return out

    def _haar_block(self, t, count):
        """Constant, then the wavelets of level 0, 1, ..., filled level by level.

        Wavelet k of level l lives on the closed dyadic interval
        [k, k + 1] / 2^l (in s = (t - t0) / L) and is amp = 2^(l/2) / sqrt(L)
        on its left half and -amp on its right half.  At level l a point
        with y = s 2^l belongs to wavelet k = floor(y), at x = y - k, and a
        point on a shared edge (x == 0) also to wavelet k - 1, at x = 1.
        A point in the slack just outside [t0, T] belongs to no wavelet.
        Outside its support a wavelet is exactly 0, so only these entries
        are written into the zeroed output: O(points log N) work beyond the
        zero fill, instead of O(points N).  Each entry is the expression a
        column-by-column evaluation gives it, bit for bit.
        """
        t0, length = self.interval.t0, self.interval.length
        s = (t - t0) / length
        out = np.zeros((len(t), count))
        out[:, 0] = 1.0 / np.sqrt(length)
        for _, first, wavelets, amp in self._haar_levels(count):
            y = s * first
            k = np.floor(y)
            x = y - k  # wavelet-local coordinate in [0, 1)
            own = np.flatnonzero((k >= 0.0) & (k < wavelets))
            out[own, first + k[own].astype(np.intp)] = np.where(x[own] < 0.5, amp, -amp)
            # the right end x = 1 of wavelet k - 1
            edge = np.flatnonzero((x == 0.0) & (k >= 1.0) & (k <= wavelets))
            out[edge, first - 1 + k[edge].astype(np.intp)] = -amp
        return out

    def _haar_levels(self, count):
        """(level l, column of wavelet 0, wavelets, amplitude 2^(l/2) / sqrt(L))
        of each wavelet level among the first `count` Haar functions; only
        the last level may be cut.  The Haar coefficient engine reads the
        same layout."""
        level = 0
        while (1 << level) < count:
            first = 1 << level
            amp = (2.0 ** (0.5 * level)) / np.sqrt(self.interval.length)
            yield level, first, min(first, count - first), amp
            level += 1
