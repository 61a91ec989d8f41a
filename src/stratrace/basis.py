"""Orthonormal bases of L2 on a closed interval.

Three families are implemented: shifted Legendre polynomials, a trigonometric
(constant + sin/cos harmonics) system, and dyadic Haar wavelets.  Every family
exposes pointwise evaluation and the exact running antiderivative
Q_i(t) = int_{t0}^t q_i(s) ds in closed form; the antiderivative of every
non-constant basis function vanishes at both endpoints' full integral,
i.e. Q_i(T) = 0 for i >= 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import Factor, integrand_rule

__all__ = ["Interval", "OrthonormalBasis", "FAMILIES", "gram_matrix"]

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
        return self._pointwise(i, t, antiderivative=False)

    def antiderivative(self, i: int, t):
        """Q_i(t) = int_{t0}^t q_i, in closed form."""
        return self._pointwise(i, t, antiderivative=True)

    # -- block API (all indices < count at once, used by the engines) -------

    def evaluate_block(self, t, count: int) -> np.ndarray:
        self._check_index(count - 1)
        return self._block(self._check_points(t), count, antiderivative=False)

    def antiderivative_block(self, t, count: int) -> np.ndarray:
        self._check_index(count - 1)
        return self._block(self._check_points(t), count, antiderivative=True)

    # -- quadrature demand ---------------------------------------------------

    def factor(self, count: int, antiderivative: bool = False) -> Factor:
        """The integrand factor of one basis block q_i (or Q_i) with i < count:
        the degree of the highest basis function in play (one more for the
        antiderivatives), the angular sweep of the fastest oscillation, and
        the interior discontinuities."""
        degree = count - 1 if self.family == "legendre" else 0
        phase = 2.0 * np.pi * (count // 2) if self.family == "fourier" else 0.0
        return Factor(degree + int(antiderivative), phase, self.breakpoints(count))

    def breakpoints(self, count: int) -> np.ndarray:
        """Interior discontinuity points of basis functions with index < count."""
        if self.family != "haar" or count <= 1:
            return np.empty(0)
        level = int(np.floor(np.log2(count - 1)))
        segments = 2 ** (level + 1)
        t0, length = self.interval.t0, self.interval.length
        return t0 + length * np.arange(1, segments) / segments

    # -- internals -----------------------------------------------------------

    def _check_index(self, i: int):
        if not (0 <= i <= self.max_index):
            raise ValueError(f"index {i} out of range for {self.id}")

    def _check_points(self, t) -> np.ndarray:
        t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
        if not self.interval.contains(t_arr):
            raise ValueError(f"evaluation points fall outside {self.interval.id}")
        return t_arr

    def _pointwise(self, i: int, t, antiderivative: bool):
        self._check_index(i)
        out = self._block(self._check_points(t), i + 1, antiderivative)[:, i]
        return float(out[0]) if np.isscalar(t) or np.ndim(t) == 0 else out.reshape(np.shape(t))

    def _block(self, t: np.ndarray, count: int, antiderivative: bool) -> np.ndarray:
        """q_i(t) (or Q_i(t)) for i < count, from the family's own block."""
        return getattr(self, f"_{self.family}_block")(t, count, antiderivative)

    def _legendre_block(self, t, count, antiderivative):
        t0, length = self.interval.t0, self.interval.length
        u = 2.0 * (t - t0) / length - 1.0
        # three-term recurrence, one extra order for the antiderivative identity
        orders = count + 1
        p = np.empty((len(t), orders))
        p[:, 0] = 1.0
        if orders > 1:
            p[:, 1] = u
        for n in range(1, orders - 1):
            p[:, n + 1] = ((2 * n + 1) * u * p[:, n] - n * p[:, n - 1]) / (n + 1)
        idx = np.arange(count)
        norm = np.sqrt((2 * idx + 1) / length)
        if not antiderivative:
            return p[:, :count] * norm
        out = np.empty((len(t), count))
        out[:, 0] = (t - t0) / np.sqrt(length)
        if count > 1:
            i = idx[1:]
            out[:, 1:] = (length / 2.0) * norm[1:] * (p[:, 2:count + 1] - p[:, 0:count - 1]) / (2 * i + 1)
        return out

    def _fourier_block(self, t, count, antiderivative):
        """Constant, then sin/cos harmonic pairs of frequency k = 1, 2, ...

        The angles 2 pi k u of every sine column are formed at once in the
        output's own sine columns; the cosine columns take their function of
        the first (count - 1) // 2 of them, then the sine columns are turned
        into theirs in place, so no array of the output's size is allocated
        beside it.
        Every entry is the same expression, rounded the same way, as a
        column-by-column evaluation.
        """
        t0, length = self.interval.t0, self.interval.length
        u = (t - t0) / length
        out = np.empty((len(t), count))
        out[:, 0] = (t - t0) / np.sqrt(length) if antiderivative else 1.0 / np.sqrt(length)
        sines, cosines = out[:, 1::2], out[:, 2::2]
        omega = 2.0 * np.pi * np.arange(1, sines.shape[1] + 1)
        np.multiply(u[:, None], omega, out=sines)
        # a cosine column holds cos of its angle, or sin for Q; a sine column the other
        first, second = (np.sin, np.cos) if antiderivative else (np.cos, np.sin)
        first(sines[:, :cosines.shape[1]], out=cosines)
        second(sines, out=sines)
        if not antiderivative:
            out[:, 1:] *= np.sqrt(2.0 / length)
            return out
        # Q of sin is sqrt(2L) (1 - cos) / (2 pi k), Q of cos is sqrt(2L) sin / (2 pi k)
        np.subtract(1.0, sines, out=sines)
        out[:, 1:] *= np.sqrt(2.0 * length)
        sines /= omega
        cosines /= omega[:cosines.shape[1]]
        return out

    def _haar_block(self, t, count, antiderivative):
        """Constant, then the wavelets of level 0, 1, ..., filled level by level.

        Wavelet k of level l lives on the closed dyadic interval
        [k, k + 1] / 2^l (in s = (t - t0) / L) and is amp = 2^(l/2) / sqrt(L)
        on its left half and -amp on its right half.  At level l a point
        with y = s 2^l belongs to wavelet k = floor(y), at x = y - k, and a
        point on a shared edge (x == 0) also to wavelet k - 1, at x = 1.
        A point in the slack just outside [t0, T] belongs to no wavelet.
        Outside its support a wavelet and its antiderivative are exactly 0
        (the antiderivative rises and falls back to 0 at x = 1), so only
        these entries are written into the zeroed output: O(points log N)
        work beyond the zero fill, instead of O(points N).  Each entry is
        the expression a column-by-column evaluation gives it, bit for bit.
        """
        t0, length = self.interval.t0, self.interval.length
        s = (t - t0) / length
        out = np.zeros((len(t), count))
        out[:, 0] = (t - t0) / np.sqrt(length) if antiderivative else 1.0 / np.sqrt(length)
        level = 0
        while (1 << level) < count:
            first = 1 << level  # column of wavelet 0 of this level
            wavelets = min(first, count - first)  # the last level may be cut
            y = s * first
            k = np.floor(y)
            x = y - k  # wavelet-local coordinate in [0, 1)
            amp = (2.0 ** (0.5 * level)) / np.sqrt(length)
            own = np.flatnonzero((k >= 0.0) & (k < wavelets))
            cols = first + k[own].astype(np.intp)
            if not antiderivative:
                out[own, cols] = np.where(x[own] < 0.5, amp, -amp)
                # the right end x = 1 of wavelet k - 1 (its antiderivative is 0 there)
                edge = np.flatnonzero((x == 0.0) & (k >= 1.0) & (k <= wavelets))
                out[edge, first - 1 + k[edge].astype(np.intp)] = -amp
            else:
                half = length / (1 << (level + 1))  # half-support width in t units
                rise = np.clip(x[own], 0.0, 0.5) * 2.0 * half
                fall = (np.clip(x[own], 0.5, 1.0) - 0.5) * 2.0 * half
                out[own, cols] = amp * (rise - fall)
            level += 1
        return out


def gram_matrix(basis: OrthonormalBasis, n: int) -> np.ndarray:
    """Quadrature Gram matrix of the first n basis functions (identity check)."""
    if n < 1 or n > basis.size:
        raise ValueError(f"need 1 <= n <= {basis.size}, got {n}")
    q = basis.factor(n)
    rule = integrand_rule(basis.interval, (q, q))
    block = basis.evaluate_block(rule.x, n)
    return (block * rule.w[:, None]).T @ block
