"""Volterra-type kernels on the square, their box averaging, and the
closed-form factorizations that certify them as trace class.

Every kernel kind evaluates pointwise with the unit step taking the value 1/2
on the diagonal, so symmetrized kinds agree with their two-sided definition at
t = tau.  `averaging` implements the zero-extension box average

    S_eps f(t, tau) = (1 / 4 eps^2) * int int over the eps-box around (t, tau)

and `diagonal_trace` integrates it along the diagonal for a decreasing eps
schedule, extrapolating the limit.  `explicit_factor_pair` emits the pieces
(f1, f2, rank-one remainder) with f(t,tau) = int f1(t,xi) f2(xi,tau) dxi +
remainder(t,tau), and `factorization_residual` checks that identity on a
lattice with the xi-integral done numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Interval
from .quadrature import (
    DEFAULT_QUADRATURE,
    QuadratureConfig,
    gauss_rule,
    integrand_rule,
    nodes_for,
    scaled_segments,
)
from .reports import TraceReport
from .weights import WeightFunction

__all__ = [
    "Kernel",
    "VolterraProduct",
    "SymmetrizedVolterra",
    "MonomialMin",
    "MonomialMax",
    "ComplexExponential",
    "SeparableRankOne",
    "FactorPair",
    "evaluate_kernel",
    "averaging",
    "default_eps_schedule",
    "diagonal_trace",
    "explicit_factor_pair",
    "factorization_residual",
]


def _step(x):
    """Unit step with value 1/2 at zero."""
    return np.heaviside(x, 0.5)


class Kernel:
    interval: Interval
    has_step: bool = True
    is_complex: bool = False

    def evaluate(self, t, tau):
        raise NotImplementedError

    # quadrature demand per variable: one integrand factor in t, one in tau
    @property
    def degree(self) -> int:
        return 0

    @property
    def phase(self) -> float:
        return 0.0

    @property
    def breakpoints(self) -> np.ndarray:
        return np.empty(0)

    @property
    def id(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class _WeightPair(Kernel):
    """A kernel built from two weight functions on a common interval; the
    quadrature demand is the weights' worst.  Kinds differ in `evaluate` and
    in the `_name` their id carries."""

    phi: WeightFunction
    psi: WeightFunction

    def __post_init__(self):
        if self.phi.interval != self.psi.interval:
            raise ValueError("weight functions live on different intervals")
        object.__setattr__(self, "interval", self.phi.interval)

    @property
    def degree(self):
        return max(self.phi.degree, self.psi.degree)

    @property
    def phase(self):
        return max(self.phi.phase, self.psi.phase)

    @property
    def breakpoints(self):
        return np.union1d(self.phi.breakpoints, self.psi.breakpoints)

    @property
    def id(self):
        return f"{self._name}({self.phi.id};{self.psi.id})"


class _TwoSided(Kernel):
    """lower(t, tau) 1(t - tau) + upper(t, tau) 1(tau - t)."""

    def evaluate(self, t, tau):
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        s = _step(t - tau)
        return self._lower(t, tau) * s + self._upper(t, tau) * (1.0 - s)


class VolterraProduct(_WeightPair):
    """phi(t) psi(tau) 1(t - tau): the one-sided product kernel."""

    _name = "volterra"

    def evaluate(self, t, tau):
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        return self.phi(t) * self.psi(tau) * _step(t - tau)


class SymmetrizedVolterra(_WeightPair, _TwoSided):
    """phi(t) psi(tau) 1(t - tau) + psi(t) phi(tau) 1(tau - t)."""

    _name = "symmetrized"

    def _lower(self, t, tau):
        return self.phi(t) * self.psi(tau)

    def _upper(self, t, tau):
        return self.psi(t) * self.phi(tau)


class SeparableRankOne(_WeightPair):
    """phi(t) psi(tau) on the whole square; no step, trivially trace class."""

    _name = "rank_one"
    has_step = False

    def evaluate(self, t, tau):
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        return self.phi(t) * self.psi(tau)


@dataclass(frozen=True)
class _Monomial(_TwoSided):
    """Integer exponents n >= 0, m >= 1 on an interval."""

    n: int
    m: int
    interval: Interval

    def __post_init__(self):
        if self.n < 0 or self.m < 1:
            raise ValueError("monomial kernel needs n >= 0 and m >= 1")

    @property
    def degree(self):
        return self.m + self.n

    @property
    def id(self):
        return f"{self._name}(n={self.n},m={self.m})"


class MonomialMin(_Monomial):
    """t^n tau^(m+n) 1(t - tau) + tau^n t^(m+n) 1(tau - t)
    = (t tau)^n min(t, tau)^m, with n >= 0, m >= 1."""

    _name = "monomial_min"

    def _lower(self, t, tau):
        return t**self.n * tau ** (self.m + self.n)

    def _upper(self, t, tau):
        return tau**self.n * t ** (self.m + self.n)


class MonomialMax(_Monomial):
    """t^(m+n) tau^n 1(t - tau) + tau^(m+n) t^n 1(tau - t)
    = (t tau)^n max(t, tau)^m, with n >= 0, m >= 1."""

    _name = "monomial_max"

    def _lower(self, t, tau):
        return t ** (self.m + self.n) * tau**self.n

    def _upper(self, t, tau):
        return tau ** (self.m + self.n) * t**self.n


@dataclass(frozen=True)
class ComplexExponential(_TwoSided):
    """exp(i n t) exp(i m tau) 1(t - tau) + exp(i n tau) exp(i m t) 1(tau - t),
    integer n, nonzero integer m."""

    n: int
    m: int
    interval: Interval
    is_complex = True

    def __post_init__(self):
        if self.m == 0:
            raise ValueError("complex exponential kernel needs m != 0")

    def _lower(self, t, tau):
        return np.exp(1j * self.n * t) * np.exp(1j * self.m * tau)

    def _upper(self, t, tau):
        return np.exp(1j * self.n * tau) * np.exp(1j * self.m * t)

    @property
    def phase(self):
        return (abs(self.n) + abs(self.m)) * self.interval.length

    @property
    def id(self):
        return f"complex_exp(n={self.n},m={self.m})"


def evaluate_kernel(spec: Kernel, t, tau):
    """Pointwise kernel value(s); validates that the points lie in the square."""
    iv = spec.interval
    if not (iv.contains(t) and iv.contains(tau)):
        raise ValueError(f"points fall outside the square over {iv.id}")
    out = spec.evaluate(t, tau)
    if np.ndim(t) == 0 and np.ndim(tau) == 0:
        return complex(out) if spec.is_complex else float(out)
    return out


def _box_nodes(spec: Kernel, eps: float, base_nodes: int) -> int:
    cfg = QuadratureConfig(panels=1, nodes_per_panel=base_nodes)
    local_phase = spec.phase * (2.0 * eps) / spec.interval.length
    return nodes_for(cfg, 2 * spec.degree + 1, local_phase)


def _check_eps(interval: Interval, eps: float) -> None:
    """Below the float spacing at the ends, t +- eps rounds back to t and the
    average divides a lost width by 4 eps^2."""
    if not (eps > 0.0):
        raise ValueError(f"eps must be positive, got {eps}")
    spacing = math.ulp(max(abs(interval.t0), abs(interval.T)))
    if eps < spacing:
        raise ValueError(f"eps {eps:.3g} is below the float spacing {spacing:.3g} "
                         f"at the ends of {interval.id}")


def averaging(spec: Kernel, eps: float, t: float, tau: float, nodes: int = 24):
    """Box average of the zero-extended kernel over the eps-box around (t, tau)."""
    iv = spec.interval
    _check_eps(iv, eps)
    th_lo, th_hi = max(iv.t0, t - eps), min(iv.T, t + eps)
    vt_lo, vt_hi = max(iv.t0, tau - eps), min(iv.T, tau + eps)
    zero = 0.0j if spec.is_complex else 0.0
    if th_hi <= th_lo or vt_hi <= vt_lo:
        return zero

    n = _box_nodes(spec, eps, nodes)
    # outer (theta) panels split where the diagonal enters/leaves the box and
    # at any kernel breakpoints, so every panel integrand is smooth
    cuts = [th_lo, th_hi]
    if spec.has_step:
        cuts += [x for x in (vt_lo, vt_hi) if th_lo < x < th_hi]
    cuts += [x for x in spec.breakpoints if th_lo < x < th_hi]
    edges = np.unique(np.asarray(cuts, dtype=float))

    total = zero
    ref_x, ref_w = gauss_rule(n)
    for a, b in zip(edges[:-1], edges[1:]):
        theta = 0.5 * (a + b) + 0.5 * (b - a) * ref_x
        w_theta = 0.5 * (b - a) * ref_w
        inner = _inner_strip(spec, theta, vt_lo, vt_hi, n)
        total = total + np.sum(w_theta * inner)
    return total / (4.0 * eps * eps)


def _inner_strip(spec: Kernel, theta: np.ndarray, vt_lo: float, vt_hi: float, n: int):
    """int_{vt_lo}^{vt_hi} f(theta_g, v) dv for a batch of theta nodes,
    splitting at the diagonal v = theta_g and at kernel breakpoints."""
    bounds = [vt_lo, vt_hi] + [x for x in spec.breakpoints if vt_lo < x < vt_hi]
    bounds = np.unique(np.asarray(bounds, dtype=float))
    dtype = complex if spec.is_complex else float
    out = np.zeros(len(theta), dtype=dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        split = np.clip(theta, lo, hi)
        for seg_lo, seg_hi in ((lo, split), (split, hi)) if spec.has_step else ((lo, hi),):
            y, v = scaled_segments(seg_lo, seg_hi, n)
            out = out + np.sum(v * spec.evaluate(theta[:, None], y), axis=1)
    return out


def default_eps_schedule(interval: Interval, k_min: int = 3, k_max: int = 12):
    """Geometric schedule L * 2^-k for k = k_min .. k_max."""
    if k_min > k_max:
        raise ValueError("need k_min <= k_max")
    return [interval.length * 2.0 ** (-k) for k in range(k_min, k_max + 1)]


def _diagonal_integral(spec: Kernel, quad: QuadratureConfig):
    """int f(t, t) dt, the limit every trace route of a kernel aims at."""
    rule = integrand_rule(spec.interval, quad, (spec, spec))
    value = rule.integrate(spec.evaluate(rule.x, rule.x))
    return complex(value) if spec.is_complex else float(value)


def diagonal_trace(
    spec: Kernel,
    eps_schedule=None,
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
    tol: float = 1e-4,
) -> TraceReport:
    """Integral of the box-averaged kernel along the diagonal, per eps.

    The target is the direct quadrature of t -> f(t, t) (diagonal convention
    1(0) = 1/2); the extrapolated limit removes the leading O(eps) boundary
    term by Richardson extrapolation over the last two schedule entries.
    """
    iv = spec.interval
    if eps_schedule is None:
        eps_schedule = default_eps_schedule(iv)
    eps_schedule = [float(e) for e in eps_schedule]
    if not eps_schedule:
        raise ValueError("eps schedule is empty: need at least one width")
    if any(b >= a for a, b in zip(eps_schedule[:-1], eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")
    _check_eps(iv, eps_schedule[-1])  # the smallest, as the schedule decreases

    target = _diagonal_integral(spec, quad)
    sums = []
    for eps in eps_schedule:
        rule = integrand_rule(iv, quad, (spec, spec), integrals=2,
                              breakpoints=[iv.t0 + eps, iv.T - eps])
        vals = np.array([averaging(spec, eps, t, t) for t in rule.x])
        s = rule.integrate(vals)
        sums.append(complex(s) if spec.is_complex else float(s))

    if len(sums) >= 2:
        e1, e2 = eps_schedule[-2], eps_schedule[-1]
        extrapolated = (e1 * sums[-1] - e2 * sums[-2]) / (e1 - e2)
    else:
        extrapolated = sums[-1]
    return TraceReport.ladder(
        "kernel-trace", None, (spec.id,), sums, target, tol,
        index_values=eps_schedule, index_label="epsilon", limit=extrapolated,
        metadata={"extrapolated": extrapolated},
    )


@dataclass(frozen=True)
class FactorPair:
    """Closed-form factorization f = int f1(.,xi) f2(xi,.) dxi + remainder.

    `support` names where the xi-integrand lives: below the running minimum of
    (t, tau) or above the running maximum.  `f1` already carries any sign
    needed to make the identity additive.
    """

    f1: object
    f2: object
    remainder: object
    support: str
    xi_degree: int = 0
    xi_phase: float = 0.0


def explicit_factor_pair(spec: Kernel) -> FactorPair:
    """The proof's factor pair and rank-one remainder for a kernel kind."""
    iv = spec.interval
    if isinstance(spec, MonomialMin):
        n, m = spec.n, spec.m

        def f1(t, xi):
            return m * t**n * xi ** (m - 1) * _step(t - xi)

        def f2(xi, tau):
            return tau**n * _step(tau - xi)

        def remainder(t, tau):
            return t**n * tau**n * iv.t0**m

        return FactorPair(f1, f2, remainder, "below_min", xi_degree=m - 1)

    if isinstance(spec, MonomialMax):
        n, m = spec.n, spec.m

        def f1(t, xi):
            # sign flipped so the composition enters additively
            return -m * t**n * xi ** (m - 1) * _step(xi - t)

        def f2(xi, tau):
            return tau**n * _step(xi - tau)

        def remainder(t, tau):
            return t**n * tau**n * iv.T**m

        return FactorPair(f1, f2, remainder, "above_max", xi_degree=m - 1)

    if isinstance(spec, ComplexExponential):
        n, d = spec.n, spec.m - spec.n

        def f1(t, xi):
            if d == 0:
                return np.zeros(np.broadcast(t, xi).shape, dtype=complex)
            return 1j * d * np.exp(1j * n * t) * np.exp(1j * d * xi) * _step(t - xi)

        def f2(xi, tau):
            return np.exp(1j * n * tau) * _step(tau - xi)

        def remainder(t, tau):
            return np.exp(1j * n * t) * np.exp(1j * n * tau) * np.exp(1j * d * iv.t0)

        return FactorPair(f1, f2, remainder, "below_min", xi_phase=abs(d) * iv.length)

    raise ValueError(f"no closed-form factor pair for kernel kind {type(spec).__name__}")


def factorization_residual(
    spec: Kernel,
    pair: FactorPair | None = None,
    sample_grid: int = 32,
    nodes: int | None = None,
) -> float:
    """max over a lattice of |f(t,tau) - int f1 f2 dxi - remainder(t,tau)|,
    with the xi-integral evaluated numerically."""
    if pair is None:
        pair = explicit_factor_pair(spec)
    iv = spec.interval
    if nodes is None:
        cfg = QuadratureConfig(panels=1, nodes_per_panel=8)
        nodes = nodes_for(cfg, pair.xi_degree, pair.xi_phase)

    t = np.linspace(iv.t0, iv.T, sample_grid)
    tau = np.linspace(iv.t0, iv.T, sample_grid)
    T_grid = t[:, None]
    Tau_grid = tau[None, :]

    if pair.support == "below_min":
        lo, hi = iv.t0, np.minimum(T_grid, Tau_grid)
    elif pair.support == "above_max":
        lo, hi = np.maximum(T_grid, Tau_grid), iv.T
    else:
        raise ValueError(f"unsupported factor-pair support {pair.support!r}")

    y, v = scaled_segments(np.broadcast_to(lo, (sample_grid, sample_grid)),
                           np.broadcast_to(hi, (sample_grid, sample_grid)), nodes)
    composition = np.sum(v * pair.f1(T_grid[..., None], y) * pair.f2(y, Tau_grid[..., None]), axis=-1)
    residual = spec.evaluate(T_grid, Tau_grid) - composition - pair.remainder(T_grid, Tau_grid)
    return float(np.max(np.abs(residual)))
