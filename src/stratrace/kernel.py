"""Volterra-type kernels on the square, their box averaging, and the
closed-form factorizations that certify them as trace class.

Every kernel kind is data: two factor weights (a, b) and a shape, one-sided
a(t) b(tau) 1(t - tau), mirrored (plus a(tau) b(t) 1(tau - t)) or stepless
a(t) b(tau).  `coeffs` expands a kind from its weights alone, and
`Kernel.evaluate` is written once for all of them, with the unit step taking
the value 1/2 on the diagonal, so mirrored kinds agree with their two-sided
definition at t = tau.  `averaging` implements the zero-extension box average

    S_eps f(t, tau) = (1 / 4 eps^2) * int int over the eps-box around (t, tau)

at a point or at arrays of points, with its own 2-D Gauss quadrature per box,
and `diagonal_trace` integrates it along the diagonal for a decreasing eps
schedule, averaging all nodes of each eps rule in one call, and extrapolates
the limit.  `explicit_factor_pair` emits the pieces
(f1, f2, rank-one remainder) with f(t,tau) = int f1(t,xi) f2(xi,tau) dxi +
remainder(t,tau), and `factorization_residual` checks that identity on a
lattice with the xi-integral done numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import Interval
from .quadrature import gauss_rule, integrand_rule, nodes_for, scaled_segments
from .reports import TraceReport
from .weights import WeightFunction, _integer

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
    """A kernel kind on the square over `interval`, built from its two factor
    weights (a, b) = `weights` in one of three shapes:

        one-sided  a(t) b(tau) 1(t - tau)
        mirrored   a(t) b(tau) 1(t - tau) + a(tau) b(t) 1(tau - t)
        stepless   a(t) b(tau)

    `has_step` and `mirrored` name the shape.  The expansion engine reads
    (a, b) and the shape; the box average and the diagonal integral read
    `evaluate` and the quadrature demand, one integrand factor per variable.
    """

    interval: Interval
    has_step: bool = True
    mirrored: bool = False
    is_complex: bool = False

    @property
    def weights(self) -> tuple:
        raise NotImplementedError

    def evaluate(self, t, tau):
        t = np.asarray(t, dtype=float)
        tau = np.asarray(tau, dtype=float)
        a, b = self.weights
        if not self.has_step:
            return a(t) * b(tau)
        s = _step(t - tau)
        if not self.mirrored:
            return a(t) * b(tau) * s
        return a(t) * b(tau) * s + a(tau) * b(t) * (1.0 - s)

    # quadrature demand per variable: the worse of the two factor weights
    @property
    def degree(self) -> int:
        return max(w.degree for w in self.weights)

    @property
    def phase(self) -> float:
        return max(w.phase for w in self.weights)

    @property
    def breakpoints(self) -> np.ndarray:
        a, b = self.weights
        return np.union1d(a.breakpoints, b.breakpoints)

    @property
    def id(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class _Power(WeightFunction):
    """t^k, a factor weight of the monomial kinds."""

    k: int
    interval: Interval

    def __call__(self, t):
        return np.asarray(t, dtype=float) ** self.k

    @property
    def degree(self):
        return self.k

    @property
    def id(self):
        return f"power:{self.k}"


@dataclass(frozen=True)
class _Cexp(WeightFunction):
    """exp(i n t), a factor weight of the complex exponential kind.  Its
    frequency n need not be a multiple of 2 pi / L, so a `TrigSumWeight`
    cannot stand in for it."""

    n: int
    interval: Interval

    def __call__(self, t):
        return np.exp(1j * self.n * np.asarray(t, dtype=float))

    @property
    def phase(self):
        return abs(self.n) * self.interval.length

    @property
    def id(self):
        return f"cexp:{self.n}"


@dataclass(frozen=True)
class _WeightPair(Kernel):
    """A kernel whose factor weights are two weight functions on a common
    interval.  Kinds differ in their shape and in the `_name` their id
    carries."""

    phi: WeightFunction
    psi: WeightFunction

    def __post_init__(self):
        if self.phi.interval != self.psi.interval:
            raise ValueError("weight functions live on different intervals")
        object.__setattr__(self, "interval", self.phi.interval)

    @property
    def weights(self):
        return self.phi, self.psi

    @property
    def id(self):
        return f"{self._name}({self.phi.id};{self.psi.id})"


class VolterraProduct(_WeightPair):
    """phi(t) psi(tau) 1(t - tau): the one-sided product kernel."""

    _name = "volterra"


class SymmetrizedVolterra(_WeightPair):
    """phi(t) psi(tau) 1(t - tau) + psi(t) phi(tau) 1(tau - t)."""

    _name = "symmetrized"
    mirrored = True


class SeparableRankOne(_WeightPair):
    """phi(t) psi(tau) on the whole square; no step, trivially trace class."""

    _name = "rank_one"
    has_step = False


@dataclass(frozen=True)
class _IntegerPair(Kernel):
    """A mirrored kind with integer parameters n, m on an interval."""

    n: int
    m: int
    interval: Interval
    mirrored = True

    def __post_init__(self):
        for name in ("n", "m"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))

    @property
    def id(self):
        return f"{self._name}(n={self.n},m={self.m})"


class _Monomial(_IntegerPair):
    """Integer exponents n >= 0, m >= 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.n < 0 or self.m < 1:
            raise ValueError("monomial kernel needs n >= 0 and m >= 1")


class MonomialMin(_Monomial):
    """t^n tau^(m+n) 1(t - tau) + tau^n t^(m+n) 1(tau - t)
    = (t tau)^n min(t, tau)^m, with n >= 0, m >= 1."""

    _name = "monomial_min"

    @property
    def weights(self):
        return _Power(self.n, self.interval), _Power(self.m + self.n, self.interval)


class MonomialMax(_Monomial):
    """t^(m+n) tau^n 1(t - tau) + tau^(m+n) t^n 1(tau - t)
    = (t tau)^n max(t, tau)^m, with n >= 0, m >= 1."""

    _name = "monomial_max"

    @property
    def weights(self):
        return _Power(self.m + self.n, self.interval), _Power(self.n, self.interval)


class ComplexExponential(_IntegerPair):
    """exp(i n t) exp(i m tau) 1(t - tau) + exp(i n tau) exp(i m t) 1(tau - t),
    integer n, nonzero integer m."""

    _name = "complex_exp"
    is_complex = True

    def __post_init__(self):
        super().__post_init__()
        if self.m == 0:
            raise ValueError("complex exponential kernel needs m != 0")

    @property
    def weights(self):
        return _Cexp(self.n, self.interval), _Cexp(self.m, self.interval)

    # both sweeps added, above the default maximum, so that the box-averaging
    # and diagonal rules keep their node counts
    @property
    def phase(self):
        return (abs(self.n) + abs(self.m)) * self.interval.length


def evaluate_kernel(spec: Kernel, t, tau):
    """Pointwise kernel value(s); validates that the points lie in the square."""
    iv = spec.interval
    if not (iv.contains(t) and iv.contains(tau)):
        raise ValueError(f"points fall outside the square over {iv.id}")
    out = spec.evaluate(t, tau)
    if np.ndim(t) == 0 and np.ndim(tau) == 0:
        return complex(out) if spec.is_complex else float(out)
    return out


# least Gauss nodes per box panel, in both variables
_BOX_NODES = 24


def _box_nodes(spec: Kernel, eps: float) -> int:
    local_phase = spec.phase * (2.0 * eps) / spec.interval.length
    return nodes_for(2 * spec.degree + 1, local_phase, floor=_BOX_NODES)


def _check_eps(interval: Interval, eps: float) -> None:
    """Below the float spacing at the ends, t +- eps rounds back to t and the
    average divides a lost width by 4 eps^2."""
    if not (0.0 < eps < math.inf):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    spacing = math.ulp(max(abs(interval.t0), abs(interval.T)))
    if eps < spacing:
        raise ValueError(f"eps {eps:.3g} is below the float spacing {spacing:.3g} "
                         f"at the ends of {interval.id}")


# values held at once by one `averaging` batch: points x outer panels x theta
# nodes x strip nodes, the shape every strip segment evaluates the kernel on
_AVERAGING_BLOCK_VALUES = 2 ** 13


def _panels(lo, hi, cuts):
    """Start and end arrays, shaped (rows, panels), of each row's [lo, hi]
    split at the row's cuts (rows, k) that lie strictly inside it.

    Other cuts move to hi before sorting, so each row's own panels come first
    and its padding panels have zero width (`scaled_segments` gives them zero
    weights, so they add an exact 0); a column empty in every row is dropped.
    """
    inside = (cuts > lo[:, None]) & (cuts < hi[:, None])
    cuts = np.sort(np.where(inside, cuts, hi[:, None]), axis=1)
    edges = np.column_stack([lo, cuts, hi])
    return _nonempty(edges[:, :-1], edges[:, 1:])


def _nonempty(a, b):
    keep = np.any(b > a, axis=0)
    return a[:, keep], b[:, keep]


def averaging(spec: Kernel, eps: float, t, tau):
    """Box average of the zero-extended kernel over the eps-box around (t, tau).

    `t` and `tau` may be arrays, broadcast together; the result has their
    shape, or is a float (complex for complex kernels) for scalar points.
    Every point is averaged with its own panels and the same summation order
    whether it comes alone or in a batch, so its value does not depend on the
    batch: `diagonal_trace` averages all nodes of an eps rule in one call.
    Each panel of a box gets the same Gauss rule in both variables: at least
    24 nodes, more where the kernel's degree or its oscillation across the
    box demands them.
    """
    iv = spec.interval
    _check_eps(iv, eps)
    t, tau = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    if not (np.isfinite(t).all() and np.isfinite(tau).all()):
        raise ValueError("averaging needs finite points (t, tau)")
    out = np.zeros(t.size, dtype=complex if spec.is_complex else float)
    th_lo, th_hi = np.maximum(iv.t0, t - eps).ravel(), np.minimum(iv.T, t + eps).ravel()
    vt_lo, vt_hi = np.maximum(iv.t0, tau - eps).ravel(), np.minimum(iv.T, tau + eps).ravel()
    # boxes wholly outside the square average the zero extension: exactly 0
    live = np.flatnonzero((th_lo < th_hi) & (vt_lo < vt_hi))
    th_lo, th_hi, vt_lo, vt_hi = th_lo[live], th_hi[live], vt_lo[live], vt_hi[live]

    n = _box_nodes(spec, eps)
    ref_x, ref_w = gauss_rule(n)
    bps = spec.breakpoints
    breakpoints = np.broadcast_to(bps, (len(live), len(bps)))
    # outer (theta) panels split where the diagonal enters/leaves the box and
    # at any kernel breakpoints, so every panel integrand is smooth
    steps = [vt_lo[:, None], vt_hi[:, None]] if spec.has_step else []
    a_all, b_all = _panels(th_lo, th_hi, np.hstack(steps + [breakpoints]))
    chunk = max(1, _AVERAGING_BLOCK_VALUES // max(1, a_all.shape[1] * n * n))
    for start in range(0, len(live), chunk):
        rows = slice(start, start + chunk)
        a, b = _nonempty(a_all[rows], b_all[rows])
        theta = (0.5 * (a + b))[..., None] + (0.5 * (b - a))[..., None] * ref_x
        w_theta = (0.5 * (b - a))[..., None] * ref_w
        inner = _inner_strip(spec, theta, vt_lo[rows], vt_hi[rows], breakpoints[rows], n)
        panel_sums = np.sum(w_theta * inner, axis=-1)
        # panel after panel, in ascending order, as a lone point adds them;
        # np.sum over panels would sum pairwise and move the last bits
        total = np.zeros(len(panel_sums), dtype=out.dtype)
        for column in panel_sums.T:
            total = total + column
        out[live[rows]] = total / (4.0 * eps * eps)
    if t.ndim == 0:
        return complex(out[0]) if spec.is_complex else float(out[0])
    return out.reshape(t.shape)


def _inner_strip(spec: Kernel, theta: np.ndarray, vt_lo, vt_hi, breakpoints, n: int):
    """int_{vt_lo}^{vt_hi} f(theta, v) dv for theta nodes shaped (points,
    panels, nodes) and one strip per point, splitting at the diagonal
    v = theta and at the point's kernel breakpoints."""
    lo_all, hi_all = _panels(vt_lo, vt_hi, breakpoints)
    out = np.zeros(theta.shape, dtype=complex if spec.is_complex else float)
    for lo, hi in zip(lo_all.T, hi_all.T):
        lo, hi = lo[:, None, None], hi[:, None, None]
        split = np.clip(theta, lo, hi)
        for seg_lo, seg_hi in ((lo, split), (split, hi)) if spec.has_step else ((lo, hi),):
            y, v = scaled_segments(seg_lo, seg_hi, n)
            out = out + np.sum(v * spec.evaluate(theta[..., None], y), axis=-1)
    return out


def default_eps_schedule(interval: Interval, k_min: int = 3, k_max: int = 12):
    """Geometric schedule L * 2^-k for k = k_min .. k_max."""
    if k_min > k_max:
        raise ValueError("need k_min <= k_max")
    return [interval.length * 2.0 ** (-k) for k in range(k_min, k_max + 1)]


def _diagonal_integral(spec: Kernel):
    """int f(t, t) dt, the limit every trace route of a kernel aims at."""
    rule = integrand_rule(spec.interval, (spec, spec))
    value = rule.integrate(spec.evaluate(rule.x, rule.x))
    return complex(value) if spec.is_complex else float(value)


def diagonal_trace(
    spec: Kernel,
    eps_schedule=None,
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
    for eps in eps_schedule:
        _check_eps(iv, eps)

    target = _diagonal_integral(spec)
    sums = []
    for eps in eps_schedule:
        # the box average is smooth along the diagonal except where a box edge
        # crosses the square's edge or a kernel breakpoint g
        kinks = np.concatenate([[iv.t0 + eps, iv.T - eps],
                                spec.breakpoints - eps, spec.breakpoints + eps])
        rule = integrand_rule(iv, (spec, spec), integrals=2, breakpoints=kinks)
        s = rule.integrate(averaging(spec, eps, rule.x, rule.x))
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


def factorization_residual(spec: Kernel) -> float:
    """max over a 32 x 32 lattice of |f(t,tau) - int f1 f2 dxi - remainder(t,tau)|
    for the kind's `explicit_factor_pair`, with the xi-integral done by a
    Gauss rule of at least 8 nodes that is exact for the pair's xi-degree and
    resolves its xi-oscillation."""
    pair = explicit_factor_pair(spec)
    iv = spec.interval
    nodes = nodes_for(pair.xi_degree, pair.xi_phase, floor=8)
    sample_grid = 32

    t = np.linspace(iv.t0, iv.T, sample_grid)
    tau = np.linspace(iv.t0, iv.T, sample_grid)
    T_grid = t[:, None]
    Tau_grid = tau[None, :]

    if pair.support == "below_min":
        lo, hi = iv.t0, np.minimum(T_grid, Tau_grid)
    else:
        lo, hi = np.maximum(T_grid, Tau_grid), iv.T

    y, v = scaled_segments(np.broadcast_to(lo, (sample_grid, sample_grid)),
                           np.broadcast_to(hi, (sample_grid, sample_grid)), nodes)
    composition = np.sum(v * pair.f1(T_grid[..., None], y) * pair.f2(y, Tau_grid[..., None]), axis=-1)
    residual = spec.evaluate(T_grid, Tau_grid) - composition - pair.remainder(T_grid, Tau_grid)
    return float(np.max(np.abs(residual)))
