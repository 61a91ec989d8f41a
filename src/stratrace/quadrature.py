"""Composite Gauss-Legendre quadrature with exactness-aware node selection.

A rule is a function of its integrand alone.  Its panel edges are the
integrand's breakpoints (dyadic Haar edges, tabulated-weight grids), one panel
per smooth piece, and an oscillatory integrand (phase > 0) also gets a uniform
split into OSCILLATORY_PANELS panels.  The per-panel node count is the least
that makes the rule exact for the declared polynomial degree and resolves the
declared oscillation; a demand beyond MAX_NODES_PER_PANEL nodes per panel
raises `QuadratureError` instead of silently degrading.  The cap and
OSCILLATORY_PANELS are module constants, so no engine takes a quadrature
argument.

Engines get their rules from one builder, `integrand_rule`: they list their
integrand's factors (weights, a kernel once per variable, basis blocks from
`OrthonormalBasis.factor`) and running integrals; it sums the degrees and
phases and unites the breakpoints.  Every engine follows one demand rule: a
rule's degree is its factors' degrees plus one per running integral, no
more, which `_running_integral` shows to be enough.

Running integrals x_g -> int_{t0}^{x_g} f at a composite rule's own nodes,
which every coefficient engine and the reduced tensor limits need, are built
in one place, `_running_integral`: per-panel prefix sums of the rule plus one
cached n x n spectral integration matrix applied to each panel's node values.
That second part alone, the integral from each node's own panel edge, is
`_panel_integral`.  Both stay private so that their time counts toward the
engine function that asked for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadratureError",
    "CompositeRule",
    "Factor",
    "gauss_rule",
    "nodes_for",
    "panel_edges",
    "composite_rule",
    "integrand_rule",
    "scaled_segments",
]


class QuadratureError(RuntimeError):
    """A rule could not meet its accuracy demand within the node cap."""


# per-panel node cap: a demand of more Gauss nodes per panel is refused
MAX_NODES_PER_PANEL = 4096
# uniform panels of an oscillatory rule; `nodes_for` sizes each panel for the
# sweep across it
OSCILLATORY_PANELS = 16


@lru_cache(maxsize=None)
def _leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_rule(n: int):
    """Gauss-Legendre nodes and weights on [-1, 1], cached."""
    if n < 1:
        raise ValueError("a Gauss rule needs at least one node")
    return _leggauss(int(n))


def nodes_for(degree: int = 0, phase: float = 0.0, floor: int = 1) -> int:
    """Per-panel node count meeting a polynomial-degree and oscillation demand.

    `degree` is the largest total polynomial degree of the integrand on the
    panel; `phase` is the largest angular sweep (|omega| * panel width) of any
    oscillatory factor.  The degree rule is the exactness bound; the phase rule
    keeps the Gauss error in the superexponential regime with margin to spare.
    `floor` is the least count returned, for callers that keep a fixed
    baseline rule of their own.
    """
    need = max(0, (int(degree) + 2) // 2)
    if phase > 0.0:
        need += math.ceil(0.67 * float(phase)) + 14
    n = max(floor, need)
    if n > MAX_NODES_PER_PANEL:
        raise QuadratureError(
            f"demand of {n} nodes per panel exceeds cap {MAX_NODES_PER_PANEL} "
            f"(degree={degree}, phase={phase:.1f})"
        )
    return n


def panel_edges(t0: float, t1: float, panels: int, breakpoints=()) -> np.ndarray:
    """Sorted union of uniform panel edges and interior breakpoints."""
    edges = np.linspace(t0, t1, panels + 1)
    br = np.asarray(breakpoints, dtype=float)
    if br.size:
        br = br[(br > t0) & (br < t1)]
        edges = np.concatenate([edges, br])
    edges = np.unique(edges)
    # drop near-duplicate edges so panels keep nonzero width
    tol = 1e-13 * (t1 - t0)
    keep = np.concatenate([[True], np.diff(edges) > tol])
    edges = edges[keep]
    edges[0], edges[-1] = t0, t1
    return edges


@dataclass(frozen=True)
class CompositeRule:
    """Flattened composite Gauss rule: nodes `x`, weights `w`, panel `edges`,
    and a common per-panel node count (nodes are stored panel by panel)."""

    x: np.ndarray
    w: np.ndarray
    edges: np.ndarray
    nodes_per_panel: int

    @property
    def panels(self) -> int:
        return len(self.edges) - 1

    def integrate(self, values: np.ndarray):
        """sum_g w_g f(x_g), from one integrand's values f(x_g) at the nodes."""
        return values @ self.w

    def panel_sums(self, values: np.ndarray) -> np.ndarray:
        """Per-panel integral of point values sampled on this rule.

        `values` has node index first; returns an array with panel index first.
        """
        wv = values * (self.w if values.ndim == 1 else self.w.reshape((-1,) + (1,) * (values.ndim - 1)))
        shaped = wv.reshape((self.panels, self.nodes_per_panel) + values.shape[1:])
        return shaped.sum(axis=1)


def composite_rule(
    t0: float,
    t1: float,
    breakpoints=(),
    degree: int = 0,
    phase: float = 0.0,
) -> CompositeRule:
    """Build a composite rule over [t0, t1]: one panel per breakpoint
    interval, or, when `phase` is positive, the panels of the breakpoints
    united with OSCILLATORY_PANELS uniform panels.

    `phase` is the total angular sweep over the whole interval; it is scaled
    to the widest panel before the per-panel node count is chosen.
    """
    if not (t1 > t0):
        raise ValueError(f"empty integration range [{t0}, {t1}]")
    edges = panel_edges(t0, t1, OSCILLATORY_PANELS if phase > 0.0 else 1, breakpoints)
    widths = np.diff(edges)
    panel_phase = phase * widths.max() / (t1 - t0) if phase > 0.0 else 0.0
    n = nodes_for(degree, panel_phase)
    ref_x, ref_w = gauss_rule(n)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * widths
    x = (mid[:, None] + half[:, None] * ref_x[None, :]).ravel()
    w = (half[:, None] * ref_w[None, :]).ravel()
    return CompositeRule(x=x, w=w, edges=edges, nodes_per_panel=n)


@dataclass(frozen=True)
class Factor:
    """An integrand factor as a rule sees it; weights and kernels carry the
    same three attributes, so they are factors as they stand."""

    degree: int
    phase: float
    breakpoints: np.ndarray


def integrand_rule(interval, factors, integrals: int = 0, breakpoints=()) -> CompositeRule:
    """Rule over `interval` (anything with `t0` and `T`) for the product of
    `factors` under `integrals` running integrals: degree = sum of degrees +
    integrals, phase = sum of phases, breakpoints = union of all of them."""
    degree = sum(f.degree for f in factors) + integrals
    phase = sum(f.phase for f in factors)
    breaks = np.concatenate([np.asarray(breakpoints, dtype=float)]
                            + [np.asarray(f.breakpoints, dtype=float) for f in factors])
    return composite_rule(interval.t0, interval.T, breakpoints=breaks, degree=degree, phase=phase)


def scaled_segments(lo, hi, inner_nodes: int):
    """Gauss nodes/weights for a batch of segments [lo_g, hi_g].

    Either bound may be a scalar broadcast against the other.  Returns arrays
    shaped (G, inner_nodes); zero-length segments get zero weights.
    """
    ref_x, ref_w = gauss_rule(inner_nodes)
    r = 0.5 * (ref_x + 1.0)
    u = 0.5 * ref_w
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    lo, hi = np.broadcast_arrays(lo, hi)
    span = hi - lo
    y = lo[..., None] + span[..., None] * r
    v = span[..., None] * u
    return y, v


@lru_cache(maxsize=16)
def _integration_matrix(n: int) -> np.ndarray:
    """S with (S @ f)[a] = int_{-1}^{x_a} f over the n Gauss nodes x_a of
    [-1, 1], exact when f is a polynomial of degree <= n - 1 (the spectral
    integration matrix, Greengard 1991).

    f is interpolated in Legendre polynomials, whose coefficients the Gauss
    rule gives exactly: c_k = (2k+1)/2 sum_b w_b P_k(x_b) f_b; then
    int_{-1}^{x} P_k = (P_{k+1} - P_{k-1}) / (2k+1), with P_{-1} = -1 for k = 0.
    """
    x, w = gauss_rule(n)
    p = np.polynomial.legendre.legvander(x, n)
    below = np.concatenate([-np.ones((n, 1)), p[:, :n - 1]], axis=1)
    s = 0.5 * (p[:, 1:] - below) @ (w[:, None] * p[:, :n]).T
    s.setflags(write=False)
    return s


def _running_integral(rule: CompositeRule, values: np.ndarray) -> np.ndarray:
    """int_{t0}^{x_g} f at every node x_g of `rule`, from f at those nodes.

    `values` has the node axis first and any trailing axes; the result has the
    same shape.  Whole panels left of x_g come from prefix sums over `rule`;
    the partial panel is (h_p / 2) S @ f_p with the integration matrix S.  A
    contraction sum_g w_g h(x_g) (S f)(x_g) is exact whenever the rule is
    exact for h * int f and h or f has degree <= nodes_per_panel - 1, so the
    callers' product demands on `rule` suffice.
    """
    per_panel = rule.panel_sums(values)
    prefix = np.empty_like(per_panel)
    prefix[0] = 0.0
    np.cumsum(per_panel[:-1], axis=0, out=prefix[1:])
    inside = _panel_integral(rule, values)
    inside += prefix.reshape(rule.panels, 1, -1)
    return inside.reshape(values.shape)


def _panel_integral(rule: CompositeRule, values: np.ndarray) -> np.ndarray:
    """int_{e_p}^{x_g} f from the left edge e_p of each node's own panel p,
    (h_p / 2) S @ f_p, shaped (panels, nodes_per_panel, -1): the partial
    panel of `_running_integral`, without the whole panels before it."""
    n = rule.nodes_per_panel
    inside = _integration_matrix(n) @ values.reshape(rule.panels, n, -1)
    # built in place: the tensor's mid level alone holds G * count^2 values
    inside *= 0.5 * np.diff(rule.edges)[:, None, None]
    return inside
