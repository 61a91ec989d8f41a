"""The quadrature demand of every engine rule, pinned.

Each engine asks `integrand_rule` for one rule per integrand, and every
engine follows one demand rule: the rule's degree is its factors' degrees
plus one per running integral.  These tests capture the rules it returns and
pin their per-panel node counts and panel edges, so a demand that drifts (a
factor dropped or doubled, a running integral miscounted, a breakpoint lost)
fails here before it moves a number.  A rule without oscillation has one
panel per breakpoint interval and exactly the nodes its degree demands;
cases of both degree parities catch a drift of one degree either way.  An
oscillatory rule adds the 16 uniform panels (UNIFORM16) to its breakpoints.
"""

import numpy as np
import pytest

from stratrace import (
    ComplexExponential,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    TabulatedWeight,
    TrigSumWeight,
    diagonal_trace,
    inner_product,
    kernel_diagonal,
    tensor_coefficients,
    volterra_diagonal,
    volterra_norm_sq,
    weight_basis_inner,
)
from stratrace import coeffs, kernel, quadrature, trace
from stratrace.kernel import _diagonal_integral
from stratrace.trace import _reduced_limit_vector

from conftest import UNIT, make_basis, poly

P3 = poly(1.0, -1.0, 0.0, 2.0)
P2 = poly(0.5, 0.0, 1.0)
TRIG = TrigSumWeight(((0, 0.0, 1.0), (2, 1.0, 0.5)), UNIT)
TAB = TabulatedWeight(np.array([0.0, 0.3, 0.55, 1.0]), np.array([1.0, 2.0, 0.5, 1.0]), UNIT)
TAB_BREAKS = (0.3, 0.55)
HAAR8 = tuple(k / 8 for k in range(1, 8))  # the dyadic edges of 8 Haar functions
UNIFORM16 = tuple(k / 16 for k in range(1, 16))


@pytest.fixture
def rules(monkeypatch):
    """(nodes per panel, edges) of every rule the engines build, in order."""
    seen = []
    build = quadrature.integrand_rule

    def capture(*args, **kwargs):
        rule = build(*args, **kwargs)
        seen.append((rule.nodes_per_panel, rule.edges))
        return rule

    for module in (coeffs, kernel, trace):
        monkeypatch.setattr(module, "integrand_rule", capture)
    return seen


def _check(rules, call, expected):
    call()
    assert [n for n, _ in rules] == [n for n, _ in expected]
    for (_, edges), (_, inner) in zip(rules, expected):
        assert np.array_equal(edges, np.union1d([0.0, 1.0], inner))


@pytest.mark.parametrize("phi, psi, family, count, expected", [
    (P2, P2, "legendre", 6, [(8, ())]),
    (P3, P2, "legendre", 6, [(9, ())]),
    (TRIG, TAB, "fourier", 5, [(18, UNIFORM16 + TAB_BREAKS)]),
    (TAB, P2, "haar", 8, [(3, HAAR8 + TAB_BREAKS)]),
])
def test_volterra_tables_demand(rules, phi, psi, family, count, expected):
    _check(rules, lambda: volterra_diagonal(phi, psi, make_basis(family, count), count), expected)


@pytest.mark.parametrize("ws, family, count, expected", [
    ((P2, P2, P2), "legendre", 4, [(9, ())]),
    ((P3, P2, P2), "legendre", 4, [(10, ())]),
    ((TRIG, P2, TAB), "fourier", 4, [(20, UNIFORM16 + TAB_BREAKS)]),
    ((TAB, P2, P3), "haar", 8, [(5, HAAR8 + TAB_BREAKS)]),
])
def test_tensor_coefficients_demand(rules, ws, family, count, expected):
    _check(rules, lambda: tensor_coefficients(*ws, make_basis(family, count), count), expected)


@pytest.mark.parametrize("phi, psi, expected", [
    (P3, P2, [(6, ())]),
    (P2, P2, [(5, ())]),
    (TRIG, TAB, [(18, UNIFORM16 + TAB_BREAKS)]),
])
def test_volterra_norm_sq_demand(rules, phi, psi, expected):
    _check(rules, lambda: volterra_norm_sq(phi, psi), expected)


@pytest.mark.parametrize("w, family, count, expected", [
    (P3, "legendre", 8, [(6, ())]),
    (P2, "legendre", 8, [(5, ())]),
    (TRIG, "fourier", 7, [(17, UNIFORM16)]),
    (TAB, "haar", 8, [(1, HAAR8 + TAB_BREAKS)]),
])
def test_weight_basis_inner_demand(rules, w, family, count, expected):
    _check(rules, lambda: weight_basis_inner(w, make_basis(family, count), count), expected)


# a kernel's rules are those of its factor weights (a, b): the one rule of
# G(a, b) for a stepped kind, two `weight_basis_inner` rules
# (a, then b) for the stepless one
@pytest.mark.parametrize("spec, family, count, expected", [
    (SymmetrizedVolterra(P3, P2), "legendre", 4, [(7, ())]),
    (MonomialMax(2, 1, UNIT), "haar", 8, [(4, HAAR8)]),
    (ComplexExponential(1, 3, UNIT), "fourier", 3, [(16, UNIFORM16)]),
    (SymmetrizedVolterra(TAB, TRIG), "legendre", 3, [(19, UNIFORM16 + TAB_BREAKS)]),
    (SeparableRankOne(TRIG, TAB), "fourier", 5,
     [(17, UNIFORM16), (16, UNIFORM16 + TAB_BREAKS)]),
    (ComplexExponential(7, -9, UNIT), "legendre", 3, [(18, UNIFORM16)]),
])
def test_kernel_matrix_demand(rules, spec, family, count, expected):
    _check(rules, lambda: kernel_diagonal(spec, make_basis(family, count), count), expected)


@pytest.mark.parametrize("phi, psi, expected", [
    (P3, P2, [(3, ())]),
    (P2, P2, [(3, ())]),
    (TRIG, TAB, [(16, UNIFORM16 + TAB_BREAKS)]),
])
def test_inner_product_demand(rules, phi, psi, expected):
    _check(rules, lambda: inner_product(phi, psi), expected)


@pytest.mark.parametrize("pair, outer, family, n_reduced, expected", [
    ((P2, P2), P2, "legendre", 4, [(6, ())]),
    ((P3, P2), P2, "legendre", 4, [(6, ())]),
    ((TRIG, P2), TAB, "fourier", 5, [(19, UNIFORM16 + TAB_BREAKS)]),
    ((TAB, P3), P2, "haar", 8, [(4, HAAR8 + TAB_BREAKS)]),
])
def test_reduced_limit_vector_demand(rules, pair, outer, family, n_reduced, expected):
    _check(rules, lambda: _reduced_limit_vector(
        pair, outer, make_basis(family, n_reduced), n_reduced, from_left=True), expected)


@pytest.mark.parametrize("spec, expected", [
    (MonomialMin(1, 2, UNIT), [(4, ())]),
    (SymmetrizedVolterra(TAB, TRIG), [(18, UNIFORM16 + TAB_BREAKS)]),
    (ComplexExponential(1, 3, UNIT), [(16, UNIFORM16)]),
])
def test_diagonal_integral_demand(rules, spec, expected):
    _check(rules, lambda: _diagonal_integral(spec), expected)


@pytest.mark.parametrize("spec, schedule, expected", [
    (MonomialMin(1, 2, UNIT), [0.1, 0.05],
     [(4, ()), (5, (0.1, 1.0 - 0.1)), (5, (0.05, 1.0 - 0.05))]),
    # the box rules split where a box edge crosses the square's edge (eps,
    # 1 - eps) or a breakpoint g (g - eps, g + eps)
    (SymmetrizedVolterra(TAB, TRIG), [0.2],
     [(18, UNIFORM16 + TAB_BREAKS),
      (19, UNIFORM16 + TAB_BREAKS + (0.2, 0.8) + (0.3 - 0.2, 0.3 + 0.2, 0.55 - 0.2, 0.55 + 0.2))]),
])
def test_diagonal_trace_demand(rules, spec, schedule, expected):
    _check(rules, lambda: diagonal_trace(spec, schedule), expected)
