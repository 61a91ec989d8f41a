"""Composite Gauss rules: exactness degrees, breakpoints, running integrals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratrace import QuadratureError, composite_rule, gauss_rule, volterra_diagonal
from stratrace.quadrature import (
    MAX_NODES_PER_PANEL,
    OSCILLATORY_PANELS,
    Factor,
    integrand_rule,
    _integration_matrix,
    _running_integral,
    nodes_for,
    scaled_segments,
)

from conftest import UNIT, make_basis, poly


def test_gauss_rule_exact_for_monomials_up_to_2n_minus_1():
    for n in (1, 2, 4, 8):
        x, w = gauss_rule(n)
        for k in range(2 * n):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            assert abs(np.sum(w * x**k) - exact) < 1e-14


def test_gauss_rule_weights_sum_to_interval_length():
    x, w = gauss_rule(11)
    assert abs(w.sum() - 2.0) < 1e-14
    assert np.all(np.diff(x) > 0)


def test_composite_rule_integrates_polynomial_exactly():
    rule = composite_rule(0.0, 1.0, degree=7)
    assert abs(rule.integrate(rule.x**7) - 1.0 / 8.0) < 1e-15


def test_composite_rule_resolves_requested_phase():
    # int_0^2 sin(40 t) dt = (1 - cos 80) / 40
    rule = composite_rule(0.0, 2.0, degree=0, phase=80.0)
    exact = (1.0 - np.cos(80.0)) / 40.0
    assert abs(rule.integrate(np.sin(40.0 * rule.x)) - exact) < 1e-12


def test_breakpoints_become_panel_edges():
    rule = composite_rule(0.0, 1.0, breakpoints=[0.3, 0.7])
    assert np.isclose(rule.edges, 0.3).any()
    assert np.isclose(rule.edges, 0.7).any()


def test_breakpoints_outside_interval_are_dropped():
    rule = composite_rule(0.0, 1.0, breakpoints=[-0.5, 1.5])
    assert rule.edges[0] == 0.0 and rule.edges[-1] == 1.0
    assert np.all(rule.edges >= 0.0) and np.all(rule.edges <= 1.0)


def test_step_integrand_with_matching_edge_is_exact():
    rule = composite_rule(0.0, 1.0, breakpoints=[1.0 / 3.0])
    vals = np.where(rule.x < 1.0 / 3.0, 1.0, 0.0)
    assert abs(rule.integrate(vals) - 1.0 / 3.0) < 1e-14


def test_panel_sums_add_up_to_integral():
    rule = composite_rule(0.0, 1.0, degree=5)
    vals = rule.x**5
    assert abs(rule.panel_sums(vals).sum() - rule.integrate(vals)) < 1e-15


def test_integration_matrix_integrates_monomials_below_n():
    for n in (1, 2, 5, 8, 64):
        x, _ = gauss_rule(n)
        s = _integration_matrix(n)
        for k in range(n):
            exact = (x ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            assert np.max(np.abs(s @ x**k - exact)) < 1e-14


def test_running_integral_is_exact_for_cubics():
    # pointwise exactness for an integrand of degree k needs k + 1 nodes a
    # panel, the demand of degree 2k
    rule = composite_rule(0.0, 1.0, degree=4)
    assert rule.nodes_per_panel == 3
    # running integral of t^2 from the left end to each outer node
    running = _running_integral(rule, rule.x**2)
    assert np.max(np.abs(running - rule.x**3 / 3.0)) < 1e-14


def test_running_integral_with_trailing_axes_across_a_breakpoint():
    # pointwise exact up to the t^4 integrand: 5 nodes a panel, degree 8
    rule = composite_rule(0.0, 1.0, breakpoints=[0.3], degree=8)
    assert rule.nodes_per_panel == 5
    x = rule.x
    # t times (1, t^2, then t^3 in a second trailing axis), node axis first
    values = x[:, None, None] * np.stack([np.ones_like(x), x**2, x**3], axis=-1).reshape(-1, 1, 3)
    running = _running_integral(rule, values)
    assert running.shape == (len(x), 1, 3)
    exact = np.stack([x**2 / 2.0, x**4 / 4.0, x**5 / 5.0], axis=-1).reshape(-1, 1, 3)
    # nodes on both sides of the 0.3 edge, which the rule keeps as a panel edge
    assert np.isclose(rule.edges, 0.3).any() and x.min() < 0.3 < x.max()
    assert np.max(np.abs(running - exact)) < 1e-15


def test_scaled_segments_variable_upper_bounds():
    ends = np.array([0.25, 0.5, 1.0])
    y, v = scaled_segments(np.zeros_like(ends), ends, 6)
    vals = np.einsum("gm,gm->g", v, y**4)
    assert np.max(np.abs(vals - ends**5 / 5.0)) < 1e-14


def test_nodes_for_grows_with_degree_and_phase():
    # n Gauss nodes are exact up to degree 2n - 1
    assert [nodes_for(d) for d in range(6)] == [1, 1, 2, 2, 3, 3]
    assert nodes_for(40) == 21
    assert nodes_for(0, phase=200.0) == 1 + 134 + 14


def test_nodes_for_keeps_a_callers_floor():
    assert nodes_for(3, floor=8) == 8
    assert nodes_for(40, floor=8) == 21
    assert nodes_for(0, phase=1.0, floor=8) == 16


def test_nodes_for_raises_beyond_cap():
    # degree 2n - 2 needs n nodes: the cap itself is met, one more node is not
    assert nodes_for(2 * MAX_NODES_PER_PANEL - 2) == MAX_NODES_PER_PANEL
    with pytest.raises(QuadratureError, match=f"exceeds cap {MAX_NODES_PER_PANEL}"):
        nodes_for(2 * MAX_NODES_PER_PANEL)


def test_legendre_node_cap_is_reached_at_4096_terms():
    # N terms with linear weights need degree 1 + 1 + 2(N - 1) + 1 = 2N + 1:
    # N = 4096 asks for 4097 nodes a panel, one past the cap; the rule is
    # refused before any evaluation
    tee = poly(0.0, 1.0)
    with pytest.raises(QuadratureError, match="demand of 4097 nodes per panel exceeds cap 4096"):
        volterra_diagonal(tee, tee, make_basis("legendre", 4096), 4096)


def test_integrand_rule_sums_degrees_and_phases_and_unites_breakpoints():
    factors = (Factor(3, 0.0, np.array([0.3])), Factor(2, 4.0 * np.pi, np.empty(0)),
               poly(1.0, 2.0), Factor(0, 2.0 * np.pi, np.array([0.3, 0.6])))
    rule = integrand_rule(UNIT, factors, integrals=2, breakpoints=[0.9])
    # degree 3 + 2 + 1 + 0 + 2 integrals = 8 needs 5 nodes; phase 6 pi over the
    # widest of the 16 uniform panels (1/16) adds ceil(0.67 * 6 pi / 16) + 14
    expected = composite_rule(0.0, 1.0, breakpoints=[0.3, 0.6, 0.9],
                              degree=8, phase=6.0 * np.pi)
    assert rule.nodes_per_panel == expected.nodes_per_panel == 5 + 14 + 1
    assert np.array_equal(rule.edges, np.union1d(np.linspace(0.0, 1.0, OSCILLATORY_PANELS + 1),
                                                 [0.3, 0.6, 0.9]))
    assert np.array_equal(rule.edges, expected.edges)


def test_integrand_rule_without_oscillation_has_one_panel_per_smooth_piece():
    factors = (Factor(3, 0.0, np.array([0.3])), poly(1.0, 2.0), Factor(0, 0.0, np.array([0.6])))
    rule = integrand_rule(UNIT, factors, integrals=2, breakpoints=[0.9])
    assert rule.nodes_per_panel == 4
    assert np.array_equal(rule.edges, [0.0, 0.3, 0.6, 0.9, 1.0])


def test_integrand_rule_without_factors_is_one_gauss_node():
    rule = integrand_rule(UNIT, ())
    assert rule.nodes_per_panel == 1
    assert np.array_equal(rule.edges, [0.0, 1.0])
    assert integrand_rule(UNIT, (), integrals=3).nodes_per_panel == 2


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        composite_rule(1.0, 0.0)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=st.lists(st.floats(-4, 4), min_size=1, max_size=13),
    a=st.floats(-2, 1),
    length=st.floats(0.1, 3),
)
def test_random_polynomials_integrate_to_antiderivative_difference(coeffs, a, length):
    p = np.polynomial.Polynomial(coeffs)
    rule = composite_rule(a, a + length, degree=len(coeffs) - 1)
    exact = p.integ()(a + length) - p.integ()(a)
    assert abs(rule.integrate(p(rule.x)) - exact) < 1e-10 * max(1.0, abs(exact))
