"""Expansion coefficients: closed forms, independent quadrature oracles, cache.

The independent oracles here never touch the running-primitive engine:
scipy's adaptive dblquad, exact rational polynomial algebra, frozen analytic
diagonals, and a frozen two-dimensional Gauss quadrature of kernels.
"""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from stratrace import (
    CacheCorruptError,
    CacheKeyError,
    ComplexExponential,
    Interval,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    TabulatedWeight,
    TrigSumWeight,
    VolterraProduct,
    cache_load,
    cache_store,
    cached_coefficient_matrix,
    coefficient_matrix,
    kernel_diagonal,
    kernel_matrix,
    matrix_key,
    tensor_coefficients,
    volterra_diagonal,
    volterra_norm_sq,
    weight_basis_inner,
)
from stratrace import cli
from stratrace import coeffs as coeffs_module
from stratrace.coeffs import CoefficientTensor, cache_path
from stratrace.quadrature import _running_integral, integrand_rule, nodes_for, scaled_segments

from conftest import UNIT, _traced_peak, make_basis, poly

ONE = poly(1.0)
TEE = poly(0.0, 1.0)
TSQ = poly(0.0, 0.0, 1.0)
P3 = poly(0.3, -0.7, 0.2, 0.9)
P2 = poly(0.5, 0.0, 1.0)
_GRID = np.linspace(0.0, 1.0, 17)
TABLE = TabulatedWeight(_GRID, np.cos(3.0 * _GRID) + _GRID**2, UNIT)
TRIG = TrigSumWeight(((0, 0.0, 0.5), (1, 1.0, 0.25), (3, -0.5, 0.75)), UNIT)


# -- single entries against closed forms ---------------------------------------


def test_constant_weights_first_diagonal_entry():
    entries = coefficient_matrix(ONE, ONE, make_basis("legendre", 4), 2).entries
    assert entries[0, 0] == pytest.approx(0.5, abs=1e-14)
    assert entries[1, 1] == pytest.approx(0.0, abs=1e-14)


def test_zero_weights_zero_everywhere():
    leg = make_basis("legendre", 4)
    zero = poly(0.0)
    matrix = coefficient_matrix(zero, zero, leg, 4)
    assert np.all(matrix.entries == 0.0)


def test_constant_weight_matrix_diagonal():
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, ONE, leg, 4)
    assert np.allclose(np.diag(matrix.entries), [0.5, 0.0, 0.0, 0.0], atol=1e-14)


def test_linear_weight_diagonal_closed_forms():
    # for phi = 1, psi = t on [0, 1] with shifted Legendre:
    # G_00 = 1/6 and G_ii = (1/4) / ((2i + 3)(2i - 1)) for i >= 1
    leg = make_basis("legendre", 8)
    diag = volterra_diagonal(ONE, TEE, leg, 8)
    closed = [1.0 / 6.0] + [0.25 / ((2 * i + 3) * (2 * i - 1)) for i in range(1, 8)]
    assert np.allclose(diag, closed, atol=1e-13)


def test_linear_weight_fourier_diagonal_closed_forms():
    # sine harmonic k: 3 / (8 pi^2 k^2); cosine harmonic k: 1 / (8 pi^2 k^2)
    fou = make_basis("fourier", 7)
    diag = volterra_diagonal(ONE, TEE, fou, 7)
    assert diag[0] == pytest.approx(1.0 / 6.0, abs=1e-13)
    for k in (1, 2, 3):
        assert diag[2 * k - 1] == pytest.approx(3.0 / (8 * np.pi**2 * k**2), abs=1e-13)
        assert diag[2 * k] == pytest.approx(1.0 / (8 * np.pi**2 * k**2), abs=1e-13)


def test_linear_weight_haar_diagonal_closed_forms():
    # every level-j wavelet contributes 2^(-2j) / 24
    haar = make_basis("haar", 8)
    diag = volterra_diagonal(ONE, TEE, haar, 8)
    assert diag[0] == pytest.approx(1.0 / 6.0, abs=1e-13)
    idx = 1
    for level in range(3):
        expected = 2.0 ** (-2 * level) / 24.0
        assert np.allclose(diag[idx: idx + 2**level], expected, atol=1e-13), level
        idx += 2**level


def test_entries_against_adaptive_dblquad():
    leg = make_basis("legendre", 4)
    entries = coefficient_matrix(TEE, TSQ, leg, 3).entries
    for i in range(3):
        for j in range(3):
            def integrand(tau, t, i=i, j=j):
                return t * leg.evaluate(i, t) * tau**2 * leg.evaluate(j, tau)

            oracle, est = integrate.dblquad(
                integrand, 0.0, 1.0, lambda t: 0.0, lambda t: t,
                epsabs=1e-12, epsrel=1e-12,
            )
            assert est < 1e-10
            assert entries[i, j] == pytest.approx(oracle, abs=1e-11)


def test_fourier_entries_against_adaptive_dblquad():
    # (1, 1) with sine/cosine harmonics: G_12 = 1/(2 pi) = -G_21
    entries = coefficient_matrix(ONE, ONE, make_basis("fourier", 4), 3).entries
    assert entries[1, 2] == pytest.approx(1.0 / (2 * np.pi), abs=1e-13)
    assert entries[2, 1] == pytest.approx(-1.0 / (2 * np.pi), abs=1e-13)


def test_submatrix_extension_consistency():
    leg = make_basis("legendre", 8)
    small = coefficient_matrix(TEE, TSQ, leg, 4)
    large = coefficient_matrix(TEE, TSQ, leg, 8)
    assert np.max(np.abs(large.entries[:4, :4] - small.entries)) < 1e-13
    tiny = coefficient_matrix(ONE, ONE, leg, 1)
    two = coefficient_matrix(ONE, ONE, leg, 2)
    assert abs(tiny.entries[0, 0] - two.entries[0, 0]) < 1e-15


def test_matrix_metadata():
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, TEE, leg, 4)
    assert matrix.count == 4
    assert matrix.basis_id == leg.id
    assert matrix.weight_ids == (ONE.id, TEE.id)
    assert np.all(np.isfinite(matrix.entries))
    assert matrix.trace == pytest.approx(np.trace(matrix.entries))


# -- invariants ----------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(
    family=st.sampled_from(["legendre", "fourier", "haar"]),
    coeffs=st.lists(st.floats(-2, 2), min_size=1, max_size=5),
)
def test_equal_weights_diagonal_equals_half_squared_inner(family, coeffs):
    psi = poly(*coeffs)
    basis = make_basis(family, 8)
    diag = volterra_diagonal(psi, psi, basis, 8)
    inner = weight_basis_inner(psi, basis, 8)
    assert np.max(np.abs(diag - 0.5 * inner**2)) < 1e-10


@settings(max_examples=15, deadline=None)
@given(
    pc=st.lists(st.floats(-2, 2), min_size=1, max_size=4),
    qc=st.lists(st.floats(-2, 2), min_size=1, max_size=4),
)
def test_bessel_bound_and_monotonicity(pc, qc):
    phi, psi = poly(*pc), poly(*qc)
    leg = make_basis("legendre", 12)
    matrix = coefficient_matrix(phi, psi, leg, 12)
    bound = volterra_norm_sq(phi, psi)
    partial = [float(np.sum(matrix.entries[:n, :n] ** 2)) for n in (3, 6, 12)]
    assert partial == sorted(partial)
    assert partial[-1] <= bound + 1e-10


# -- the streamed contraction against the frozen whole tables ---------------------


def _oracle_expansion_tables(weights, basis, count):
    """The tables of the coefficients of multiplicity k = len(weights) on
    `_expansion_rule`, each built whole over all its nodes, frozen as the
    engine built them before it contracted them group of panels by group:
    outer[g, j_k] = w_g w_k(x_g) q_{j_k}(x_g), and the running integral of
    the inner levels, running[g, m] with m = j_{k-1} count^{k-2} + ... + j_1."""
    rule = coeffs_module._expansion_rule(weights, basis, count)
    q = basis.evaluate_block(rule.x, count)
    running = None
    for w in weights[:-1]:
        level = w(rule.x)[:, None] * q
        if running is not None:
            level = (level[:, :, None] * running[:, None, :]).reshape(len(rule.x), -1)
        running = _running_integral(rule, level)
    outer = (rule.w * weights[-1](rule.x))[:, None] * q
    return outer, running


def _oracle_inner(w, basis, count):
    """(w, q_i) as one product of the weights with the whole basis block at
    every node of its rule, frozen."""
    rule = coeffs_module._expansion_rule((w,), basis, count)
    return (rule.w * w(rule.x)) @ basis.evaluate_block(rule.x, count)


def _relative(got, want):
    return np.max(np.abs(got - want)) / np.linalg.norm(want)


# one-panel groups, the default budget, and the whole rule as one group
GROUPS = {"panel": 1, "default": coeffs_module._TABLE_VALUES, "whole": 2 ** 62}


@pytest.mark.parametrize("groups", sorted(GROUPS))
@pytest.mark.parametrize("family, count", [("legendre", 24), ("fourier", 25), ("haar", 32)])
def test_streamed_contraction_matches_the_frozen_whole_tables(monkeypatch, family, count, groups):
    monkeypatch.setattr(coeffs_module, "_TABLE_VALUES", GROUPS[groups])
    # Haar G and its diagonal come from cell moments, checked against the
    # same tables below; its vectors and tensors are checked here
    basis = make_basis(family, count)
    for phi, psi in ((TABLE, P3), (TRIG, TABLE), (P3, P2)):
        if family != "haar":
            outer, running = _oracle_expansion_tables((psi, phi), basis, count)
            matrix = outer.T @ running
            assert _relative(coefficient_matrix(phi, psi, basis, count).entries, matrix) <= 1e-15
            diag = volterra_diagonal(phi, psi, basis, count)
            assert _relative(diag, np.einsum("gi,gi->i", outer, running)) <= 1e-15
        assert _relative(weight_basis_inner(phi, basis, count), _oracle_inner(phi, basis, count)) <= 1e-15
    for weights in ((TEE, TABLE, TRIG), (TRIG, P3, TABLE)):
        tensor = tensor_coefficients(*weights, basis, 12).entries
        assert _relative(tensor, _oracle_einsum_tensor(*weights, basis, 12)) <= 1e-15


@pytest.mark.parametrize("family, count", [("legendre", 40), ("fourier", 41)])
def test_one_group_rules_are_contracted_as_whole_tables(family, count):
    # one Legendre panel of 43 nodes, 16 Fourier panels of 29: whole tables
    # of 1720 and 19 024 values, one group each
    basis = make_basis(family, count)
    outer, running = _oracle_expansion_tables((P2, P3), basis, count)
    assert outer.size <= coeffs_module._TABLE_VALUES
    assert np.array_equal(coefficient_matrix(P3, P2, basis, count).entries, outer.T @ running)
    assert np.array_equal(volterra_diagonal(P3, P2, basis, count),
                          np.einsum("gi,gi->i", outer, running))
    assert np.array_equal(weight_basis_inner(P3, basis, count), _oracle_inner(P3, basis, count))
    outer, running = _oracle_expansion_tables((P2, TEE, P3), basis, 8)
    assert running.size <= coeffs_module._TABLE_VALUES
    assert np.array_equal(tensor_coefficients(P2, TEE, P3, basis, 8).entries,
                          (outer.T @ running).reshape(8, 8, 8).transpose(2, 1, 0))


def test_legendre_diagonal_allocation_budget():
    # a 33-point table makes 32 panels of 129 nodes; the whole 4128 x 128
    # tables held about 12.3 MiB at once
    grid = np.linspace(0.0, 1.0, 33)
    phi = TabulatedWeight(grid, np.cos(5.0 * grid), UNIT)
    psi = TabulatedWeight(grid, np.sin(2.0 * grid) - grid, UNIT)
    leg = make_basis("legendre", 128)
    assert _traced_peak(lambda: volterra_diagonal(phi, psi, leg, 128)) < 4 * 2 ** 20


def test_fourier_matrix_allocation_budget():
    # the whole tables of 16 panels of 287 nodes held about 108 MiB at once,
    # 13.5 times the matrix
    n = 1024
    fourier = make_basis("fourier", n)
    assert _traced_peak(lambda: coefficient_matrix(P3, TEE, fourier, n)) < 5 * n * n * 8


def test_fourier_tensor_allocation_budget():
    # the whole mid-level tables, nodes x 32^2 values each, held about
    # 8.6 MiB at once
    fourier = make_basis("fourier", 32)
    assert _traced_peak(lambda: tensor_coefficients(TEE, P3, TSQ, fourier, 32)) < 3 * 2 ** 20


# -- Haar coefficients from cell moments ------------------------------------------

# a table whose breaks at 0.3 and 0.55 are no dyadic cell edges
TAB = TabulatedWeight(np.array([0.0, 0.3, 0.55, 1.0]), np.array([1.0, 2.0, 0.5, 1.0]), UNIT)
HAAR_PAIRS = {"poly": (P3, TSQ), "trig": (TRIG, TAB), "table": (TAB, TRIG), "grid": (TABLE, P3)}


def _generic_tables(phi, psi, basis, count):
    """G and its diagonal contracted from the frozen whole tables of the
    basis block at every node of the rule of G, which the Haar cell moments
    never build."""
    outer, running = _oracle_expansion_tables((psi, phi), basis, count)
    return outer.T @ running, np.einsum("gi,gi->i", outer, running)


def _haar_support(i, count):
    """[lo, hi) of q_i in units of the finest of `count` functions' cells."""
    cells = 1 if count == 1 else 2 ** (int(np.log2(count - 1)) + 1)
    if i == 0:
        return 0, cells
    level = int(np.log2(i))
    width = cells >> level
    return (i - 2**level) * width, (i - 2**level + 1) * width


# counts with a cut last level (3, 5, 100) and whole ones
@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 100, 256, 512])
@pytest.mark.parametrize("pair", sorted(HAAR_PAIRS))
def test_haar_cell_moments_match_the_generic_tables(pair, count):
    haar = make_basis("haar", 512)
    phi, psi = HAAR_PAIRS[pair]
    matrix, diag = _generic_tables(phi, psi, haar, count)
    assert np.max(np.abs(coefficient_matrix(phi, psi, haar, count).entries - matrix)) <= 1e-14
    got = volterra_diagonal(phi, psi, haar, count)
    assert np.max(np.abs(got - diag)) <= 1e-14
    # the trace ladders sum the diagonal, so no rounding may drift with the cells
    assert np.max(np.abs(np.cumsum(got) - np.cumsum(diag))) <= 4e-15


@pytest.mark.parametrize("count", [1, 5, 100, 256])
@pytest.mark.parametrize("spec", [ComplexExponential(1, 3, UNIT), ComplexExponential(-2, -1, UNIT)],
                         ids=lambda spec: spec.id)
def test_haar_complex_kernels_match_the_generic_tables(spec, count):
    haar = make_basis("haar", 256)
    g, diag = _generic_tables(*spec.weights, haar, count)
    matrix = kernel_matrix(spec, haar, count).entries
    assert np.iscomplexobj(matrix)
    assert np.max(np.abs(matrix - (g + g.T))) <= 1e-14
    assert np.max(np.abs(kernel_diagonal(spec, haar, count) - 2.0 * diag)) <= 1e-14


def test_haar_cell_moments_off_the_unit_interval():
    iv = Interval(-1.0, 2.0)
    haar = make_basis("haar", 64, iv)
    phi, psi = poly(1.0, 2.0, interval=iv), poly(0.5, -1.0, 0.3, interval=iv)
    matrix, diag = _generic_tables(phi, psi, haar, 37)
    assert np.max(np.abs(coefficient_matrix(phi, psi, haar, 37).entries - matrix)) <= 1e-14
    assert np.max(np.abs(volterra_diagonal(phi, psi, haar, 37) - diag)) <= 1e-14


@pytest.mark.parametrize("count", [8, 64, 100])
def test_haar_matrix_is_the_outer_product_where_supports_are_apart(count):
    # right of supp q_j, int^t psi q_j is all of (psi, q_j); left of it, 0
    haar = make_basis("haar", 128)
    matrix = coefficient_matrix(TRIG, P3, haar, count).entries
    u = weight_basis_inner(TRIG, haar, count)
    v = weight_basis_inner(P3, haar, count)
    right = left = 0
    for i in range(count):
        lo_i, hi_i = _haar_support(i, count)
        for j in range(count):
            lo_j, hi_j = _haar_support(j, count)
            if lo_i >= hi_j:
                assert matrix[i, j] == pytest.approx(u[i] * v[j], abs=1e-15)
                right += 1
            elif hi_i <= lo_j:
                assert matrix[i, j] == 0.0
                left += 1
    assert right == left > count


@pytest.mark.parametrize("count", [1, 2, 3, 5, 8, 100, 512])
@pytest.mark.parametrize("w", [P3, TRIG, TAB, TABLE], ids=["poly", "trig", "tab", "grid"])
def test_haar_inner_products_from_cell_integrals(w, count):
    # the whole-block product of the frozen oracle, each column summed
    # exactly: its BLAS sum is itself off by 3.9e-16 in u_0 of P3 at count
    # 512, where the cell integrals are off by 2.8e-17
    haar = make_basis("haar", 512)
    rule = coeffs_module._expansion_rule((w,), haar, count)
    block = (rule.w * w(rule.x))[:, None] * haar.evaluate_block(rule.x, count)
    want = np.array([math.fsum(column) for column in block.T])
    assert np.max(np.abs(weight_basis_inner(w, haar, count) - want)) <= 1e-15 * np.linalg.norm(want)


def test_haar_inner_products_allocation_budget():
    # the whole Haar block at the rule's 8192 nodes held about 257 MiB at once
    n = 4096
    haar = make_basis("haar", n)
    assert _traced_peak(lambda: weight_basis_inner(P3, haar, n)) < 4 * 2 ** 20


def test_haar_matrix_reach_at_n_2048():
    # on a 2-core Xeon, contracting the (nodes x N) tables took 1.6 s and
    # 485 MB of peak RSS at this N, and 9.7 s and 1829 MB at N = 4096
    n = 2048
    haar = make_basis("haar", n)
    g = coefficient_matrix(P3, TRIG, haar, n).entries
    g_swapped = coefficient_matrix(TRIG, P3, haar, n).entries
    # both orders of t and s together cover the square: G + G'^T = u v^T
    u, v = weight_basis_inner(P3, haar, n), weight_basis_inner(TRIG, haar, n)
    assert np.max(np.abs(g + g_swapped.T - np.outer(u, v))) <= 1e-12
    peak = _traced_peak(lambda: coefficient_matrix(P3, TRIG, haar, n))
    assert peak <= 4 * n * n * 8


# -- two-dimensional kernel coefficients ----------------------------------------


def test_symmetrized_kernel_entries():
    leg = make_basis("legendre", 6)
    assert kernel_matrix(SymmetrizedVolterra(ONE, ONE), leg, 1).entries[0, 0] == pytest.approx(1.0, abs=1e-12)
    f = kernel_matrix(SymmetrizedVolterra(TEE, TSQ), leg, 6)
    g = coefficient_matrix(TEE, TSQ, leg, 6)
    assert np.max(np.abs(f.entries - (g.entries + g.entries.T))) < 1e-10
    assert np.max(np.abs(f.entries - f.entries.T)) < 1e-12


def test_min_kernel_entries():
    leg = make_basis("legendre", 6)
    spec = MonomialMin(0, 1, UNIT)
    entries = kernel_matrix(spec, leg, 2).entries
    assert entries[0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert entries[0, 1] == pytest.approx(0.25 / np.sqrt(3.0), abs=1e-12)
    diag = kernel_diagonal(spec, leg, 5)
    closed = [1.0 / 3.0] + [0.5 / ((2 * i + 3) * (2 * i - 1)) for i in range(1, 5)]
    assert np.allclose(diag, closed, atol=1e-12)


def test_min_kernel_against_adaptive_dblquad():
    leg = make_basis("legendre", 4)
    def integrand(tau, t):
        return min(t, tau) * leg.evaluate(2, t) * leg.evaluate(1, tau)
    oracle, est = integrate.dblquad(integrand, 0.0, 1.0, lambda t: 0.0, lambda t: 1.0,
                                    epsabs=1e-12, epsrel=1e-12)
    assert est < 1e-10
    assert kernel_matrix(MonomialMin(0, 1, UNIT), leg, 3).entries[2, 1] == pytest.approx(oracle, abs=1e-11)


def test_complex_kernel_entries_are_complex_and_hermitian_symmetric():
    leg = make_basis("legendre", 4)
    f = kernel_matrix(ComplexExponential(0, 1, UNIT), leg, 4)
    assert np.iscomplexobj(f.entries)
    # the kernel itself is symmetric in (t, tau), so F_ij = F_ji (no conjugate)
    assert np.max(np.abs(f.entries - f.entries.T)) < 1e-12
    # int_0^1 int_0^1 cos(min(t, tau)) dt dtau = 2 (1 - cos 1); adaptive 2d
    # quadrature loses ~1e-9 on the diagonal kink, so pin the closed form
    oracle_00 = 2.0 * (1.0 - np.cos(1.0))
    assert f.entries[0, 0].real == pytest.approx(oracle_00, abs=1e-12)


def _oracle_kernel_tables(spec, basis, count):
    """Outer rule plus Inner[g, j] = int f(x_g, tau) q_j(tau) dtau by Gauss
    quadrature over the square, from kernel values alone: it never sees the
    kernel's factor weights.  Frozen from the library's former kernel route,
    with the inner ladder split at the outer rule's panel edges (which hold
    every breakpoint) as well as at the diagonal, so each inner segment lies
    in one panel and the one-panel oscillation demand holds for it."""
    iv = spec.interval
    q = basis.factor(count)
    rule = integrand_rule(iv, (spec, q, spec, q), integrals=1)
    frac = np.diff(rule.edges).max() / iv.length
    n_in = nodes_for(spec.degree + q.degree, (spec.phase + q.phase) * frac)
    x = rule.x
    inner = np.zeros((len(x), count), dtype=complex if spec.is_complex else float)
    for a, b in zip(rule.edges[:-1], rule.edges[1:]):
        # the panel clipped to [t0, x_g] (below the diagonal) and to [x_g, T]
        for lo, hi in ((np.minimum(a, x), np.minimum(b, x)), (np.maximum(a, x), np.maximum(b, x))):
            y, v = scaled_segments(lo, hi, n_in)
            qy = basis.evaluate_block(y.ravel(), count).reshape(y.shape + (count,))
            inner += np.einsum("gm,gm,gmj->gj", v, spec.evaluate(x[:, None], y), qy)
    return rule, inner


def _oracle_kernel_matrix(spec, basis, count):
    rule, inner = _oracle_kernel_tables(spec, basis, count)
    return (rule.w[:, None] * basis.evaluate_block(rule.x, count)).T @ inner


ORACLE_KERNELS = (
    VolterraProduct(TABLE, P3),
    SymmetrizedVolterra(P3, TRIG),
    SymmetrizedVolterra(TABLE, TEE),
    SeparableRankOne(TRIG, TABLE),
    MonomialMin(1, 2, UNIT),
    MonomialMax(2, 1, UNIT),
    ComplexExponential(1, 3, UNIT),
    ComplexExponential(-2, -1, UNIT),
)


@pytest.mark.parametrize("family, count", [("legendre", 9), ("fourier", 9), ("haar", 16)])
@pytest.mark.parametrize("spec", ORACLE_KERNELS, ids=lambda spec: spec.id)
def test_kernel_matrix_against_the_two_dimensional_oracle(spec, family, count):
    basis = make_basis(family, count)
    oracle = _oracle_kernel_matrix(spec, basis, count)
    matrix = kernel_matrix(spec, basis, count).entries
    assert np.iscomplexobj(matrix) == spec.is_complex
    assert np.max(np.abs(matrix - oracle)) <= 1e-13
    assert np.max(np.abs(kernel_diagonal(spec, basis, count) - np.diag(oracle))) <= 1e-13


@pytest.mark.parametrize("spec", [MonomialMin(2, 1, Interval(-1.0, 2.0)),
                                  MonomialMax(0, 3, Interval(-1.0, 2.0))], ids=lambda s: s.id)
def test_monomial_kernel_matrix_off_the_unit_interval(spec):
    basis = make_basis("legendre", 6, spec.interval)
    oracle = _oracle_kernel_matrix(spec, basis, 6)
    assert np.max(np.abs(kernel_matrix(spec, basis, 6).entries - oracle)) <= 1e-12


def test_fourier_symmetrized_diagonal_is_the_squared_inner_product():
    # equal weights: K = G + G^T with 2 G_ii = (phi, q_i)^2 in any basis
    fou = make_basis("fourier", 64)
    diag = kernel_diagonal(SymmetrizedVolterra(P3, P3), fou, 64)
    assert np.max(np.abs(diag - weight_basis_inner(P3, fou, 64) ** 2)) <= 1e-13


def test_fourier_rank_one_diagonal_is_the_product_of_inner_products():
    fou = make_basis("fourier", 33)
    diag = kernel_diagonal(SeparableRankOne(P3, TRIG), fou, 33)
    product = weight_basis_inner(P3, fou, 33) * weight_basis_inner(TRIG, fou, 33)
    assert np.max(np.abs(diag - product)) <= 1e-13


def test_kernel_checks_count_and_interval():
    leg = make_basis("legendre", 4)
    with pytest.raises(ValueError, match="count must be >= 1"):
        kernel_diagonal(MonomialMin(0, 1, UNIT), leg, 0)
    with pytest.raises(ValueError, match="kernel lives on"):
        kernel_matrix(ComplexExponential(1, 2, Interval(0.0, 2.0)), leg, 4)


_COUNTED = {
    "coefficient_matrix": lambda leg, n, cache: coefficient_matrix(ONE, TEE, leg, n),
    "volterra_diagonal": lambda leg, n, cache: volterra_diagonal(ONE, TEE, leg, n),
    "weight_basis_inner": lambda leg, n, cache: weight_basis_inner(TEE, leg, n),
    "tensor_coefficients": lambda leg, n, cache: tensor_coefficients(ONE, TEE, ONE, leg, n),
    "kernel_matrix": lambda leg, n, cache: kernel_matrix(MonomialMin(0, 1, UNIT), leg, n),
    "kernel_diagonal": lambda leg, n, cache: kernel_diagonal(SymmetrizedVolterra(ONE, TEE), leg, n),
    "cached_coefficient_matrix": lambda leg, n, cache: cached_coefficient_matrix(
        ONE, TEE, leg, n, directory=cache),
}


@pytest.mark.parametrize("count", [4.0, 1.0, True, np.float64(4.0), "4", None])
@pytest.mark.parametrize("engine", sorted(_COUNTED))
def test_counts_must_be_integers(engine, count, tmp_path):
    leg = make_basis("legendre", 4)
    for n in (1, 4):  # a warm cache: a hit must not skip the check
        cached_coefficient_matrix(ONE, TEE, leg, n, directory=tmp_path)
    with pytest.raises(ValueError, match="count must be an integer"):
        _COUNTED[engine](leg, count, tmp_path)
    result = _COUNTED[engine](leg, np.int64(4), tmp_path)
    assert getattr(result, "entries", result).shape[0] == 4


# -- order-3 tensors -------------------------------------------------------------


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _pinteg(a):
    return [Fraction(0)] + [c / (k + 1) for k, c in enumerate(a)]


def _shifted_legendre(basis_count):
    """Integer coefficients of the degree-n orthonormal Legendre element on
    [0, 1], divided by sqrt(2n+1), for n < basis_count."""
    return [
        [Fraction((-1) ** (n + k) * math.comb(n, k) * math.comb(n + k, k))
         for k in range(n + 1)]
        for n in range(basis_count)
    ]


def _polynomial_matrix_oracle(phi, psi, basis_count):
    """Exact G[i, j] = int phi q_i (int^t psi q_j) via rational polynomial algebra."""
    ps = _shifted_legendre(basis_count)
    phi_c, psi_c = ([Fraction(c) for c in w.coeffs] for w in (phi, psi))
    out = np.empty((basis_count, basis_count))
    for j in range(basis_count):
        inner = _pinteg(_pmul(psi_c, ps[j]))
        for i in range(basis_count):
            exact = sum(_pinteg(_pmul(_pmul(phi_c, ps[i]), inner)))
            out[i, j] = math.sqrt((2 * i + 1) * (2 * j + 1)) * float(exact)
    return out


def _polynomial_tensor_oracle(weights, basis_count):
    """Exact triple iterated integrals via rational polynomial algebra.

    The degree-n orthonormal element on [0, 1] is sqrt(2n+1) times an
    integer-coefficient polynomial, so everything except the final square
    roots stays in Fraction arithmetic.  Entry [i1, i2, i3] nests i1 at the
    innermost level and i3 at the outermost.
    """
    ps = _shifted_legendre(basis_count)
    ws = [[Fraction(c) for c in w.coeffs] for w in weights]
    out = np.empty((basis_count,) * 3)
    for i1 in range(basis_count):
        inner1 = _pinteg(_pmul(ws[0], ps[i1]))
        for i2 in range(basis_count):
            inner2 = _pinteg(_pmul(_pmul(ws[1], ps[i2]), inner1))
            for i3 in range(basis_count):
                exact = sum(_pinteg(_pmul(_pmul(ws[2], ps[i3]), inner2)))
                scale = math.sqrt((2 * i1 + 1) * (2 * i2 + 1) * (2 * i3 + 1))
                out[i1, i2, i3] = scale * float(exact)
    return out


def test_tensor_first_entry_is_simplex_volume():
    leg = make_basis("legendre", 4)
    tensor = tensor_coefficients(ONE, ONE, ONE, leg, 4)
    assert tensor.entries[0, 0, 0] == pytest.approx(1.0 / 6.0, abs=1e-13)
    assert np.all(np.isfinite(tensor.entries))


def test_tensor_zero_middle_weight():
    leg = make_basis("legendre", 4)
    tensor = tensor_coefficients(ONE, poly(0.0), ONE, leg, 4)
    assert np.all(tensor.entries == 0.0)


def test_tensor_against_polynomial_algebra_oracle():
    leg = make_basis("legendre", 8)
    tensor = tensor_coefficients(ONE, ONE, ONE, leg, 8)
    oracle = _polynomial_tensor_oracle([ONE, ONE, ONE], 8)
    assert np.max(np.abs(tensor.entries - oracle)) < 1e-12


def test_tensor_with_mixed_weights_against_oracle():
    leg = make_basis("legendre", 4)
    tensor = tensor_coefficients(ONE, TEE, TSQ, leg, 4)
    oracle = _polynomial_tensor_oracle([ONE, TEE, TSQ], 4)
    assert np.max(np.abs(tensor.entries - oracle)) < 1e-13


@pytest.mark.parametrize("phi, psi, count", [
    (ONE, poly(*[0.0] * 6, 1.0), 8),
    (poly(0.5, 1.0), poly(1.0, -2.0, 0.5, 3.0, -1.0, 0.25, 2.0, -0.75, 1.5), 16),
    (TEE, TSQ, 16),
    # degree 2 + 2 + 5 + 5 + 1 = 15 is odd: 8 nodes meet it with no degree to
    # spare (pinned in tests/test_demands.py)
    (P2, P2, 6),
])
def test_matrix_against_polynomial_algebra_oracle(phi, psi, count):
    # the running weight outgrows the outer rule's per-panel interpolation
    # degree; the contraction is still exact
    leg = make_basis("legendre", count)
    matrix = coefficient_matrix(phi, psi, leg, count)
    oracle = _polynomial_matrix_oracle(phi, psi, count)
    assert np.max(np.abs(matrix.entries - oracle)) < 1e-13


@pytest.mark.parametrize("weights", [
    (poly(*[0.0] * 6, 1.0), ONE, ONE),
    (ONE, poly(*[0.0] * 6, 1.0), ONE),
    # degree 3 * 2 + 3 * 3 + 2 = 17 is odd: 9 nodes meet it with no degree to
    # spare (pinned in tests/test_demands.py)
    (P2, P2, P2),
])
def test_tensor_with_a_high_degree_inner_weight_against_oracle(weights):
    leg = make_basis("legendre", 4)
    tensor = tensor_coefficients(*weights, leg, 4)
    oracle = _polynomial_tensor_oracle(list(weights), 4)
    assert np.max(np.abs(tensor.entries - oracle)) < 1e-13


@pytest.mark.parametrize("count", [1, 2, 3, 4])
@pytest.mark.parametrize("d", [6, 10, 14])
def test_low_truncations_of_a_high_degree_weight_against_the_algebra_oracles(d, count):
    # each rule has just the nodes its degree demands, so a few basis
    # functions against t^d in any slot find any miscounted degree
    leg = make_basis("legendre", count)
    high = poly(*[0.0] * d, 1.0)
    for slot in range(2):
        weights = [ONE, ONE]
        weights[slot] = high
        matrix = coefficient_matrix(*weights, leg, count).entries
        assert np.max(np.abs(matrix - _polynomial_matrix_oracle(*weights, count))) < 1e-13
    for slot in range(3):
        weights = [ONE, ONE, ONE]
        weights[slot] = high
        tensor = tensor_coefficients(*weights, leg, count).entries
        assert np.max(np.abs(tensor - _polynomial_tensor_oracle(weights, count))) < 1e-13


def _oracle_einsum_tensor(w1, w2, w3, basis, count):
    """The tensor with the outer rule applied by one three-operand einsum,
    frozen: the reference the matrix-product contraction must match."""
    outer, running = _oracle_expansion_tables((w1, w2, w3), basis, count)
    return np.einsum("go,gjk->kjo", outer, running.reshape(-1, count, count))


@pytest.mark.parametrize("count", [8, 16, 32])
@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_tensor_contraction_matches_the_frozen_einsum(family, count):
    basis = make_basis(family, count)
    for weights in ((TEE, P3, TSQ), (TRIG, ONE, TABLE)):
        tensor = tensor_coefficients(*weights, basis, count).entries
        assert tensor.flags.c_contiguous
        assert np.max(np.abs(tensor - _oracle_einsum_tensor(*weights, basis, count))) <= 1e-15


@pytest.mark.parametrize("pair", ["12", "23", "13"])
@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_tensor_trace_report_matches_the_frozen_einsum(tmp_path, monkeypatch, family, pair):
    # the tensor-trace run against the same run on the einsum tensor
    monkeypatch.chdir(tmp_path)
    argv = ["tensor-trace", "--w1", "poly:0.5,1,-0.3", "--w2", "poly:0,1", "--w3",
            "poly:0.5,1,-0.3", "--basis", family, "--nmax", "32", "--pair", pair, "--tol", "1"]

    def frozen(w1, w2, w3, basis, count):
        return CoefficientTensor(_oracle_einsum_tensor(w1, w2, w3, basis, count),
                                 basis.id, (w1.id, w2.id, w3.id), basis.interval)

    reports = []
    for engine in (tensor_coefficients, frozen):
        monkeypatch.setattr(cli, "tensor_coefficients", engine)
        assert cli.main(argv + ["--out", "run"]) in (0, 2)
        reports.append(json.loads((tmp_path / "run.json").read_text())["payload"])
    now, before = reports
    assert np.max(np.abs(np.subtract(now["partial_sums"], before["partial_sums"]))) <= 1e-15
    assert np.max(np.abs(np.subtract(now["errors"], before["errors"]))) <= 1e-15
    for key in ("limits", "final_vector"):
        if key in before["metadata"]:
            assert np.max(np.abs(np.subtract(now["metadata"][key],
                                             before["metadata"][key]))) <= 1e-15


def test_tensor_metadata():
    leg = make_basis("legendre", 3)
    tensor = tensor_coefficients(ONE, TEE, ONE, leg, 3)
    assert tensor.count == 3
    assert tensor.weight_ids == (ONE.id, TEE.id, ONE.id)
    assert tensor.basis_id == leg.id


# -- persistent cache ------------------------------------------------------------


def test_cache_round_trip_is_bit_exact(tmp_path):
    leg = make_basis("legendre", 8)
    matrix = coefficient_matrix(ONE, ONE, leg, 8)
    key = matrix_key(ONE, ONE, leg, 8)
    path = tmp_path / "m.strc"
    cache_store(matrix.entries, path, key)
    restored = cache_load(path, key, (8, 8))
    assert restored.tobytes() == matrix.entries.tobytes()


def test_cache_rejects_key_mismatch(tmp_path):
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, ONE, leg, 4)
    key = matrix_key(ONE, ONE, leg, 4)
    other_basis = make_basis("legendre", 4, Interval(0.0, 2.0))
    other = matrix_key(ONE, ONE, other_basis, 4)
    assert other != key
    path = tmp_path / "m.strc"
    cache_store(matrix.entries, path, key)
    with pytest.raises(CacheKeyError):
        cache_load(path, other, (4, 4))


def test_cache_rejects_truncated_file(tmp_path):
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, ONE, leg, 4)
    key = matrix_key(ONE, ONE, leg, 4)
    path = tmp_path / "m.strc"
    cache_store(matrix.entries, path, key)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(CacheCorruptError):
        cache_load(path, key, (4, 4))
    path.write_bytes(raw[:10])
    with pytest.raises(CacheCorruptError):
        cache_load(path, key, (4, 4))


def test_cache_rejects_bad_magic_and_version(tmp_path):
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, ONE, leg, 4)
    key = matrix_key(ONE, ONE, leg, 4)
    path = tmp_path / "m.strc"
    cache_store(matrix.entries, path, key)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruptError):
        cache_load(path, key, (4, 4))
    raw[:4] = b"STRC"
    raw[4] = 99
    path.write_bytes(bytes(raw))
    with pytest.raises(CacheCorruptError):
        cache_load(path, key, (4, 4))


def test_cached_matrix_recomputes_after_corruption(tmp_path):
    leg = make_basis("legendre", 4)
    first = cached_coefficient_matrix(ONE, TEE, leg, 4, directory=tmp_path)
    key = matrix_key(ONE, TEE, leg, 4)
    path = cache_path(tmp_path, key)
    assert path.exists()
    path.write_bytes(b"garbage")
    healed = cached_coefficient_matrix(ONE, TEE, leg, 4, directory=tmp_path)
    assert np.array_equal(healed.entries, first.entries)
    assert cache_load(path, key, (4, 4)).tobytes() == first.entries.tobytes()


def test_cache_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("STRC_CACHE_DIR", str(tmp_path))
    leg = make_basis("legendre", 4)
    cached_coefficient_matrix(ONE, ONE, leg, 4)
    key = matrix_key(ONE, ONE, leg, 4)
    assert cache_path(tmp_path, key).exists()


def test_an_empty_cache_directory_is_an_error_and_an_empty_variable_is_unset(
        tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    leg = make_basis("legendre", 4)
    with pytest.raises(ValueError, match="cache directory must not be empty"):
        cached_coefficient_matrix(ONE, TEE, leg, 4, directory="")
    monkeypatch.setenv("STRC_CACHE_DIR", "")
    served = cached_coefficient_matrix(ONE, TEE, leg, 4)
    assert served.entries.tobytes() == coefficient_matrix(ONE, TEE, leg, 4).entries.tobytes()
    assert list(tmp_path.iterdir()) == []


def test_store_leaves_a_foreign_temp_file_alone(tmp_path):
    leg = make_basis("legendre", 4)
    matrix = coefficient_matrix(ONE, TEE, leg, 4)
    key = matrix_key(ONE, TEE, leg, 4)
    # another writer's partial file under the name a shared temp file would take
    foreign = tmp_path / f"{key}.tmp"
    foreign.write_bytes(b"partial bytes of another writer")
    path = cache_path(tmp_path, key)
    cache_store(matrix.entries, path, key)
    assert foreign.read_bytes() == b"partial bytes of another writer"
    assert cache_load(path, key, (4, 4)).tobytes() == matrix.entries.tobytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([foreign.name, path.name])


def test_keys_change_with_the_engine_version(monkeypatch):
    leg = make_basis("legendre", 8)
    before = matrix_key(ONE, TEE, leg, 8)
    monkeypatch.setattr(coeffs_module, "_ENGINE_VERSION", coeffs_module._ENGINE_VERSION + 1)
    assert matrix_key(ONE, TEE, leg, 8) != before


def test_keys_depend_on_every_ingredient():
    leg = make_basis("legendre", 8)
    fou = make_basis("fourier", 8)
    base = matrix_key(ONE, TEE, leg, 8)
    assert matrix_key(ONE, TEE, leg, 16) != base
    assert matrix_key(ONE, TEE, fou, 8) != base
    assert matrix_key(TEE, ONE, leg, 8) != base
