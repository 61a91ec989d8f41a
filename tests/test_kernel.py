"""Kernel kinds, the box-averaging operator, and explicit factorizations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratrace import (
    ComplexExponential,
    Interval,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    VolterraProduct,
    averaging,
    default_eps_schedule,
    diagonal_trace,
    evaluate_kernel,
    explicit_factor_pair,
    factorization_residual,
)
from stratrace.trace import inner_product

from conftest import UNIT, poly

ONE = poly(1.0)
TEE = poly(0.0, 1.0)


# -- pointwise values ---------------------------------------------------------


def test_symmetrized_constant_kernel_is_one_off_diagonal():
    spec = SymmetrizedVolterra(ONE, ONE)
    assert evaluate_kernel(spec, 0.3, 0.7) == pytest.approx(1.0)
    assert evaluate_kernel(spec, 0.7, 0.3) == pytest.approx(1.0)
    assert evaluate_kernel(spec, 0.5, 0.5) == pytest.approx(1.0)


def test_volterra_product_vanishes_above_the_diagonal():
    spec = VolterraProduct(ONE, ONE)
    assert evaluate_kernel(spec, 0.2, 0.6) == 0.0
    assert evaluate_kernel(spec, 0.6, 0.2) == 1.0


def test_min_kernel_pointwise():
    spec = MonomialMin(0, 1, UNIT)
    assert evaluate_kernel(spec, 0.6, 0.2) == pytest.approx(0.2)
    assert evaluate_kernel(spec, 0.2, 0.6) == pytest.approx(0.2)
    spec12 = MonomialMin(1, 2, UNIT)
    assert evaluate_kernel(spec12, 0.5, 0.25) == pytest.approx(0.5 * 0.25 * 0.25**2)


def test_max_kernel_pointwise():
    spec = MonomialMax(1, 2, UNIT)
    assert evaluate_kernel(spec, 0.5, 0.25) == pytest.approx(0.5 * 0.25 * 0.5**2)


def test_complex_exponential_pointwise():
    spec = ComplexExponential(0, 1, UNIT)
    t, tau = 0.6, 0.2
    assert evaluate_kernel(spec, t, tau) == pytest.approx(np.exp(1j * min(t, tau)))
    spec21 = ComplexExponential(2, 1, UNIT)
    expected = np.exp(2j * t) * np.exp(2j * tau) * np.exp(-1j * min(t, tau))
    assert evaluate_kernel(spec21, t, tau) == pytest.approx(expected)


def test_rank_one_kernel_is_a_plain_product():
    spec = SeparableRankOne(TEE, ONE)
    assert evaluate_kernel(spec, 0.4, 0.9) == pytest.approx(0.4)
    assert not spec.has_step


def test_points_outside_square_rejected():
    with pytest.raises(ValueError):
        evaluate_kernel(MonomialMin(0, 1, UNIT), 1.4, 0.5)


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        MonomialMin(-1, 1, UNIT)
    with pytest.raises(ValueError):
        MonomialMin(0, 0, UNIT)
    with pytest.raises(ValueError):
        ComplexExponential(1, 0, UNIT)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0))
def test_two_sided_kernels_are_symmetric(t, tau):
    for spec in (
        MonomialMin(1, 2, UNIT),
        MonomialMax(0, 1, UNIT),
        SymmetrizedVolterra(ONE, TEE),
        ComplexExponential(1, 2, UNIT),
    ):
        assert evaluate_kernel(spec, t, tau) == evaluate_kernel(spec, tau, t)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0))
def test_symmetrized_glues_the_two_one_sided_products(t, tau):
    if t == tau:
        return
    sym = SymmetrizedVolterra(TEE, ONE)
    low = VolterraProduct(TEE, ONE)
    glued = evaluate_kernel(low, t, tau) + evaluate_kernel(low, tau, t)
    assert evaluate_kernel(sym, t, tau) == pytest.approx(glued, abs=1e-14)


# -- box averaging ------------------------------------------------------------


def test_averaging_of_constant_kernel_in_the_interior():
    spec = SymmetrizedVolterra(ONE, ONE)
    assert averaging(spec, 0.01, 0.5, 0.5) == pytest.approx(1.0, abs=1e-6)


def test_averaging_min_kernel_on_diagonal_has_linear_defect():
    # interior closed form: the box average of min over an eps-square centred
    # at (t, t) is t - eps/3
    spec = MonomialMin(0, 1, UNIT)
    for eps in (0.02, 0.01):
        assert averaging(spec, eps, 0.5, 0.5) == pytest.approx(0.5 - eps / 3.0, abs=1e-10)


def test_averaging_box_outside_the_square_is_zero():
    spec = MonomialMin(0, 1, UNIT)
    assert averaging(spec, 0.05, -0.2, 0.5) == 0.0
    assert averaging(spec, 0.05, 0.5, 1.3) == 0.0


def test_averaging_zero_extends_boxes_leaning_out_of_the_square():
    # at the corner only one quadrant of the box lies inside the square and
    # the rest counts as zero, so a constant kernel averages to 1/4
    spec = SymmetrizedVolterra(ONE, ONE)
    assert averaging(spec, 0.1, 0.0, 0.0) == pytest.approx(0.25, abs=1e-10)
    assert averaging(spec, 0.1, 0.0, 0.5) == pytest.approx(0.5, abs=1e-10)


def test_averaging_requires_positive_eps():
    with pytest.raises(ValueError):
        averaging(MonomialMin(0, 1, UNIT), 0.0, 0.5, 0.5)


@settings(max_examples=25, deadline=None)
@given(
    eps=st.floats(0.005, 0.2),
    t=st.floats(0.0, 1.0),
    tau=st.floats(0.0, 1.0),
)
def test_averaging_is_a_sup_norm_contraction(eps, t, tau):
    # |S f| <= sup |f| = 1 for min on the unit square
    spec = MonomialMin(0, 1, UNIT)
    assert abs(averaging(spec, eps, t, tau)) <= 1.0 + 1e-12


def test_complex_averaging_returns_complex():
    val = averaging(ComplexExponential(0, 1, UNIT), 0.01, 0.5, 0.5)
    assert isinstance(val, complex)
    assert val == pytest.approx(np.exp(0.5j), abs=1e-2)


# -- diagonal trace via shrinking boxes ----------------------------------------


def test_diagonal_trace_constant_symmetrized():
    report = diagonal_trace(SymmetrizedVolterra(ONE, ONE))
    assert report.metadata["extrapolated"] == pytest.approx(1.0, abs=1e-4)
    assert report.converged


def test_diagonal_trace_min_kernel():
    report = diagonal_trace(MonomialMin(0, 1, UNIT))
    assert report.metadata["extrapolated"] == pytest.approx(0.5, abs=1e-4)
    assert report.target == pytest.approx(0.5, abs=1e-12)


def test_diagonal_trace_linear_weight():
    report = diagonal_trace(SymmetrizedVolterra(ONE, TEE))
    assert report.metadata["extrapolated"] == pytest.approx(0.5, abs=1e-4)


def test_diagonal_trace_polynomial_weights_hit_inner_product():
    phi = poly(1.0, -1.0, 0.0, 2.0)
    psi = poly(0.5, 0.0, 1.0)
    report = diagonal_trace(SymmetrizedVolterra(phi, psi))
    assert report.metadata["extrapolated"] == pytest.approx(
        inner_product(phi, psi), abs=1e-4
    )


def test_diagonal_trace_ladder_is_indexed_by_eps():
    schedule = default_eps_schedule(UNIT, 3, 6)
    report = diagonal_trace(MonomialMin(0, 1, UNIT), schedule)
    assert report.index_label == "epsilon"
    assert report.index_values == schedule
    assert len(report.partial_sums) == len(schedule)


def test_diagonal_trace_rejects_an_empty_schedule():
    with pytest.raises(ValueError, match="eps schedule is empty"):
        diagonal_trace(MonomialMin(0, 1, UNIT), [])


def test_box_averaging_is_exact_down_to_the_float_spacing():
    spec = MonomialMin(1, 1, UNIT)
    report = diagonal_trace(spec, default_eps_schedule(UNIT, 52, 52))
    assert report.target == pytest.approx(0.25, abs=1e-15)
    assert abs(report.partial_sums[-1] - report.target) <= 1e-12


def test_eps_below_the_float_spacing_is_rejected():
    spec = MonomialMin(1, 1, UNIT)
    with pytest.raises(ValueError, match="eps 5.55e-17 is below the float spacing"):
        averaging(spec, 2.0 ** -54, 0.5, 0.5)
    with pytest.raises(ValueError, match="eps .* is below the float spacing"):
        diagonal_trace(spec, default_eps_schedule(UNIT, 50, 54))
    # the spacing grows with the ends' magnitude
    far = MonomialMin(0, 1, Interval(1023.0, 1024.0))
    with pytest.raises(ValueError, match="below the float spacing"):
        averaging(far, 2.0 ** -45, 1023.5, 1023.5)


def test_eps_schedule_validation():
    assert default_eps_schedule(UNIT, 3, 3) == [0.125]
    with pytest.raises(ValueError):
        default_eps_schedule(UNIT, 5, 3)
    with pytest.raises(ValueError):
        diagonal_trace(MonomialMin(0, 1, UNIT), [0.1, 0.2])
    with pytest.raises(ValueError):
        diagonal_trace(MonomialMin(0, 1, UNIT), [0.1, -0.05])


# -- explicit factorizations ---------------------------------------------------


def test_factorization_residuals_within_tolerance():
    assert factorization_residual(MonomialMin(0, 1, UNIT)) <= 1e-10
    assert factorization_residual(MonomialMin(1, 2, UNIT)) <= 1e-10
    assert factorization_residual(MonomialMax(1, 2, UNIT)) <= 1e-10
    assert factorization_residual(ComplexExponential(0, 1, UNIT)) <= 1e-9


def test_factor_pair_support_sides():
    assert explicit_factor_pair(MonomialMin(0, 1, UNIT)).support == "below_min"
    assert explicit_factor_pair(MonomialMax(1, 1, UNIT)).support == "above_max"


def test_degenerate_complex_exponential_is_pure_remainder():
    # n == m collapses the integral term: the kernel is the rank-one remainder
    spec = ComplexExponential(2, 2, UNIT)
    pair = explicit_factor_pair(spec)
    xi = np.linspace(0.0, 1.0, 5)
    assert np.allclose(pair.f1(0.5, xi), 0.0)
    assert factorization_residual(spec) <= 1e-12


def test_factor_pair_unsupported_kind_rejected():
    with pytest.raises(ValueError):
        explicit_factor_pair(VolterraProduct(ONE, ONE))


def test_factorization_residual_on_shifted_interval():
    spec = MonomialMin(1, 2, Interval(0.5, 2.0))
    assert factorization_residual(spec) <= 1e-9
