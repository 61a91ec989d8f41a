"""Weight representations: evaluation, quadrature hints, canonical ids."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratrace import (
    Interval,
    PolynomialWeight,
    TabulatedWeight,
    TrigSumWeight,
    constant_weight,
    legendre_weight,
)
from stratrace.trace import inner_product

from conftest import UNIT, poly


def test_polynomial_evaluation_and_degree():
    w = poly(1.0, -2.0, 3.0)
    t = np.array([0.0, 0.5, 1.0])
    assert np.allclose(w(t), 1.0 - 2.0 * t + 3.0 * t**2)
    assert w.degree == 2
    assert w.phase == 0.0
    assert w.breakpoints.size == 0


def test_polynomial_id_round_trips_coefficients():
    assert poly(0.0, 1.0).id == "poly:0.0,1.0"
    assert poly(1.0).id == "poly:1.0"


def test_polynomial_needs_a_coefficient():
    with pytest.raises(ValueError):
        PolynomialWeight((), UNIT)


def test_trig_sum_matches_manual_series():
    w = TrigSumWeight(((1, 1.0, 0.0), (3, 0.0, 2.0)), UNIT)
    t = np.linspace(0.0, 1.0, 9)
    manual = np.sin(2 * np.pi * t) + 2.0 * np.cos(6 * np.pi * t)
    assert np.allclose(w(t), manual)
    assert w.phase == pytest.approx(6 * np.pi)


def test_trig_sum_rescales_to_the_interval():
    iv = Interval(2.0, 4.0)
    w = TrigSumWeight(((1, 1.0, 0.0),), iv)
    assert w(3.0) == pytest.approx(np.sin(np.pi), abs=1e-15)
    assert w(2.5) == pytest.approx(1.0, abs=1e-15)


def test_trig_validation():
    with pytest.raises(ValueError):
        TrigSumWeight((), UNIT)
    with pytest.raises(ValueError):
        TrigSumWeight(((-1, 1.0, 0.0),), UNIT)


@pytest.mark.parametrize("k", [1.5, 2.7, 2.0, True, np.True_, np.float64(1.0)])
def test_trig_frequencies_must_be_integers(k):
    # truncating 1.5 to 1 or True to 1 would give another weight, silently
    with pytest.raises(ValueError, match="^trig frequency must be an integer"):
        TrigSumWeight(((0, 0.0, 1.0), (k, 1.0, 0.0)), UNIT)


def test_numpy_integer_trig_frequencies_are_plain_integers():
    w = TrigSumWeight(((np.int64(2), 1.0, 0.0),), UNIT)
    assert w.id == "trig:2,1.0,0.0"
    assert type(w.terms[0][0]) is int
    assert w == TrigSumWeight(((2, 1.0, 0.0),), UNIT)


def test_tabulated_interpolates_linearly():
    w = TabulatedWeight(np.array([0.0, 0.5, 1.0]), np.array([0.0, 1.0, 0.0]), UNIT)
    assert w(0.25) == pytest.approx(0.5)
    assert w(0.75) == pytest.approx(0.5)
    assert np.allclose(w.breakpoints, [0.5])
    assert w.degree == 1


def test_tabulated_grid_validation():
    with pytest.raises(ValueError):
        TabulatedWeight(np.array([0.0, 0.5, 0.5, 1.0]), np.zeros(4), UNIT)
    with pytest.raises(ValueError):
        TabulatedWeight(np.array([0.0, 0.5]), np.zeros(3), UNIT)
    with pytest.raises(ValueError):
        TabulatedWeight(np.array([0.1, 1.0]), np.zeros(2), UNIT)


@pytest.mark.parametrize("build", [
    lambda: PolynomialWeight((1.0, float("nan")), UNIT),
    lambda: TrigSumWeight(((1, float("inf"), 0.0),), UNIT),
    lambda: TrigSumWeight(((0, 0.0, float("-inf")),), UNIT),
    lambda: TabulatedWeight(np.array([0.0, 0.5, 1.0]), np.array([1.0, np.nan, 1.0]), UNIT),
    lambda: TabulatedWeight(np.array([0.0, np.nan, 1.0]), np.array([1.0, 2.0, 1.0]), UNIT),
    lambda: Interval(0.0, float("inf")),
    lambda: Interval(float("nan"), 1.0),
], ids=["poly-nan", "trig-inf", "trig-neg-inf", "table-nan-value", "table-nan-grid",
        "interval-inf", "interval-nan"])
def test_non_finite_numbers_are_rejected(build):
    with pytest.raises(ValueError, match="finite"):
        build()


def test_tabulated_id_is_content_addressed():
    a = TabulatedWeight(np.array([0.0, 1.0]), np.array([1.0, 2.0]), UNIT)
    b = TabulatedWeight(np.array([0.0, 1.0]), np.array([1.0, 2.0]), UNIT)
    c = TabulatedWeight(np.array([0.0, 1.0]), np.array([1.0, 3.0]), UNIT)
    assert a.id == b.id
    assert a.id != c.id


def test_constant_weight_value():
    w = constant_weight(2.5, UNIT)
    assert w(0.3) == pytest.approx(2.5)
    assert w.degree == 0


def test_normalized_legendre_weights_are_orthonormal():
    ws = [legendre_weight(n, UNIT) for n in range(5)]
    for n in range(5):
        for m in range(5):
            expected = 1.0 if n == m else 0.0
            assert inner_product(ws[n], ws[m]) == pytest.approx(expected, abs=1e-12)


def test_unnormalized_legendre_weight_norm():
    w = legendre_weight(2, UNIT, normalized=False)
    assert inner_product(w, w) == pytest.approx(1.0 / 5.0, abs=1e-13)
    with pytest.raises(ValueError):
        legendre_weight(-1, UNIT)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.floats(-3, 3), min_size=1, max_size=6))
def test_polynomial_ids_determine_values(coeffs):
    a = PolynomialWeight(tuple(coeffs), UNIT)
    b = PolynomialWeight(tuple(coeffs), UNIT)
    assert a.id == b.id
    t = np.linspace(0.0, 1.0, 7)
    assert np.array_equal(a(t), b(t))
