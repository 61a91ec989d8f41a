"""Basis families: orthonormality, closed-form antiderivatives, validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stratrace import Interval, OrthonormalBasis, gram_matrix
from stratrace.coeffs import weight_basis_inner
from stratrace.weights import constant_weight

from conftest import UNIT, make_basis


def test_legendre_pointwise_values():
    basis = make_basis("legendre", 8)
    assert basis.evaluate(0, 0.5) == pytest.approx(1.0, abs=1e-15)
    assert basis.evaluate(1, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_fourier_cosine_at_left_endpoint():
    basis = make_basis("fourier", 8)
    assert basis.evaluate(2, 0.0) == pytest.approx(np.sqrt(2.0), abs=1e-15)


def test_haar_first_wavelet_sign_split():
    basis = make_basis("haar", 8)
    assert basis.evaluate(1, 0.25) == pytest.approx(1.0, abs=1e-15)
    assert basis.evaluate(1, 0.75) == pytest.approx(-1.0, abs=1e-15)


def test_antiderivative_endpoint_values():
    basis = make_basis("legendre", 8)
    assert basis.antiderivative(0, 1.0) == pytest.approx(1.0, abs=1e-14)
    for i in range(1, 8):
        assert basis.antiderivative(i, 1.0) == pytest.approx(0.0, abs=1e-14)
    fourier = make_basis("fourier", 8)
    assert fourier.antiderivative(1, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_gram_matrix_identity_per_family():
    for family, count, tol in (("legendre", 4, 1e-12), ("fourier", 5, 1e-10), ("haar", 8, 1e-8)):
        basis = make_basis(family, count)
        g = gram_matrix(basis, count)
        assert np.max(np.abs(g - np.eye(count))) < tol, family


def test_gram_matrix_identity_on_shifted_interval():
    iv = Interval(-1.5, 2.0)
    assert np.max(np.abs(gram_matrix(OrthonormalBasis("legendre", iv, 5), 6) - np.eye(6))) < 1e-12
    assert np.max(np.abs(gram_matrix(OrthonormalBasis("fourier", iv, 6), 7) - np.eye(7))) < 1e-10


def test_antiderivative_at_right_end_equals_inner_product_with_one():
    one = constant_weight(1.0, UNIT)
    for family in ("legendre", "fourier", "haar"):
        basis = make_basis(family, 16)
        closed = basis.antiderivative_block(np.array([1.0]), 16)[0]
        quadrature = weight_basis_inner(one, basis, 16)
        assert np.max(np.abs(closed - quadrature)) < 1e-12, family


def test_evaluate_scalar_matches_block_column():
    t = np.linspace(0.0, 1.0, 17)
    for family in ("legendre", "fourier", "haar"):
        basis = make_basis(family, 8)
        block = basis.evaluate_block(t, 8)
        for i in range(8):
            assert np.array_equal(basis.evaluate(i, t), block[:, i]), family


@settings(max_examples=60, deadline=None)
@given(
    family=st.sampled_from(["legendre", "fourier"]),
    i=st.integers(0, 8),
    t=st.floats(0.05, 0.95),
)
def test_antiderivative_finite_difference_consistency(family, i, t):
    basis = make_basis(family, 9)
    h = 1e-5
    fd = (basis.antiderivative(i, t + h) - basis.antiderivative(i, t - h)) / (2.0 * h)
    value = basis.evaluate(i, t)
    assert abs(fd - value) <= 1e-6 * max(1.0, abs(value))


def test_haar_antiderivative_slope_inside_constant_pieces():
    basis = make_basis("haar", 8)
    h = 1e-6
    for i, t in ((1, 0.3), (2, 0.3), (3, 0.6), (5, 0.35)):
        fd = (basis.antiderivative(i, t + h) - basis.antiderivative(i, t - h)) / (2.0 * h)
        assert fd == pytest.approx(basis.evaluate(i, t), abs=1e-8)


def test_haar_count_must_be_power_of_two():
    with pytest.raises(ValueError):
        OrthonormalBasis("haar", UNIT, 8)  # nine functions
    OrthonormalBasis("haar", UNIT, 7)


def test_index_out_of_range_rejected():
    basis = make_basis("legendre", 4)
    with pytest.raises(ValueError):
        basis.evaluate(4, 0.5)
    with pytest.raises(ValueError):
        basis.antiderivative(-1, 0.5)


def test_points_outside_interval_rejected():
    basis = make_basis("legendre", 4)
    with pytest.raises(ValueError):
        basis.evaluate(0, 1.5)
    with pytest.raises(ValueError):
        basis.evaluate_block(np.array([0.2, -0.3]), 4)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        OrthonormalBasis("monomials", UNIT, 3)


def test_id_records_family_interval_and_size():
    assert make_basis("legendre", 64).id == "legendre[0,1]:n63"
    assert OrthonormalBasis("fourier", Interval(0.0, 2.0), 5).id == "fourier[0,2]:n5"


@pytest.mark.parametrize("count", [1, 5, 8])
def test_basis_factor_per_family(count):
    legendre, fourier, haar = (make_basis(f, 8) for f in ("legendre", "fourier", "haar"))
    for antiderivative in (False, True):
        extra = int(antiderivative)
        q = legendre.factor(count, antiderivative)
        assert (q.degree, q.phase, q.breakpoints.size) == (count - 1 + extra, 0.0, 0)
        q = fourier.factor(count, antiderivative)
        assert (q.degree, q.breakpoints.size) == (extra, 0)
        assert q.phase == 2.0 * np.pi * (count // 2)
        q = haar.factor(count, antiderivative)
        assert (q.degree, q.phase) == (extra, 0.0)
        assert np.array_equal(q.breakpoints, haar.breakpoints(count))
    assert fourier.factor(5).phase == pytest.approx(4.0 * np.pi)
    assert np.array_equal(haar.factor(8).breakpoints, np.arange(1, 8) / 8.0)


def test_haar_breakpoints_are_dyadic():
    basis = make_basis("haar", 8)
    assert np.allclose(basis.breakpoints(8), np.arange(1, 8) / 8.0)
    assert basis.breakpoints(1).size == 0
    assert make_basis("legendre", 8).breakpoints(8).size == 0
