"""Basis families: orthonormality, closed-form antiderivatives, validation."""

import tracemalloc

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


def test_max_index_must_be_an_integer():
    for value in (7.0, True, "7", None):
        with pytest.raises(ValueError, match="max_index"):
            OrthonormalBasis("legendre", UNIT, value)
    with pytest.raises(ValueError, match="max_index"):
        OrthonormalBasis("haar", UNIT, 7.0)
    basis = OrthonormalBasis("legendre", UNIT, np.int64(7))
    assert type(basis.max_index) is int and type(basis.size) is int
    assert basis == OrthonormalBasis("legendre", UNIT, 7)
    assert basis.id == "legendre[0,1]:n7"


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


# -- blocks at array speed: bit for bit the per-column loops ------------------------


def _oracle_fourier_block(interval, t, count, antiderivative):
    """The Fourier block one column at a time, frozen: the reference the
    in-place block must equal bit for bit."""
    t0, length = interval.t0, interval.length
    u = (t - t0) / length
    out = np.empty((len(t), count))
    out[:, 0] = (t - t0) / np.sqrt(length) if antiderivative else 1.0 / np.sqrt(length)
    amp = np.sqrt(2.0 / length)
    for i in range(1, count):
        k = (i + 1) // 2
        ang = 2.0 * np.pi * k * u
        if i % 2 == 1:  # sine harmonic
            out[:, i] = (np.sqrt(2.0 * length) * (1.0 - np.cos(ang)) / (2.0 * np.pi * k)
                         if antiderivative else amp * np.sin(ang))
        else:  # cosine harmonic
            out[:, i] = (np.sqrt(2.0 * length) * np.sin(ang) / (2.0 * np.pi * k)
                         if antiderivative else amp * np.cos(ang))
    return out


def _oracle_haar_block(interval, t, count, antiderivative):
    """The Haar block one column at a time over all points, frozen: the
    reference the level-by-level fill must equal bit for bit."""
    t0, length = interval.t0, interval.length
    s = (t - t0) / length
    out = np.zeros((len(t), count))
    out[:, 0] = (t - t0) / np.sqrt(length) if antiderivative else 1.0 / np.sqrt(length)
    for i in range(1, count):
        level = int(np.floor(np.log2(i)))
        k = i - (1 << level)
        x = s * (1 << level) - k  # wavelet-local coordinate in [0, 1]
        amp = (2.0 ** (0.5 * level)) / np.sqrt(length)
        if not antiderivative:
            inside = (x >= 0.0) & (x <= 1.0)
            out[:, i] = np.where(inside, np.where(x < 0.5, amp, -amp), 0.0)
        else:
            half = length / (1 << (level + 1))  # half-support width in t units
            rise = np.clip(x, 0.0, 0.5) * 2.0 * half
            fall = (np.clip(x, 0.5, 1.0) - 0.5) * 2.0 * half
            out[:, i] = amp * (rise - fall)
    return out


def _block_points(interval):
    """Random points, every dyadic edge k / 2^l up to level 9, both ends, and
    points just outside the ends but inside the accepted slack."""
    length = interval.length
    edges = np.concatenate([np.arange(2 ** level + 1) / 2 ** level for level in range(10)])
    random = np.random.default_rng(14).random(400)
    slack = np.array([-1e-13, 1e-13, 1.0 - 1e-13, 1.0 + 1e-13])
    return np.concatenate([interval.t0 + length * np.concatenate([random, edges, slack]),
                           [interval.t0, interval.T]])


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(-1.0, 2.0), Interval(0.3, 0.7)],
                         ids=str)
@pytest.mark.parametrize("family", ["fourier", "haar"])
def test_blocks_equal_the_per_column_loops(interval, family):
    oracle = _oracle_fourier_block if family == "fourier" else _oracle_haar_block
    basis = OrthonormalBasis(family, interval, 511)
    t = _block_points(interval)
    for count in (1, 2, 3, 5, 12, 64, 512):
        for antiderivative in (False, True):
            block = (basis.antiderivative_block if antiderivative else basis.evaluate_block)(t, count)
            ref = oracle(interval, t, count, antiderivative)
            assert np.array_equal(block, ref), (count, antiderivative)
            assert np.array_equal(np.signbit(block), np.signbit(ref)), (count, antiderivative)


def test_fourier_block_allocates_little_beyond_its_output():
    basis = make_basis("fourier", 257)
    t = np.random.default_rng(3).random(4096)
    for antiderivative in (False, True):
        basis._block(t, 257, antiderivative)
        tracemalloc.start()
        try:
            out = basis._block(t, 257, antiderivative)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * out.nbytes, antiderivative
