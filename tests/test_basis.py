"""Basis families: blocks, orthonormality, validation.

A basis only evaluates blocks of its functions; running integrals of them
come from `quadrature._running_integral` and are tested with the engines.
"""

import numpy as np
import pytest

from stratrace import Interval, OrthonormalBasis, integrand_rule
from stratrace.coeffs import weight_basis_inner
from stratrace.weights import constant_weight

from conftest import UNIT, _traced_peak, make_basis


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


def _gram_matrix(basis: OrthonormalBasis, n: int) -> np.ndarray:
    """Gram matrix of the first n basis functions on the rule for q_i q_j."""
    q = basis.factor(n)
    rule = integrand_rule(basis.interval, (q, q))
    block = basis.evaluate_block(rule.x, n)
    return (block * rule.w[:, None]).T @ block


def test_gram_matrix_identity_per_family():
    for family, count, tol in (("legendre", 4, 1e-12), ("fourier", 5, 1e-10), ("haar", 8, 1e-8)):
        basis = make_basis(family, count)
        g = _gram_matrix(basis, count)
        assert np.max(np.abs(g - np.eye(count))) < tol, family


def test_gram_matrix_identity_on_shifted_interval():
    iv = Interval(-1.5, 2.0)
    assert np.max(np.abs(_gram_matrix(OrthonormalBasis("legendre", iv, 5), 6) - np.eye(6))) < 1e-12
    assert np.max(np.abs(_gram_matrix(OrthonormalBasis("fourier", iv, 6), 7) - np.eye(7))) < 1e-10


@pytest.mark.parametrize("interval", [Interval(0.0, 1.0), Interval(-1.0, 2.0)], ids=str)
def test_inner_product_with_one_is_sqrt_length_at_index_zero(interval):
    """(1, q_i) = sqrt(L) delta_i0: q_0 = 1 / sqrt(L) and every other q_i is
    orthogonal to it."""
    one = constant_weight(1.0, interval)
    closed = np.zeros(16)
    closed[0] = np.sqrt(interval.length)
    for family in ("legendre", "fourier", "haar"):
        basis = OrthonormalBasis(family, interval, 15)
        quadrature = weight_basis_inner(one, basis, 16)
        assert np.max(np.abs(closed - quadrature)) < 1e-12, family


def test_evaluate_scalar_matches_block_column():
    t = np.linspace(0.0, 1.0, 17)
    for family in ("legendre", "fourier", "haar"):
        basis = make_basis(family, 8)
        block = basis.evaluate_block(t, 8)
        for i in range(8):
            assert np.array_equal(basis.evaluate(i, t), block[:, i]), family


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
        basis.evaluate(-1, 0.5)
    with pytest.raises(ValueError, match="out of range"):
        basis.evaluate_block(np.array([0.5]), 0)


@pytest.mark.parametrize("value", [1.0, 4.0, True, np.bool_(True), "4", None])
def test_counts_and_indices_must_be_integers(value):
    basis = make_basis("legendre", 8)
    with pytest.raises(ValueError, match="count must be an integer"):
        basis.evaluate_block(np.array([0.5]), value)
    with pytest.raises(ValueError, match="i must be an integer"):
        basis.evaluate(value, 0.5)


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
    q = legendre.factor(count)
    assert (q.degree, q.phase, q.breakpoints.size) == (count - 1, 0.0, 0)
    q = fourier.factor(count)
    assert (q.degree, q.breakpoints.size) == (0, 0)
    assert q.phase == 2.0 * np.pi * (count // 2)
    q = haar.factor(count)
    assert (q.degree, q.phase) == (0, 0.0)
    assert np.array_equal(q.breakpoints, haar.breakpoints(count))
    assert fourier.factor(5).phase == pytest.approx(4.0 * np.pi)
    assert np.array_equal(haar.factor(8).breakpoints, np.arange(1, 8) / 8.0)


def test_haar_breakpoints_are_dyadic():
    basis = make_basis("haar", 8)
    assert np.allclose(basis.breakpoints(8), np.arange(1, 8) / 8.0)
    assert basis.breakpoints(1).size == 0
    assert make_basis("legendre", 8).breakpoints(8).size == 0


# -- blocks at array speed: bit for bit the per-column loops ------------------------


def _oracle_legendre_block(interval, t, count):
    """The Legendre block from a recurrence run one order past count and
    sliced, frozen: the reference the block must equal bit for bit."""
    t0, length = interval.t0, interval.length
    u = 2.0 * (t - t0) / length - 1.0
    orders = count + 1
    p = np.empty((len(t), orders))
    p[:, 0] = 1.0
    p[:, 1] = u
    for n in range(1, orders - 1):
        p[:, n + 1] = ((2 * n + 1) * u * p[:, n] - n * p[:, n - 1]) / (n + 1)
    return p[:, :count] * np.sqrt((2 * np.arange(count) + 1) / length)


def _oracle_fourier_block(interval, t, count):
    """The Fourier block one column at a time, frozen: the reference the
    in-place block must equal bit for bit."""
    t0, length = interval.t0, interval.length
    u = (t - t0) / length
    out = np.empty((len(t), count))
    out[:, 0] = 1.0 / np.sqrt(length)
    amp = np.sqrt(2.0 / length)
    for i in range(1, count):
        k = (i + 1) // 2
        ang = 2.0 * np.pi * k * u
        out[:, i] = amp * (np.sin(ang) if i % 2 == 1 else np.cos(ang))
    return out


def _oracle_haar_block(interval, t, count):
    """The Haar block one column at a time over all points, frozen: the
    reference the level-by-level fill must equal bit for bit."""
    t0, length = interval.t0, interval.length
    s = (t - t0) / length
    out = np.zeros((len(t), count))
    out[:, 0] = 1.0 / np.sqrt(length)
    for i in range(1, count):
        level = int(np.floor(np.log2(i)))
        k = i - (1 << level)
        x = s * (1 << level) - k  # wavelet-local coordinate in [0, 1]
        amp = (2.0 ** (0.5 * level)) / np.sqrt(length)
        inside = (x >= 0.0) & (x <= 1.0)
        out[:, i] = np.where(inside, np.where(x < 0.5, amp, -amp), 0.0)
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
@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_blocks_equal_the_per_column_loops(interval, family):
    oracle = {"legendre": _oracle_legendre_block, "fourier": _oracle_fourier_block,
              "haar": _oracle_haar_block}[family]
    basis = OrthonormalBasis(family, interval, 511)
    t = _block_points(interval)
    for count in (1, 2, 3, 5, 12, 63, 64, 127, 128, 255, 512):
        block = basis.evaluate_block(t, count)
        ref = oracle(interval, t, count)
        assert np.array_equal(block, ref), count
        assert np.array_equal(np.signbit(block), np.signbit(ref)), count


def test_fourier_block_allocates_little_beyond_its_output():
    basis = make_basis("fourier", 257)
    t = np.random.default_rng(3).random(4096)
    peak = _traced_peak(lambda: basis.evaluate_block(t, 257))
    assert peak <= 1.25 * len(t) * 257 * 8
