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
    TabulatedWeight,
    TrigSumWeight,
    VolterraProduct,
    averaging,
    default_eps_schedule,
    diagonal_trace,
    explicit_factor_pair,
    factorization_residual,
    gauss_rule,
    integrand_rule,
)
from stratrace.kernel import _AVERAGING_BLOCK_VALUES, _box_nodes, _check_eps
from stratrace.quadrature import panel_edges, scaled_segments
from stratrace.trace import inner_product

from conftest import UNIT, poly

ONE = poly(1.0)
TEE = poly(0.0, 1.0)


# -- pointwise values ---------------------------------------------------------


def test_symmetrized_constant_kernel_is_one_off_diagonal():
    spec = SymmetrizedVolterra(ONE, ONE)
    assert spec.evaluate(0.3, 0.7) == pytest.approx(1.0)
    assert spec.evaluate(0.7, 0.3) == pytest.approx(1.0)
    assert spec.evaluate(0.5, 0.5) == pytest.approx(1.0)


def test_volterra_product_vanishes_above_the_diagonal():
    spec = VolterraProduct(ONE, ONE)
    assert spec.evaluate(0.2, 0.6) == 0.0
    assert spec.evaluate(0.6, 0.2) == 1.0


def test_min_kernel_pointwise():
    spec = MonomialMin(0, 1, UNIT)
    assert spec.evaluate(0.6, 0.2) == pytest.approx(0.2)
    assert spec.evaluate(0.2, 0.6) == pytest.approx(0.2)
    spec12 = MonomialMin(1, 2, UNIT)
    assert spec12.evaluate(0.5, 0.25) == pytest.approx(0.5 * 0.25 * 0.25**2)


def test_max_kernel_pointwise():
    spec = MonomialMax(1, 2, UNIT)
    assert spec.evaluate(0.5, 0.25) == pytest.approx(0.5 * 0.25 * 0.5**2)


def test_complex_exponential_pointwise():
    spec = ComplexExponential(0, 1, UNIT)
    t, tau = 0.6, 0.2
    assert spec.evaluate(t, tau) == pytest.approx(np.exp(1j * min(t, tau)))
    spec21 = ComplexExponential(2, 1, UNIT)
    expected = np.exp(2j * t) * np.exp(2j * tau) * np.exp(-1j * min(t, tau))
    assert spec21.evaluate(t, tau) == pytest.approx(expected)


def test_rank_one_kernel_is_a_plain_product():
    spec = SeparableRankOne(TEE, ONE)
    assert spec.evaluate(0.4, 0.9) == pytest.approx(0.4)
    assert not spec.has_step


def test_kernel_parameter_validation():
    with pytest.raises(ValueError):
        MonomialMin(-1, 1, UNIT)
    with pytest.raises(ValueError):
        MonomialMin(0, 0, UNIT)
    with pytest.raises(ValueError):
        ComplexExponential(1, 0, UNIT)


@pytest.mark.parametrize("make, name", [
    (lambda: MonomialMin(0.5, 1, Interval(-1.0, 1.0)), "n"),
    (lambda: MonomialMax(1, 2.0, UNIT), "m"),
    (lambda: MonomialMin(True, 1, UNIT), "n"),
    (lambda: MonomialMax(0, False, UNIT), "m"),
    (lambda: ComplexExponential(0.5, 1.5, UNIT), "n"),
    (lambda: ComplexExponential(1, 1.5, UNIT), "m"),
    (lambda: ComplexExponential(np.True_, 1, UNIT), "n"),
])
def test_kernel_exponents_must_be_integers(make, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer"):
        make()


def test_numpy_integer_exponents_are_plain_integers():
    spec = MonomialMin(np.int64(1), np.int32(2), UNIT)
    assert spec.id == "monomial_min(n=1,m=2)"
    assert type(spec.n) is int and type(spec.m) is int
    assert ComplexExponential(np.int64(-1), 2, UNIT) == ComplexExponential(-1, 2, UNIT)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0))
def test_two_sided_kernels_are_symmetric(t, tau):
    for spec in (
        MonomialMin(1, 2, UNIT),
        MonomialMax(0, 1, UNIT),
        SymmetrizedVolterra(ONE, TEE),
        ComplexExponential(1, 2, UNIT),
    ):
        assert spec.evaluate(t, tau) == spec.evaluate(tau, t)


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.0, 1.0), tau=st.floats(0.0, 1.0))
def test_symmetrized_glues_the_two_one_sided_products(t, tau):
    if t == tau:
        return
    sym = SymmetrizedVolterra(TEE, ONE)
    low = VolterraProduct(TEE, ONE)
    glued = low.evaluate(t, tau) + low.evaluate(tau, t)
    assert sym.evaluate(t, tau) == pytest.approx(glued, abs=1e-14)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_averaging_rejects_non_finite_input(bad):
    spec = MonomialMin(0, 1, UNIT)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        averaging(spec, bad, 0.5, 0.5)
    with pytest.raises(ValueError, match="needs finite points"):
        averaging(spec, 0.1, bad, 0.5)
    with pytest.raises(ValueError, match="needs finite points"):
        averaging(spec, 0.1, 0.5, bad)
    with pytest.raises(ValueError, match="needs finite points"):
        averaging(spec, 0.1, np.array([0.2, 0.5]), np.array([0.3, bad]))


def test_scalar_points_average_to_python_scalars():
    real = averaging(MonomialMin(0, 1, UNIT), 0.1, 0.5, 0.25)
    outside = averaging(MonomialMin(0, 1, UNIT), 0.05, -0.2, 0.5)
    assert type(real) is float and type(outside) is float and outside == 0.0
    assert type(averaging(ComplexExponential(0, 1, UNIT), 0.1, 0.5, 0.25)) is complex
    assert type(averaging(ComplexExponential(0, 1, UNIT), 0.05, 0.5, 1.3)) is complex


def test_empty_batch_averages_to_an_empty_array():
    empty = np.empty(0)
    got = averaging(MonomialMin(0, 1, UNIT), 0.1, empty, empty)
    assert got.shape == (0,) and got.dtype == float
    got = averaging(ComplexExponential(0, 1, UNIT), 0.1, empty, 0.5)
    assert got.shape == (0,) and got.dtype == complex


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


@pytest.mark.parametrize("schedule", [[np.inf, 0.1], [np.nan, 0.1], [0.2, np.nan]])
def test_diagonal_trace_rejects_a_non_finite_schedule_entry(schedule):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        diagonal_trace(MonomialMin(0, 1, UNIT), schedule)


# -- batched box averaging against the per-point oracle -------------------------


def _oracle_averaging(spec, eps, t, tau):
    """Box average of one point, frozen as it was when points came one at a
    time; the batched `averaging` must reproduce it bit for bit."""
    iv = spec.interval
    _check_eps(iv, eps)
    th_lo, th_hi = max(iv.t0, t - eps), min(iv.T, t + eps)
    vt_lo, vt_hi = max(iv.t0, tau - eps), min(iv.T, tau + eps)
    zero = 0.0j if spec.is_complex else 0.0
    if th_hi <= th_lo or vt_hi <= vt_lo:
        return zero

    n = _box_nodes(spec, eps)
    cuts = [th_lo, th_hi]
    if spec.has_step:
        cuts += [x for x in (vt_lo, vt_hi) if th_lo < x < th_hi]
    cuts += [x for x in spec.breakpoints if th_lo < x < th_hi]
    edges = np.unique(np.asarray(cuts, dtype=float))

    total = zero
    ref_x, ref_w = gauss_rule(n)
    for a, b in zip(edges[:-1], edges[1:]):
        theta = 0.5 * (a + b) + 0.5 * (b - a) * ref_x
        w_theta = 0.5 * (b - a) * ref_w
        inner = _oracle_inner_strip(spec, theta, vt_lo, vt_hi, n)
        total = total + np.sum(w_theta * inner)
    return total / (4.0 * eps * eps)


def _oracle_inner_strip(spec, theta, vt_lo, vt_hi, n):
    bounds = [vt_lo, vt_hi] + [x for x in spec.breakpoints if vt_lo < x < vt_hi]
    bounds = np.unique(np.asarray(bounds, dtype=float))
    dtype = complex if spec.is_complex else float
    out = np.zeros(len(theta), dtype=dtype)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        split = np.clip(theta, lo, hi)
        for seg_lo, seg_hi in ((lo, split), (split, hi)) if spec.has_step else ((lo, hi),):
            y, v = scaled_segments(seg_lo, seg_hi, n)
            out = out + np.sum(v * spec.evaluate(theta[:, None], y), axis=1)
    return out


def _oracle_grid(spec, eps, t, tau):
    t, tau = np.broadcast_arrays(np.asarray(t, dtype=float), np.asarray(tau, dtype=float))
    return [_oracle_averaging(spec, eps, a, b) for a, b in zip(t.ravel(), tau.ravel())]


_GRID = np.linspace(0.0, 1.0, 17)
TABLE = TabulatedWeight(_GRID, np.cos(3.0 * _GRID) + _GRID**2, UNIT)
TRIG = TrigSumWeight(((0, 0.0, 0.5), (1, 1.0, 0.25), (3, -0.5, 0.75)), UNIT)
ORACLE_KERNELS = (
    SymmetrizedVolterra(poly(1.0, -1.0, 0.0, 2.0), poly(0.5, 0.0, 1.0)),
    SymmetrizedVolterra(TABLE, TEE),
    SymmetrizedVolterra(TRIG, ONE),
    MonomialMin(1, 2, UNIT),
    MonomialMax(0, 1, UNIT),
    ComplexExponential(1, 2, UNIT),
    SeparableRankOne(TRIG, TABLE),
)


def _box_coordinates(eps):
    """Coordinates whose eps-box lies inside the square, touches its edges,
    leans out of it or lies wholly outside, plus the table's breakpoints."""
    return st.one_of(
        st.floats(0.0, 1.0),
        st.sampled_from([0.0, 1.0, *TABLE.breakpoints]),
        st.floats(-eps, 0.0),
        st.floats(1.0, 1.0 + eps),
        st.floats(-1.0, -eps),
        st.floats(1.0 + eps, 2.0),
    )


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_averaging_equals_the_per_point_oracle(data):
    spec = data.draw(st.sampled_from(ORACLE_KERNELS), label="spec")
    eps = data.draw(st.floats(1e-4, 0.6), label="eps")
    coordinate = _box_coordinates(eps)
    shape = data.draw(st.sampled_from(["scalar", "vector", "grid"]), label="shape")
    if shape == "scalar":
        t = data.draw(coordinate, label="t")
        tau = data.draw(st.one_of(st.just(t), coordinate), label="tau")
        got = averaging(spec, eps, t, tau)
        assert type(got) is (complex if spec.is_complex else float)
        assert got == _oracle_averaging(spec, eps, t, tau)
        return
    if shape == "vector":
        t = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=6), label="t"))
        on_diagonal = data.draw(st.lists(st.booleans(), min_size=len(t), max_size=len(t)))
        other = data.draw(st.lists(coordinate, min_size=len(t), max_size=len(t)), label="tau")
        tau = np.where(on_diagonal, t, other)
    else:
        t = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=3), label="t"))[:, None]
        tau = np.array(data.draw(st.lists(coordinate, min_size=1, max_size=3), label="tau"))[None, :]
    got = averaging(spec, eps, t, tau)
    assert got.shape == np.broadcast(t, tau).shape
    assert got.ravel().tolist() == _oracle_grid(spec, eps, t, tau)


def test_a_batch_of_many_chunks_equals_the_oracle():
    # a coarse table keeps the 2048 oracle calls quick
    coarse = np.linspace(0.0, 1.0, 5)
    spec = SymmetrizedVolterra(TabulatedWeight(coarse, np.cos(3.0 * coarse), UNIT), TEE)
    eps = 0.125
    t = np.linspace(-0.2, 1.2, 64)[:, None]
    tau = np.linspace(-0.1, 1.1, 32)[None, :]
    # a chunk holds at most this many points (of one panel each): 2048 points
    # span over a hundred chunks
    per_chunk = _AVERAGING_BLOCK_VALUES // _box_nodes(spec, eps) ** 2
    assert t.size * tau.size > 100 * per_chunk
    got = averaging(spec, eps, t, tau)
    assert got.ravel().tolist() == _oracle_grid(spec, eps, t, tau)


@pytest.mark.parametrize("spec", [ORACLE_KERNELS[1], ORACLE_KERNELS[5]], ids=["table", "cexp"])
def test_diagonal_trace_equals_the_oracle_ladder(spec):
    schedule = default_eps_schedule(UNIT, 3, 6)
    sums = []
    for eps in schedule:
        kinks = np.concatenate([[eps, 1.0 - eps], spec.breakpoints - eps, spec.breakpoints + eps])
        rule = integrand_rule(UNIT, (spec, spec), integrals=2, breakpoints=kinks)
        sums.append(rule.integrate(np.array(_oracle_grid(spec, eps, rule.x, rule.x))))
    e1, e2 = schedule[-2], schedule[-1]
    report = diagonal_trace(spec, schedule)
    assert report.partial_sums == sums
    assert report.metadata["extrapolated"] == (e1 * sums[-1] - e2 * sums[-2]) / (e1 - e2)


def test_box_sums_of_a_table_kernel_are_exact_off_its_grid():
    # along the diagonal a sliding box is kinked where its edge crosses a grid
    # point g, at t = g -+ eps; on a grid that misses the eps schedule's
    # multiples, a rule split there integrates it exactly with any panels
    grid = np.array([0.0, 0.13, 0.37, 0.41, 0.66, 0.9, 1.0])
    table = TabulatedWeight(grid, np.array([1.0, 2.0, 0.5, 1.5, -0.5, 0.8, 1.2]), UNIT)
    spec = SymmetrizedVolterra(table, poly(0.5, 0.0, 1.0))
    schedule = default_eps_schedule(UNIT, 3, 12)
    ref_x, ref_w = gauss_rule(8)
    sums = []
    for eps in schedule:
        g = spec.breakpoints
        edges = panel_edges(0.0, 1.0, 64, np.concatenate([[eps, 1.0 - eps], g - eps, g + eps]))
        mid, half = 0.5 * (edges[:-1] + edges[1:]), 0.5 * np.diff(edges)
        x = (mid[:, None] + half[:, None] * ref_x).ravel()
        w = (half[:, None] * ref_w).ravel()
        sums.append(w @ averaging(spec, eps, x, x))
    report = diagonal_trace(spec, schedule)
    assert np.max(np.abs(np.array(report.partial_sums) - sums)) < 1e-14


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
