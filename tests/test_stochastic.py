"""Simulation layer: block-stream draws, quadratic forms, the two
independent path oracles, and deterministic Monte Carlo campaigns.

Frozen seeds everywhere: every stochastic assertion is made against a fixed
stream, so failures are reproducible rather than flaky.
"""

import math
import tracemalloc

import numpy as np
import pytest

from stratrace import (
    TabulatedWeight,
    TrigSumWeight,
    brownian_midpoint_oracle,
    coefficient_matrix,
    mc_campaign,
    smooth_path_oracle,
    stochastic,
)
from stratrace.reports import jsonable
from stratrace.stochastic import _ETA, _ETA_ROWS, _ZETA, BLOCK_PATHS, _block_normals, _simulate_block

from conftest import UNIT, make_basis, poly

ONE = poly(1.0)
TEE = poly(0.0, 1.0)
ZERO = poly(0.0)


def _path(master_seed, k, n, stream=_ZETA):
    """The n coordinates of path k in the campaigns' block draws."""
    block, column = divmod(k, BLOCK_PATHS)
    return _block_normals(master_seed, block, stream, n)[:, column]


# -- draws ------------------------------------------------------------------------


def test_block_draws_are_reproducible():
    a = _block_normals(11, 0, _ZETA, 16)
    assert a.shape == (16, BLOCK_PATHS)
    assert np.array_equal(a, _block_normals(11, 0, _ZETA, 16))


def test_streams_and_blocks_are_distinct():
    zeta = _block_normals(11, 0, _ZETA, 16)
    assert not np.array_equal(zeta, _block_normals(11, 0, _ETA, 16))
    assert not np.array_equal(zeta, _block_normals(11, 1, _ZETA, 16))
    assert not np.array_equal(zeta[:, 0], zeta[:, 1])


@pytest.mark.parametrize("k", [0, 4095, 4096, 2 * 4096 + 4])
def test_smaller_truncations_are_prefixes_of_larger_ones(k):
    for stream in (_ZETA, _ETA):
        assert np.array_equal(_path(11, k, 8, stream), _path(11, k, 16, stream)[:8])


# -- quadratic forms ---------------------------------------------------------------


def test_single_mode_sample_is_half_square():
    leg = make_basis("legendre", 1)
    G = coefficient_matrix(ONE, ONE, leg, 1).entries
    zeta = _block_normals(5, 0, _ZETA, 1)[0]
    assert np.allclose(_simulate_block((G, 5, 0, True)), 0.5 * zeta**2, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("same_process", [True, False])
def test_block_samples_equal_the_per_path_quadratic_form(same_process):
    leg = make_basis("legendre", 16)
    G = coefficient_matrix(ONE, TEE, leg, 16).entries
    for k in (0, 4095, 4096, 2 * 4096 + 4):
        block, column = divmod(k, BLOCK_PATHS)
        sample = _simulate_block((G, 21, block, same_process))[column]
        zeta = _path(21, k, 16)
        right = zeta if same_process else _path(21, k, 16, _ETA)
        assert sample == pytest.approx(float(zeta @ G @ right), abs=1e-12)


# -- smooth-path oracle ------------------------------------------------------------


def test_oracle_single_mode_closed_form():
    leg = make_basis("legendre", 1)
    zeta = _path(13, 0, 1)
    val = smooth_path_oracle(ONE, ONE, leg, zeta, 1)
    assert val == pytest.approx(0.5 * zeta[0] ** 2, abs=1e-12)


def test_oracle_zero_path():
    leg = make_basis("legendre", 8)
    assert smooth_path_oracle(ONE, ONE, leg, np.zeros(8), 8) == 0.0


def test_oracle_matches_quadratic_form():
    leg = make_basis("legendre", 8)
    G = coefficient_matrix(ONE, ONE, leg, 8).entries
    for k in range(4):
        zeta = _path(13, k, 8)
        direct = zeta @ G @ zeta
        ref = smooth_path_oracle(ONE, ONE, leg, zeta, 8, mesh=2048)
        assert abs(direct - ref) <= 1e-6


def test_oracle_matches_quadratic_form_with_mixed_weights():
    leg = make_basis("legendre", 8)
    G = coefficient_matrix(ONE, TEE, leg, 8).entries
    zeta = _path(13, 1, 8)
    direct = zeta @ G @ zeta
    ref = smooth_path_oracle(ONE, TEE, leg, zeta, 8, mesh=2048)
    assert abs(direct - ref) <= 1e-6


def test_oracle_matches_bilinear_form_for_distinct_noises():
    leg = make_basis("legendre", 8)
    G = coefficient_matrix(ONE, ONE, leg, 8).entries
    zeta, eta = _path(13, 2, 8), _path(13, 2, 8, _ETA)
    direct = zeta @ G @ eta
    ref = smooth_path_oracle(ONE, ONE, leg, zeta, 8, eta=eta, mesh=2048)
    assert abs(direct - ref) <= 1e-6


def test_oracle_takes_a_stack_of_draws():
    leg = make_basis("legendre", 8)
    zeta = _block_normals(13, 0, _ZETA, 8)[:, :3].T.copy()
    eta = zeta[::-1].copy()
    for inner in (None, eta):
        stacked = smooth_path_oracle(ONE, TEE, leg, zeta, 8, eta=inner)
        singles = [smooth_path_oracle(ONE, TEE, leg, zeta[d], 8,
                                      eta=None if inner is None else inner[d]) for d in range(3)]
        assert stacked.shape == (3,)
        assert np.allclose(stacked, singles, rtol=0.0, atol=1e-14)


# -- Brownian midpoint oracle ------------------------------------------------------


def test_brownian_oracle_constant_weights():
    report = brownian_midpoint_oracle(ONE, ONE, UNIT, seed=7, n_paths=1000, mesh=1024)
    se = math.sqrt(report.variance / report.n_paths)
    assert abs(report.mean - 0.5) <= 3.0 * se
    assert report.ci95 == pytest.approx(1.96 * se, abs=1e-15)
    assert report.target_half_inner == pytest.approx(0.5, abs=1e-14)


def test_brownian_oracle_zero_inner_weight():
    report = brownian_midpoint_oracle(ONE, ZERO, UNIT, seed=7, n_paths=100, mesh=256)
    assert report.mean == 0.0
    assert report.variance == 0.0


def test_brownian_oracle_has_no_exact_moments():
    report = brownian_midpoint_oracle(ONE, ONE, UNIT, seed=7, n_paths=10, mesh=64)
    assert report.exact_variance is None
    assert report.z_mean is None


def test_brownian_oracle_needs_paths():
    with pytest.raises(ValueError, match="at least 2 paths"):
        brownian_midpoint_oracle(ONE, ONE, UNIT, seed=7, n_paths=1)
    for n_paths in (2.5, 10.0, True, "10"):
        with pytest.raises(ValueError, match="n_paths"):
            brownian_midpoint_oracle(ONE, ONE, UNIT, seed=7, n_paths=n_paths, mesh=64)


def test_brownian_oracle_validates_the_mesh():
    for mesh in (0, -4, 2.0, True, "64"):
        with pytest.raises(ValueError, match="mesh"):
            brownian_midpoint_oracle(ONE, ONE, UNIT, seed=7, n_paths=10, mesh=mesh)


# -- oracles in sub-blocks: bit for bit what whole blocks gave ---------------------


def _oracle_brownian_samples(phi, psi, interval, seed, n_paths, mesh):
    """Samples of `brownian_midpoint_oracle`, frozen as they were computed
    when each key block of paths was drawn and reduced whole; the
    sub-blocked oracle must reproduce them bit for bit."""
    edges = np.linspace(interval.t0, interval.T, mesh + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    sqrt_h = math.sqrt(interval.length / mesh)
    phi_m = phi(mids)
    psi_m = psi(mids)
    block_paths = max(1, 256 * 2 ** 14 // mesh)
    samples = np.empty(n_paths)
    for block, start in enumerate(range(0, n_paths, block_paths)):
        stop = min(start + block_paths, n_paths)
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, block, 2))))
        dW = gen.standard_normal((stop - start, mesh))
        dW *= sqrt_h
        increments = psi_m * dW
        S = np.cumsum(increments, axis=1)
        S -= increments
        increments *= 0.5
        S += increments
        del increments
        S *= phi_m
        S *= dW
        samples[start:stop] = np.sum(S, axis=1)
    return samples


def _oracle_smooth_path(phi, psi, basis, zeta, N, eta=None, mesh=2048):
    """`smooth_path_oracle` frozen as it was when the in-panel partials of
    all panels were built as one array."""
    nodes = 4
    iv = basis.interval
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(iv.t0, iv.T, mesh + 1)
    h = (iv.T - iv.t0) / mesh
    x = (edges[:-1, None] + 0.5 * h * (ref_x[None, :] + 1.0)).ravel()
    w = np.tile(0.5 * h * ref_w, mesh)
    zeta = np.asarray(zeta, dtype=float)[..., :N]
    inner_coords = zeta if eta is None else np.asarray(eta, dtype=float)[..., :N]
    values = basis.evaluate_block(x, N)
    panel_int = ((w * psi(x))[:, None] * values).reshape(mesh, nodes, N).sum(axis=1)
    prefix = np.concatenate([np.zeros((1, N)), np.cumsum(panel_int, axis=0)[:-1]])
    starts = np.repeat(edges[:-1], nodes)
    span = x - starts
    y = (starts[:, None] + span[:, None] * 0.5 * (ref_x[None, :] + 1.0)).ravel()
    v = (span[:, None] * 0.5 * ref_w[None, :]).ravel() * psi(y)
    partial = (v[:, None] * basis.evaluate_block(y, N)).reshape(len(x), nodes, N).sum(axis=1)
    running = np.repeat(prefix, nodes, axis=0) + partial
    out = (w * phi(x)) @ ((running @ inner_coords.T) * (values @ zeta.T))
    return float(out) if np.ndim(out) == 0 else out


P3 = poly(1.0, -1.0, 0.0, 2.0)
P2 = poly(0.5, 0.0, 1.0)
_GRID = np.linspace(0.0, 1.0, 17)
TABLE = TabulatedWeight(_GRID, np.cos(3.0 * _GRID) + _GRID**2, UNIT)
TRIG = TrigSumWeight(((0, 0.0, 0.5), (1, 1.0, 0.25), (3, -0.5, 0.75)), UNIT)
ORACLE_WEIGHTS = {"poly": (P3, P2), "trig": (TRIG, P3), "table": (TABLE, TRIG)}


# (paths, mesh): key and sub-block boundaries crossed, a last sub-block cut
# short, one sub-block per key block, and one path per sub-block (mesh 2**19)
@pytest.mark.parametrize("n_paths, mesh", [(300, 2 ** 14), (7, 2 ** 14), (1000, 1024),
                                           (5, 3), (20, 2 ** 15), (9, 2 ** 19)])
def test_brownian_oracle_equals_the_whole_block_samples(n_paths, mesh):
    report = brownian_midpoint_oracle(P3, P2, UNIT, seed=11, n_paths=n_paths, mesh=mesh)
    samples = _oracle_brownian_samples(P3, P2, UNIT, 11, n_paths, mesh)
    assert report.mean.hex() == float(np.mean(samples)).hex()
    assert report.variance.hex() == float(np.var(samples, ddof=1)).hex()


@pytest.mark.parametrize("family, N", [("legendre", 16), ("fourier", 17), ("haar", 16)])
@pytest.mark.parametrize("weights", sorted(ORACLE_WEIGHTS))
def test_smooth_path_oracle_equals_the_whole_array_partials(family, N, weights):
    basis = make_basis(family, N)
    phi, psi = ORACLE_WEIGHTS[weights]
    zeta = _block_normals(5, 0, _ZETA, N)[:, :4].T
    eta = _block_normals(5, 0, _ETA, N)[:, :4].T
    for mesh in (3, 1000, 2048):
        for inner in (None, eta):
            got = smooth_path_oracle(phi, psi, basis, zeta, N, eta=inner, mesh=mesh)
            assert np.array_equal(got, _oracle_smooth_path(phi, psi, basis, zeta, N, inner, mesh))


@pytest.mark.parametrize("rows", ["one path", "whole key block"])
def test_brownian_oracle_identical_across_sub_block_sizes(monkeypatch, rows):
    default = brownian_midpoint_oracle(P3, P2, UNIT, seed=11, n_paths=300, mesh=2 ** 14)
    values = 1 if rows == "one path" else stochastic._BROWNIAN_BLOCK_VALUES
    monkeypatch.setattr(stochastic, "_BROWNIAN_ROW_VALUES", values)
    report = brownian_midpoint_oracle(P3, P2, UNIT, seed=11, n_paths=300, mesh=2 ** 14)
    assert report == default
    assert jsonable(report) == jsonable(default)


@pytest.mark.parametrize("panels", ["one panel", "whole mesh"])
def test_smooth_path_oracle_identical_across_chunk_sizes(monkeypatch, panels):
    leg = make_basis("legendre", 16)
    zeta = _block_normals(5, 0, _ZETA, 16)[:, :4].T

    def run():
        report = mc_campaign(P3, P2, leg, 16, n_paths=100, seed=3, same_process=False,
                             oracle_draws=4, oracle_mesh=1000)
        return report, smooth_path_oracle(P3, P2, leg, zeta, 16, mesh=1000)

    default, values = run()
    monkeypatch.setattr(stochastic, "_ORACLE_PANELS", 1 if panels == "one panel" else 1000)
    report, chunked = run()
    assert report == default
    assert jsonable(report) == jsonable(default)
    assert np.array_equal(chunked, values)


def _traced_peak(call):
    """Peak bytes traced while `call` runs, after one warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _oracle_whole_block_samples(G, zeta, inner):
    """zeta_p^T G inner_p for every path p of a block, frozen as the one
    product of G^T with all its paths that blocks formed when both noises
    were drawn whole; same-noise blocks match it bit for bit, distinct-noise
    blocks at roundoff."""
    return np.einsum("ip,ip->p", G.T @ zeta, inner)


@pytest.mark.parametrize("family, N", [("legendre", 32), ("fourier", 33), ("haar", 256)])
def test_block_samples_identical_across_path_sub_blocks(monkeypatch, family, N):
    # the same-noise quadratic forms of one block, frozen as one product of
    # G^T with all its paths; each path sub-block must reproduce them bit for
    # bit
    G = coefficient_matrix(P3, P2, make_basis(family, N), N).entries
    zeta = _block_normals(9, 0, _ZETA, N)
    whole = _oracle_whole_block_samples(G, zeta, zeta)
    for columns in (256, 1000, 2048, BLOCK_PATHS):
        monkeypatch.setattr(stochastic, "_PATH_COLUMNS", columns)
        assert np.array_equal(stochastic._block_samples(G, zeta), whole)


@pytest.mark.parametrize("rows", [1, 7, _ETA_ROWS, 75])
def test_eta_row_chunks_continue_the_whole_block_draw(monkeypatch, rows):
    # N = 75 leaves a short last chunk for 7 and _ETA_ROWS rows
    G = np.eye(75)
    monkeypatch.setattr(stochastic, "_ETA_ROWS", rows)
    _, zeta, eta = stochastic._block(G, 9, 1, False, BLOCK_PATHS)
    assert np.array_equal(zeta, _block_normals(9, 1, _ZETA, 75))
    assert np.array_equal(eta, _block_normals(9, 1, _ETA, 75))


@pytest.mark.parametrize("family, N", [("legendre", 32), ("legendre", 512), ("fourier", 33),
                                       ("fourier", 257), ("haar", 256)])
def test_distinct_block_samples_agree_with_the_whole_block_product(family, N):
    # row chunks of eta sum the form in another order: roundoff only, bounded
    # by the size of G
    G = coefficient_matrix(P3, P2, make_basis(family, N), N).entries
    whole = _oracle_whole_block_samples(G, _block_normals(9, 0, _ZETA, N),
                                        _block_normals(9, 0, _ETA, N))
    streamed = _simulate_block((G, 9, 0, False))
    assert np.max(np.abs(streamed - whole)) <= 1e-13 * np.linalg.norm(G)


def test_campaign_block_allocation_budget():
    # zeta and eta of a whole block beside G^T zeta held about 18.5 MiB at once
    haar = make_basis("haar", 256)
    peak = _traced_peak(lambda: mc_campaign(P3, P2, haar, 256, n_paths=BLOCK_PATHS, seed=5,
                                            same_process=False))
    assert peak < 12 * 2 ** 20


def test_distinct_campaign_with_oracle_allocation_budget():
    # block 0's whole eta, then both oracle tables at once, held about
    # 18.6 MiB at once
    leg = make_basis("legendre", 64)
    peak = _traced_peak(lambda: mc_campaign(P3, P2, leg, 64, n_paths=BLOCK_PATHS, seed=5,
                                            same_process=False, oracle_draws=2))
    assert peak < 12 * 2 ** 20


def test_brownian_oracle_allocation_budget():
    # whole key blocks of 256 paths x 2**14 held about 96.5 MiB at once
    peak = _traced_peak(lambda: brownian_midpoint_oracle(P3, P2, UNIT, seed=11, n_paths=300))
    assert peak < 16 * 2 ** 20


def test_smooth_path_oracle_allocation_budget():
    # whole-array partials of 2048 panels held about 39.4 MiB at once; the
    # basis table beside the running integrals and a full-size temporary
    # held about 14.4 MiB
    leg = make_basis("legendre", 64)
    zeta = _block_normals(5, 0, _ZETA, 64)[:, :4].T
    peak = _traced_peak(lambda: smooth_path_oracle(P3, P2, leg, zeta, 64, mesh=2048))
    assert peak < 10 * 2 ** 20


def test_smooth_path_oracle_validates_the_mesh():
    leg = make_basis("legendre", 4)
    for mesh in (0, -4, 2.0, True):
        with pytest.raises(ValueError, match="mesh"):
            smooth_path_oracle(ONE, ONE, leg, np.ones(4), 4, mesh=mesh)


# -- Monte Carlo campaigns ---------------------------------------------------------


def test_campaign_mean_within_gaussian_band():
    leg = make_basis("legendre", 16)
    report = mc_campaign(ONE, ONE, leg, 16, n_paths=2000, seed=3)
    se = math.sqrt(report.variance / report.n_paths)
    assert report.target_trace == pytest.approx(0.5, abs=1e-12)
    assert abs(report.mean - report.target_trace) <= 3.0 * se
    assert report.ci95 == pytest.approx(1.96 * se, abs=1e-15)


def test_campaign_payload_identical_across_worker_counts():
    leg = make_basis("legendre", 4)
    for same_process in (True, False):
        solo = mc_campaign(ONE, ONE, leg, 4, n_paths=6000, seed=17, same_process=same_process,
                           workers=1)
        duo = mc_campaign(ONE, ONE, leg, 4, n_paths=6000, seed=17, same_process=same_process,
                          workers=2)
        assert solo == duo


def test_campaign_distinct_processes_center_on_zero():
    leg = make_basis("legendre", 8)
    report = mc_campaign(ONE, ONE, leg, 8, n_paths=2000, seed=5, same_process=False)
    se = math.sqrt(report.variance / report.n_paths)
    assert report.target_trace == 0.0
    assert abs(report.mean) <= 3.0 * se


def test_campaign_oracle_rms_is_quadrature_small():
    leg = make_basis("legendre", 8)
    report = mc_campaign(ONE, ONE, leg, 8, n_paths=100, seed=3, oracle_draws=5)
    assert report.oracle_rms is not None
    assert report.oracle_rms <= 1e-6


@pytest.mark.parametrize("same_process", [True, False])
@pytest.mark.parametrize("n_paths", [100, 9000])
def test_campaign_draws_each_block_stream_once(monkeypatch, same_process, n_paths):
    leg = make_basis("legendre", 8)
    # the oracle's reference, from draws of its own
    zeta = _block_normals(3, 0, _ZETA, 8)[:, :5].T
    eta = None if same_process else _block_normals(3, 0, _ETA, 8)[:, :5].T
    ref = smooth_path_oracle(ONE, TEE, leg, zeta, 8, eta=eta)
    G = coefficient_matrix(ONE, TEE, leg, 8).entries
    samples = _simulate_block((G, 3, 0, same_process))[:5]
    calls = []
    generator = stochastic._block_generator

    def counted(master_seed, block, stream):
        calls.append((block, stream))
        return generator(master_seed, block, stream)

    monkeypatch.setattr(stochastic, "_block_generator", counted)
    report = mc_campaign(ONE, TEE, leg, 8, n_paths=n_paths, seed=3, same_process=same_process,
                         oracle_draws=5)
    streams = (_ZETA,) if same_process else (_ZETA, _ETA)
    blocks = -(-n_paths // BLOCK_PATHS)
    assert sorted(calls) == [(b, s) for b in range(blocks) for s in streams]
    assert report.oracle_rms == float(np.sqrt(np.mean((samples - ref) ** 2)))


def test_campaign_validates_arguments():
    leg = make_basis("legendre", 4)
    with pytest.raises(ValueError, match="at least 2 paths"):
        mc_campaign(ONE, ONE, leg, 4, n_paths=1, seed=0)
    with pytest.raises(ValueError, match="at least 1 worker"):
        mc_campaign(ONE, ONE, leg, 4, n_paths=200, seed=0, workers=0)
    for n_paths in (1e4, 200.0, True):
        with pytest.raises(ValueError, match="n_paths"):
            mc_campaign(ONE, ONE, leg, 4, n_paths=n_paths, seed=0)
    for workers in (True, 1.0, 2.0):
        with pytest.raises(ValueError, match="workers"):
            mc_campaign(ONE, ONE, leg, 4, n_paths=200, seed=0, workers=workers)
    report = mc_campaign(ONE, ONE, leg, 4, n_paths=np.int64(200), seed=0, workers=np.int64(1))
    assert type(report.n_paths) is int
    for mesh in (0, -4, 2.0, True):
        with pytest.raises(ValueError, match="oracle_mesh"):
            mc_campaign(ONE, ONE, leg, 4, n_paths=200, seed=0, oracle_draws=2, oracle_mesh=mesh)
    for draws in (-3, 1.0, True):
        with pytest.raises(ValueError, match="oracle_draws"):
            mc_campaign(ONE, ONE, leg, 4, n_paths=200, seed=0, oracle_draws=draws)


@pytest.mark.parametrize("name, value", [
    ("N", 4.0), ("N", True), ("N", "4"), ("seed", 1.5), ("seed", 1.0), ("seed", True),
    ("seed", -1), ("seed", None),
])
def test_counts_and_seeds_must_be_integers(name, value):
    leg = make_basis("legendre", 4)
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        mc_campaign(ONE, ONE, leg, **{"N": 4, "n_paths": 200, "seed": 0, name: value})
    if name == "seed":
        with pytest.raises(ValueError, match=r"^seed must be"):
            brownian_midpoint_oracle(ONE, ONE, UNIT, seed=value, n_paths=10, mesh=64)
    report = mc_campaign(ONE, ONE, leg, np.int64(4), n_paths=200, seed=np.int64(3))
    assert type(report.truncation) is int and type(report.seed) is int


@pytest.mark.parametrize("n_paths", [2, 3, 4097, 5000])
def test_campaign_samples_are_the_leading_paths_of_its_blocks(n_paths):
    leg = make_basis("legendre", 8)
    G = coefficient_matrix(ONE, TEE, leg, 8).entries
    samples = np.concatenate([_simulate_block((G, 4, b, True)) for b in range(2)])[:n_paths]
    report = mc_campaign(ONE, TEE, leg, 8, n_paths=n_paths, seed=4)
    assert report.mean == np.mean(samples)
    assert report.variance == np.var(samples, ddof=1)


@pytest.mark.parametrize("same_process", [True, False])
def test_exact_variance_agrees_with_the_spectrum(same_process):
    leg = make_basis("legendre", 16)
    G = coefficient_matrix(ONE, TEE, leg, 16).entries
    report = mc_campaign(ONE, TEE, leg, 16, n_paths=100, seed=1, same_process=same_process)
    if same_process:
        spectral = float(np.sum(2.0 * np.linalg.eigvalsh(0.5 * (G + G.T)) ** 2))
    else:
        spectral = float(np.sum(np.linalg.svd(G, compute_uv=False) ** 2))
    assert report.exact_variance == pytest.approx(spectral, abs=1e-12)
    se = math.sqrt(report.exact_variance / report.n_paths)
    assert report.z_mean == pytest.approx((report.mean - report.target_trace) / se, abs=1e-12)


@pytest.mark.parametrize("same_process", [True, False])
def test_campaign_moments_lie_within_five_standard_errors_of_the_exact_ones(same_process):
    leg = make_basis("legendre", 16)
    G = coefficient_matrix(ONE, TEE, leg, 16).entries
    n = 200_000
    report = mc_campaign(ONE, TEE, leg, 16, n_paths=n, seed=8, same_process=same_process)
    var = report.exact_variance
    if same_process:
        A2 = np.linalg.matrix_power(0.5 * (G + G.T), 2)
        kappa4 = 48.0 * float(np.sum(A2 * A2))
    else:
        GtG = G.T @ G
        kappa4 = 6.0 * float(np.sum(GtG * GtG))
    assert abs(report.z_mean) <= 5.0
    assert abs(report.variance - var) <= 5.0 * math.sqrt((kappa4 + 2.0 * var ** 2) / n)
