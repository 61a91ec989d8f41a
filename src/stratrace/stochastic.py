"""Simulation of iterated stochastic integrals from expansion matrices.

Writing the Brownian path on the expansion's interval as the series
W(t) = sum_i zeta_i Q_i(t) with i.i.d. standard normals zeta_i and the
antiderivatives Q_i of an orthonormal basis, the truncated iterated integral
of a weight pair collapses to a quadratic form

    J_N = zeta^T G zeta        (same noise in both layers)
    J_N = zeta^T G eta         (independent noises)

in the coefficient matrix G.  Its expectation is the matrix trace, which is
what ties the simulation back to the trace identity; subtracting the trace
converts the same-noise value from the midpoint (Stratonovich) convention to
the left-endpoint (Ito) one.

Randomness comes in fixed blocks of BLOCK_PATHS paths.  Each block has one
generator per noise, keyed by (seed, block, stream): stream 0 gives zeta,
stream 1 gives eta and stream 2 the increments of the Brownian oracle.  The
expansion draws are coordinate-major, (n, BLOCK_PATHS) draws in row order,
so coordinate i of path k depends only on (seed, k, i, stream): not on the
number of paths, the truncation (N = 8 is a prefix of N = 16) or the number
of worker processes.  Matrix products contract the draws with the
coefficient matrix.  Two independent oracles are provided: a standalone
quadrature of the truncated smooth path, and a midpoint discretization of a
genuine Brownian path on a fine mesh.

Two kinds of block appear below and must not be confused.  Key blocks (the
BLOCK_PATHS campaign blocks and the oracle's `_BROWNIAN_BLOCK_VALUES`
blocks) decide which paths share a generator, so they define the draws.
Sub-blocks only bound the memory an oracle or a campaign block holds at
once, and each is worked through in sequence.  For `_BROWNIAN_ROW_VALUES`,
`_ORACLE_PANELS` and `_PATH_COLUMNS` every value is bitwise the same
whatever their size.  `_ETA_ROWS`, the rows of eta drawn at once in a
distinct-noise block, also fixes the order in which the rows of the form
zeta^T G eta are summed: changing it moves those samples at roundoff, never
a draw, since the rows continue one stream.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .basis import Interval, OrthonormalBasis, _integer
from .coeffs import cached_coefficient_matrix
from .reports import MCReport
from .trace import inner_product
from .weights import WeightFunction

__all__ = [
    "smooth_path_oracle",
    "brownian_midpoint_oracle",
    "mc_campaign",
]

# paths per block; fixed so that no sample depends on the number of paths or
# on the worker count
BLOCK_PATHS = 4096
# normals per generator key of `brownian_midpoint_oracle` (256 paths at the
# default mesh, fewer on finer meshes); defines which paths share a stream
_BROWNIAN_BLOCK_VALUES = 256 * 2 ** 14
# normals drawn and reduced at once inside a key block; bounds memory only
_BROWNIAN_ROW_VALUES = 2 ** 18
# panels of `smooth_path_oracle` whose panel integrals and in-panel partials
# are built at once; bounds memory only
_ORACLE_PANELS = 256
# paths of a same-noise campaign block whose G^T zeta columns are formed at
# once; bounds memory only
_PATH_COLUMNS = 1024
# rows of eta drawn and contracted at once in a distinct-noise block; bounds
# memory and fixes the order of the sum over rows
_ETA_ROWS = 32
# stream tags of the block generators
_ZETA, _ETA, _BROWNIAN = 0, 1, 2


def _count(name: str, value, least: int) -> int:
    """`value` as an int of at least `least`; floats and bools are refused."""
    value = _integer(name, value)
    if value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")
    return value


def _paths(n_paths) -> int:
    """`n_paths` as an int of at least 2, the fewest with a sample variance."""
    n_paths = _integer("n_paths", n_paths)
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    return n_paths


def _block_generator(master_seed: int, block: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, block, stream))))


def _block_normals(master_seed: int, block: int, stream: int, n: int) -> np.ndarray:
    """Coordinate-major draws of one block: row i holds coordinate i of all
    BLOCK_PATHS paths, so fewer rows are a prefix of more."""
    return _block_generator(master_seed, block, stream).standard_normal((n, BLOCK_PATHS))


def smooth_path_oracle(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    zeta: np.ndarray,
    N: int,
    eta: np.ndarray | None = None,
    mesh: int = 2048,
) -> float | np.ndarray:
    """Iterated integral of the truncated smooth path by direct quadrature.

    `zeta` (and `eta`) hold the coordinates of one path, shape (N,), giving a
    float, or a stack of draws, shape (draws, N), giving one value per draw.
    The basis is evaluated once at the rule's nodes for all the draws.

    Deliberately self-contained: a uniform composite Gauss rule of 4 nodes
    on each of `mesh` panels, with its own prefix-sum bookkeeping, sharing no
    code with the coefficient engine, so a match against the quadratic form
    checks the whole pipeline.

    Memory: the basis table at the nodes (nodes x N) and the running
    integrals (nodes x N) are never alive together.  The panel integrals are
    taken from the table `_ORACLE_PANELS` panels at a time, its product with
    the outer coordinates is formed, and the table is dropped before the
    running integrals are built, again `_ORACLE_PANELS` panels at a time.
    Neither split changes a value: each panel integral and in-panel partial
    is a sum within its own panel or node, and every matrix product runs on
    whole arrays.
    """
    mesh = _count("mesh", mesh, 1)
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

    # running integral of psi * W_N' at every node, as a matrix (one row per
    # node, one column per basis function) acting on the inner coordinates:
    # prefix over full panels plus an in-panel partial computed with the same
    # reference rule
    weighted = w * psi(x)
    panel_int = np.empty((mesh, N))
    for first in range(0, mesh, _ORACLE_PANELS):
        stop = min(first + _ORACLE_PANELS, mesh)
        rows = slice(first * nodes, stop * nodes)
        panel_int[first:stop] = (weighted[rows, None] * values[rows]).reshape(-1, nodes, N).sum(axis=1)
    outer = values @ zeta.T
    del values  # not held beside the running integrals
    prefix = np.concatenate([np.zeros((1, N)), np.cumsum(panel_int, axis=0)[:-1]])
    running = np.repeat(prefix, nodes, axis=0)
    del panel_int, prefix
    for first in range(0, mesh, _ORACLE_PANELS):
        stop = min(first + _ORACLE_PANELS, mesh)
        rows = slice(first * nodes, stop * nodes)
        starts = np.repeat(edges[first:stop], nodes)
        span = x[rows] - starts
        y = (starts[:, None] + span[:, None] * 0.5 * (ref_x[None, :] + 1.0)).ravel()
        v = (span[:, None] * 0.5 * ref_w[None, :]).ravel() * psi(y)
        terms = basis.evaluate_block(y, N)
        terms *= v[:, None]
        running[rows] += terms.reshape(len(span), nodes, N).sum(axis=1)
        del terms  # not held while the next chunk's basis block is built

    out = (w * phi(x)) @ ((running @ inner_coords.T) * outer)
    return float(out) if np.ndim(out) == 0 else out


def brownian_midpoint_oracle(
    phi: WeightFunction,
    psi: WeightFunction,
    interval: Interval,
    seed: int,
    n_paths: int = 10_000,
    mesh: int = 2 ** 14,
) -> MCReport:
    """Midpoint discretization of the iterated integral on true Brownian paths.

    The increments come in key blocks of `_BROWNIAN_BLOCK_VALUES // mesh`
    paths, one generator per key block keyed by (seed, block, 2); a block's
    rows are its paths, so path k does not depend on `n_paths`.  Key blocks
    define the samples.  Inside one, `_BROWNIAN_ROW_VALUES // mesh` paths at
    a time are drawn from the block's generator in sequence and reduced;
    these sub-blocks only bound memory, since the draws continue one stream
    in row order and every reduction runs along a row.  The update

        J += phi(t_mid) * (S_k + psi(t_mid) * dW_k / 2) * dW_k,
        S_{k+1} = S_k + psi(t_mid) * dW_k,

    is the Stratonovich midpoint rule; for constant weights it telescopes
    to W(T)^2 / 2 exactly.
    """
    seed = _count("seed", seed, 0)
    mesh = _count("mesh", mesh, 1)
    n_paths = _paths(n_paths)
    edges = np.linspace(interval.t0, interval.T, mesh + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    sqrt_h = math.sqrt(interval.length / mesh)
    phi_m = phi(mids)
    psi_m = psi(mids)

    block_paths = max(1, _BROWNIAN_BLOCK_VALUES // mesh)
    rows = max(1, min(block_paths, _BROWNIAN_ROW_VALUES // mesh))
    samples = np.empty(n_paths)
    for block, start in enumerate(range(0, n_paths, block_paths)):
        stop = min(start + block_paths, n_paths)
        gen = _block_generator(seed, block, _BROWNIAN)
        for first in range(start, stop, rows):
            last = min(first + rows, stop)
            # phi (S + increments / 2) dW with the same roundings, built in
            # place so that a sub-block holds at most dW, S and the increments
            dW = gen.standard_normal((last - first, mesh))
            dW *= sqrt_h
            increments = psi_m * dW
            S = np.cumsum(increments, axis=1)
            S -= increments
            increments *= 0.5
            S += increments
            del increments
            S *= phi_m
            S *= dW
            samples[first:last] = np.sum(S, axis=1)

    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    half_inner = 0.5 * inner_product(phi, psi)
    return MCReport(
        n_paths=n_paths,
        truncation=mesh,
        mean=mean,
        variance=var,
        ci95=1.96 * math.sqrt(var / n_paths),
        target_trace=half_inner,
        target_half_inner=half_inner,
        oracle_rms=None,
        seed=seed,
        basis_id=None,
        weight_ids=(phi.id, psi.id),
        metadata={"scheme": "brownian-midpoint", "mesh": mesh},
    )


def _block_samples(G: np.ndarray, zeta: np.ndarray) -> np.ndarray:
    """zeta_p^T G zeta_p for every path p of a same-noise block, from one
    matrix product per `_PATH_COLUMNS` paths; a column of G^T zeta depends on
    its own path alone, so the split changes no sample."""
    samples = np.empty(zeta.shape[1])
    for first in range(0, zeta.shape[1], _PATH_COLUMNS):
        cols = slice(first, first + _PATH_COLUMNS)
        samples[cols] = np.einsum("ip,ip->p", G.T @ zeta[:, cols], zeta[:, cols])
    return samples


def _block(G: np.ndarray, master_seed: int, block: int, same_process: bool, keep: int = 0):
    """Samples of all BLOCK_PATHS paths of one block, its zeta, and the first
    `keep` columns of eta (None for the same noise); each stream is drawn
    once.

    A distinct-noise block draws eta `_ETA_ROWS` rows at a time and never
    holds it whole.  The rows continue one stream, so every draw equals the
    whole (n, BLOCK_PATHS) draw; the samples are sums over row chunks, which
    round differently from one product over all rows.
    """
    n = G.shape[0]
    zeta = _block_normals(master_seed, block, _ZETA, n)
    if same_process:
        return _block_samples(G, zeta), zeta, None
    gen = _block_generator(master_seed, block, _ETA)
    samples = np.zeros(BLOCK_PATHS)
    kept = np.empty((n, keep))
    for first in range(0, n, _ETA_ROWS):
        rows = slice(first, min(first + _ETA_ROWS, n))
        eta = gen.standard_normal((rows.stop - first, BLOCK_PATHS))
        samples += np.einsum("jp,jp->p", G[:, rows].T @ zeta, eta)
        kept[rows] = eta[:, :keep]
    return samples, zeta, kept


def _simulate_block(args) -> np.ndarray:
    """Samples of all BLOCK_PATHS paths of one block; module level so worker
    processes can unpickle it."""
    return _block(*args)[0]


def mc_campaign(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    N: int,
    n_paths: int,
    seed: int,
    same_process: bool = True,
    workers: int = 1,
    oracle_draws: int = 0,
    oracle_mesh: int = 2048,
) -> MCReport:
    """Monte Carlo study of the truncated iterated integral.

    Paths are simulated in whole blocks of BLOCK_PATHS (see the module
    docstring), the last block drawn whole and cut, so the sample of path k
    depends only on (seed, k) and the matrix.  `workers` > 1 splits the
    blocks between processes and never changes the payload.  A pool is
    slower than one process unless BLAS is pinned to one thread per process
    (OPENBLAS_NUM_THREADS=1): on a 2-core host 1e6 paths at N=64 took 3.78 s
    with 2 workers against 1.80 s with 1.  The matrix comes from
    `cached_coefficient_matrix`, so with STRC_CACHE_DIR set a stored matrix
    is reused.  The report carries the exact variance of the form,
    2 ||(G + G^T)/2||_F^2 for the same noise and ||G||_F^2 for independent
    noises, and the z-score of the mean against it.  With `oracle_draws` > 0
    the first min(oracle_draws, n_paths, BLOCK_PATHS) samples of block 0 are
    recomputed through `smooth_path_oracle` and the root-mean-square
    discrepancy is attached to the report.

    Memory: a process holds one block's draws at a time.  A same-noise
    block holds zeta (N x BLOCK_PATHS) and G^T zeta for `_PATH_COLUMNS`
    paths; a distinct-noise block holds zeta and `_ETA_ROWS` rows of eta and
    of G^T zeta.  Block 0 runs last, in this process, and its zeta and the
    oracle's columns of eta stay alive through the oracle.
    """
    N = _integer("N", N)
    n_paths = _paths(n_paths)
    seed = _count("seed", seed, 0)
    workers = _integer("workers", workers)
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    oracle_draws = _count("oracle_draws", oracle_draws, 0)
    oracle_mesh = _count("oracle_mesh", oracle_mesh, 1)
    matrix = cached_coefficient_matrix(phi, psi, basis, N)
    G = matrix.entries

    tasks = [(G, seed, block, same_process) for block in range(1, -(-n_paths // BLOCK_PATHS))]
    if workers == 1:
        later = [_simulate_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            later = list(pool.map(_simulate_block, tasks))
    # block 0 comes last and in this process, so that the oracle takes the
    # first columns of its draws and no other block's draws are still held
    draws = min(oracle_draws, n_paths, BLOCK_PATHS)
    leading, zeta, eta = _block(G, seed, 0, same_process, draws)
    samples = np.concatenate([leading] + later)[:n_paths]

    oracle_rms = None
    if oracle_draws > 0:
        eta = None if eta is None else eta.T
        ref = smooth_path_oracle(phi, psi, basis, zeta[:, :draws].T, N, eta=eta, mesh=oracle_mesh)
        oracle_rms = float(np.sqrt(np.mean((samples[:draws] - ref) ** 2)))

    if same_process:
        sym = 0.5 * (G + G.T)
        target, exact_variance = float(matrix.trace), 2.0 * float(np.sum(sym * sym))
    else:
        target, exact_variance = 0.0, float(np.sum(G * G))
    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    return MCReport(
        n_paths=n_paths,
        truncation=N,
        mean=mean,
        variance=var,
        ci95=1.96 * math.sqrt(var / n_paths),
        target_trace=target,
        target_half_inner=0.5 * inner_product(phi, psi),
        oracle_rms=oracle_rms,
        seed=seed,
        basis_id=basis.id,
        weight_ids=(phi.id, psi.id),
        metadata={
            "same_process": bool(same_process),
            "block_paths": BLOCK_PATHS,
            "oracle_mesh": oracle_mesh if oracle_draws else None,
        },
        exact_variance=exact_variance,
        z_mean=(mean - target) / math.sqrt(exact_variance / n_paths) if exact_variance > 0 else None,
    )
