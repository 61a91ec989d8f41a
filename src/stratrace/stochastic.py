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

Randomness is drawn from per-path counter-based streams, so path k is the
same no matter how many worker processes participate or in which order blocks
complete.  Two independent oracles are provided: a standalone quadrature of
the truncated smooth path, and a midpoint discretization of a genuine
Brownian path on a fine mesh.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .basis import Interval, OrthonormalBasis
from .coeffs import coefficient_matrix
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig
from .reports import MCReport
from .trace import inner_product
from .weights import WeightFunction

__all__ = [
    "GaussianDraw",
    "gaussian_draw",
    "simulate_stratonovich_pair",
    "ito_from_stratonovich",
    "build_truncated_path",
    "smooth_path_oracle",
    "brownian_midpoint_oracle",
    "mc_campaign",
]

# paths per scheduling block; fixed so the sample order never depends on the
# worker count
BLOCK_PATHS = 4096
# normals held at once by `brownian_midpoint_oracle`: 256 paths at the
# default mesh, fewer on finer meshes
_BROWNIAN_BLOCK_VALUES = 256 * 2 ** 14


@dataclass(frozen=True)
class GaussianDraw:
    """The i.i.d. standard normal coordinates of one simulated path."""

    zeta: np.ndarray
    eta: np.ndarray | None
    master_seed: int
    path_index: int


def _path_generator(master_seed: int, path_index: int, stream: int = 0) -> np.random.Generator:
    entropy = (master_seed, path_index) if stream == 0 else (master_seed, path_index, stream)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def gaussian_draw(master_seed: int, path_index: int, n: int, with_eta: bool = False) -> GaussianDraw:
    """Normals for one path, reproducible from (master_seed, path_index) alone."""
    if n < 1:
        raise ValueError(f"need n >= 1 normals, got {n}")
    gen = _path_generator(master_seed, path_index)
    block = gen.standard_normal(2 * n if with_eta else n)
    zeta = block[:n]
    eta = block[n:] if with_eta else None
    return GaussianDraw(zeta=zeta, eta=eta, master_seed=master_seed, path_index=path_index)


def simulate_stratonovich_pair(G: np.ndarray, draw: GaussianDraw, same_process: bool = True) -> float:
    """Quadratic form of the draw in the coefficient matrix."""
    G = np.asarray(G)
    n = G.shape[0]
    if G.ndim != 2 or G.shape[1] != n:
        raise ValueError(f"coefficient matrix must be square, got {G.shape}")
    if len(draw.zeta) < n:
        raise ValueError(f"draw has {len(draw.zeta)} coordinates, matrix needs {n}")
    zeta = draw.zeta[:n]
    if same_process:
        return float(zeta @ G @ zeta)
    if draw.eta is None:
        raise ValueError("independent-noise simulation needs a draw with eta")
    return float(zeta @ G @ draw.eta[:n])


def ito_from_stratonovich(j: float, G: np.ndarray) -> float:
    """Left-endpoint value of a same-noise sample: subtract the matrix trace."""
    return float(j - np.trace(np.asarray(G)))


def build_truncated_path(basis: OrthonormalBasis, zeta: np.ndarray, N: int, t) -> np.ndarray:
    """W_N(t) = sum_{i<N} zeta_i Q_i(t), the smooth truncation of the path."""
    Q = basis.antiderivative_block(t, N)
    out = Q @ np.asarray(zeta)[:N]
    return float(out[0]) if np.ndim(t) == 0 else out


def smooth_path_oracle(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    zeta: np.ndarray,
    N: int,
    eta: np.ndarray | None = None,
    mesh: int = 2048,
    nodes: int = 4,
) -> float:
    """Iterated integral of the truncated smooth path by direct quadrature.

    Deliberately self-contained: a uniform composite Gauss rule with its own
    prefix-sum bookkeeping, sharing no code with the coefficient engine, so a
    match against the quadratic form checks the whole pipeline.
    """
    iv = basis.interval
    ref_x, ref_w = np.polynomial.legendre.leggauss(nodes)
    edges = np.linspace(iv.t0, iv.T, mesh + 1)
    h = (iv.T - iv.t0) / mesh
    x = (edges[:-1, None] + 0.5 * h * (ref_x[None, :] + 1.0)).ravel()
    w = np.tile(0.5 * h * ref_w, mesh)

    zeta = np.asarray(zeta, dtype=float)[:N]
    inner_coords = zeta if eta is None else np.asarray(eta, dtype=float)[:N]
    g_outer = basis.evaluate_block(x, N) @ zeta
    g_inner = g_outer if eta is None else basis.evaluate_block(x, N) @ inner_coords

    # running integral of psi * g_inner at every node: prefix over full panels
    # plus an in-panel partial computed with the same reference rule
    vals = psi(x) * g_inner
    panel_int = (vals.reshape(mesh, nodes) * (0.5 * h * ref_w)).sum(axis=1)
    prefix = np.concatenate([[0.0], np.cumsum(panel_int)[:-1]])
    starts = np.repeat(edges[:-1], nodes)
    span = x - starts
    y = starts[:, None] + span[:, None] * 0.5 * (ref_x[None, :] + 1.0)
    v = span[:, None] * 0.5 * ref_w[None, :]
    g_inner_y = basis.evaluate_block(y.ravel(), N) @ inner_coords
    partial = (v * (psi(y.ravel()) * g_inner_y).reshape(y.shape)).sum(axis=1)
    running = np.repeat(prefix, nodes) + partial

    return float(np.sum(w * phi(x) * running * g_outer))


def brownian_midpoint_oracle(
    phi: WeightFunction,
    psi: WeightFunction,
    interval: Interval,
    seed: int,
    n_paths: int = 10_000,
    mesh: int = 2 ** 14,
) -> MCReport:
    """Midpoint discretization of the iterated integral on true Brownian paths.

    Each path uses its own counter-based stream (tagged distinctly from the
    expansion streams) and the update

        J += phi(t_mid) * (S_k + psi(t_mid) * dW_k / 2) * dW_k,
        S_{k+1} = S_k + psi(t_mid) * dW_k,

    which is the Stratonovich midpoint rule; for constant weights it telescopes
    to W(T)^2 / 2 exactly.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    edges = np.linspace(interval.t0, interval.T, mesh + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    sqrt_h = math.sqrt(interval.length / mesh)
    phi_m = phi(mids)
    psi_m = psi(mids)

    block_paths = max(1, _BROWNIAN_BLOCK_VALUES // mesh)
    samples = np.empty(n_paths)
    for start in range(0, n_paths, block_paths):
        stop = min(start + block_paths, n_paths)
        block = np.empty((stop - start, mesh))
        for k in range(start, stop):
            gen = _path_generator(seed, k, stream=1)
            block[k - start] = gen.standard_normal(mesh)
        dW = sqrt_h * block
        increments = psi_m[None, :] * dW
        S = np.cumsum(increments, axis=1) - increments
        samples[start:stop] = np.sum(phi_m[None, :] * (S + 0.5 * increments) * dW, axis=1)

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


def _simulate_block(args) -> np.ndarray:
    """One scheduling block of paths; module level so worker processes can
    unpickle it."""
    G, master_seed, start, stop, same_process = args
    n = G.shape[0]
    out = np.empty(stop - start)
    for k in range(start, stop):
        draw = gaussian_draw(master_seed, k, n, with_eta=not same_process)
        out[k - start] = simulate_stratonovich_pair(G, draw, same_process)
    return out


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
    quad: QuadratureConfig = DEFAULT_QUADRATURE,
) -> MCReport:
    """Monte Carlo study of the truncated iterated integral.

    The sample for path k depends only on (seed, k), and samples are assembled
    in path order, so the report payload is identical for any worker count.
    With `oracle_draws` > 0 the first few paths are recomputed through the
    standalone smooth-path quadrature and the root-mean-square discrepancy is
    attached to the report.
    """
    if n_paths < 2:
        raise ValueError(f"need at least 2 paths, got {n_paths}")
    if workers < 1:
        raise ValueError(f"need at least 1 worker, got {workers}")
    matrix = coefficient_matrix(phi, psi, basis, N, quad)
    G = matrix.entries

    tasks = [
        (G, seed, start, min(start + BLOCK_PATHS, n_paths), same_process)
        for start in range(0, n_paths, BLOCK_PATHS)
    ]
    if workers == 1:
        blocks = [_simulate_block(t) for t in tasks]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_simulate_block, tasks))
    samples = np.concatenate(blocks)

    oracle_rms = None
    if oracle_draws > 0:
        oracle_draws = min(oracle_draws, n_paths)
        errs = np.empty(oracle_draws)
        for k in range(oracle_draws):
            draw = gaussian_draw(seed, k, N, with_eta=not same_process)
            direct = simulate_stratonovich_pair(G, draw, same_process)
            ref = smooth_path_oracle(
                phi, psi, basis, draw.zeta, N,
                eta=None if same_process else draw.eta, mesh=oracle_mesh,
            )
            errs[k] = direct - ref
        oracle_rms = float(np.sqrt(np.mean(errs ** 2)))

    mean = float(np.mean(samples))
    var = float(np.var(samples, ddof=1))
    return MCReport(
        n_paths=n_paths,
        truncation=N,
        mean=mean,
        variance=var,
        ci95=1.96 * math.sqrt(var / n_paths),
        target_trace=float(matrix.trace) if same_process else 0.0,
        target_half_inner=0.5 * inner_product(phi, psi, quad),
        oracle_rms=oracle_rms,
        seed=seed,
        basis_id=basis.id,
        weight_ids=(phi.id, psi.id),
        metadata={
            "same_process": bool(same_process),
            "block_paths": BLOCK_PATHS,
            "oracle_mesh": oracle_mesh if oracle_draws else None,
        },
    )
