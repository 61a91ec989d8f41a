"""Trace identities for expansion matrices and tensors.

The headline identity: for weights phi, psi and ANY orthonormal basis, the
diagonal sums of the Volterra coefficient matrix converge to half the inner
product,

    sum_i G[i, i]  ->  (1/2) int phi(t) psi(t) dt,

independent of the basis.  This module turns that statement and its
relatives (symmetrized-kernel traces, bilinear pair sums, order-3 partial
traces) into report-producing verifiers with explicit targets and ladders.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .basis import OrthonormalBasis
from .coeffs import (
    CoefficientTensor,
    kernel_diagonal,
    volterra_diagonal,
)
from .kernel import Kernel, _diagonal_integral, diagonal_trace
from .quadrature import _running_integral, integrand_rule
from .reports import TraceReport
from .weights import PolynomialWeight, WeightFunction

__all__ = [
    "inner_product",
    "verify_volterra_trace",
    "verify_kernel_trace",
    "two_route_kernel_trace",
    "verify_symmetric_pair_sum",
    "basis_independence",
    "tensor_neighbor_trace",
    "tensor_nonneighbor_trace",
]


def inner_product(phi: WeightFunction, psi: WeightFunction) -> float:
    """int phi(t) psi(t) dt over the common interval."""
    iv = phi.interval
    if iv != psi.interval:
        raise ValueError("weight functions live on different intervals")
    rule = integrand_rule(iv, (phi, psi))
    return float(rule.integrate(phi(rule.x) * psi(rule.x)))


def verify_volterra_trace(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
    tol: float = 1e-3,
) -> TraceReport:
    """Diagonal partial sums of G against the limit (phi, psi) / 2."""
    diag = volterra_diagonal(phi, psi, basis, count)
    sums = np.cumsum(diag)
    target = 0.5 * inner_product(phi, psi)
    return TraceReport.ladder("volterra-trace", basis.id, (phi.id, psi.id), sums, target, tol)


def verify_kernel_trace(
    spec: Kernel,
    basis: OrthonormalBasis,
    count: int,
    tol: float = 1e-3,
) -> TraceReport:
    """Diagonal partial sums of a kernel's expansion matrix against the
    integral of the kernel along the diagonal.

    Only kernel kinds certified trace class (a closed-form factorization or
    finite rank) are accepted; the one-sided product kernel is rejected, its
    statement lives in `verify_volterra_trace`.
    """
    if spec.has_step and not spec.mirrored:
        raise ValueError(
            f"kernel kind {type(spec).__name__} is not certified trace class; "
            "symmetrized and finite-rank kinds are"
        )
    diag = kernel_diagonal(spec, basis, count)
    sums = np.cumsum(diag)
    target = _diagonal_integral(spec)
    return TraceReport.ladder("kernel-trace", basis.id, (spec.id,), sums, target, tol)


def two_route_kernel_trace(
    spec: Kernel,
    basis: OrthonormalBasis,
    count: int,
    eps_schedule=None,
    tol: float = 1e-3,
) -> TraceReport:
    """Kernel trace computed two independent ways and cross-checked.

    Route one expands the kernel in the basis and sums the diagonal
    coefficients; route two never sees the basis, it box-averages the kernel
    near the diagonal and shrinks the box.  Both must land on the integral
    of f(t, t), so their agreement checks the expansion machinery against
    plain two-dimensional quadrature.

    The ladder reports route one (partial sums over N); the averaging route
    rides along in the metadata.  Converged requires BOTH final values
    within `tol` of the shared target.
    """
    expansion = verify_kernel_trace(spec, basis, count, tol)
    averaged = diagonal_trace(spec, eps_schedule, tol)
    extrapolated = averaged.metadata["extrapolated"]
    gap = abs(expansion.partial_sums[-1] - extrapolated)
    return replace(
        expansion,
        experiment="two-route-kernel-trace",
        converged=expansion.converged and averaged.converged,
        metadata={
            "averaged_eps": averaged.index_values,
            "averaged_sums": averaged.partial_sums,
            "averaged_extrapolated": extrapolated,
            "route_gap": float(gap),
        },
    )


def verify_symmetric_pair_sum(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
    tol: float = 1e-3,
) -> TraceReport:
    """Partial sums of G[i, i] + G'[i, i] (pair and swapped pair) against
    the full inner product (phi, psi).

    Entry-wise the two one-sided matrices glue to the rank-one expansion
    G[i, j] + G'[j, i] = (phi, q_i)(psi, q_j), so the partial sum at N is the
    truncated Parseval sum sum_{i<N} (phi, q_i)(psi, q_i), which tends to
    (phi, psi) whenever the basis is complete.  The statement is scoped to
    polynomial weights; other weight kinds are rejected.  In the Legendre
    basis the sum is exact once N exceeds the weights' degrees.  In the
    Fourier and Haar bases it approaches (phi, psi) with the Parseval tail
    sum_{i>=N} (phi, q_i)(psi, q_i), so `converged` at the default `tol`
    depends on N and the weights.
    """
    for name, w in (("phi", phi), ("psi", psi)):
        if not isinstance(w, PolynomialWeight):
            raise ValueError(
                f"non-polynomial weight {name} ({w.id}); "
                "the paired diagonal sum is only certified for polynomial weights"
            )
    d1 = volterra_diagonal(phi, psi, basis, count)
    d2 = volterra_diagonal(psi, phi, basis, count)
    sums = np.cumsum(d1 + d2)
    target = inner_product(phi, psi)
    return TraceReport.ladder("symmetric-pair-sum", basis.id, (phi.id, psi.id), sums, target, tol)


def basis_independence(
    phi: WeightFunction,
    psi: WeightFunction,
    bases: list,
    count: int,
    tol: float = 2e-3,
) -> TraceReport:
    """Diagonal sums at truncation `count` across several bases.

    Converged means the per-basis sums agree: the pairwise spread stays
    within `tol` and every sum lies within `tol` of the shared limit
    (phi, psi) / 2.
    """
    if not bases:
        raise ValueError("need at least one basis")
    sums = []
    for basis in bases:
        diag = volterra_diagonal(phi, psi, basis, count)
        sums.append(float(np.sum(diag)))
    target = 0.5 * inner_product(phi, psi)
    spread = max(sums) - min(sums) if len(sums) > 1 else 0.0
    abs_errors = [abs(s - target) for s in sums]
    return TraceReport(
        experiment="basis-independence",
        basis_id=";".join(b.id for b in bases),
        weight_ids=(phi.id, psi.id),
        index_label="basis_index",
        index_values=list(range(len(bases))),
        partial_sums=sums,
        target=target,
        abs_errors=abs_errors,
        tolerance=tol,
        converged=bool(spread <= tol and max(abs_errors) <= tol),
        metadata={"max_spread": spread, "N": count, "bases": [b.id for b in bases]},
    )


def _reduced_limit_vector(w_pair, w_outer, basis, n_reduced, from_left: bool):
    """Expansion coefficients of (1/2) w_outer(t) R(t) in the basis, where
    R is the running integral of w_pair[0] * w_pair[1] from the left endpoint
    (from_left) or up to the right endpoint."""
    w_a, w_b = w_pair
    rule = integrand_rule(w_a.interval, (w_a, w_b, w_outer, basis.factor(n_reduced)),
                          integrals=1)
    product = w_a(rule.x) * w_b(rule.x)
    running = _running_integral(rule, product)
    if not from_left:
        running = float(rule.integrate(product)) - running
    reduced_vals = 0.5 * w_outer(rule.x) * running
    q = basis.evaluate_block(rule.x, n_reduced)
    return (rule.w * reduced_vals) @ q


def tensor_neighbor_trace(
    tensor: CoefficientTensor,
    w1: WeightFunction,
    w2: WeightFunction,
    w3: WeightFunction,
    basis: OrthonormalBasis,
    pair: tuple = (1, 2),
    n_reduced: int = 8,
    tol: float = 5e-3,
) -> TraceReport:
    """Partial traces of an order-3 tensor over a NEIGHBORING slot pair.

    Slot 1 indexes the innermost integral and slot 3 the outermost.  Tracing
    slots (1, 2) collapses the two inner variables and leaves the vector
    v_k(N) = sum_{i<N} T[i, i, k], whose limit is the expansion of
    (1/2) w3(t) int_{t0}^t w1 w2; tracing (2, 3) collapses the two outer
    variables and leaves v_i(N) = sum_{j<N} T[i, j, j] with limit the
    expansion of (1/2) w1(r) int_r^T w2 w3.  The report tracks the worst
    component deviation over the first `n_reduced` reduced indices.
    """
    if tensor.basis_id != basis.id:
        raise ValueError(f"tensor was built in {tensor.basis_id}, got basis {basis.id}")
    count = tensor.count
    n_reduced = min(n_reduced, count)
    if pair == (1, 2):
        traced = np.einsum("iik->ik", tensor.entries).cumsum(axis=0)
        limits = _reduced_limit_vector((w1, w2), w3, basis, n_reduced, from_left=True)
    elif pair == (2, 3):
        traced = np.einsum("ijj->ji", tensor.entries).cumsum(axis=0)
        limits = _reduced_limit_vector((w2, w3), w1, basis, n_reduced, from_left=False)
    else:
        raise ValueError(f"pair must be (1, 2) or (2, 3), got {pair}")

    deviations = np.abs(traced[:, :n_reduced] - limits[None, :])
    worst = deviations.max(axis=1)
    return TraceReport.ladder(
        "tensor-neighbor-trace", basis.id, (w1.id, w2.id, w3.id), worst, 0.0, tol,
        metadata={
            "pair": list(pair),
            "n_reduced": n_reduced,
            "limits": [float(x) for x in limits],
            "final_vector": [float(x) for x in traced[-1, :n_reduced]],
        },
    )


def tensor_nonneighbor_trace(
    tensor: CoefficientTensor,
    Ns=None,
    tol: float = 5e-2,
) -> TraceReport:
    """Partial traces over the NON-neighboring slot pair (1, 3).

    v_j(N) = sum_{i<N} T[i, j, i] carries no trace identity; the statement
    is that it vanishes in the limit, so the report tracks max_j |v_j(N)|
    along a truncation ladder.
    """
    count = tensor.count
    if Ns is None:
        Ns = [n for n in (2 ** k for k in range(1, 30)) if n <= count]
        if not Ns or Ns[-1] != count:
            Ns.append(count)
    Ns = sorted(set(int(n) for n in Ns))
    if Ns[0] < 1 or Ns[-1] > count:
        raise ValueError(f"ladder {Ns} outside 1..{count}")

    partial = np.einsum("iji->ij", tensor.entries).cumsum(axis=0)
    worst = [np.max(np.abs(partial[n - 1])) for n in Ns]
    return TraceReport.ladder(
        "tensor-nonneighbor-trace", tensor.basis_id, tensor.weight_ids, worst, 0.0, tol,
        index_values=Ns,
        metadata={"final_vector": [float(x) for x in partial[Ns[-1] - 1]]},
    )
