"""Expansion coefficients of Volterra-type kernels in an orthonormal basis.

The central objects are the matrices

    G[i, j] = int_{t0}^{T} phi(t) q_i(t) (int_{t0}^{t} psi(s) q_j(s) ds) dt

for a weight pair (phi, psi), their order-3 analogue for weight triples, and
the expansion matrices of the kernel kinds: expansion coefficients
C[j_k, ..., j_1] = int w_k q_{j_k} (int ... (int w_1 q_{j_1})) of
multiplicity k = 1 (`weight_basis_inner`), 2 (G) and 3 (the tensors).  Every
multiplicity takes its rule from `_expansion_rule`, of degree the k weights'
and k basis blocks' degrees plus one per running integral (k - 1), and is
contracted over its nodes by `_expansion_sum`: the outer weight times the
basis block against the nested running integrals of the inner levels from
`quadrature._running_integral` at the rule's own nodes (per-panel prefix sums
plus a spectral integration matrix on each panel).  The tables are streamed:
the rule is walked in groups of whole panels, each table of a group holds at
most `_TABLE_VALUES` values, and each running integral carries its prefix
from group to group, so no table grows with the rule's node count.
`_TABLE_VALUES` bounds memory only: the running integrals are the whole
rule's bit for bit, a rule of one group is contracted as one whole table,
and summing the groups moves entries at roundoff alone.  The rule is worked
out from the factors alone (one panel per smooth piece of a piecewise
polynomial integrand, uniform panels only for oscillation), so every entry is
exact (up to roundoff) whenever the weights and basis make the integrands
piecewise polynomial or resolved oscillations.
The Haar family is the exception for k = 1 and 2: its functions are constant
on the finest dyadic cells, so G and its diagonal come from three moments of
(phi, psi) per cell, taken on the same rule (`_haar_entries`), and
(w, q_i) from the integral of w over each cell (`_haar_inner`), with no table
of basis values at the rule's nodes; Legendre and Fourier stream the tables,
and order-3 tensors do so in every family.
A kernel's matrix comes from the same engine: every kind is built from two
factor weights (a, b), so its matrix is G(a, b), G + G^T, or an outer product
of two `weight_basis_inner` vectors.  The test suite keeps a two-dimensional
kernel quadrature as the independent check on that route.

Matrices can be cached on disk in a small binary format keyed by a content
hash of the engine version, the weights, the basis and the count; see
`matrix_key`, `cache_store`, `cache_load`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import Interval, OrthonormalBasis, _integer
from .kernel import Kernel
from .quadrature import _panel_integral, _running_integral, _sub_rule, integrand_rule
from .weights import WeightFunction

__all__ = [
    "CoefficientMatrix",
    "CoefficientTensor",
    "coefficient_matrix",
    "volterra_diagonal",
    "volterra_norm_sq",
    "weight_basis_inner",
    "kernel_matrix",
    "kernel_diagonal",
    "tensor_coefficients",
    "CacheKeyError",
    "CacheCorruptError",
    "matrix_key",
    "cache_path",
    "cache_store",
    "cache_load",
    "cached_coefficient_matrix",
]

# ---------------------------------------------------------------------------
# result containers


@dataclass(frozen=True)
class CoefficientMatrix:
    """Dense expansion matrix together with the identifiers that produced it."""

    entries: np.ndarray
    basis_id: str
    weight_ids: tuple
    interval: Interval

    @property
    def count(self) -> int:
        return self.entries.shape[0]

    @property
    def trace(self):
        return self.entries.trace()


@dataclass(frozen=True)
class CoefficientTensor:
    """Order-3 expansion tensor for a triple of weights."""

    entries: np.ndarray
    basis_id: str
    weight_ids: tuple
    interval: Interval

    @property
    def count(self) -> int:
        return self.entries.shape[0]


def _result(cls, entries, basis: OrthonormalBasis, weight_ids: tuple):
    """A result container stamped with the identifiers that produced it."""
    return cls(entries=entries, basis_id=basis.id, weight_ids=weight_ids,
               interval=basis.interval)


# ---------------------------------------------------------------------------
# the rule and tables of the expansion coefficients of every multiplicity


def _check_inputs(basis: OrthonormalBasis, count: int, *weights: WeightFunction):
    if _integer("count", count) < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for w in weights:
        if w.interval != basis.interval:
            raise ValueError(
                f"weight {w.id} lives on {w.interval.id}, basis on {basis.interval.id}"
            )


def _expansion_rule(weights, basis, count):
    """The one rule for the coefficients int w_k q_{j_k} (int ... int w_1 q_{j_1})
    with `weights` = (w_1, ..., w_k) listed innermost first: the k weights, one
    basis block per weight, and one degree per running integral (k - 1)."""
    _check_inputs(basis, count, *weights)
    q = basis.factor(count)
    return integrand_rule(basis.interval, (*weights, *[q] * len(weights)),
                          integrals=len(weights) - 1)


# values per table of `_expansion_sum`, the largest of them nodes x count^(k-1):
# sets the panels per group, so it bounds memory and never moves a number
# beyond the roundoff of summing the groups
_TABLE_VALUES = 2 ** 16


def _expansion_sum(weights, basis, count, contract):
    """The coefficients of multiplicity k = len(weights) on `_expansion_rule`:
    the sum, over groups of whole panels, of contract(ow, q, running) with
    the group's nodes x, ow = w w_k(x), q the basis block at x (`contract`
    may overwrite it, see `_outer_table`), and running the running integral
    of the inner levels at x, running[g, m] with
    m = j_{k-1} count^{k-2} + ... + j_1 (the outermost inner index first;
    None for k = 1).

    A group holds at most `_TABLE_VALUES` values per table (a panel larger
    than that is a group of its own), and each inner level carries its prefix
    from group to group, so its running integral is the whole rule's bit for
    bit; only the sum over the groups moves, at roundoff.  A rule of one
    group is contracted as one whole table."""
    rule = _expansion_rule(weights, basis, count)
    # values per panel of the largest table: q for k = 1, running after it
    per_panel = rule.nodes_per_panel * count ** max(1, len(weights) - 1)
    panels = max(1, _TABLE_VALUES // per_panel)
    carries = [None] * (len(weights) - 1)
    total = None
    for first in range(0, rule.panels, panels):
        group = _sub_rule(rule, first, min(first + panels, rule.panels))
        q = basis.evaluate_block(group.x, count)
        running = None
        for m, w in enumerate(weights[:-1]):
            level = w(group.x)[:, None] * q
            if running is not None:
                # this level's integrand: w q_j times the running integral below it
                level = (level[:, :, None] * running[:, None, :]).reshape(len(group.x), -1)
            if carries[m] is None:
                carries[m] = np.zeros(level.shape[1:], dtype=level.dtype)
            running = _running_integral(group, level, carries[m])
            del level  # up to nodes x count^(k-1) values: not held while the outer table is built
        part = contract(group.w * weights[-1](group.x), q, running)
        # no table outlives its group, so the next group's tables can take
        # the same memory
        del q, running
        if total is None:
            total = part
        else:
            total += part
    return total


def _outer_table(ow, q):
    """outer[g, j_k] = w_g w_k(x_g) q_{j_k}(x_g), written over the basis block
    q of a group, which is not needed after it (a table fewer per group),
    unless a complex weight makes it complex."""
    if np.iscomplexobj(ow):
        return ow[:, None] * q
    return np.multiply(q, ow[:, None], out=q)


# ---------------------------------------------------------------------------
# Haar coefficients from cell moments


def _exclusive_cumsum(x: np.ndarray) -> np.ndarray:
    """Sum along the last axis of the entries strictly before each entry."""
    out = np.zeros_like(x)
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _haar_cells(rule, basis, count):
    """The finest dyadic cell of the first `count` Haar functions that each
    panel of `rule` lies in (the cell edges are rule edges), and the first
    panel of each cell."""
    iv, cells = basis.interval, len(basis.breakpoints(count)) + 1
    mid = 0.5 * (rule.edges[:-1] + rule.edges[1:])
    panel_cell = np.minimum((mid - iv.t0) * (cells / iv.length), cells - 1).astype(np.intp)
    return panel_cell, np.searchsorted(panel_cell, np.arange(cells))


def _haar_cell_moments(phi, psi, basis, count):
    """Three moments of (phi, psi) on each finest dyadic cell c of the first
    `count` Haar functions: A_c = int_c phi, B_c = int_c psi and
    C_c = int_c phi(t) int_{left(c)}^t psi(s) ds dt, on the rule of G,
    with no basis block."""
    rule = _expansion_rule((psi, phi), basis, count)
    panel_cell, first_panel = _haar_cells(rule, basis, count)
    f, g = phi(rule.x), psi(rule.x)
    # C from running integrals that start in the cell, never at t0, so it
    # keeps its own relative accuracy: the partial panel, then the cell's
    # whole panels left of it (0 in a cell's first panel)
    a, b, c = rule.panel_sums(np.stack([f, g, f * _panel_integral(rule, g).ravel()], axis=1)).T
    before = _exclusive_cumsum(b)
    c = c + a * (before - before[first_panel[panel_cell]])
    # reduceat, unlike bincount, takes complex weights
    return tuple(np.add.reduceat(x, first_panel) for x in (a, b, c))


def _haar_inner(w, basis, count):
    """(w, q_i) = amp_i sum_c s_i(c) int_c w in the Haar basis, from the
    integral of w over each finest cell c on the rule of (w, q_i): with
    q_i = amp_i s_i(c) on cell c as in `_haar_entries`, and no basis block."""
    rule = _expansion_rule((w,), basis, count)
    _, first_panel = _haar_cells(rule, basis, count)
    a = np.add.reduceat(rule.panel_sums(w(rule.x)), first_panel)
    u = np.empty(count, dtype=a.dtype)
    for first, rows, width, amp, sign in _haar_supports(basis, count, len(a)):
        u[first:first + rows] = amp * (sign * a.reshape(-1, width)[:rows]).sum(axis=1)
    return u


def _haar_supports(basis: OrthonormalBasis, count: int, cells: int):
    """(first index, functions, support width in cells, amplitude, sign on
    the cells of one support) for the constant, then each wavelet level."""
    yield 0, 1, cells, 1.0 / np.sqrt(basis.interval.length), np.ones(cells)
    for level, first, wavelets, amp in basis._haar_levels(count):
        width = cells >> level
        yield first, wavelets, width, amp, np.repeat([1.0, -1.0], width // 2)


def _haar_entries(phi, psi, basis, count, diagonal: bool) -> np.ndarray:
    """G, or its diagonal, in the Haar basis from the cell moments alone.

    On finest cell c, q_i = amp_i s_i(c) with s_i = +-1 on its support and 0
    off it.  Summed level by level over each support, with P the exclusive
    prefix within the support:

        G[i, i] = amp^2 sum (C + s A P(s B)),
        u_i = (phi, q_i) = amp sum s A,     v_i = (psi, q_i) = amp sum s B,
        D_i = int phi q_i int_{lo_i}^t psi = amp sum s (C + A P(B)),
        E_i = int phi int_{lo_i}^t psi q_i = amp sum (s C + A P(s B)).

    Dyadic supports nest or are disjoint.  G[i, j] = u_i v_j where supp q_i
    lies right of supp q_j and 0 where it lies left; a nested pair, with q_up
    equal to s amp_up on the support [lo_d, hi_d) of its descendant q_d, has

        G[d, up] = u_d amp_up P(s_up B)(lo_d) + s amp_up D_d,
        G[up, d] = s amp_up E_d + v_d amp_up (sum of s_up A right of hi_d).

    O(cells log N) for the diagonal, O(N^2) for the matrix, and nothing of
    size nodes x N.
    """
    a, b, c = _haar_cell_moments(phi, psi, basis, count)
    cells = len(a)
    diag, u, v, d_in, e_in = (np.empty(count, dtype=a.dtype) for _ in range(5))
    lo, hi = np.empty(count, dtype=np.intp), np.empty(count, dtype=np.intp)
    levels = []
    for first, rows, width, amp, sign in _haar_supports(basis, count, cells):
        fn = slice(first, first + rows)
        lo[fn] = np.arange(rows) * width
        hi[fn] = lo[fn] + width
        a_r, b_r, c_r = (x.reshape(-1, width)[:rows] for x in (a, b, c))
        sa, sb, sc = sign * a_r, sign * b_r, sign * c_r
        prefix = _exclusive_cumsum(sb)
        diag[fn] = amp * amp * (c_r + sa * prefix).sum(axis=1)
        u[fn], v[fn] = amp * sa.sum(axis=1), amp * sb.sum(axis=1)
        d_in[fn] = amp * (sc + sa * _exclusive_cumsum(b_r)).sum(axis=1)
        e_in[fn] = amp * (sc + a_r * prefix).sum(axis=1)
        suffix = _exclusive_cumsum(sa[:, ::-1])[:, ::-1]
        levels.append((first, width, amp, sign, amp * prefix.ravel(), amp * suffix.ravel()))
    if diagonal:
        return diag

    g = np.multiply.outer(u, v)
    g *= lo[:, None] >= hi[None, :]
    # every function of a deeper level nests in one function of each level
    # above it (all whole, since only the last level may be cut)
    for up_first, up_width, up_amp, up_sign, up_prefix, up_suffix in levels:
        d = np.arange(up_first + cells // up_width, count)
        up = up_first + lo[d] // up_width
        s = up_sign[lo[d] % up_width]
        g[d, up] = u[d] * up_prefix[lo[d]] + s * up_amp * d_in[d]
        g[up, d] = s * up_amp * e_in[d] + v[d] * up_suffix[hi[d] - 1]
    np.fill_diagonal(g, diag)
    return g


# ---------------------------------------------------------------------------
# Volterra coefficient matrices


def _volterra_entries(phi, psi, basis, count, diagonal: bool) -> np.ndarray:
    """G for the pair (phi, psi), or only its diagonal: from the cell moments
    in the Haar basis, from the outer rule's tables in the others."""
    if basis.family == "haar":
        return _haar_entries(phi, psi, basis, count, diagonal)
    if diagonal:
        return _expansion_sum((psi, phi), basis, count,
                              lambda ow, q, running: np.einsum("gi,gi->i", _outer_table(ow, q), running))
    return _expansion_sum((psi, phi), basis, count,
                          lambda ow, q, running: _outer_table(ow, q).T @ running)


def coefficient_matrix(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
) -> CoefficientMatrix:
    """All entries G[i, j] for i, j < count."""
    entries = _volterra_entries(phi, psi, basis, count, diagonal=False)
    return _result(CoefficientMatrix, entries, basis, (phi.id, psi.id))


def volterra_diagonal(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
) -> np.ndarray:
    """The diagonal G[i, i] for i < count, without forming the full matrix."""
    return _volterra_entries(phi, psi, basis, count, diagonal=True)


def volterra_norm_sq(phi: WeightFunction, psi: WeightFunction) -> float:
    """Squared Hilbert-Schmidt norm of phi(t) psi(tau) 1(t - tau).

    Equals the absolutely convergent sum of all squared matrix entries in any
    orthonormal basis, so partial entry sums are bounded by it.
    """
    iv = phi.interval
    if iv != psi.interval:
        raise ValueError("weight functions live on different intervals")
    rule = integrand_rule(iv, (phi, phi, psi, psi), integrals=1)
    running = _running_integral(rule, psi(rule.x) ** 2)
    return float(rule.integrate(phi(rule.x) ** 2 * running))


def weight_basis_inner(w: WeightFunction, basis: OrthonormalBasis, count: int) -> np.ndarray:
    """Vector of inner products (w, q_i) for i < count."""
    if basis.family == "haar":
        return _haar_inner(w, basis, count)
    return _expansion_sum((w,), basis, count, lambda ow, q, running: ow @ q)


# ---------------------------------------------------------------------------
# kernel expansion matrices from the kernel's factor weights


def _kernel_entries(spec: Kernel, basis: OrthonormalBasis, count: int,
                    diagonal: bool) -> np.ndarray:
    """K, or its diagonal, for a kernel with factor weights (a, b): G(a, b)
    when one-sided, G + G^T when mirrored (the mirror term a(tau) b(t)
    1(tau - t) expands to G^T), and the outer product of (a, q_i) and
    (b, q_j) when stepless."""
    _check_inputs(basis, count)
    if spec.interval != basis.interval:
        raise ValueError(f"kernel lives on {spec.interval.id}, basis on {basis.interval.id}")
    a, b = spec.weights
    if not spec.has_step:
        u = weight_basis_inner(a, basis, count)
        v = weight_basis_inner(b, basis, count)
        return u * v if diagonal else np.outer(u, v)
    g = _volterra_entries(a, b, basis, count, diagonal)
    if not spec.mirrored:
        return g
    return 2.0 * g if diagonal else g + g.T


def kernel_matrix(spec: Kernel, basis: OrthonormalBasis, count: int) -> CoefficientMatrix:
    """Expansion matrix K[i, j] = int int f(t, tau) q_i(t) q_j(tau) dtau dt."""
    entries = _kernel_entries(spec, basis, count, diagonal=False)
    return _result(CoefficientMatrix, entries, basis, (spec.id,))


def kernel_diagonal(spec: Kernel, basis: OrthonormalBasis, count: int) -> np.ndarray:
    """The diagonal K[i, i] for i < count."""
    return _kernel_entries(spec, basis, count, diagonal=True)


# ---------------------------------------------------------------------------
# order-3 tensors


def tensor_coefficients(
    w1: WeightFunction,
    w2: WeightFunction,
    w3: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
) -> CoefficientTensor:
    """Entries[i1, i2, i3] = int w3 q_{i3}(t) (int^t w2 q_{i2}(s) (int^s w1 q_{i1}(r) dr) ds) dt,
    the iterated integral over t > s > r with w1 innermost and w3 outermost.

    Three nesting levels on one outer rule: the innermost primitive
    R(w1 q) and the mid-level running integral R(w2 q (x) R(w1 q)) are both
    taken at the outer nodes, and the outer rule finishes the job.
    """
    # the outer rule as one matrix product: (outer.T @ running)[i3, i2 * count + i1]
    entries = _expansion_sum((w1, w2, w3), basis, count,
                             lambda ow, q, running: _outer_table(ow, q).T @ running)
    entries = entries.reshape((count,) * 3)
    entries = np.ascontiguousarray(entries.transpose(2, 1, 0))
    return _result(CoefficientTensor, entries, basis, (w1.id, w2.id, w3.id))


# ---------------------------------------------------------------------------
# binary cache


class CacheKeyError(RuntimeError):
    """The cache file exists but was written for a different computation."""


class CacheCorruptError(RuntimeError):
    """The cache file is malformed or truncated."""


_MAGIC = b"STRC"
_VERSION = 1
# enters every cache key; bump it whenever an engine change may move the
# numbers, so files written by an older engine are recomputed, not served
_ENGINE_VERSION = 6


def _digest(parts: dict) -> str:
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def matrix_key(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
) -> str:
    """Hex content key for a Volterra coefficient matrix."""
    return _digest({
        "engine": _ENGINE_VERSION,
        "kind": "volterra-matrix",
        "phi": phi.id,
        "psi": psi.id,
        "basis": basis.id,
        "count": int(count),
    })


def cache_path(directory, key: str) -> Path:
    return Path(directory) / f"{key}.strc"


def cache_store(entries: np.ndarray, path, key: str) -> None:
    """Write a float64 array: magic, version, key digest, leading dim, payload."""
    arr = np.ascontiguousarray(entries, dtype="<f8")
    header = (
        _MAGIC
        + np.uint32(_VERSION).astype("<u4").tobytes()
        + bytes.fromhex(key)
        + np.uint32(arr.shape[0]).astype("<u4").tobytes()
    )
    path = Path(path)
    # a temp file of our own (random name, exclusive create) in the target
    # directory, so concurrent writers of one key never publish each other's
    # partial bytes
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(header + arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cache_load(path, key: str, shape: tuple) -> np.ndarray:
    """Read an array written by `cache_store`, validating every header field."""
    raw = Path(path).read_bytes()
    head = 4 + 4 + 32 + 4
    if len(raw) < head:
        raise CacheCorruptError(f"{path}: shorter than the fixed header")
    if raw[:4] != _MAGIC:
        raise CacheCorruptError(f"{path}: bad magic {raw[:4]!r}")
    version = int(np.frombuffer(raw[4:8], dtype="<u4")[0])
    if version != _VERSION:
        raise CacheCorruptError(f"{path}: unsupported version {version}")
    if raw[8:40] != bytes.fromhex(key):
        raise CacheKeyError(f"{path}: stored key does not match the requested computation")
    n = int(np.frombuffer(raw[40:44], dtype="<u4")[0])
    if n != shape[0]:
        raise CacheKeyError(f"{path}: stored leading dimension {n}, expected {shape[0]}")
    expect = int(np.prod(shape)) * 8
    if len(raw) - head != expect:
        raise CacheCorruptError(f"{path}: payload is {len(raw) - head} bytes, expected {expect}")
    return np.frombuffer(raw[head:], dtype="<f8").reshape(shape).copy()


def cached_coefficient_matrix(
    phi: WeightFunction,
    psi: WeightFunction,
    basis: OrthonormalBasis,
    count: int,
    *,
    directory=None,
) -> CoefficientMatrix:
    """`coefficient_matrix` with a disk cache.

    The directory comes from the argument or the STRC_CACHE_DIR environment
    variable; with neither set this computes directly.  A corrupt or
    mismatched file is recomputed and overwritten.
    """
    _check_inputs(basis, count, phi, psi)
    if directory is None:
        directory = os.environ.get("STRC_CACHE_DIR") or None
    if directory is None:
        return coefficient_matrix(phi, psi, basis, count)

    key = matrix_key(phi, psi, basis, count)
    path = cache_path(directory, key)
    if path.exists():
        try:
            entries = cache_load(path, key, (count, count))
            return _result(CoefficientMatrix, entries, basis, (phi.id, psi.id))
        except (CacheKeyError, CacheCorruptError):
            pass
    result = coefficient_matrix(phi, psi, basis, count)
    Path(directory).mkdir(parents=True, exist_ok=True)
    cache_store(result.entries, path, key)
    return result
