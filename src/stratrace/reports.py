"""Report containers shared by the trace and stochastic layers.

Payload dictionaries hold only deterministic scientific content; wall-time and
host details belong to the separate env block the CLI attaches, so identical
inputs produce byte-identical payloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["TraceReport", "MCReport", "jsonable"]


def jsonable(value):
    """Convert numpy scalars/arrays and complex numbers to JSON-safe values.

    Complex numbers become [re, im] pairs.  A real array's `tolist()` already
    holds only Python bools, ints and floats.
    """
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "biuf":
            return value.tolist()
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (complex, np.complexfloating)):
        c = complex(value)
        return [c.real, c.imag]
    if isinstance(value, (np.bool_,)):
        return bool(value)
    return value


@dataclass
class TraceReport:
    """Partial sums of a trace-style quantity against a target value.

    `index_values` is the truncation ladder (or the averaging-width schedule,
    see `index_label`); `partial_sums[k]` is the value at `index_values[k]`.
    """

    experiment: str
    basis_id: str | None
    weight_ids: tuple
    index_label: str
    index_values: list
    partial_sums: list
    target: object
    abs_errors: list
    tolerance: float
    converged: bool
    metadata: dict = field(default_factory=dict)

    @classmethod
    def ladder(
        cls,
        experiment: str,
        basis_id: str | None,
        weight_ids: tuple,
        partial_sums,
        target,
        tol: float,
        index_values=None,
        index_label: str = "N",
        limit=None,
        metadata: dict | None = None,
    ) -> TraceReport:
        """Report for a ladder of partial sums approaching `target`.

        The ladder runs over N = 1, 2, ... unless `index_values` says
        otherwise; errors are |partial sum - target|.  Converged means
        |limit - target| <= tol, where the limit is the last partial sum
        unless an extrapolated `limit` is given.
        """
        sums = np.asarray(partial_sums)
        cast = complex if np.iscomplexobj(sums) else float
        errors = np.abs(sums - target)
        final = errors[-1] if limit is None else abs(limit - target)
        if index_values is None:
            index_values = range(1, len(sums) + 1)
        return cls(
            experiment=experiment,
            basis_id=basis_id,
            weight_ids=weight_ids,
            index_label=index_label,
            index_values=list(index_values),
            partial_sums=[cast(s) for s in sums],
            target=target,
            abs_errors=[float(e) for e in errors],
            tolerance=tol,
            converged=bool(final <= tol),
            metadata={} if metadata is None else metadata,
        )

    def payload(self) -> dict:
        return jsonable(
            {
                "experiment": self.experiment,
                "basis": self.basis_id,
                "weights": list(self.weight_ids),
                "index_label": self.index_label,
                "N_values": list(self.index_values),
                "partial_sums": list(self.partial_sums),
                "target": self.target,
                "errors": list(self.abs_errors),
                "tolerance": self.tolerance,
                "converged": bool(self.converged),
                "metadata": self.metadata,
            }
        )


@dataclass
class MCReport:
    """Monte Carlo summary for simulated iterated stochastic integrals."""

    n_paths: int
    truncation: int
    mean: float
    variance: float
    ci95: float
    target_trace: float
    target_half_inner: float
    oracle_rms: float | None
    seed: int
    basis_id: str | None = None
    weight_ids: tuple = ()
    metadata: dict = field(default_factory=dict)
    # exact moments of the expansion's quadratic form; None for the Brownian
    # scheme, whose moments are not known in closed form
    exact_variance: float | None = None
    z_mean: float | None = None

    def payload(self) -> dict:
        return jsonable(
            {
                "experiment": "simulate",
                "basis": self.basis_id,
                "weights": list(self.weight_ids),
                "n_paths": self.n_paths,
                "N": self.truncation,
                "mean": self.mean,
                "variance": self.variance,
                "exact_variance": self.exact_variance,
                "z_mean": self.z_mean,
                "ci95": self.ci95,
                "target_trace": self.target_trace,
                "target_half_inner": self.target_half_inner,
                "oracle_rms": self.oracle_rms,
                "seed": self.seed,
                "metadata": self.metadata,
            }
        )
