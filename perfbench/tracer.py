"""Span tracing of the `stratrace` layers, installed from outside the package.

`Tracer.install` wraps every public function and every public method (plus
`__call__`) that a layer module defines, and rebinds each wrapped function
wherever a `stratrace` module holds it, e.g. both `stratrace.coeffs.nested_rule`
and `stratrace.trace.nested_rule`.  A span records its name, its parent, its
start and its end; spans stay in memory and are written once at the end.  A
function already open on the stack (recursion, as in `jsonable`) is called
straight through, so it counts once, at its outermost call.  Spans are only
recorded while `recording` is true, so the benchmark's own checks, which call
into the package too, leave no trace.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("basis", "weights", "quadrature", "coeffs", "kernel", "trace",
          "stochastic", "reports", "cli")


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _file_size(path) -> int:
    try:
        return Path(path).stat().st_size
    except OSError:
        return 0


def _cli_bytes(args, kwargs, result):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if "--out" not in argv:
        return []
    prefix = argv[argv.index("--out") + 1]
    return [("cli.bytes_written", _file_size(prefix + ".json") + _file_size(prefix + ".csv"))]


def _lookup(args, kwargs, result):
    directory = _arg(args, kwargs, 5, "directory")
    return [("coeffs.cache.lookups", 1)] if directory or os.environ.get("STRC_CACHE_DIR") else []


def _weight_points(args, kwargs, result):
    return [("weights.points", np.size(result))]


# counters taken at layer boundaries: span name -> (args, kwargs, result) -> [(counter, amount)]
_HOOKS = {
    "basis.OrthonormalBasis.evaluate_block": lambda a, k, r: [("basis.values", r.size)],
    "basis.OrthonormalBasis.antiderivative_block": lambda a, k, r: [("basis.values", r.size)],
    "quadrature.composite_rule": lambda a, k, r: [("quadrature.outer_nodes", r.x.size)],
    "quadrature.nested_rule": lambda a, k, r: [("quadrature.nested_nodes", r.y.size)],
    "quadrature.scaled_segments": lambda a, k, r: [("quadrature.scaled_segments.nodes", r[0].size)],
    "coeffs.coefficient_matrix": lambda a, k, r: [("coeffs.entries", r.entries.size)],
    "coeffs.kernel_matrix": lambda a, k, r: [("coeffs.entries", r.entries.size)],
    "coeffs.tensor_coefficients": lambda a, k, r: [("coeffs.entries", r.entries.size)],
    "coeffs.volterra_diagonal": lambda a, k, r: [("coeffs.entries", r.size)],
    "coeffs.kernel_diagonal": lambda a, k, r: [("coeffs.entries", r.size)],
    "coeffs.cache_store": lambda a, k, r: [
        ("coeffs.cache_store.bytes", _file_size(_arg(a, k, 1, "path")))],
    "coeffs.cache_load": lambda a, k, r: [
        ("coeffs.cache_load.bytes", _file_size(_arg(a, k, 0, "path"))), ("coeffs.cache.hits", 1)],
    "coeffs.cached_coefficient_matrix": _lookup,
    "stochastic.gaussian_draw": lambda a, k, r: [
        ("stochastic.normals", r.zeta.size + (0 if r.eta is None else r.eta.size))],
    "stochastic.brownian_midpoint_oracle": lambda a, k, r: [
        ("stochastic.normals", r.n_paths * r.truncation)],
    "cli.main": _cli_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.recording = False
        self._stack: list[list] = []  # [span id, time covered by children]
        self._open: list[int] = []  # per name: how many of its spans are open
        self._next_id = 0
        self.log = {"span": array("i"), "parent": array("i"), "name": array("i"),
                    "start": array("d"), "end": array("d")}
        self.self_s: list[float] = []
        self.calls: list[int] = []
        self.counts: dict[str, float] = {}
        self._undo: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"stratrace.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    originals[id(obj)] = self._wrap(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (meth == "__call__" or not meth.startswith("_")):
                            self._set(obj, meth, self._wrap(fn, f"{layer}.{attr}.{meth}"))
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "stratrace" or name.startswith("stratrace.")):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = originals.get(id(obj)) if inspect.isfunction(obj) else None
                if wrapper is not None:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
            self.self_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def _wrap(self, fn, name: str):
        nid = self._name_id(name)
        hook = _HOOKS.get(name)
        if name.startswith("weights.") and name.endswith(".__call__"):
            hook = _weight_points
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording or tracer._open[nid]:
                return fn(*args, **kwargs)
            return tracer._span(nid, hook, fn, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- recording ----------------------------------------------------------

    def _span(self, nid, hook, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [span_id, 0.0]
        self._stack.append(frame)
        self._open[nid] += 1
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open[nid] -= 1
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.self_s[nid] += duration - frame[1]
            self.calls[nid] += 1
            log = self.log
            log["span"].append(span_id)
            log["parent"].append(parent)
            log["name"].append(nid)
            log["start"].append(start)
            log["end"].append(end)
        if hook is not None:
            for key, amount in hook(args, kwargs, result):
                self.counts[key] = self.counts.get(key, 0) + amount
        return result

    # -- results ------------------------------------------------------------

    def _sum(self, table, prefix: str, suffix: str = "") -> float:
        return float(sum(table[i] for i, n in enumerate(self.names)
                         if n.startswith(prefix) and n.endswith(suffix)))

    def metrics(self, rounds: int) -> dict:
        """Every per-layer metric of `PER_LAYER`, per round of the workload."""
        out = {}
        for name, unit, _better, (kind, key) in PER_LAYER:
            if kind == "self":
                value = self._sum(self.self_s, *key) / rounds
            elif kind == "calls":
                value = self._sum(self.calls, *key) / rounds
            elif kind == "count":
                value = self.counts.get(key, 0) / rounds
            else:  # ratio of two counters over the whole run
                hits, lookups = (self.counts.get(k, 0) for k in key)
                value = hits / lookups if lookups else 0.0
            out[name] = {"value": float(value), "unit": unit}
        return out

    def write(self, path: Path, summary: dict) -> None:
        """Spans to `<path>.npz`, per-span totals and `summary` to `<path>.json`."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path.with_suffix(".npz"), names=np.array(self.names),
                 **{k: np.frombuffer(v, dtype=v.typecode) for k, v in self.log.items()})
        spans = {n: {"calls": self.calls[i], "self_s": self.self_s[i]}
                 for i, n in enumerate(self.names) if self.calls[i]}
        path.with_suffix(".json").write_text(
            json.dumps({**summary, "spans": spans}, indent=1, sort_keys=True) + "\n")


def _self(prefix, suffix=""):
    return ("self", (prefix, suffix))


def _calls(prefix, suffix=""):
    return ("calls", (prefix, suffix))


# (metric, unit, better, source); a span prefix ending in a full name selects
# that span alone, "trace.verify" selects every verifier in the trace layer
PER_LAYER = [
    ("basis.evaluate_block.calls", "count", "lower", _calls("basis.OrthonormalBasis.evaluate_block")),
    ("basis.evaluate_block.self_s", "s", "lower", _self("basis.OrthonormalBasis.evaluate_block")),
    ("basis.antiderivative_block.self_s", "s", "lower",
     _self("basis.OrthonormalBasis.antiderivative_block")),
    ("basis.values", "count", "lower", ("count", "basis.values")),
    ("quadrature.composite_rule.calls", "count", "lower", _calls("quadrature.composite_rule")),
    ("quadrature.composite_rule.self_s", "s", "lower", _self("quadrature.composite_rule")),
    ("quadrature.outer_nodes", "count", "lower", ("count", "quadrature.outer_nodes")),
    ("quadrature.nested_rule.calls", "count", "lower", _calls("quadrature.nested_rule")),
    ("quadrature.nested_nodes", "count", "lower", ("count", "quadrature.nested_nodes")),
    ("quadrature.scaled_segments.nodes", "count", "lower",
     ("count", "quadrature.scaled_segments.nodes")),
    ("weights.call.self_s", "s", "lower", _self("weights.", ".__call__")),
    ("weights.points", "count", "lower", ("count", "weights.points")),
    ("coeffs.volterra_diagonal.self_s", "s", "lower", _self("coeffs.volterra_diagonal")),
    ("coeffs.coefficient_matrix.self_s", "s", "lower", _self("coeffs.coefficient_matrix")),
    ("coeffs.tensor_coefficients.self_s", "s", "lower", _self("coeffs.tensor_coefficients")),
    ("coeffs.kernel_diagonal.self_s", "s", "lower", _self("coeffs.kernel_diagonal")),
    ("coeffs.weight_basis_inner.self_s", "s", "lower", _self("coeffs.weight_basis_inner")),
    ("coeffs.entries", "count", "lower", ("count", "coeffs.entries")),
    ("coeffs.cache_store.bytes", "B", "lower", ("count", "coeffs.cache_store.bytes")),
    ("coeffs.cache_store.self_s", "s", "lower", _self("coeffs.cache_store")),
    ("coeffs.cache_load.bytes", "B", "lower", ("count", "coeffs.cache_load.bytes")),
    ("coeffs.cache_load.self_s", "s", "lower", _self("coeffs.cache_load")),
    ("coeffs.cache.lookups", "count", "lower", ("count", "coeffs.cache.lookups")),
    ("coeffs.cache.hits", "count", "higher", ("count", "coeffs.cache.hits")),
    ("coeffs.cache.hit_ratio", "ratio", "higher",
     ("ratio", ("coeffs.cache.hits", "coeffs.cache.lookups"))),
    ("kernel.averaging.calls", "count", "lower", _calls("kernel.averaging")),
    ("kernel.averaging.self_s", "s", "lower", _self("kernel.averaging")),
    ("kernel.diagonal_trace.self_s", "s", "lower", _self("kernel.diagonal_trace")),
    ("trace.verify.self_s", "s", "lower", _self("trace.verify")),
    ("trace.inner_product.self_s", "s", "lower", _self("trace.inner_product")),
    ("stochastic.gaussian_draw.calls", "count", "lower", _calls("stochastic.gaussian_draw")),
    ("stochastic.gaussian_draw.self_s", "s", "lower", _self("stochastic.gaussian_draw")),
    ("stochastic.normals", "count", "lower", ("count", "stochastic.normals")),
    ("stochastic.simulate_stratonovich_pair.calls", "count", "lower",
     _calls("stochastic.simulate_stratonovich_pair")),
    ("stochastic.simulate_stratonovich_pair.self_s", "s", "lower",
     _self("stochastic.simulate_stratonovich_pair")),
    ("stochastic.mc_campaign.self_s", "s", "lower", _self("stochastic.mc_campaign")),
    ("stochastic.brownian_midpoint_oracle.self_s", "s", "lower",
     _self("stochastic.brownian_midpoint_oracle")),
    ("stochastic.smooth_path_oracle.self_s", "s", "lower", _self("stochastic.smooth_path_oracle")),
    ("reports.jsonable.self_s", "s", "lower", _self("reports.jsonable")),
    ("cli.main.self_s", "s", "lower", _self("cli.main")),
    ("cli.csv_from_payload.self_s", "s", "lower", _self("cli.csv_from_payload")),
    ("cli.bytes_written", "B", "lower", ("count", "cli.bytes_written")),
]
