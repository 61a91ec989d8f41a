"""Command-line front end.

Each subcommand configures one experiment, runs it through the library, and
writes a pair of files: `<out>.json` holding {"payload": ..., "env": ...} and
`<out>.csv` with the plot-ready table, which `csv_from_payload` regenerates
from the payload alone.  The JSON file is `json.dumps(indent=2)` text, but the
rows of a coeffs matrix are streamed into it one at a time: each entry's repr
is made once and written to both files, so no document-sized string is held.
A row's CSV lines are one join over its cells and cached `,j,` labels, so
beyond the reprs a row costs no Python work per entry.  The argument parser
is built once per process and reused by every `main` call.
Scientific payloads are deterministic for a fixed config and seed; the wall
time of the experiment, the time spent writing its files and host details are
quarantined in the env block.

Exit codes: 0 when the experiment ran and converged (or has no convergence
notion), 2 when it ran but did not converge, 1 on any error.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from dataclasses import MISSING, dataclass, fields
from datetime import datetime, timezone
from functools import lru_cache
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .basis import FAMILIES, Interval, OrthonormalBasis
from .coeffs import (
    CacheCorruptError,
    cached_coefficient_matrix,
    tensor_coefficients,
)
from .kernel import (
    ComplexExponential,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    VolterraProduct,
    default_eps_schedule,
)
from .quadrature import QuadratureError
from .reports import TraceReport, jsonable
from .stochastic import brownian_midpoint_oracle, mc_campaign
from .trace import (
    basis_independence,
    tensor_neighbor_trace,
    tensor_nonneighbor_trace,
    two_route_kernel_trace,
    verify_kernel_trace,
    verify_symmetric_pair_sum,
    verify_volterra_trace,
)
from .weights import PolynomialWeight, TabulatedWeight, TrigSumWeight

__all__ = ["main", "build_parser", "ExperimentConfig", "parse_weight", "parse_kernel",
           "csv_from_payload", "ConfigError"]

class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


# ---------------------------------------------------------------------------
# grammars


def parse_weight(text: str, interval: Interval):
    """Weight grammar: "poly:c0,c1,..." | "trig:k,s,c;..." | "table:@file.csv"."""
    if not isinstance(text, str):
        raise ValueError(f"weight spec must be a string, got {text!r}")
    if text.startswith("poly:"):
        body = text[len("poly:"):]
        try:
            coeffs = tuple(float(c) for c in body.split(","))
        except ValueError:
            raise ValueError(f"malformed polynomial coefficients in {text!r}") from None
        return PolynomialWeight(coeffs, interval)
    if text.startswith("trig:"):
        body = text[len("trig:"):]
        terms = []
        for chunk in body.split(";"):
            parts = chunk.split(",")
            if len(parts) != 3:
                raise ValueError(f"trig term {chunk!r} must be k,s,c")
            try:
                terms.append((int(parts[0]), float(parts[1]), float(parts[2])))
            except ValueError:
                raise ValueError(f"malformed trig term {chunk!r}") from None
        return TrigSumWeight(tuple(terms), interval)
    if text.startswith("table:@"):
        path = text[len("table:@"):]
        try:
            data = np.loadtxt(path, delimiter=",", ndmin=2)
        except OSError:
            raise ValueError(f"cannot read table file {path!r}") from None
        except ValueError:
            raise ValueError(f"table file {path!r} is not two-column numeric CSV") from None
        if data.shape[1] != 2:
            raise ValueError(f"table file {path!r} must have exactly two columns")
        return TabulatedWeight(data[:, 0], data[:, 1], interval)
    raise ValueError(f"unknown weight spec {text!r}; use poly:, trig:, or table:@")


def parse_kernel(text: str, interval: Interval, phi=None, psi=None):
    """Kernel grammar: "sym" | "volterra" | "rank1" (all need --phi/--psi)
    | "min:n,m" | "max:n,m" | "cexp:n,m"."""

    def int_pair(body: str):
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"kernel parameters {body!r} must be n,m")
        try:
            return int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"kernel parameters {body!r} must be integers") from None

    if text in ("sym", "volterra", "rank1"):
        if phi is None or psi is None:
            raise ValueError(f"kernel {text!r} needs both --phi and --psi")
        cls = {"sym": SymmetrizedVolterra, "volterra": VolterraProduct,
               "rank1": SeparableRankOne}[text]
        return cls(phi, psi)
    parametric = (("min:", MonomialMin), ("max:", MonomialMax), ("cexp:", ComplexExponential))
    for prefix, cls in parametric:
        if text.startswith(prefix):
            n, m = int_pair(text[len(prefix):])
            return cls(n, m, interval)
    raise ValueError(
        f"unknown kernel spec {text!r}; use sym | volterra | rank1 | min:n,m | max:n,m | cexp:n,m"
    )


# ---------------------------------------------------------------------------
# configuration


# smallest allowed value of each bounded integer field
_MINIMA = {"nmax": 1, "n_reduced": 1, "paths": 2, "seed": 0, "workers": 1, "oracle_draws": 0,
           "oracle_mesh": 1, "mesh": 1}
# allowed values of each enumerated field, also offered as the flags' choices
_CHOICES = {"pair": ("12", "23", "13"), "scheme": ("expansion", "brownian")}


def _kind(f) -> type:
    """The declared type of a config field: that of its default, else str."""
    return str if f.default is None or f.default is MISSING else type(f.default)


@dataclass
class ExperimentConfig:
    experiment: str
    t0: float = 0.0
    T: float = 1.0
    phi: str | None = None
    psi: str | None = None
    w1: str | None = None
    w2: str | None = None
    w3: str | None = None
    kernel: str | None = None
    basis: str | None = None
    bases: str | None = None
    nmax: int = 128
    tol: float = 1e-3
    eps_kmin: int = 3
    eps_kmax: int = 12
    pair: str = "12"
    n_reduced: int = 8
    seed: int = 0
    paths: int = 10_000
    workers: int = 1
    distinct: bool = False
    oracle_draws: int = 0
    oracle_mesh: int = 2048
    scheme: str = "expansion"
    mesh: int = 2 ** 14
    cache_dir: str | None = None
    out: str | None = None

    def validate(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ConfigError("experiment", f"unknown experiment {self.experiment!r}")
        for f in fields(self):
            value, kind = getattr(self, f.name), _kind(f)
            if value is None and f.default is None:
                continue
            accepted = (int, float) if kind is float else kind
            if not isinstance(value, accepted) or (isinstance(value, bool) and kind is not bool):
                raise ConfigError(f.name, f"must be of type {kind.__name__}, got {value!r}")
        for name in ("t0", "T", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(name, f"must be finite, got {getattr(self, name)!r}")
        if not (self.T > self.t0):
            raise ConfigError("T", f"need T > t0, got [{self.t0}, {self.T}]")
        if not (self.tol > 0.0):
            raise ConfigError("tol", f"must be positive, got {self.tol}")
        if self.eps_kmin > self.eps_kmax:
            raise ConfigError("eps_kmin", "schedule must decrease: need eps_kmin <= eps_kmax")
        for name, least in _MINIMA.items():
            if getattr(self, name) < least:
                raise ConfigError(name, f"must be >= {least}, got {getattr(self, name)}")
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                listed = (" or ".join(allowed) if len(allowed) == 2
                          else "one of " + ", ".join(allowed))
                raise ConfigError(name, f"must be {listed}, got {getattr(self, name)!r}")

    @property
    def interval(self) -> Interval:
        return Interval(self.t0, self.T)

    def weight(self, field_name: str):
        text = getattr(self, field_name)
        if text is None:
            raise ConfigError(field_name, "required for this experiment")
        try:
            return parse_weight(text, self.interval)
        except ValueError as exc:
            raise ConfigError(field_name, str(exc)) from None

    def make_basis(self, family: str | None = None) -> OrthonormalBasis:
        family = family if family is not None else self.basis
        if family is None:
            raise ConfigError("basis", "required for this experiment")
        try:
            return OrthonormalBasis(family, self.interval, self.nmax - 1)
        except ValueError as exc:
            raise ConfigError("basis", str(exc)) from None

    def basis_list(self) -> list:
        text = self.bases if self.bases is not None else ",".join(FAMILIES)
        families = [f.strip() for f in text.split(",") if f.strip()]
        if not families:
            raise ConfigError("bases", "need at least one basis family")
        return [self.make_basis(f) for f in families]

    def make_kernel(self):
        if self.kernel is None:
            raise ConfigError("kernel", "required for this experiment")
        phi = self.weight("phi") if self.phi is not None else None
        psi = self.weight("psi") if self.psi is not None else None
        try:
            return parse_kernel(self.kernel, self.interval, phi, psi)
        except ValueError as exc:
            raise ConfigError("kernel", str(exc)) from None


def _merge_config(args: argparse.Namespace) -> ExperimentConfig:
    """Flags override config-file values, which override defaults."""
    file_values = {}
    if args.config is not None:
        try:
            file_values = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise ConfigError("config", f"cannot read {args.config!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"{args.config!r} is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("config", f"{args.config!r} must hold a JSON object")

    kwargs = {"experiment": args.experiment}
    for f in fields(ExperimentConfig):
        if f.name == "experiment":
            continue
        flag_value = getattr(args, f.name, None)
        if flag_value is not None:
            kwargs[f.name] = flag_value
        elif f.name in file_values:
            kwargs[f.name] = file_values[f.name]
    unknown = set(file_values) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigError("config", f"unknown fields {sorted(unknown)}")
    config = ExperimentConfig(**kwargs)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# output


def _cell(value) -> str:
    """Deterministic CSV cell: shortest-repr floats, complex as re+imj."""
    if isinstance(value, int):  # bool included
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return repr(complex(value[0], value[1]))
    return str(value)


def _row_cells(row) -> list:
    """The text of each entry of one matrix row, shared by both report files.

    A float's repr is also json.dumps's text for it when it is finite.  Rows
    holding anything but floats (ints, [re, im] pairs) take `_cell`.
    """
    if isinstance(row, np.ndarray):
        row = row.tolist()
    try:
        return list(map(float.__repr__, row))
    except TypeError:
        return [_cell(v) for v in row]


@lru_cache(maxsize=8)
def _column_labels(width: int) -> tuple:
    """The `,j,` text between row index and entry for each column j < width."""
    return tuple(f",{j}," for j in range(width))


def _csv_lines(i: int, cells: list) -> str:
    """The `i,j,entry` lines of row i of a coefficient matrix, joined in C."""
    return "".join(chain.from_iterable(
        zip(repeat(str(i)), _column_labels(len(cells)), cells, repeat("\n"))))


def csv_from_payload(payload: dict) -> str:
    """Regenerate the CSV table from a JSON payload alone."""
    experiment = payload.get("experiment")
    if experiment == "simulate":
        columns = ("n_paths", "N", "mean", "variance", "ci95", "target_trace", "target_half_inner")
        return ",".join(columns) + "\n" + ",".join(_cell(payload[k]) for k in columns) + "\n"
    if experiment == "coeffs":
        return "i,j,entry\n" + "".join(
            _csv_lines(i, _row_cells(row)) for i, row in enumerate(payload["entries"]))
    lines = [f"{payload['index_label']},partial_sum,target,error"]
    target = _cell(payload["target"])
    for n, s, e in zip(payload["N_values"], payload["partial_sums"], payload["errors"]):
        lines.append(f"{_cell(n)},{_cell(s)},{target},{_cell(e)}")
    return "\n".join(lines) + "\n"


# stands in for the env block and for a streamed matrix in the json.dumps text
# of a report; it is found by position, env's as the document's last value and
# the matrix's after the payload's own "entries" key, so that a payload string
# equal to it is written as any other string
_GAP = "\0gap\0"


def _streamable(matrix) -> bool:
    """Whether a matrix is written as its entries' reprs: a finite real 2-D
    array (json.dumps writes NaN and Infinity where repr gives nan and inf)."""
    return (isinstance(matrix, np.ndarray) and matrix.ndim == 2 and matrix.dtype.kind == "f"
            and bool(np.isfinite(matrix).all()))


def _write_matrix(doc, table, matrix: np.ndarray) -> None:
    """Stream a matrix row by row into the JSON document, laid out as
    json.dumps(indent=2) lays out the value of a payload key, and into the CSV
    table as `i,j,entry` lines."""
    table.write("i,j,entry\n")
    if len(matrix) == 0:
        doc.write("[]")
        return
    row_start, entry_sep = "\n      ", ",\n        "  # rows 6 deep, entries 8
    for i, row in enumerate(matrix):
        cells = _row_cells(row)
        doc.write(("[" if i == 0 else ",") + row_start)
        doc.write(("[" + entry_sep[1:] + entry_sep.join(cells) + row_start + "]") if cells
                  else "[]")
        table.write(_csv_lines(i, cells))
    doc.write("\n    ]")


def _write_outputs(out_prefix: str, payload: dict, wall_ms: float) -> None:
    """Write `<out>.json` and `<out>.csv`.

    The document is json.dumps(indent=2) text.  A coeffs matrix is streamed
    into a gap left in it, one repr per entry shared with the CSV, and the env
    block goes last, so that it can time the writing of everything else.
    """
    started = time.perf_counter()
    matrix = payload.get("entries") if payload.get("experiment") == "coeffs" else None
    streamed = _streamable(matrix)
    body = jsonable({**payload, "entries": _GAP} if streamed else payload)
    gap = json.dumps(_GAP)
    text = json.dumps({"payload": body, "env": _GAP}, indent=2)
    end = text.rindex(gap)
    text, tail = text[:end], text[end + len(gap):]
    with open(out_prefix + ".json", "w", encoding="utf-8") as doc, \
            open(out_prefix + ".csv", "w", encoding="utf-8", newline="") as table:
        if streamed:
            key = '\n    "entries": '  # the payload's own key; nested keys sit deeper
            head, _, text = text.partition(key + gap)
            doc.write(head + key)
            _write_matrix(doc, table, matrix)
        else:
            table.write(csv_from_payload(body))
        doc.write(text)
        env = {
            "wall_time_ms": wall_ms,
            "write_time_ms": (time.perf_counter() - started) * 1000.0,
            "versions": {
                "python": platform.python_version(),
                "numpy": np.__version__,
                "stratrace": __version__,
            },
            "host": platform.node(),
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        doc.write(json.dumps(env, indent=2).replace("\n", "\n  ") + tail + "\n")


# ---------------------------------------------------------------------------
# experiments


def _coeffs(c: ExperimentConfig):
    matrix = cached_coefficient_matrix(
        c.weight("phi"), c.weight("psi"), c.make_basis(), c.nmax, directory=c.cache_dir,
    )
    return {
        "experiment": "coeffs",
        "basis": matrix.basis_id,
        "weights": list(matrix.weight_ids),
        "N": matrix.count,
        "trace": matrix.trace,
        "entries": matrix.entries,
    }, True


def _theorem2(c: ExperimentConfig):
    return verify_volterra_trace(
        c.weight("phi"), c.weight("psi"), c.make_basis(), c.nmax, tol=c.tol)


def _theorem1(c: ExperimentConfig):
    spec = c.make_kernel()
    schedule = default_eps_schedule(c.interval, c.eps_kmin, c.eps_kmax)
    return two_route_kernel_trace(spec, c.make_basis(), c.nmax, schedule, tol=c.tol)


def _eq7(c: ExperimentConfig):
    return verify_symmetric_pair_sum(
        c.weight("phi"), c.weight("psi"), c.make_basis(), c.nmax, tol=c.tol)


def _basis_independence(c: ExperimentConfig):
    return basis_independence(
        c.weight("phi"), c.weight("psi"), c.basis_list(), c.nmax, tol=c.tol)


def _tensor_trace(c: ExperimentConfig):
    w1, w2, w3 = c.weight("w1"), c.weight("w2"), c.weight("w3")
    basis = c.make_basis()
    tensor = tensor_coefficients(w1, w2, w3, basis, c.nmax)
    if c.pair == "13":
        return tensor_nonneighbor_trace(tensor, tol=c.tol)
    return tensor_neighbor_trace(
        tensor, w1, w2, w3, basis, pair=(1, 2) if c.pair == "12" else (2, 3),
        n_reduced=c.n_reduced, tol=c.tol,
    )


def _kernel_trace(c: ExperimentConfig):
    return verify_kernel_trace(c.make_kernel(), c.make_basis(), c.nmax, tol=c.tol)


def _simulate(c: ExperimentConfig):
    phi, psi = c.weight("phi"), c.weight("psi")
    if c.scheme == "brownian":
        report = brownian_midpoint_oracle(
            phi, psi, c.interval, seed=c.seed, n_paths=c.paths, mesh=c.mesh)
    else:
        report = mc_campaign(
            phi, psi, c.make_basis(), c.nmax, c.paths,
            seed=c.seed, same_process=not c.distinct,
            workers=c.workers, oracle_draws=c.oracle_draws,
            oracle_mesh=c.oracle_mesh,
        )
    standard_error = (report.variance / report.n_paths) ** 0.5
    return report.payload(), abs(report.mean - report.target_trace) <= 3.0 * standard_error


# subcommand -> (help line, its own flags, runner); every subcommand also takes
# _COMMON_FLAGS.  A runner returns a TraceReport or a (payload, converged) pair.
EXPERIMENTS = {
    "coeffs": ("compute (and cache) a coefficient matrix",
               ("phi", "psi", "basis", "nmax", "cache_dir"), _coeffs),
    "theorem2": ("diagonal sums against half the inner product",
                 ("phi", "psi", "basis", "nmax", "tol"), _theorem2),
    "theorem1": ("kernel trace by expansion and by box averaging",
                 ("kernel", "phi", "psi", "basis", "nmax", "eps_kmin", "eps_kmax", "tol"),
                 _theorem1),
    "eq7": ("symmetric pair sums against the full inner product",
            ("phi", "psi", "basis", "nmax", "tol"), _eq7),
    "basis-independence": ("diagonal sums across bases",
                           ("phi", "psi", "bases", "nmax", "tol"), _basis_independence),
    "tensor-trace": ("order-3 partial traces",
                     ("w1", "w2", "w3", "basis", "nmax", "pair", "n_reduced", "tol"),
                     _tensor_trace),
    "kernel-trace": ("expansion diagonal sums of a kernel",
                     ("kernel", "phi", "psi", "basis", "nmax", "tol"), _kernel_trace),
    "simulate": ("Monte Carlo iterated integrals",
                 ("phi", "psi", "basis", "nmax", "paths", "seed", "workers", "distinct",
                  "oracle_draws", "oracle_mesh", "scheme", "mesh"), _simulate),
}


def _run(config: ExperimentConfig) -> int:
    started = time.perf_counter()
    outcome = EXPERIMENTS[config.experiment][2](config)
    if isinstance(outcome, TraceReport):
        outcome = outcome.payload(), outcome.converged
    payload, converged = outcome

    wall_ms = (time.perf_counter() - started) * 1000.0
    out_prefix = config.out if config.out is not None else config.experiment
    _write_outputs(out_prefix, payload, wall_ms)
    print(f"{config.experiment}: wrote {out_prefix}.json and {out_prefix}.csv "
          f"({'converged' if converged else 'NOT converged'})")
    return 0 if converged else 2


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this front end reserves 2
    for non-converged experiments, so usage errors exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


# help and choices per flag; `--name` (dashes for underscores) sets the config
# field `name`, whose declared type is the flag's type
_FLAG_OPTIONS = {
    "phi": {"help": 'first weight, e.g. "poly:1"'},
    "psi": {"help": 'second weight, e.g. "poly:0,1"'},
    "w1": {"help": "innermost weight"},
    "w2": {"help": "middle weight"},
    "w3": {"help": "outermost weight"},
    "kernel": {"help": '"min:n,m" | "max:n,m" | "cexp:n,m" | sym | volterra | rank1'},
    "basis": {"choices": FAMILIES},
    "bases": {"help": "comma-separated families (default: all three)"},
    "nmax": {"help": "truncation order (default 128)"},
    "eps_kmin": {"help": "schedule starts at L/2^kmin"},
    "eps_kmax": {"help": "schedule ends at L/2^kmax"},
    "pair": {"choices": _CHOICES["pair"], "help": "slots to trace over"},
    "workers": {"help": "worker processes; they split the fixed 4096-path blocks and never "
                        "change results (default 1)"},
    "distinct": {"help": "use independent noises in the two layers"},
    "scheme": {"choices": _CHOICES["scheme"]},
    "mesh": {"help": "Brownian oracle mesh"},
    "cache_dir": {"help": "override STRC_CACHE_DIR"},
    "config": {"help": "JSON config file; explicit flags override it"},
    "t0": {"help": "interval start (default 0)"},
    "T": {"help": "interval end (default 1)"},
    "out": {"help": "output file prefix (default: experiment name)"},
}
_COMMON_FLAGS = ("config", "t0", "T", "out")


def build_parser() -> _Parser:
    parser = _Parser(prog="stratrace", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="experiment", required=True, parser_class=_Parser)
    kinds = {f.name: _kind(f) for f in fields(ExperimentConfig)}
    for name, (help_line, flags, _) in EXPERIMENTS.items():
        p = sub.add_parser(name, help=help_line)
        for flag in flags + _COMMON_FLAGS:
            options = dict(_FLAG_OPTIONS.get(flag, {}))
            kind = kinds.get(flag, str)
            if kind is bool:
                options.update(action="store_const", const=True)
            elif kind is not str:
                options["type"] = kind
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **options)
    return parser


@lru_cache(maxsize=1)
def _parser() -> _Parser:
    """The one parser `main` reuses: parsing fills a fresh namespace per call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        config = _merge_config(args)
        return _run(config)
    except (QuadratureError, CacheCorruptError, ValueError, OSError) as exc:  # ConfigError too
        print(f"stratrace: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
