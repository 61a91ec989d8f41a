"""The benchmark's three workloads: inputs from a seed, a fixed list of
operations, and a check of every operation's output.

Each workload is a closed loop: one caller in one thread runs the operations
one after another, and the runner repeats the whole list in rounds.  The seed
draws the weights' coefficients and the Monte Carlo seeds; the sizes (N,
paths, mesh, degrees, frequencies, table grid) are fixed, so every seed costs
the same work.  Checks compare against `refs` (numpy only) or against
properties the method must have, never against stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs
from refs import WeightSpec

import stratrace as st
from stratrace import cli

EXACT = 1e-12  # absolute agreement demanded of exact identities
MEAN_SE = 5.0  # Monte Carlo means: allowed distance in standard errors
VAR_SD = 6.0  # Monte Carlo variances: allowed distance in standard deviations
ORACLE_RMS = 1e-9
INTERVAL = st.Interval(0.0, 1.0)


class CheckFailed(AssertionError):
    """An operation returned a wrong result."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, what: str, tol: float = EXACT) -> None:
    err = float(np.max(np.abs(np.asarray(actual, dtype=float) - np.asarray(expected, dtype=float))))
    expect(err <= tol, f"{what}: off by {err:.3e} (allowed {tol:.0e})")


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


# ---------------------------------------------------------------------------
# inputs


def make_inputs(seed: int) -> dict:
    """Weights with seeded coefficients and fixed shapes, plus a Monte Carlo seed."""
    rng = np.random.default_rng(seed)
    coeffs = lambda n: tuple(float(x) for x in rng.uniform(-1.0, 1.0, n))  # noqa: E731
    trig = tuple((k, 0.0 if k == 0 else float(rng.uniform(-1, 1)), float(rng.uniform(-1, 1)))
                 for k in range(4))
    grid = tuple(float(x) for x in np.linspace(0.0, 1.0, 33))
    return {
        "P3": WeightSpec("poly", coeffs=coeffs(4)),
        "P2": WeightSpec("poly", coeffs=coeffs(3)),
        "P1": WeightSpec("poly", coeffs=coeffs(2)),
        "trig": WeightSpec("trig", terms=trig),
        "table": WeightSpec("table", grid=grid, values=coeffs(33)),
        "mc_seed": int(rng.integers(0, 2 ** 31)),
    }


def to_weight(spec: WeightSpec):
    if spec.kind == "poly":
        return st.PolynomialWeight(spec.coeffs, INTERVAL)
    if spec.kind == "trig":
        return st.TrigSumWeight(spec.terms, INTERVAL)
    return st.TabulatedWeight(np.array(spec.grid), np.array(spec.values), INTERVAL)


def basis(family: str, n: int):
    return st.OrthonormalBasis(family, INTERVAL, n - 1)


def fingerprint(payload) -> str:
    text = payload if isinstance(payload, str) else json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Operations plus the state their checks share across rounds."""

    name = ""

    def __init__(self, seed: int, workdir: Path, tiny: bool = False):
        self.workdir = Path(workdir)
        self.tiny = tiny
        self.inputs = make_inputs(seed)
        self.weights = {k: to_weight(v) for k, v in self.inputs.items() if isinstance(v, WeightSpec)}
        self._memo: dict = {}
        self._first: dict = {}
        self.ops: list[Op] = []

    def memo(self, key, compute):
        """Reference values, computed once per run at the first check that needs them."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def coeffs(self, weight: str, family: str, n: int) -> np.ndarray:
        return self.memo(("coeffs", weight, family, n),
                         lambda: refs.basis_coeffs(self.inputs[weight], family, n))

    def inner(self, a: str, b: str) -> float:
        return self.memo(("inner", a, b), lambda: refs.inner(self.inputs[a], self.inputs[b]))

    def same_as_first_round(self, op: str, payload) -> None:
        digest = fingerprint(payload)
        first = self._first.setdefault(op, digest)
        expect(digest == first, f"{op}: payload differs from the first round's")

    def begin_round(self) -> None:
        pass

    def end_round(self) -> None:
        pass

    def warmup(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# trace-ladders


class TraceLadders(Workload):
    """Trace ladders of the Volterra diagonal in the three families."""

    name = "trace-ladders"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        n = (lambda full: max(8, full // 16)) if tiny else (lambda full: full)
        self.ops = [
            self._ladder("P3", "P3", "legendre", n(128)),
            self._ladder("table", "table", "legendre", n(128)),
            self._ladder("trig", "trig", "legendre", n(64)),
            self._ladder("trig", "trig", "fourier", n(256)),
            self._ladder("table", "P2", "fourier", n(128)),
            self._ladder("table", "table", "haar", n(512)),
            self._ladder("trig", "P3", "haar", n(256)),
            self._pair("legendre", n(64)),
            self._pair("fourier", n(128)),
            self._pair("haar", n(256)),
            self._independence("table", "table", n(64)),
            self._independence("P3", "trig", n(64)),
            self._inner("table", "haar", n(512)),
        ]

    def warmup(self):
        st.verify_volterra_trace(self.weights["P2"], self.weights["table"], basis("legendre", 8), 8)

    def _check_target(self, report, a, b, scale):
        close(report.target, scale * self.inner(a, b), f"target {scale}*({a}, {b})")

    def _ladder(self, a, b, family, n):
        name = f"volterra-trace {family} N={n} {a}*{b}"

        def run():
            return st.verify_volterra_trace(self.weights[a], self.weights[b], basis(family, n), n)

        def check(report):
            self._check_target(report, a, b, 0.5)
            expect(report.index_values == list(range(1, n + 1)), f"{name}: wrong ladder")
            if a == b:
                # G[i, i] = (phi, q_i)^2 / 2 for equal weights: a truncated Parseval sum
                c = self.coeffs(a, family, n)
                close(report.partial_sums, 0.5 * np.cumsum(c * c), f"{name}: partial sums")
                spec = self.inputs[a]
                if family == "legendre" and spec.kind == "poly":
                    deg = len(spec.coeffs) - 1
                    close(report.partial_sums[deg:], report.target, f"{name}: exact from N={deg + 1}")
            self.same_as_first_round(name, report.payload())

        return Op(name, run, check)

    def _pair(self, family, n):
        name = f"symmetric-pair-sum {family} N={n} P3,P2"

        def run():
            return st.verify_symmetric_pair_sum(self.weights["P3"], self.weights["P2"],
                                                basis(family, n), n)

        def check(report):
            self._check_target(report, "P3", "P2", 1.0)
            parseval = np.cumsum(self.coeffs("P3", family, n) * self.coeffs("P2", family, n))
            close(report.partial_sums, parseval, f"{name}: partial sums")
            if family == "legendre":
                close(report.partial_sums[3:], report.target, f"{name}: exact from N=4")
            self.same_as_first_round(name, report.payload())

        return Op(name, run, check)

    def _inner(self, a, family, n):
        name = f"weight_basis_inner {family} N={n} {a}"

        def run():
            return st.weight_basis_inner(self.weights[a], basis(family, n), n)

        def check(c):
            close(c, self.coeffs(a, family, n), f"{name}: (w, q_i)")
            self.same_as_first_round(name, c.tolist())

        return Op(name, run, check)

    def _independence(self, a, b, n):
        name = f"basis-independence N={n} {a}*{b}"
        families = st.FAMILIES

        def run():
            return st.basis_independence(self.weights[a], self.weights[b],
                                         [basis(f, n) for f in families], n)

        def check(report):
            self._check_target(report, a, b, 0.5)
            expect(len(report.partial_sums) == len(families), f"{name}: one sum per basis")
            if a == b:
                for family, total in zip(families, report.partial_sums):
                    c = self.coeffs(a, family, n)
                    close(total, 0.5 * np.sum(c * c), f"{name}: {family} sum")
            self.same_as_first_round(name, report.payload())

        return Op(name, run, check)


# ---------------------------------------------------------------------------
# mc-sampling


class MCSampling(Workload):
    """Monte Carlo of the truncated iterated integrals, plus both oracles."""

    name = "mc-sampling"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        k = 20 if tiny else 1  # tiny runs keep N and shrink the path counts
        self.ops = [
            self._campaign(0, "P3", "P2", "legendre", 64, 20000 // k, True, oracle_draws=4),
            self._campaign(1, "P3", "P2", "legendre", 64, 10000 // k, False, oracle_draws=2),
            self._campaign(2, "trig", "P2", "fourier", 64, 30000 // k, True),
            self._campaign(3, "trig", "P2", "fourier", 64, 10000 // k, False),
            self._campaign(4, "table", "P3", "haar", 256, 20000 // k, True),
            self._campaign(5, "table", "P3", "haar", 256, 10000 // k, False),
            self._brownian(6, "P3", "P2", 60 if tiny else 300, 2 ** 14),
        ]

    def warmup(self):
        st.mc_campaign(self.weights["P2"], self.weights["P1"], basis("legendre", 8), 8, 64,
                       seed=self.inputs["mc_seed"])

    def _campaign(self, i, a, b, family, n, paths, same, oracle_draws=0):
        kind = "same" if same else "distinct"
        name = f"mc_campaign {family} N={n} {a}*{b} {kind}-noise paths={paths}"
        seed = self.inputs["mc_seed"] + i

        def run():
            return st.mc_campaign(self.weights[a], self.weights[b], basis(family, n), n, paths,
                                  seed=seed, same_process=same, workers=1,
                                  oracle_draws=oracle_draws)

        def check(report):
            G = self.memo(("G", a, b, family, n), lambda: st.coefficient_matrix(
                self.weights[a], self.weights[b], basis(family, n), n).entries)
            mean, var, kappa4 = refs.quadratic_form_moments(G, same)
            expect(report.n_paths == paths, f"{name}: n_paths {report.n_paths}")
            close(report.target_trace, mean, f"{name}: target_trace")
            close(report.target_half_inner, 0.5 * self.inner(a, b), f"{name}: target_half_inner")
            check_moments(name, report.mean, report.variance, paths, mean, var, kappa4)
            if oracle_draws:
                expect(report.oracle_rms is not None and report.oracle_rms <= ORACLE_RMS,
                       f"{name}: oracle_rms {report.oracle_rms}")
            self.same_as_first_round(name, report.payload())

        return Op(name, run, check)

    def _brownian(self, i, a, b, paths, mesh):
        name = f"brownian_midpoint_oracle {a}*{b} paths={paths} mesh={mesh}"
        seed = self.inputs["mc_seed"] + i

        def run():
            return st.brownian_midpoint_oracle(self.weights[a], self.weights[b], INTERVAL, seed,
                                               n_paths=paths, mesh=mesh)

        def check(report):
            target = 0.5 * self.inner(a, b)
            close(report.target_half_inner, target, f"{name}: target")
            se = math.sqrt(report.variance / paths)
            expect(abs(report.mean - target) <= MEAN_SE * se,
                   f"{name}: mean {report.mean:.6g} is {abs(report.mean - target) / se:.1f} "
                   f"standard errors from (phi, psi)/2 = {target:.6g}")
            self.same_as_first_round(name, report.payload())

        return Op(name, run, check)


def check_moments(name, mean, variance, n, exact_mean, exact_var, kappa4) -> None:
    """Sample mean and variance against the exact moments of the form."""
    se = math.sqrt(exact_var / n)
    expect(abs(mean - exact_mean) <= MEAN_SE * se,
           f"{name}: mean {mean:.6g} is {abs(mean - exact_mean) / se:.1f} standard errors "
           f"from {exact_mean:.6g}")
    var_sd = math.sqrt(kappa4 / n + 2.0 * exact_var ** 2 / (n - 1))
    expect(abs(variance - exact_var) <= VAR_SD * var_sd,
           f"{name}: variance {variance:.6g} is {abs(variance - exact_var) / var_sd:.1f} "
           f"standard deviations from {exact_var:.6g}")


# ---------------------------------------------------------------------------
# cli-runs


def _poly_flag(spec: WeightSpec) -> str:
    return "poly:" + ",".join(repr(c) for c in spec.coeffs)


@dataclass
class CliResult:
    code: int
    prefix: Path


class CliRuns(Workload):
    """In-process runs of every subcommand, each writing JSON and CSV."""

    name = "cli-runs"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir, tiny)
        self.workdir.mkdir(parents=True, exist_ok=True)
        table = self.inputs["table"]
        self.table_path = self.workdir / "table.csv"
        self.table_path.write_text("".join(f"{t!r},{v!r}\n" for t, v in zip(table.grid, table.values)))
        self.round_dir = self.workdir / "round"
        self.payloads: dict = {}
        p3, p2, p1 = (_poly_flag(self.inputs[k]) for k in ("P3", "P2", "P1"))
        tab = f"table:@{self.table_path}"
        n = (lambda full: max(8, full // 16)) if tiny else (lambda full: full)
        coeffs = ["coeffs", "--basis", "haar", "--nmax", str(n(512))]
        self.ops = [
            self._run("coeffs-cold", coeffs + ["--phi", p3, "--psi", p2, "--cache-dir", "{cache}"],
                      self._check_cold),
            self._run("coeffs-warm", coeffs + ["--phi", p3, "--psi", p2, "--cache-dir", "{cache}"],
                      self._check_warm),
            self._run("coeffs-swapped", coeffs + ["--phi", p2, "--psi", p3, "--cache-dir", "{cache}"],
                      self._check_swapped),
            self._run("theorem1", ["theorem1", "--kernel", "sym", "--phi", p2, "--psi", p3,
                                   "--basis", "legendre", "--nmax", str(n(32)), "--tol", "0.05"],
                      self._target_check("P2", "P3", 1.0)),
            self._run("tensor-trace", ["tensor-trace", "--w1", p2, "--w2", p1, "--w3", p2,
                                       "--basis", "fourier", "--nmax", str(n(32)), "--pair", "12",
                                       "--tol", "0.03"], self._check_tensor),
            self._run("kernel-trace", ["kernel-trace", "--kernel", "sym", "--phi", p3, "--psi", p2,
                                       "--basis", "haar", "--nmax", str(n(32)), "--tol", "0.05"],
                      self._target_check("P3", "P2", 1.0)),
            self._run("eq7", ["eq7", "--phi", p3, "--psi", p2, "--basis", "legendre",
                              "--nmax", str(n(64))], self._check_eq7("legendre")),
            self._run("eq7-fourier", ["eq7", "--phi", p3, "--psi", p2, "--basis", "fourier",
                                      "--nmax", str(n(128)), "--tol", "0.01"],
                      self._check_eq7("fourier")),
            self._run("basis-independence", ["basis-independence", "--phi", p3, "--psi", p2,
                                             "--nmax", str(n(64)), "--tol", "0.02"],
                      self._target_check("P3", "P2", 0.5)),
            self._run("theorem2", ["theorem2", "--phi", tab, "--psi", tab, "--basis", "haar",
                                   "--nmax", str(n(256)), "--tol", "0.05"], self._check_theorem2),
            self._run("simulate", ["simulate", "--phi", p2, "--psi", p3, "--basis", "legendre",
                                   "--nmax", "32", "--paths", str(100 if tiny else 2000),
                                   "--seed", str(self.inputs["mc_seed"])],
                      self._check_simulate, allowed=(0, 2)),
        ]

    def warmup(self):
        self.begin_round()
        cli.main(["coeffs", "--phi", "poly:1", "--psi", "poly:0,1", "--basis", "haar",
                  "--nmax", "8", "--cache-dir", str(self.round_dir / "cache"),
                  "--out", str(self.round_dir / "warmup")])
        self.end_round()

    def begin_round(self):
        shutil.rmtree(self.round_dir, ignore_errors=True)
        self.round_dir.mkdir(parents=True)
        self.payloads = {}

    def end_round(self):
        shutil.rmtree(self.round_dir, ignore_errors=True)

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self, name, argv, check_payload, allowed=(0,)):
        if self.tiny:
            allowed = (0, 2)  # tiny sizes are too small to converge; exact checks still run

        def run():
            prefix = self.round_dir / name
            args = [a.replace("{cache}", str(self.round_dir / "cache")) for a in argv]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(args + ["--out", str(prefix)])
            if code not in allowed:
                raise RuntimeError(f"stratrace {name} exited {code}")
            return CliResult(code, prefix)

        def check(result):
            payload, csv_text = read_outputs(result.prefix)
            self.payloads[name] = payload
            expect(payload.get("converged", True) is True or self.tiny, f"{name}: not converged")
            check_payload(payload, result.code)
            self.same_as_first_round(name, csv_text)

        return Op(name, run, check)

    # -- per-run checks -------------------------------------------------------

    def _haar_outer(self, a, b):
        n = len(self.payloads["coeffs-cold"]["entries"])
        return np.outer(self.coeffs(a, "haar", n), self.coeffs(b, "haar", n))

    def _check_cold(self, payload, code):
        entries = np.array(payload["entries"])
        close(payload["trace"], np.trace(entries), "coeffs: trace field")

    def _check_warm(self, payload, code):
        expect(payload == self.payloads["coeffs-cold"], "coeffs: warm payload differs from cold")

    def _check_swapped(self, payload, code):
        # G + G'^T = (phi, q_i)(psi, q_j), the right side from numpy alone
        glued = np.array(self.payloads["coeffs-cold"]["entries"]) + np.array(payload["entries"]).T
        close(glued, self._haar_outer("P3", "P2"), "coeffs: G + G'^T against (phi, q_i)(psi, q_j)")

    def _target_check(self, a, b, scale):
        def check(payload, code):
            close(payload["target"], scale * self.inner(a, b), f"target {scale}*({a}, {b})")
        return check

    def _check_tensor(self, payload, code):
        # pair (1, 2) limit: coefficients of w3(t)/2 * int_0^t w1 w2 in the basis
        w1, w2, w3 = (self.inputs[k].coeffs for k in ("P2", "P1", "P2"))
        limit = WeightSpec("poly", coeffs=tuple(
            0.5 * np.polynomial.polynomial.polymul(w3, np.polynomial.polynomial.polyint(
                np.polynomial.polynomial.polymul(w1, w2)))))
        n_reduced = payload["metadata"]["n_reduced"]
        close(payload["metadata"]["limits"], refs.basis_coeffs(limit, "fourier", n_reduced),
              "tensor-trace: reduced limit vector")

    def _check_eq7(self, family):
        def check(payload, code):
            n = len(payload["partial_sums"])
            parseval = np.cumsum(self.coeffs("P3", family, n) * self.coeffs("P2", family, n))
            close(payload["partial_sums"], parseval, f"eq7 {family}: partial sums")
            close(payload["target"], self.inner("P3", "P2"), f"eq7 {family}: target")
        return check

    def _check_theorem2(self, payload, code):
        n = len(payload["partial_sums"])
        c = self.coeffs("table", "haar", n)
        close(payload["partial_sums"], 0.5 * np.cumsum(c * c), "theorem2: partial sums")
        close(payload["target"], 0.5 * self.inner("table", "table"), "theorem2: target")

    def _check_simulate(self, payload, code):
        n, paths = payload["N"], payload["n_paths"]
        G = self.memo("G-simulate", lambda: st.coefficient_matrix(
            self.weights["P2"], self.weights["P3"], basis("legendre", n), n).entries)
        mean, var, kappa4 = refs.quadratic_form_moments(G, True)
        close(payload["target_trace"], mean, "simulate: target_trace")
        check_moments("simulate", payload["mean"], payload["variance"], paths, mean, var, kappa4)
        # the front end's own verdict: exit 0 within 3 standard errors, else 2
        within = abs(payload["mean"] - payload["target_trace"]) <= 3.0 * math.sqrt(
            payload["variance"] / paths)
        expect(code == (0 if within else 2), f"simulate: exit {code} disagrees with its payload")


def read_outputs(prefix: Path):
    """The JSON payload and the CSV text, after checking that the CSV was
    regenerated from the payload."""
    doc = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    with open(f"{prefix}.csv", encoding="utf-8", newline="") as fh:
        csv_text = fh.read()
    expect(csv_text == cli.csv_from_payload(doc["payload"]),
           f"{prefix.name}: CSV differs from csv_from_payload(payload)")
    return doc["payload"], csv_text


WORKLOADS = {cls.name: cls for cls in (TraceLadders, MCSampling, CliRuns)}
