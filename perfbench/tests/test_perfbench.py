"""The benchmark's own tests: every workload runs at a tiny size, and every
kind of check rejects a deliberately perturbed output.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import CheckFailed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return done


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# whole runs


@pytest.mark.parametrize("name", WORKLOADS)
def test_tiny_run_is_correct_and_reports_every_end_to_end_metric(name, tmp_path):
    done = run_bench("--workload", name, "--seed", "7", "--seconds", "0.1", "--size", "tiny",
                     "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert result["attempted"] == len(workloads.WORKLOADS[name](7, tmp_path, True).ops)
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(name):
    done = run_bench("--workload", name, "--seed", "7", "--seconds", "0.1", "--size", "tiny",
                     "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = last_json(done.stdout)
    assert result["correct"] is True and result["failed"] == 0, done.stderr
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    summary = json.loads((BENCH / "out" / f"trace-{name}.json").read_text())
    assert summary["spans"], "no spans recorded"
    spans = np.load(BENCH / "out" / f"trace-{name}.npz")
    assert len(spans["start"]) == sum(s["calls"] for s in summary["spans"].values())
    assert np.all(spans["end"] >= spans["start"])


def test_per_layer_table_matches_the_benchmark_file():
    assert [(n, u, b) for n, u, b, _ in tracer.PER_LAYER] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_runs_without_the_sources_fail_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("out"))
    done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()


# ---------------------------------------------------------------------------
# tracing


def test_recursion_counts_once_and_self_time_excludes_children():
    import stratrace
    from stratrace import reports

    t = tracer.Tracer()
    t.install()
    try:
        t.recording = True
        stratrace.jsonable({"a": [np.float64(1.0), {"b": np.arange(3)}]})
        reports.TraceReport("x", None, (), "N", [1], [0.5], 0.5, [0.0], 1e-3, True).payload()
        t.recording = False
    finally:
        t.uninstall()
    calls = dict(zip(t.names, t.calls))
    assert calls["reports.jsonable"] == 2  # one per outermost call
    assert calls["reports.TraceReport.payload"] == 1
    assert stratrace.jsonable is reports.jsonable and not hasattr(reports.jsonable, "__wrapped__")


# ---------------------------------------------------------------------------
# the references themselves, against brute-force Gauss-Legendre quadrature


def _brute_inner(f, g, breaks):
    x, w = np.polynomial.legendre.leggauss(60)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        t = 0.5 * (a + b) + 0.5 * (b - a) * x
        total += 0.5 * (b - a) * np.sum(w * f(t) * g(t))
    return total


def test_reference_coefficients_match_brute_force_quadrature():
    inputs = workloads.make_inputs(11)
    breaks = np.linspace(0.0, 1.0, 257)  # holds every Haar edge up to N = 256 and the table grid
    for key in ("P3", "trig", "table"):
        spec = inputs[key]
        close = lambda a, b: np.testing.assert_allclose(a, b, rtol=0, atol=1e-13)  # noqa: E731
        close(refs.inner(spec, inputs["P2"]), _brute_inner(spec, inputs["P2"], breaks))
        for family, n in (("legendre", 24), ("fourier", 24), ("haar", 32)):
            q = workloads.basis(family, n)
            brute = [_brute_inner(spec, lambda t, i=i: q.evaluate(i, t), breaks) for i in range(n)]
            close(refs.basis_coeffs(spec, family, n), brute)


def test_quadratic_form_moments_match_their_definitions():
    rng = np.random.default_rng(0)
    G = rng.normal(size=(3, 3))
    z = rng.normal(size=(400_000, 3))
    e = rng.normal(size=(400_000, 3))
    for same, x in ((True, np.einsum("pi,ij,pj->p", z, G, z)),
                    (False, np.einsum("pi,ij,pj->p", z, G, e))):
        mean, var, kappa4 = refs.quadratic_form_moments(G, same)
        assert abs(x.mean() - mean) < 5 * math.sqrt(var / len(x))
        assert abs(x.var() - var) < 0.02 * var
        k4 = np.mean((x - x.mean()) ** 4) - 3 * x.var() ** 2
        assert abs(k4 - kappa4) < 0.1 * kappa4


# ---------------------------------------------------------------------------
# every check rejects a perturbed output


def _outputs(workload):
    workload.begin_round()
    return {op.name: (op, op.run()) for op in workload.ops}


def _rejects(w, op, out):
    """The perturbed output fails its check, and not merely because it differs
    from the first round's payload."""
    w._first.clear()
    with pytest.raises(CheckFailed):
        op.check(out)


@pytest.fixture(scope="module")
def ladders(tmp_path_factory):
    w = workloads.TraceLadders(5, tmp_path_factory.mktemp("ladders"), tiny=True)
    return w, _outputs(w)


def test_ladder_checks_pass_then_reject_a_shifted_target(ladders):
    w, outs = ladders
    for op, out in outs.values():
        op.check(out)
    reports = [(op, out) for op, out in outs.values() if not isinstance(out, np.ndarray)]
    assert len(reports) == len(outs) - 1
    for op, out in reports:
        out.target += 1e-9
        _rejects(w, op, out)
        out.target -= 1e-9


def test_inner_product_check_rejects_a_perturbed_coefficient(ladders):
    w, outs = ladders
    op, out = next((op, out) for op, out in outs.values() if isinstance(out, np.ndarray))
    out[-1] += 1e-9
    _rejects(w, op, out)
    out[-1] -= 1e-9


def _equal_weights(name):
    a, _, b = name.split()[-1].partition("*")
    return a == b


def test_ladder_checks_reject_a_perturbed_partial_sum(ladders):
    w, outs = ladders
    exact = [name for name in outs if name.startswith("symmetric-pair-sum")
             or (_equal_weights(name) and not name.startswith("weight_basis_inner"))]
    assert len(exact) == 9
    for name in exact:
        op, out = outs[name]
        out.partial_sums[-1] += 1e-9
        _rejects(w, op, out)
        out.partial_sums[-1] -= 1e-9


def test_round_check_rejects_a_payload_that_changed(ladders):
    w, outs = ladders
    op, out = next(iter(outs.values()))
    op.check(out)
    out.metadata["changed"] = True
    with pytest.raises(CheckFailed):
        op.check(out)
    del out.metadata["changed"]


@pytest.fixture(scope="module")
def mc(tmp_path_factory):
    w = workloads.MCSampling(5, tmp_path_factory.mktemp("mc"), tiny=True)
    return w, _outputs(w)


def test_mc_checks_pass_then_reject_a_biased_mean(mc):
    w, outs = mc
    for op, out in outs.values():
        op.check(out)
    for op, out in outs.values():
        shift = 12.0 * math.sqrt(out.variance / out.n_paths)
        out.mean += shift
        _rejects(w, op, out)
        out.mean -= shift


def test_mc_checks_reject_a_wrong_variance_and_a_bad_oracle(mc):
    w, outs = mc
    campaigns = [(op, out) for name, (op, out) in outs.items() if name.startswith("mc_campaign")]
    for op, out in campaigns:
        out.variance *= 4.0
        _rejects(w, op, out)
        out.variance /= 4.0
    op, out = next((op, out) for op, out in campaigns if out.oracle_rms is not None)
    saved, out.oracle_rms = out.oracle_rms, 1e-6
    _rejects(w, op, out)
    out.oracle_rms = saved


def test_moment_bands_sit_where_stated():
    exact_mean, exact_var, kappa4, n = 1.0, 4.0, 10.0, 10_000
    se = math.sqrt(exact_var / n)
    workloads.check_moments("x", exact_mean + 4.9 * se, exact_var, n, exact_mean, exact_var, kappa4)
    with pytest.raises(CheckFailed):
        workloads.check_moments("x", exact_mean + 5.1 * se, exact_var, n, exact_mean, exact_var,
                                kappa4)
    sd = math.sqrt(kappa4 / n + 2 * exact_var ** 2 / (n - 1))
    with pytest.raises(CheckFailed):
        workloads.check_moments("x", exact_mean, exact_var + 6.1 * sd, n, exact_mean, exact_var,
                                kappa4)


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    w = workloads.CliRuns(5, tmp_path_factory.mktemp("cli"), tiny=True)
    outs = _outputs(w)
    for op, out in outs.values():
        op.check(out)
    yield w, outs
    w.close()


def _edit_payload(prefix, edit):
    """Change a written payload and regenerate its CSV, so that only the
    check on the payload's content can catch the change."""
    path = Path(f"{prefix}.json")
    doc = json.loads(path.read_text())
    edit(doc["payload"])
    path.write_text(json.dumps(doc))
    Path(f"{prefix}.csv").write_text(workloads.cli.csv_from_payload(doc["payload"]), newline="")


def test_cli_check_rejects_a_flipped_matrix_entry(cli_runs):
    w, outs = cli_runs
    op, out = outs["coeffs-swapped"]
    _edit_payload(out.prefix, lambda p: p["entries"][1].__setitem__(2, -p["entries"][1][2] + 1e-3))
    _rejects(w, op, out)


def test_cli_check_rejects_a_csv_that_is_not_the_payload(cli_runs):
    w, outs = cli_runs
    op, out = outs["eq7"]
    path = Path(f"{out.prefix}.csv")
    path.write_text(path.read_text().replace(",", ";", 1), newline="")
    _rejects(w, op, out)


def test_cli_check_rejects_a_warm_payload_unlike_the_cold(cli_runs):
    w, outs = cli_runs
    op, out = outs["coeffs-warm"]
    _edit_payload(out.prefix, lambda p: p["entries"][0].__setitem__(0, p["entries"][0][0] + 1e-9))
    _rejects(w, op, out)


def test_cli_check_rejects_shifted_targets_and_a_wrong_exit_code(cli_runs):
    w, outs = cli_runs
    for name in ("theorem1", "kernel-trace", "basis-independence", "theorem2", "eq7-fourier"):
        op, out = outs[name]
        _edit_payload(out.prefix, lambda p: p.update(target=p["target"] + 1e-9))
        _rejects(w, op, out)
    op, out = outs["simulate"]
    out.code = 2 if out.code == 0 else 0
    _rejects(w, op, out)
    op, out = outs["tensor-trace"]
    _edit_payload(out.prefix, lambda p: p["metadata"]["limits"].__setitem__(0, 1.0))
    _rejects(w, op, out)


def test_setup_probe_prints_a_clock_reading():
    done = run_bench("--workload", "trace-ladders", "--seed", "1", "--seconds", "0", "--size",
                     "tiny", "--setup-probe")
    assert done.returncode == 0, done.stderr
    float(done.stdout.split()[-1])
