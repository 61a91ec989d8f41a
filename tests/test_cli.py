"""Command-line front end: grammars, exit codes, report files, determinism.

main() is exercised in-process with argv lists; every run is sandboxed into
tmp_path because reports land in the working directory by default.
"""

import json
import math
import tempfile
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stratrace import (
    ComplexExponential,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    VolterraProduct,
    cache_load,
    cache_store,
    inner_product,
    weight_basis_inner,
)
from stratrace import cli
from stratrace import coeffs as coeffs_module
from stratrace.cli import build_parser, csv_from_payload, main, parse_kernel, parse_weight

from conftest import UNIT, make_basis, poly

ONE = poly(1.0)


# -- weight grammar ----------------------------------------------------------------


def test_weight_grammar_polynomial_ramp():
    w = parse_weight("poly:0,1", UNIT)
    assert w(0.5) == pytest.approx(0.5, abs=1e-15)
    assert w.id == "poly:0.0,1.0"


def test_weight_grammar_polynomial_constant():
    w = parse_weight("poly:1", UNIT)
    assert np.all(w(np.linspace(0, 1, 7)) == 1.0)


def test_weight_grammar_unit_sine():
    w = parse_weight("trig:1,1,0", UNIT)
    assert w(0.25) == pytest.approx(1.0, abs=1e-15)
    assert w(0.5) == pytest.approx(0.0, abs=1e-15)


def test_weight_grammar_table_file(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0.0,1.0\n0.5,2.0\n1.0,1.0\n")
    w = parse_weight(f"table:@{path}", UNIT)
    assert w(0.25) == pytest.approx(1.5, abs=1e-15)


def test_weight_grammar_rejects_malformed():
    with pytest.raises(ValueError, match="malformed polynomial"):
        parse_weight("poly:a,b", UNIT)
    with pytest.raises(ValueError, match="must be k,s,c"):
        parse_weight("trig:1,2", UNIT)
    with pytest.raises(ValueError, match="cannot read table"):
        parse_weight("table:@/nonexistent/w.csv", UNIT)
    with pytest.raises(ValueError, match="unknown weight spec"):
        parse_weight("spline:1,2,3", UNIT)


def test_weight_grammar_rejects_wide_table(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("0.0,1.0,9.0\n1.0,1.0,9.0\n")
    with pytest.raises(ValueError, match="two columns"):
        parse_weight(f"table:@{path}", UNIT)


# -- kernel grammar ----------------------------------------------------------------


def test_kernel_grammar_parametric_kinds():
    assert isinstance(parse_kernel("min:0,1", UNIT), MonomialMin)
    assert isinstance(parse_kernel("max:1,2", UNIT), MonomialMax)
    assert isinstance(parse_kernel("cexp:0,1", UNIT), ComplexExponential)


def test_kernel_grammar_weighted_kinds():
    assert isinstance(parse_kernel("sym", UNIT, ONE, ONE), SymmetrizedVolterra)
    assert isinstance(parse_kernel("volterra", UNIT, ONE, ONE), VolterraProduct)
    assert isinstance(parse_kernel("rank1", UNIT, ONE, ONE), SeparableRankOne)


def test_kernel_grammar_weighted_kinds_need_weights():
    with pytest.raises(ValueError, match="needs both"):
        parse_kernel("sym", UNIT)


def test_kernel_grammar_rejects_malformed():
    with pytest.raises(ValueError, match="must be n,m"):
        parse_kernel("min:1", UNIT)
    with pytest.raises(ValueError, match="must be integers"):
        parse_kernel("min:a,b", UNIT)
    with pytest.raises(ValueError, match="unknown kernel spec"):
        parse_kernel("gauss:1,1", UNIT)


# -- runs, exit codes, report files ------------------------------------------------


def _last_csv_row(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), lines[-1].split(",")


def test_ramp_run_converges_to_quarter(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "theorem2", "--phi", "poly:1", "--psi", "poly:0,1",
        "--basis", "legendre", "--nmax", "128", "--out", "ramp",
    ])
    assert code == 0
    header, last = _last_csv_row(tmp_path / "ramp.csv")
    assert header == ["N", "partial_sum", "target", "error"]
    assert float(last[1]) == pytest.approx(0.25, abs=1e-3)
    assert float(last[3]) <= 1e-3
    assert (tmp_path / "ramp.json").exists()


def test_constant_run_is_exact_from_the_first_term(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "theorem2", "--phi", "poly:1", "--psi", "poly:1",
        "--basis", "legendre", "--nmax", "4", "--out", "const",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "const.json").read_text())["payload"]
    assert all(abs(s - 0.5) <= 1e-12 for s in payload["partial_sums"])


def test_missing_required_flag_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["theorem2", "--psi", "poly:1", "--basis", "legendre"])
    assert code == 1
    assert "phi" in capsys.readouterr().err


def test_unknown_subcommand_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_bad_kernel_spec_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["theorem1", "--kernel", "gauss:1,1", "--basis", "legendre"])
    assert code == 1
    assert "kernel" in capsys.readouterr().err


def test_two_route_run_reports_nonconvergence(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "theorem1", "--kernel", "min:0,1", "--basis", "legendre",
        "--nmax", "32", "--out", "shallow",
    ])
    assert code == 2
    payload = json.loads((tmp_path / "shallow.json").read_text())["payload"]
    assert payload["converged"] is False


def test_two_route_run_converges_at_depth(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main([
        "theorem1", "--kernel", "min:0,1", "--basis", "legendre",
        "--nmax", "128", "--out", "deep",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "deep.json").read_text())["payload"]
    assert abs(payload["metadata"]["averaged_extrapolated"] - 0.5) <= 1e-3
    assert payload["metadata"]["route_gap"] <= 2e-3


def test_trig_weight_rejected_by_pair_sum_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main([
        "eq7", "--phi", "trig:1,1,0", "--psi", "poly:1",
        "--basis", "legendre", "--nmax", "8",
    ])
    assert code == 1
    assert "only certified for polynomial" in capsys.readouterr().err


# -- config files ------------------------------------------------------------------


def test_config_file_supplies_fields(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phi": "poly:1", "psi": "poly:0,1", "basis": "legendre", "nmax": 16,
    }))
    code = main(["theorem2", "--config", str(cfg), "--out", "from-config"])
    # N=16 is honestly too shallow for the 1e-3 default tolerance (exit 2);
    # the payload proves every config-file field reached the run
    assert code == 2
    payload = json.loads((tmp_path / "from-config.json").read_text())["payload"]
    assert payload["target"] == pytest.approx(0.25, abs=1e-12)
    assert payload["N_values"][-1] == 16
    assert payload["basis"].startswith("legendre")


def test_flags_override_config_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "phi": "poly:1", "psi": "poly:0,1", "basis": "legendre", "nmax": 16,
    }))
    code = main([
        "theorem2", "--config", str(cfg), "--psi", "poly:1", "--out", "override",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "override.json").read_text())["payload"]
    assert payload["target"] == pytest.approx(0.5, abs=1e-12)


def test_unknown_config_field_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phi": "poly:1", "psi": "poly:1", "frequency": 3}))
    code = main(["theorem2", "--config", str(cfg), "--basis", "legendre"])
    assert code == 1
    assert "unknown fields" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["panels", "nodes"])
def test_quadrature_fields_are_unknown(tmp_path, monkeypatch, capsys, field):
    # rules are worked out from the integrand, so a config that still sets
    # the old panel count or node floor is refused, naming the field
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"phi": "poly:1", "psi": "poly:1", field: 16}))
    assert main(["theorem2", "--config", str(cfg), "--basis", "legendre"]) == 1
    assert f"unknown fields ['{field}']" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["theorem2", "--phi", "poly:1", "--psi", "poly:1", "--basis", "legendre",
              f"--{field}", "16"])
    assert exc.value.code == 1
    assert f"unrecognized arguments: --{field} 16" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [
    ("paths", 1e4), ("nmax", "16"), ("nmax", True), ("tol", "small"), ("distinct", 1), ("phi", 1),
])
def test_config_file_values_must_have_the_field_type(tmp_path, monkeypatch, capsys, field, value):
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    values = {"phi": "poly:1", "psi": "poly:0,1", "basis": "legendre", "nmax": 16, "paths": 100}
    cfg.write_text(json.dumps({**values, field: value}))
    code = main(["simulate", "--config", str(cfg)])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"stratrace: error: {field}: ")


def test_negative_seed_exits_one_naming_the_field(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["simulate", "--phi", "poly:1", "--psi", "poly:1", "--basis", "legendre",
                 "--nmax", "4", "--paths", "10", "--seed", "-1"])
    assert code == 1
    assert capsys.readouterr().err.strip() == "stratrace: error: seed: must be >= 0, got -1"


def test_node_cap_overrun_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["theorem2", "--phi", "poly:0,1", "--psi", "poly:0,1",
                 "--basis", "legendre", "--nmax", "4096"])
    assert code == 1
    assert "demand of 4097 nodes per panel exceeds cap 4096" in capsys.readouterr().err


def test_tabulated_weight_through_the_cli(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    table = tmp_path / "flat.csv"
    table.write_text("0.0,1.0\n1.0,1.0\n")
    code = main([
        "theorem2", "--phi", f"table:@{table}", "--psi", "poly:1",
        "--basis", "legendre", "--nmax", "8", "--out", "tab",
    ])
    assert code == 0
    payload = json.loads((tmp_path / "tab.json").read_text())["payload"]
    assert payload["target"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("field, flags, table", [
    ("phi", ["--phi", "poly:nan", "--psi", "poly:1"], None),
    ("psi", ["--phi", "poly:1", "--psi", "trig:1,inf,0"], None),
    ("phi", ["--phi", "table:@{table}", "--psi", "poly:1"], "0.0,1.0\n0.5,nan\n1.0,1.0\n"),
    ("phi", ["--phi", "table:@{table}", "--psi", "poly:1"], "0.0,1.0\nnan,2.0\n1.0,1.0\n"),
    ("T", ["--phi", "poly:1", "--psi", "poly:1", "--T", "inf"], None),
    ("tol", ["--phi", "poly:1", "--psi", "poly:1", "--tol", "inf"], None),
], ids=["poly-nan", "trig-inf", "table-nan-value", "table-nan-grid", "T-inf", "tol-inf"])
def test_non_finite_input_exits_one_naming_the_field(tmp_path, monkeypatch, capsys,
                                                     field, flags, table):
    monkeypatch.chdir(tmp_path)
    if table is not None:
        (tmp_path / "w.csv").write_text(table)
    flags = [f.replace("{table}", str(tmp_path / "w.csv")) for f in flags]
    code = main(["theorem2", *flags, "--basis", "legendre", "--nmax", "4", "--out", "bad"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"stratrace: error: {field}: ")
    assert "finite" in err
    assert not (tmp_path / "bad.json").exists()


def test_fourier_symmetrized_kernel_trace_leaves_only_the_parseval_tail(tmp_path, monkeypatch):
    # with phi = psi the expansion diagonal sums to sum_{i<N} (phi, q_i)^2,
    # so the final error is the tail int phi^2 - that sum (about 2.5e-4)
    monkeypatch.chdir(tmp_path)
    weight = "poly:0.3,-0.7,0.2,0.9"
    code = main(["kernel-trace", "--kernel", "sym", "--phi", weight, "--psi", weight,
                 "--basis", "fourier", "--nmax", "64", "--out", "fsym"])
    assert code == 0
    payload = json.loads((tmp_path / "fsym.json").read_text())["payload"]
    p3 = parse_weight(weight, UNIT)
    tail = inner_product(p3, p3) - np.sum(weight_basis_inner(p3, make_basis("fourier", 64), 64) ** 2)
    assert 1e-4 < tail < 1e-3
    assert payload["errors"][-1] == pytest.approx(tail, abs=1e-13)


def test_eps_below_the_float_spacing_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code = main(["theorem1", "--kernel", "min:1,1", "--basis", "legendre", "--nmax", "8",
                 "--eps-kmax", "60", "--out", "deep"])
    assert code == 1
    assert "below the float spacing" in capsys.readouterr().err
    assert not (tmp_path / "deep.json").exists()


# -- report files: round trip and determinism ---------------------------------------


def test_csv_header_names_the_ladder_index(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main(["basis-independence", "--phi", "poly:1", "--psi", "poly:0,1", "--nmax", "8",
          "--out", "bi"])
    payload = json.loads((tmp_path / "bi.json").read_text())["payload"]
    assert payload["index_label"] == "basis_index"
    lines = (tmp_path / "bi.csv").read_text().splitlines()
    assert lines[0] == "basis_index,partial_sum,target,error"
    assert [line.split(",")[0] for line in lines[1:]] == ["0", "1", "2"]


def test_csv_regenerates_from_json_payload(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main([
        "theorem2", "--phi", "poly:1", "--psi", "poly:0,1",
        "--basis", "fourier", "--nmax", "32", "--out", "rt",
    ])
    payload = json.loads((tmp_path / "rt.json").read_text())["payload"]
    assert csv_from_payload(payload) == (tmp_path / "rt.csv").read_text()


def test_csv_uses_lf_line_endings(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main([
        "theorem2", "--phi", "poly:1", "--psi", "poly:1",
        "--basis", "legendre", "--nmax", "4", "--out", "lf",
    ])
    raw = (tmp_path / "lf.csv").read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")


def test_simulation_payload_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = [
        "simulate", "--phi", "poly:1", "--psi", "poly:1", "--basis", "legendre",
        "--nmax", "8", "--paths", "500", "--seed", "3",
    ]
    assert main(argv + ["--out", "runA"]) == 0
    assert main(argv + ["--out", "runB"]) == 0
    a = json.loads((tmp_path / "runA.json").read_text())
    b = json.loads((tmp_path / "runB.json").read_text())
    assert a["payload"] == b["payload"]
    assert (tmp_path / "runA.csv").read_bytes() == (tmp_path / "runB.csv").read_bytes()


def test_simulation_csv_has_the_statistics_row(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    main([
        "simulate", "--phi", "poly:1", "--psi", "poly:1", "--basis", "legendre",
        "--nmax", "8", "--paths", "500", "--seed", "3", "--out", "mc",
    ])
    header, row = _last_csv_row(tmp_path / "mc.csv")
    assert header == ["n_paths", "N", "mean", "variance", "ci95",
                      "target_trace", "target_half_inner"]
    assert int(row[0]) == 500
    assert float(row[5]) == pytest.approx(0.5, abs=1e-12)


def test_coefficient_run_writes_matrix_table_and_cache(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = tmp_path / "cache"
    monkeypatch.setenv("STRC_CACHE_DIR", str(cache))
    argv = [
        "coeffs", "--phi", "poly:1", "--psi", "poly:1",
        "--basis", "legendre", "--nmax", "4", "--out", "mat",
    ]
    assert main(argv) == 0
    rows = (tmp_path / "mat.csv").read_text().strip().splitlines()
    assert rows[0] == "i,j,entry"
    assert len(rows) == 1 + 16
    cached = list(cache.rglob("*.strc"))
    assert len(cached) == 1
    before = cached[0].read_bytes()
    assert main(argv[:-1] + ["again"]) == 0  # second run is served from the cache
    assert cached[0].read_bytes() == before
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "mat.csv").read_bytes()
    assert _payload_text(tmp_path / "again.json") == _payload_text(tmp_path / "mat.json")
    assert sorted(p.name for p in cache.rglob("*")) == sorted(
        [cached[0].name, cached[0].with_suffix(".cells").name])


def test_an_empty_cache_dir_is_an_error_and_an_empty_variable_turns_the_cache_off(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    argv = ["coeffs", "--phi", "poly:1", "--psi", "poly:0,1", "--basis", "haar", "--nmax", "8",
            "--out", "mat"]
    assert main(argv + ["--cache-dir", ""]) == 1
    assert "error: cache_dir: " in capsys.readouterr().err
    (tmp_path / "conf.json").write_text(json.dumps({"cache_dir": ""}))
    assert main(argv + ["--config", "conf.json"]) == 1
    assert "error: cache_dir: " in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["conf.json"]  # no cache file, no report

    monkeypatch.setenv("STRC_CACHE_DIR", "")
    assert main(argv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["conf.json", "mat.csv", "mat.json"]


def test_simulation_reuses_the_matrix_that_coeffs_cached(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    model = ["--phi", "poly:0,1", "--psi", "poly:1,2", "--basis", "legendre", "--nmax", "16"]
    simulate = ["simulate", *model, "--paths", "500", "--seed", "3"]
    assert main(simulate + ["--out", "cold"]) == 0
    monkeypatch.setenv("STRC_CACHE_DIR", str(tmp_path / "cache"))
    assert main(["coeffs", *model, "--out", "mat"]) == 0

    calls = []
    engine = coeffs_module.coefficient_matrix

    def counted(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(coeffs_module, "coefficient_matrix", counted)
    assert main(simulate + ["--out", "warm"]) == 0
    assert calls == []
    cold = json.loads((tmp_path / "cold.json").read_text())["payload"]
    warm = json.loads((tmp_path / "warm.json").read_text())["payload"]
    assert warm == cold


@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_coeffs_files_are_json_dumps_text_and_regenerate_from_the_payload(
        tmp_path, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    assert main(["coeffs", "--phi", "poly:1,-2,3", "--psi", "trig:1,1,0.5", "--basis", family,
                 "--nmax", "64", "--out", "mat"]) == 0
    text = (tmp_path / "mat.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    # compared as lists of lines: pytest's diff of two long strings takes minutes
    assert text.split("\n") == (json.dumps(doc, indent=2) + "\n").split("\n")
    assert np.shape(doc["payload"]["entries"]) == (64, 64)
    table = (tmp_path / "mat.csv").read_bytes().decode("utf-8")
    assert table.split("\n") == csv_from_payload(doc["payload"]).split("\n")


@pytest.mark.parametrize("argv, keys", [
    (["coeffs", "--phi", "poly:1", "--psi", "poly:0,1", "--basis", "haar", "--nmax", "8"],
     ["experiment", "basis", "weights", "N", "trace", "entries"]),
    (["theorem2", "--phi", "poly:1", "--psi", "poly:0,1", "--basis", "legendre", "--nmax", "8"],
     ["experiment", "basis", "weights", "index_label", "N_values", "partial_sums", "target",
      "errors", "tolerance", "converged", "metadata"]),
], ids=["coeffs", "theorem2"])
def test_env_times_the_run_and_the_writing_outside_the_payload(tmp_path, monkeypatch, argv, keys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    docs = []
    for out in ("a", "b"):
        main(argv + ["--out", out])
        docs.append(json.loads((tmp_path / f"{out}.json").read_text()))
    for doc in docs:
        assert list(doc["env"])[:2] == ["wall_time_ms", "write_time_ms"]
        assert doc["env"]["wall_time_ms"] >= 0.0
        assert doc["env"]["write_time_ms"] >= 0.0
        assert list(doc["payload"]) == keys
    assert docs[0]["payload"] == docs[1]["payload"]


# -- report writer against a frozen copy of the previous one ----------------------


def _frozen_cell(value) -> str:
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return repr(complex(value[0], value[1]))
    return str(value)


def _frozen_csv(payload: dict) -> str:
    experiment = payload.get("experiment")
    if experiment == "simulate":
        columns = ("n_paths", "N", "mean", "variance", "ci95", "target_trace", "target_half_inner")
        return (",".join(columns) + "\n"
                + ",".join(_frozen_cell(payload[k]) for k in columns) + "\n")
    if experiment == "coeffs":
        lines = ["i,j,entry"]
        for i, row in enumerate(payload["entries"]):
            for j, entry in enumerate(row):
                lines.append(f"{i},{j},{_frozen_cell(entry)}")
        return "\n".join(lines) + "\n"
    lines = [f"{payload['index_label']},partial_sum,target,error"]
    target = _frozen_cell(payload["target"])
    for n, s, e in zip(payload["N_values"], payload["partial_sums"], payload["errors"]):
        lines.append(f"{_frozen_cell(n)},{_frozen_cell(s)},{target},{_frozen_cell(e)}")
    return "\n".join(lines) + "\n"


def _frozen_files(payload: dict, env: dict) -> tuple:
    """The JSON and CSV text the writer gave before matrix rows were streamed."""
    return json.dumps({"payload": payload, "env": env}, indent=2) + "\n", _frozen_csv(payload)


_EDGE_FLOATS = (-0.0, 0.0, 5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1e300, 1e300,
                1.0, -3.0, 2.0 ** 53, 1e16, 0.1)
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_number = _finite | st.tuples(_finite, _finite).map(list)  # real, or complex as [re, im]
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 6, 10 ** 6) | _number | st.text(max_size=6)
    | st.floats(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)


@st.composite
def _matrices(draw):
    """Matrices of any shape up to 4x4, mostly finite real, sometimes holding a
    non-finite entry, sometimes of integer or complex dtype."""
    shape = draw(st.tuples(st.integers(0, 4), st.integers(0, 4)))
    entries = draw(st.lists(_finite, min_size=shape[0] * shape[1], max_size=shape[0] * shape[1]))
    matrix = np.array(entries, dtype=float).reshape(shape)
    kind = draw(st.sampled_from(["real", "real", "real", "non-finite", "int", "complex"]))
    if kind == "non-finite" and matrix.size:
        matrix.flat[draw(st.integers(0, matrix.size - 1))] = draw(
            st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "int":
        matrix = np.arange(matrix.size).reshape(shape) - 3
    elif kind == "complex":
        matrix = matrix + 1j * matrix[::-1]
    return matrix


def _plain(matrix: np.ndarray) -> list:
    if np.iscomplexobj(matrix):
        return [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
    return matrix.tolist()


@st.composite
def _coeffs_payloads(draw):
    payload = {"experiment": "coeffs", "basis": draw(st.text(max_size=8)),
               "weights": draw(st.lists(st.text(max_size=8), max_size=2)),
               "N": draw(st.integers(0, 4)), "trace": draw(_finite),
               "entries": draw(_matrices())}
    if draw(st.booleans()):  # a key after the matrix
        payload["metadata"] = draw(_json)
    return payload


@st.composite
def _ladder_payloads(draw):
    n = draw(st.integers(0, 4))
    return {"experiment": draw(st.sampled_from(["theorem2", "kernel-trace"])),
            "basis": draw(st.none() | st.text(max_size=8)),
            "index_label": draw(st.sampled_from(["N", "epsilon", "basis_index"])),
            "N_values": draw(st.lists(st.integers(1, 99) | _finite, min_size=n, max_size=n)),
            "partial_sums": draw(st.lists(_number, min_size=n, max_size=n)),
            "target": draw(_number),
            "errors": draw(st.lists(_finite, min_size=n, max_size=n)),
            "converged": draw(st.booleans()),
            "metadata": draw(st.dictionaries(st.text(max_size=4), _json, max_size=3))}


_simulate_payloads = st.fixed_dictionaries({
    "experiment": st.just("simulate"), "n_paths": st.integers(2, 10 ** 6),
    "N": st.integers(1, 64), "mean": _finite, "variance": _finite, "ci95": _finite,
    "target_trace": _finite, "target_half_inner": _finite, "oracle_rms": st.none() | _finite,
    "metadata": st.dictionaries(st.text(max_size=4), _json, max_size=2)})


def _assert_written_as_before(payload: dict, cells: bool = False) -> None:
    """The files of one write, or with `cells` of three: without a cells
    file, then rendered and teed into one, then read from it."""
    plain = {**payload, "entries": _plain(payload["entries"])} if "entries" in payload else payload
    with tempfile.TemporaryDirectory() as directory:
        prefix = str(Path(directory) / "report")
        for path in (None, Path(directory) / "m.cells", Path(directory) / "m.cells")[:1 + 2 * cells]:
            cli._write_outputs(prefix, payload, 1.5, path)
            text = Path(prefix + ".json").read_text(encoding="utf-8")
            table = Path(prefix + ".csv").read_bytes().decode("utf-8")
            env = json.loads(text)["env"]
            assert env["wall_time_ms"] == 1.5 and env["write_time_ms"] >= 0.0
            assert (text, table) == _frozen_files(plain, env)
            assert csv_from_payload(json.loads(text)["payload"]) == table


@settings(max_examples=300, deadline=None)
@given(payload=_coeffs_payloads())
@example(payload={"experiment": "coeffs", "basis": cli._GAP, "weights": [cli._GAP], "N": 1,
                  "trace": 0.5, "entries": np.full((1, 1), 0.5),
                  "metadata": {"entries": cli._GAP}})  # strings equal to the writer's gap
def test_coeffs_report_files_are_byte_identical_to_the_previous_writer(payload):
    _assert_written_as_before(payload, cells=True)


@settings(max_examples=150, deadline=None)
@given(payload=_ladder_payloads() | _simulate_payloads)
def test_other_report_files_are_byte_identical_to_the_previous_writer(payload):
    _assert_written_as_before(payload)


# -- matrix rows against the frozen per-entry f-strings ----------------------------


def _frozen_csv_lines(i: int, row: list) -> str:
    """The `i,j,entry` lines of one row with one f-string per entry, frozen: the
    text the joined rows must equal byte for byte."""
    return "".join(f"{i},{j},{_frozen_cell(entry)}\n" for j, entry in enumerate(row))


_row_int = st.integers(-10 ** 18, 10 ** 18)
# rows of width 0 to 70: floats, ints, floats and [re, im] pairs, or all three mixed
_rows = st.integers(0, 70).flatmap(lambda width: st.one_of(
    *(st.lists(cell, min_size=width, max_size=width)
      for cell in (_finite, _row_int, _number, _number | _row_int))))


@settings(max_examples=300, deadline=None)
@given(i=st.integers(0, 10 ** 4), row=_rows)
@example(i=0, row=[])
@example(i=7, row=[*_EDGE_FLOATS, -5e-324, -1e-300])
def test_matrix_rows_are_byte_identical_to_per_entry_f_strings(i, row):
    assert cli._csv_lines(i, cli._row_cells(row)) == _frozen_csv_lines(i, row)
    if all(isinstance(entry, float) for entry in row):  # the writer streams float arrays
        as_array = np.array(row, dtype=float)
        assert cli._csv_lines(i, cli._row_cells(as_array)) == _frozen_csv_lines(i, row)


@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_coeffs_csv_from_payload_matches_per_entry_f_strings(family):
    basis = make_basis(family, 64)
    matrix = coeffs_module.coefficient_matrix(poly(1.0, -2.0, 3.0), poly(0.0, 1.0), basis, 64)
    payload = {"experiment": "coeffs", "basis": matrix.basis_id,
               "weights": list(matrix.weight_ids), "N": matrix.count,
               "trace": float(matrix.trace), "entries": matrix.entries.tolist()}
    table = csv_from_payload(payload)
    assert table.split("\n") == _frozen_csv(payload).split("\n")


# -- one parser per process --------------------------------------------------------


def _report(tmp_path, out: str) -> tuple:
    """A run's payload and CSV bytes; env differs run to run and is left out."""
    doc = json.loads((tmp_path / f"{out}.json").read_text(encoding="utf-8"))
    return doc["payload"], (tmp_path / f"{out}.csv").read_bytes()


def test_main_reuses_one_parser_and_leaks_no_flag_between_calls(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    simulate = ["simulate", "--phi", "poly:1,2", "--psi", "poly:0,1", "--basis", "legendre",
                "--nmax", "8", "--paths", "600", "--seed", "5", "--oracle-draws", "2"]
    coeffs = ["coeffs", "--phi", "poly:1", "--psi", "poly:0,1,1", "--basis", "fourier",
              "--nmax", "9"]
    assert cli._parser() is cli._parser()
    assert build_parser() is not build_parser()

    assert main(simulate + ["--distinct", "--out", "distinct"]) in (0, 2)
    assert main(simulate + ["--out", "same"]) == 0
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "--phi", "poly:1", "--nmax", "many"])
    assert exc.value.code == 1
    assert main(coeffs + ["--out", "mat"]) == 0

    # the same argvs, each through a parser of its own
    monkeypatch.setattr(cli, "_parser", build_parser)
    assert main(simulate + ["--out", "same-fresh"]) == 0
    assert main(coeffs + ["--out", "mat-fresh"]) == 0
    assert _report(tmp_path, "same") == _report(tmp_path, "same-fresh")
    assert _report(tmp_path, "mat") == _report(tmp_path, "mat-fresh")
    # --distinct took effect in its own call and in no later one
    assert _report(tmp_path, "distinct")[0] != _report(tmp_path, "same")[0]


# -- the cells file beside a cached matrix -----------------------------------------


def _payload_text(path) -> str:
    """A report's JSON text before its env block, which differs run to run."""
    text = Path(path).read_text(encoding="utf-8")
    return text[:text.rindex('\n  "env": ')]


def _frozen_cells(entries: np.ndarray) -> bytes:
    """The cells file of a matrix, written out here without the writer."""
    body = "".join(",".join(map(repr, row)) + "\n" for row in entries.tolist()).encode()
    return b"STRC-CELLS 1 %d %d %08x %08x\n" % (
        *entries.shape, zlib.crc32(entries.astype("<f8").tobytes()), zlib.crc32(body)) + body


def _count_row_cells(monkeypatch) -> list:
    """One item per `_row_cells` call from now on."""
    calls, render = [], cli._row_cells
    monkeypatch.setattr(cli, "_row_cells", lambda row: calls.append(1) or render(row))
    return calls


def _cached(cache: Path) -> tuple:
    """The one `.strc` file of a cache directory and the matrix it holds."""
    (strc,) = cache.glob("*.strc")
    n = int(round(math.sqrt((strc.stat().st_size - 44) / 8)))
    return strc, cache_load(strc, strc.stem, (n, n))


@pytest.mark.parametrize("family", ["legendre", "fourier", "haar"])
def test_warm_runs_read_the_cells_that_the_cold_run_rendered(tmp_path, monkeypatch, family):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    argv = ["coeffs", "--phi", "poly:1,-2,3", "--psi", "trig:1,1,0.5", "--basis", family,
            "--nmax", "32"]
    calls = _count_row_cells(monkeypatch)
    assert main(argv + ["--out", "plain"]) == 0
    assert len(calls) == 32
    assert not list(tmp_path.rglob("*.cells"))
    calls.clear()
    assert main(argv + ["--cache-dir", "cache", "--out", "cold"]) == 0
    assert len(calls) == 32  # once per row, shared by both files and the cells file
    calls.clear()
    assert main(argv + ["--cache-dir", "cache", "--out", "warm"]) == 0
    assert calls == []
    for out in ("cold", "warm"):
        assert (tmp_path / f"{out}.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert _payload_text(tmp_path / f"{out}.json") == _payload_text(tmp_path / "plain.json")
    strc, entries = _cached(tmp_path / "cache")
    assert strc.with_suffix(".cells").read_bytes() == _frozen_cells(entries)


def _truncate(cells: Path, strc: Path) -> None:
    cells.write_bytes(cells.read_bytes()[:-7])


def _change_a_digit(cells: Path, strc: Path) -> None:
    raw = bytearray(cells.read_bytes())
    at = len(raw) - 2  # the last digit of the last row
    raw[at] = ord("1") if raw[at] == ord("2") else ord("2")
    cells.write_bytes(bytes(raw))


def _header_for_another_shape(cells: Path, strc: Path) -> None:
    # one row fewer, with checksums that hold for the rows that remain
    header, body = cells.read_bytes().split(b"\n", 1)
    body = body[:body.rindex(b"\n", 0, -1) + 1]
    tag, version, rows, width, entries_crc, _ = header.split(b" ")
    cells.write_bytes(b" ".join([tag, version, b"%d" % (int(rows) - 1), width, entries_crc,
                                 b"%08x" % zlib.crc32(body)]) + b"\n" + body)


def _other_entries_under_the_key(cells: Path, strc: Path) -> None:
    _, entries = _cached(strc.parent)
    cache_store(entries[::-1] * 0.5, strc, strc.stem)


def _stray_temp_file(cells: Path, strc: Path) -> None:
    # a writer that died before publishing: its partial temp file, no cells file
    cells.with_name(cells.name + ".0123456789abcdef.tmp").write_bytes(cells.read_bytes()[:100])
    cells.unlink()


@pytest.mark.parametrize("damage", [_truncate, _change_a_digit, _header_for_another_shape,
                                    _other_entries_under_the_key, _stray_temp_file])
def test_a_cells_file_that_fails_a_check_gives_no_byte_and_is_rewritten(
        tmp_path, monkeypatch, damage):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    argv = ["coeffs", "--phi", "poly:1,-2,3", "--psi", "poly:0.5,1", "--basis", "haar",
            "--nmax", "16", "--cache-dir", "cache"]
    assert main(argv + ["--out", "cold"]) == 0
    strc = next((tmp_path / "cache").glob("*.strc"))
    cells = strc.with_suffix(".cells")
    damage(cells, strc)
    with monkeypatch.context() as patch:  # a fresh render of the entries the cache holds
        patch.setattr(cli, "_matrix_rows",
                      lambda matrix, cells=None: (cli._row_cells(row) for row in matrix))
        assert main(argv + ["--out", "fresh"]) == 0
    calls = _count_row_cells(monkeypatch)
    assert main(argv + ["--out", "served"]) == 0
    assert len(calls) == 16
    assert (tmp_path / "served.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
    assert _payload_text(tmp_path / "served.json") == _payload_text(tmp_path / "fresh.json")
    assert cells.read_bytes() == _frozen_cells(_cached(tmp_path / "cache")[1])
    calls.clear()
    assert main(argv + ["--out", "again"]) == 0  # the rewritten file serves the next run
    assert calls == []
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()


def test_the_cells_file_keeps_signed_zeros_and_exponent_reprs(tmp_path, monkeypatch):
    entries = np.array([[-0.0, 1e-05, 1e16], [2.5e-310, -1e300, 0.1], [1.0, -3.0, 1.5e-07]])
    payload = {"experiment": "coeffs", "basis": "b", "weights": ["w"], "N": 3, "trace": -2.0,
               "entries": entries}
    cells = tmp_path / "m.cells"
    calls = _count_row_cells(monkeypatch)
    for out, rendered in (("cold", 3), ("warm", 0)):
        calls.clear()
        cli._write_outputs(str(tmp_path / out), payload, 1.5, cells)
        assert len(calls) == rendered
        text = (tmp_path / f"{out}.json").read_text(encoding="utf-8")
        table = (tmp_path / f"{out}.csv").read_text(encoding="utf-8")
        assert (text, table) == _frozen_files({**payload, "entries": entries.tolist()},
                                              json.loads(text)["env"])
    assert cells.read_bytes() == _frozen_cells(entries)
    assert b"\n-0.0,1e-05,1e+16\n" in cells.read_bytes()


def test_interleaved_writers_of_one_cells_file_publish_only_whole_files(tmp_path):
    a = np.arange(12.0).reshape(3, 4) / 7.0
    b = -a[::-1]
    path = tmp_path / "k.cells"
    crc = lambda m: zlib.crc32(m.astype("<f8").tobytes())  # noqa: E731
    first, second = cli._teed_rows(a, path, crc(a)), cli._teed_rows(b, path, crc(b))
    next(first), next(second), next(first)
    assert not path.exists()  # nothing is published before its last row
    assert list(first) == [cli._row_cells(a[2])]
    assert path.read_bytes() == _frozen_cells(a)
    aborted = cli._teed_rows(b, path, crc(b))
    next(aborted)
    aborted.close()
    assert path.read_bytes() == _frozen_cells(a)
    assert [cells for cells in second] == [cli._row_cells(row) for row in b[1:]]
    assert path.read_bytes() == _frozen_cells(b)
    assert [p.name for p in tmp_path.iterdir()] == ["k.cells"]  # no temp file is left


def test_a_cells_file_that_cannot_be_written_is_done_without(tmp_path):
    a = np.arange(6.0).reshape(2, 3) / 3.0
    path = tmp_path / "missing" / "k.cells"
    rows = cli._teed_rows(a, path, zlib.crc32(a.astype("<f8").tobytes()))
    assert list(rows) == [cli._row_cells(row) for row in a]
    assert not (tmp_path / "missing").exists()


def test_the_warm_writer_never_holds_the_cells_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("STRC_CACHE_DIR", raising=False)
    argv = ["coeffs", "--phi", "poly:0.3,-0.2,0.5,0.1", "--psi", "poly:1,0.4,-0.7",
            "--basis", "haar", "--nmax", "512"]
    assert main(argv + ["--out", "warm-up"]) == 0
    peaks = []
    for out in ("cold", "warm"):
        tracemalloc.start()
        try:
            assert main(argv + ["--cache-dir", "cache", "--out", out]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]

    # the writer alone, beside the matrix it is given
    strc, entries = _cached(tmp_path / "cache")
    cells = strc.with_suffix(".cells")
    payload = json.loads((tmp_path / "warm.json").read_text())["payload"]
    payload["entries"] = entries
    tracemalloc.start()
    try:
        cli._write_outputs("again", payload, 0.0, cells)
        held = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held < cells.stat().st_size / 8
    assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
