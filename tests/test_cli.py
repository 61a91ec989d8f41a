"""Command-line front end: grammars, exit codes, report files, determinism.

main() is exercised in-process with argv lists; every run is sandboxed into
tmp_path because reports land in the working directory by default.
"""

import json

import numpy as np
import pytest

from stratrace import (
    ComplexExponential,
    MonomialMax,
    MonomialMin,
    SeparableRankOne,
    SymmetrizedVolterra,
    VolterraProduct,
)
from stratrace import coeffs as coeffs_module
from stratrace.cli import csv_from_payload, main, parse_kernel, parse_weight

from conftest import UNIT, poly

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
    code = main(["theorem2", "--phi", "poly:1", "--psi", "poly:1",
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
    assert main(argv) == 0  # second run is served from the cache
    assert cached[0].read_bytes() == before


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
