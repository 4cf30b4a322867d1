import dataclasses
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import torusflow
from torusflow import cli, verify
from torusflow.cli import main
from torusflow.flow import IntegratorConfig, basin_census, integrate
from torusflow.radial import RadialSolverError


def run(args):
    return main(args)


def test_build_writes_manifest(tmp_path):
    out = tmp_path / "m.json"
    assert run(["build", "--scenario", "line", "--out", str(out),
                "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert payload["chart"]["kind"] == "product"
    assert payload["provenance"]["version"]
    assert "config_sha256" in payload["provenance"]


def test_build_byte_identical_for_same_config(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["build", "--scenario", "s5", "--out", str(a), "--quiet"])
    run(["build", "--scenario", "s5", "--out", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


def test_trace_csv_format(tmp_path):
    out = tmp_path / "t.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p0": [0.5, 0.0], "t_span": [0.0, 1.0],
                               "n_eval": 10}))
    assert run(["trace", "--scenario", "line", "--config", str(cfg),
                "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "t,y0,y1"
    data = [ln for ln in lines if not ln.startswith("#")][1:]
    assert len(data) == 10
    comments = [ln for ln in lines if ln.startswith("#")]
    assert any("config_sha256" in c for c in comments)


def test_trace_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["trace", "--scenario", "circle", "--out", str(a), "--quiet"])
    run(["trace", "--scenario", "circle", "--out", str(b), "--quiet"])
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("scenario,p0", [("line", [0.5, 0.0]),
                                         ("planar", [0.3, -0.7, 0.1, 0.2])])
@pytest.mark.parametrize("t_span", [[0.0, 10.0], [4.0, -6.0]])
def test_trace_rows_are_the_integrated_values(scenario, p0, t_span, tmp_path):
    out, cfg = tmp_path / "t.csv", tmp_path / "cfg.json"
    config = {"p0": p0, "t_span": t_span, "n_eval": 37}
    cfg.write_text(json.dumps(config))
    assert run(["trace", "--scenario", scenario, "--config", str(cfg),
                "--out", str(out), "--quiet"]) == 0
    fld = cli._build_manifest(
        scenario, cli._merged_config(scenario, config)).field
    traj = integrate(fld, np.array(p0), t_span,
                     IntegratorConfig(rtol=1e-9, atol=1e-12),
                     t_eval=np.linspace(t_span[0], t_span[1], 37))
    want = [",".join(format(v, ".17g") for v in (t, *p))
            for t, p in zip(traj.times, traj.points)]
    data = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    assert data == want


_BUILDERS = {"line": "build_line_describing",
             "circle": "build_line_describing",
             "planar": "build_planar_demo", "s5": "build_s5"}


@pytest.mark.parametrize("scenario", sorted(_BUILDERS))
def test_verify_exit_codes(scenario, monkeypatch, tmp_path):
    ok = run(["verify", "--scenario", scenario, "--quiet",
              "--out", str(tmp_path / "v.json")])
    assert ok == 0
    # the sabotage fails only the order checks, on a copy of the manifest
    manifest = cli._build_manifest(scenario, cli._merged_config(scenario, {}))
    fibers = manifest.field.singular_fibers
    monkeypatch.setattr(cli, _BUILDERS[scenario], lambda *a, **k: manifest)
    bad = run(["verify", "--scenario", scenario, "--quiet", "--sabotage",
               "--out", str(tmp_path / "vs.json")])
    assert bad == 1
    payload = json.loads((tmp_path / "vs.json").read_text())
    assert payload["passed"] is False
    assert [k for k, c in payload["checks"].items() if not c["passed"]] == [
        "orders_match_declared", "orders_pairwise_distinct"]
    assert manifest.field.singular_fibers is fibers


@pytest.mark.parametrize("sabotage", [False, True], ids=["plain", "sabotage"])
@pytest.mark.parametrize("seed", [0, 3])
@pytest.mark.parametrize("scenario", sorted(_BUILDERS))
def test_verify_passes_each_check_by_its_bound(scenario, seed, sabotage,
                                               tmp_path):
    # passed is the value against its tol, on the side the bound holds
    out = tmp_path / "v.json"
    code = run(["verify", "--scenario", scenario, "--seed", str(seed),
                "--quiet", "--out", str(out)] + ["--sabotage"] * sabotage)
    payload = json.loads(out.read_text())
    assert code == (1 if sabotage else 0)
    assert set(payload["checks"]) >= {"declared_zeros_vanish",
                                      "orders_pairwise_distinct",
                                      "orders_match_declared"}
    for name, c in payload["checks"].items():
        tol, upper = verify._BOUNDS[name]
        assert c["tol"] == tol
        assert c["passed"] is (c["value"] <= tol if upper
                               else c["value"] >= tol)


def test_sabotage_needs_two_declared_fibers(tmp_path, capsys):
    # with one declared fiber no two orders can be made equal, so the
    # negative control could not fail: a config error, not a pass
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"orders": [2]}))
    argv = ["verify", "--scenario", "planar", "--config", str(cfg), "--quiet"]
    out = tmp_path / "vs.json"
    assert run(argv + ["--sabotage", "--out", str(out)]) == 2
    assert "two declared fibers" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--out", str(tmp_path / "v.json")]) == 0


def test_verify_fails_for_a_base_rule_off_the_field(monkeypatch, tmp_path):
    # a declared base rule 1e-9 off the field fails its check, and only it
    build = cli.build_line_describing

    def off(*args, **kwargs):
        m = build(*args, **kwargs)
        rule = m.field.base_rule
        return dataclasses.replace(m, field=dataclasses.replace(
            m.field, base_rule=lambda x: (1.0 + 1e-9) * rule(x)))

    monkeypatch.setattr(cli, "build_line_describing", off)
    out = tmp_path / "v.json"
    assert run(["verify", "--scenario", "line", "--quiet",
                "--out", str(out)]) == 1
    checks = json.loads(out.read_text())["checks"]
    assert [k for k, c in checks.items() if not c["passed"]] == [
        "base_rule_matches_field"]


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # one parser serves every call in a process: a --sabotage run must not
    # carry over into the plain run after it
    assert cli._parser() is cli._parser()
    bad = run(["verify", "--scenario", "circle", "--quiet", "--sabotage",
               "--out", str(tmp_path / "vs.json")])
    ok = run(["verify", "--scenario", "circle", "--quiet",
              "--out", str(tmp_path / "v.json")])
    assert (bad, ok) == (1, 0)
    assert json.loads((tmp_path / "v.json").read_text())["passed"] is True


def test_trace_after_verify_writes_the_same_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["trace", "--scenario", "line", "--quiet", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(["verify", "--scenario", "line", "--quiet", "--sabotage",
                "--out", str(tmp_path / "v.json")]) == 1
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_probe_reports_expected_dimension(tmp_path):
    out = tmp_path / "p.json"
    assert run(["probe", "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert payload["dimension"] == 6
    assert payload["matches_expected"] is True


def test_probe_takes_degree_and_max_freq_0(tmp_path):
    # the CLI checks the type of an integer key; the library its range
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"degree": 0, "max_freq": 0}))
    assert run(["probe", "--config", str(cfg), "--quiet",
                "--out", str(tmp_path / "p.json")]) == 0


def test_basin_counts_sum_to_samples(tmp_path):
    out = tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 50}))
    assert run(["basin", "--scenario", "line", "--config", str(cfg),
                "--seed", "3", "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    assert sum(payload["counts"].values()) == 50
    assert payload["source_fraction"] == 1.0


@pytest.mark.parametrize("scenario", ["line", "s5"])
def test_basin_payload_is_the_census_report(scenario, tmp_path):
    # the payload says why the census stopped and what it cost, so a census
    # with samples left unclassified shows its reason
    out = tmp_path / "b.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_samples": 24}))
    assert run(["basin", "--scenario", scenario, "--config", str(cfg),
                "--seed", "4", "--out", str(out), "--quiet"]) == 0
    payload = json.loads(out.read_text())
    manifest = cli._build_manifest(
        scenario, cli._merged_config(scenario, {"n_samples": 24}))
    want = dataclasses.asdict(basin_census(manifest.field, 24, seed=4))
    assert payload["provenance"]["seed"] == 4
    assert {k: payload[k] for k in want} == want
    assert payload["stop_reason"] == "all_assigned"
    # the counters are the RK loop's record, under "stats" and nowhere else
    assert sorted(payload) == ["counts", "n_samples", "provenance",
                               "source_fraction", "stats", "stop_reason",
                               "unclassified_fraction"]
    assert sorted(payload["stats"]) == [
        "accepted", "attempts", "rejected", "rhs_calls", "rhs_rows"]
    assert payload["stats"]["rhs_rows"] > 0


def test_build_writes_to_stdout_without_out(tmp_path, capsys):
    # without --out the payload goes to stdout; with it, and without
    # --quiet, stdout names the file
    assert run(["build", "--scenario", "line"]) == 0
    payload = capsys.readouterr().out
    out = tmp_path / "m.json"
    assert run(["build", "--scenario", "line", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {out}\n"
    assert out.read_text() == payload


def test_verify_prints_its_summary(tmp_path, capsys):
    out = tmp_path / "v.json"
    assert run(["verify", "--scenario", "line", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    payload = json.loads(out.read_text())
    assert lines[0] == f"wrote {out}"
    assert lines[1] == f"{payload['name']}: PASS"
    assert sorted(ln.split()[1] for ln in lines[2:]) == [
        f"{key}:" for key in payload["checks"]]  # the payload sorts keys
    assert all(ln.startswith("  [ok] ") for ln in lines[2:])


def test_config_must_be_a_json_object(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run(["build", "--scenario", "line", "--config", str(cfg),
                "--quiet"]) == 2
    assert "config must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("command, config", [
    ("build", {"schema_version": 99}),
    # a value of the wrong type or length
    ("trace", {"t_span": 5}),
    ("trace", {"t_span": [0]}),
    ("trace", {"frequencies": 3}),
    ("basin", {"frequencies": 3}),
    ("basin", {"n_samples": [1]}),
    # a value the command would otherwise cut or misread without a word
    ("trace", {"t_span": [0, 1, 5]}),
    ("trace", {"n_eval": 0}),
    ("basin", {"n_samples": 2.5}),
    ("basin", {"n_samples": 0}),
    # an integer key given a float, a bool or a string, which int() would
    # truncate or parse
    ("build", {"n": 1.5}),
    ("trace", {"n": True}),
    ("basin", {"n": "1"}),
    ("build --scenario planar", {"orders": [2.9, 4, 6]}),
    ("verify --scenario planar", {"orders": [2, "4", 6]}),
    ("probe", {"k": 1.9}),
    ("probe", {"degree": 2.5}),
    ("probe", {"max_freq": True}),
    ("probe", {"n_points": 500.0}),
], ids=["build-schema_version", "trace-t_span_number", "trace-t_span_short",
        "trace-frequencies", "basin-frequencies", "basin-n_samples",
        "trace-t_span_long", "trace-n_eval_0", "basin-n_samples_float",
        "basin-n_samples_0", "build-n_float", "trace-n_bool",
        "basin-n_string", "build-orders_float", "verify-orders_string",
        "probe-k_float", "probe-degree_float", "probe-max_freq_bool",
        "probe-n_points_float"])
def test_bad_config_returns_2(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    argv = command.split()
    if argv[0] != "probe" and "--scenario" not in argv:
        argv += ["--scenario", "line"]
    assert run(argv + ["--config", str(cfg), "--quiet",
                       "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    # a ConfigError names its key; a TypeError or IndexError caught at main
    # reads "bad config value"
    assert next(iter(config)) in err or "bad config value" in err


def test_malformed_json_returns_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["build", "--scenario", "line", "--config", str(cfg),
                "--quiet", "--out", str(tmp_path / "x.json")]) == 2


def test_unknown_scenario_rejected():
    with pytest.raises(SystemExit) as exc:
        run(["build", "--scenario", "moebius", "--quiet"])
    assert exc.value.code == 2


def test_wrong_p0_dimension_returns_2(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p0": [0.5]}))
    assert run(["trace", "--scenario", "line", "--config", str(cfg),
                "--quiet", "--out", str(tmp_path / "t.csv")]) == 2


def test_trace_on_s5_needs_p0_on_the_sphere(tmp_path):
    out = tmp_path / "t.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p0": [0.5] * 6, "n_eval": 5}))
    assert run(["trace", "--scenario", "s5", "--config", str(cfg),
                "--quiet", "--out", str(out)]) == 2
    assert not out.exists()
    # the default start is a unit vector
    cfg.write_text(json.dumps({"n_eval": 5}))
    assert run(["trace", "--scenario", "s5", "--config", str(cfg),
                "--quiet", "--out", str(out)]) == 0
    data = [ln for ln in out.read_text().splitlines()
            if not ln.startswith("#")][1:]
    p0 = np.array([float(v) for v in data[0].split(",")[1:]])
    assert abs(np.linalg.norm(p0) - 1.0) <= 1e-9


def test_numerical_failure_returns_3(monkeypatch, tmp_path):
    # RadialSolverError is a ValueError, but it is a numerical failure
    def fail(args):
        raise RadialSolverError("quadrature missed tol")

    monkeypatch.setattr(cli, "cmd_probe", fail)
    assert run(["probe", "--quiet", "--out", str(tmp_path / "p.json")]) == 3


@pytest.mark.parametrize("preset,want", [(None, "1"), ("3", "3")])
def test_threads_mapped_before_numpy_import(preset, want):
    # the mapping must happen on `import torusflow`, before NumPy sizes
    # its pools; an explicitly set pool size wins
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")}
    env["TORUSFLOW_THREADS"] = "1"
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(torusflow.__file__))
    code = ("import os, torusflow; print(os.environ['OPENBLAS_NUM_THREADS'], "
            "os.environ['OMP_NUM_THREADS'])")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.split() == [want, "1"]
