import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestopt.cli
import nestopt.experiment
import nestopt.model
import nestopt.problems
import nestopt.solver
from nestopt.cli import main
from nestopt.config import CONFIG, SCHEDULES, Variants, read
from nestopt.diagnostics import RunRecord
from nestopt.errors import ConfigError
from nestopt.experiment import load_config, parse_config, rate_experiment, write_trace_csv
from nestopt.model import IterateState
from nestopt.problems import make_problem

from helpers import MERIT_DIAGNOSTICS, write_trace_csv_rowwise

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = CONFIG_DIR.parent / "src"


def _base_config(**overrides):
    doc = {
        "schema_version": 1,
        "problem": {"family": "synthetic_smooth", "levels": 2, "n": 4,
                    "inner_dim": 2, "instance_seed": 1,
                    "noise": {"value_sd": 0.05, "jac_sd": 0.05}},
        "algorithm": {"a": 1.0, "b": 1.0, "rho": 1.0, "seed": 5,
                      "schedule": {"kind": "diminishing", "tau0": 1.0, "gamma": 0.75}},
        "run": {"iterations": 100},
        "diagnostics": {"track_every": 1, "exact_every": 5},
    }
    doc.update(overrides)
    return doc


def _write(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_missing_rho_named_in_error(tmp_path, capsys):
    doc = _base_config()
    del doc["algorithm"]["rho"]
    code = main(["run", "--config", str(_write(tmp_path, doc))])
    assert code == 1
    assert "rho" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_config(path)


def test_unknown_schedule_kind(tmp_path):
    doc = _base_config()
    doc["algorithm"]["schedule"] = {"kind": "warmup"}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "schedule" in str(err.value)


def test_schedule_spec_roundtrip():
    from nestopt import Constant, Custom, Diminishing
    specs = [({"kind": "diminishing", "tau0": 0.8, "gamma": 0.9}, Diminishing(0.8, 0.9)),
             ({"kind": "constant", "tau": 0.25}, Constant(0.25)),
             ({"kind": "custom", "taus": [0.5, 0.1]}, Custom((0.5, 0.1)))]
    for spec, sched in specs:
        assert read(spec, SCHEDULES, "algorithm.schedule") == sched


def _mutate(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


# the flags each command takes besides --config
_FLAGS = {"validate": (), "run": ("--out", "--seed"),
          "rate-experiment": ("--out", "--seed", "--threads")}


def _argv(command, config, out):
    """``command --config config``, plus ``--out out`` for a command that writes."""
    return [command, "--config", str(config), *(("--out", str(out)) if _FLAGS[command] else ())]


def _bad(case_id, config, path, value, field, args=()):
    return pytest.param(config, path, value, field, args, id=case_id)


@pytest.mark.parametrize("config, path, value, field, args", [
    _bad("iterations-text", "risk_p1_run.json", ("run", "iterations"), "ten", "run.iterations"),
    _bad("iterations-fraction", "risk_p1_run.json", ("run", "iterations"), 2.5,
         "run.iterations"),
    _bad("kappa-text", "risk_p1_run.json", ("problem", "kappa"), "half", "problem.kappa"),
    _bad("ball-negative-radius", "risk_p1_run.json", ("problem", "set"),
         {"kind": "ball", "radius": -1}, "problem.set"),
    _bad("missing-csv", "risk_p1_run.json", ("problem", "scenarios"),
         {"csv": "/nonexistent.csv"}, "problem.scenarios.csv"),
    _bad("noise-negative-sd", "synthetic_run.json", ("problem", "noise"),
         {"value_sd": -1.0, "jac_sd": 0.1}, "problem.noise"),
    _bad("noise-unknown-distribution", "synthetic_run.json", ("problem", "noise"),
         {"value_sd": 0.1, "distribution": "cauchy"}, "problem.noise"),
    _bad("track-every-negative", "risk_p1_run.json", ("diagnostics", "track_every"), -1,
         "diagnostics.track_every"),
    _bad("exact-every-negative", "risk_p1_run.json", ("diagnostics", "exact_every"), -1,
         "diagnostics.exact_every"),
    _bad("tau0-negative", "risk_p1_run.json", ("algorithm", "schedule", "tau0"), -1,
         "algorithm.schedule.tau0"),
    _bad("constant-tau-zero", "risk_p1_run.json", ("algorithm", "schedule"),
         {"kind": "constant", "tau": 0}, "algorithm.schedule.tau"),
    _bad("custom-tau-negative", "risk_p1_run.json", ("algorithm", "schedule"),
         {"kind": "custom", "taus": [0.5, -0.1]}, "algorithm.schedule.taus"),
    _bad("custom-schedule-short", "risk_p1_run.json", ("algorithm", "schedule"),
         {"kind": "custom", "taus": [0.5, 0.5]}, "algorithm.schedule.taus"),
    _bad("gamma-overflow", "risk_p1_run.json", ("algorithm", "schedule", "gamma"), 400,
         "algorithm.schedule.gamma"),
    _bad("gamma-negative", "risk_p1_run.json", ("algorithm", "schedule", "gamma"), -400,
         "algorithm.schedule.gamma"),
    _bad("tau0-subnormal", "synthetic_run.json", ("algorithm", "schedule", "tau0"), 5e-324,
         "algorithm.schedule.tau0"),
    _bad("epsilon-subnormal", "risk_p2_run.json", ("problem", "epsilon"), 5e-324,
         "problem.epsilon"),
    _bad("skew-scale-overflow", "svi_run.json", ("problem", "skew_scale"), 1e308,
         "problem.skew_scale"),
    _bad("lyapunov-without-gammas", "risk_p2_run.json", ("diagnostics", "lyapunov_every"), 5,
         "diagnostics.gammas"),
    _bad("gammas-wrong-count", "risk_p2_run.json", ("diagnostics",),
         {"track_every": 1, "exact_every": 10, "lyapunov_every": 5, "gammas": [1.0]},
         "diagnostics.gammas"),
    _bad("init-x-wrong-length", "risk_p1_run.json", ("run", "init"),
         {"policy": "one_sample", "x": [0.5, 0.5]}, "run.init.x"),
    _bad("init-x-not-finite", "risk_p1_run.json", ("run", "init"),
         {"policy": "one_sample", "x": [0.2, 0.2, 0.2, 0.2, float("inf")]}, "run.init.x"),
    _bad("threads-zero", "synthetic_rate.json", None, None, "--threads", ("--threads", "0")),
    _bad("svi-matrix-text", "svi_run.json", ("problem", "matrix"), [["a"] * 5] * 5,
         "problem.matrix"),
    _bad("svi-matrix-overflow", "svi_run.json", ("problem", "matrix"),
         (1e200 * np.eye(5)).tolist(), "problem.matrix"),
    _bad("gaussian-coef-mean-text", "risk_p1_run.json", ("problem", "scenarios"),
         {"kind": "gaussian", "coef_mean": ["a"] * 5}, "problem.scenarios.coef_mean"),
    _bad("kappa-misspelt", "risk_p1_run.json", ("problem", "kapa"), 0.9, "problem.kapa"),
    _bad("schedule-misspelt", "risk_p1_run.json", ("algorithm", "shedule"),
         {"kind": "constant", "tau": 0.1}, "algorithm.shedule"),
    _bad("exact-every-misspelt", "risk_p1_run.json", ("diagnostics", "exact_evry"), 5,
         "diagnostics.exact_evry"),
    _bad("relu-text", "risk_p1_run.json", ("problem", "scenarios", "relu"), "no",
         "problem.scenarios.relu"),
    _bad("theta-zero", "synthetic_rate.json", ("rate_experiment", "theta"), 0,
         "rate_experiment.theta"),
    _bad("theta-negative", "synthetic_rate.json", ("rate_experiment", "theta"), -1,
         "rate_experiment.theta"),
    _bad("theta-subnormal", "synthetic_rate.json", ("rate_experiment", "theta"), 5e-324,
         "rate_experiment.theta"),
    _bad("horizon-zero", "synthetic_rate.json", ("rate_experiment", "horizons"), [0, 100],
         "rate_experiment.horizons"),
    _bad("horizon-negative", "synthetic_rate.json", ("rate_experiment", "horizons"),
         [-5, 100], "rate_experiment.horizons"),
    _bad("noise-list", "synthetic_run.json", ("problem", "noise"), [0.1, 0.1], "problem.noise"),
    _bad("diagnostics-list", "risk_p1_run.json", ("diagnostics",), [1, 10], "diagnostics"),
    _bad("run-list", "risk_p1_run.json", ("run",), [20000], "run"),
    _bad("rate-init-x-wrong-length", "synthetic_rate.json", ("run",),
         {"init": {"policy": "one_sample", "x": [0.5, 0.5]}}, "run.init.x"),
    _bad("halfwidth-negative-pooled", "synthetic_rate.json", ("problem", "halfwidth"), -1.0,
         "problem.halfwidth", ("--threads", "2")),
    _bad("levels-above-cap", "synthetic_run.json", ("problem", "levels"), 1e308,
         "problem.levels"),
    _bad("synthetic-n-above-cap", "synthetic_rate.json", ("problem", "n"), 1001, "problem.n"),
    _bad("inner-dim-above-cap", "synthetic_run.json", ("problem", "inner_dim"), 101,
         "problem.inner_dim"),
    _bad("risk-n-above-cap", "risk_p2_run.json", ("problem", "n"), 1001, "problem.n"),
    _bad("svi-n-above-cap", "svi_run.json", ("problem", "n"), 10**6, "problem.n"),
    _bad("scenario-count-above-cap", "risk_p1_run.json", ("problem", "scenarios", "count"),
         10001, "problem.scenarios.count"),
    _bad("iterations-above-cap", "risk_p1_run.json", ("run", "iterations"), 10**12,
         "run.iterations"),
    _bad("horizon-above-cap", "synthetic_rate.json", ("rate_experiment", "horizons"),
         [100, 10**12], "rate_experiment.horizons"),
    _bad("horizon-count-above-cap", "synthetic_rate.json", ("rate_experiment", "horizons"),
         [1] * 101, "rate_experiment.horizons"),
    _bad("replications-above-cap", "synthetic_rate.json", ("rate_experiment", "replications"),
         10**9, "rate_experiment.replications"),
    _bad("seed-negative", "synthetic_rate.json", None, None, "--seed", ("--seed", "-1")),
    _bad("seed-above-64-bits", "synthetic_rate.json", None, None, "--seed",
         ("--seed", str(2**64))),
])
def test_bad_config_fields_exit_one_naming_field(tmp_path, config, path, value, field, args):
    doc = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    if path is not None:
        _mutate(doc, path, value)
    config_path = _write(tmp_path, doc)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    rate = ("rate-experiment",) if config == "synthetic_rate.json" else ()
    for command in ("validate", "run") + rate:
        if args and args[0] not in _FLAGS[command]:
            continue  # a flag case runs on the commands that take the flag
        proc = subprocess.run([sys.executable, "-m", "nestopt.cli",
                               *_argv(command, config_path, tmp_path / "out"), *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 1, (command, proc.stderr)
        assert f"config error: {field}:" in proc.stderr, (command, proc.stderr)
        assert "Traceback" not in proc.stderr, (command, proc.stderr)
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rows, column, value", [
    pytest.param(1, 0, float("nan"), id="nan-weight"),
    pytest.param(1, -1, float("nan"), id="nan-offset"),
    pytest.param(1, 2, float("inf"), id="inf-coef"),
    pytest.param(1, 0, -0.5, id="negative-weight"),
    pytest.param(None, 0, 0.0, id="zero-weights"),
    pytest.param(None, 0, 1e308, id="weight-sum-overflows"),
])
def test_bad_scenario_csv_exit_one_naming_field(tmp_path, capsys, rows, column, value):
    # one column of the first `rows` rows (of all rows for None) of a good table set to value
    table = np.column_stack([np.full(10, 0.1), np.full((10, 5), 0.3), 1.0 + np.arange(10)])
    table[:rows, column] = value
    csv = tmp_path / "scenarios.csv"
    np.savetxt(csv, table, delimiter=",")
    doc = json.loads((CONFIG_DIR / "risk_p1_run.json").read_text(encoding="utf-8"))
    doc["problem"]["scenarios"] = {"csv": str(csv)}
    doc["run"]["iterations"] = 100
    config_path = _write(tmp_path, doc)
    for command in ("validate", "run"):
        code = main(_argv(command, config_path, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1, (command, err)
        assert "config error: problem.scenarios.csv:" in err, (command, err)
        assert not (tmp_path / "out").exists()


def test_empty_scenario_csv_prints_only_the_config_error(tmp_path, capsys):
    csv = tmp_path / "scenarios.csv"
    csv.write_text("", encoding="utf-8")
    doc = json.loads((CONFIG_DIR / "risk_p1_run.json").read_text(encoding="utf-8"))
    doc["problem"]["scenarios"] = {"csv": str(csv)}
    config_path = _write(tmp_path, doc)
    for command in ("validate", "run"):
        code = main(_argv(command, config_path, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1, (command, err)
        assert err.startswith("config error: problem.scenarios.csv:"), (command, err)
        assert err.count("\n") == 1, (command, err)


def test_lyapunov_without_exact_evaluators_exit_one_naming_field(tmp_path, capsys):
    # continuous scenarios carry no exact evaluators, so the merit pair cannot be recorded
    doc = json.loads((CONFIG_DIR / "risk_p1_run.json").read_text(encoding="utf-8"))
    doc["problem"]["scenarios"] = {"kind": "gaussian"}
    doc["diagnostics"].update(lyapunov_every=5, gammas=[1.0])
    doc["rate_experiment"] = {"horizons": [10, 100, 1000], "replications": 2}
    config_path = _write(tmp_path, doc)
    for command in ("validate", "run", "rate-experiment"):
        code = main(_argv(command, config_path, tmp_path / "out"))
        err = capsys.readouterr().err
        assert code == 1, (command, err)
        assert "config error: diagnostics.lyapunov_every:" in err, (command, err)
        assert not (tmp_path / "out").exists()


def test_config_fuzz_exits_zero_one_or_two(tmp_path):
    # every case runs in process, in one child whose address space is capped at 1 GiB:
    # an allocation past the caps fails that case with MemoryError, not the host
    script = ("import json, resource, sys; "
              "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
              "import helpers; print(json.dumps(helpers.fuzz_configs(*sys.argv[1:])))")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), str(Path(__file__).parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, str(CONFIG_DIR), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    failures = json.loads(proc.stdout)
    assert failures == [], "\n".join(failures[:20])


def _table_keys(spec):
    """Every key a config table (or its variants and subsections) accepts."""
    if isinstance(spec, Variants):
        return {spec.key}.union(*map(_table_keys, spec.tables.values()))
    return set(spec.fields).union(*(_table_keys(f.of) for f in spec.fields.values()
                                    if f.kind == "section"))


def test_readme_schema_lists_every_config_key():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config schema")[1].split("```jsonc")[1].split("```")[0]
    assert set(re.findall(r'"(\w+)"\s*:', block)) == _table_keys(CONFIG)


def test_unknown_family_exit_code(tmp_path, capsys):
    doc = _base_config(problem={"family": "nope"})
    code = main(["run", "--config", str(_write(tmp_path, doc))])
    assert code == 1
    assert "family" in capsys.readouterr().err


def test_missing_config_file(capsys):
    assert main(["run", "--config", "/does/not/exist.json"]) == 1


@pytest.mark.parametrize("argv, named", [
    pytest.param([], "command", id="no-command"),
    pytest.param(["frobnicate"], "frobnicate", id="unknown-command"),
    pytest.param(["run"], "--config", id="no-config"),
    pytest.param(["run", "--config", "c.json", "--seed", "2.5"], "--seed", id="seed-fraction"),
    pytest.param(["rate-experiment", "--config", "c.json", "--threads", "x"], "--threads",
                 id="threads-text"),
    pytest.param(["validate", "--config", "c.json", "--verbose"], "--verbose",
                 id="unknown-flag"),
])
def test_usage_errors_exit_one_naming_argument(capsys, argv, named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: nestopt"), err
    assert named in err, err


@pytest.mark.parametrize("command, flag, value", [
    pytest.param("run", "--threads", "2", id="run-threads"),
    pytest.param("validate", "--out", None, id="validate-out"),
    pytest.param("validate", "--seed", "1", id="validate-seed"),
    pytest.param("validate", "--threads", "1", id="validate-threads"),
])
def test_unread_flags_exit_one_naming_the_flag(tmp_path, capsys, command, flag, value):
    # each command takes only the flags it reads; any other is a usage error
    value = str(tmp_path / "d") if value is None else value
    code = main([*_argv(command, CONFIG_DIR / "synthetic_run.json", tmp_path / "out"),
                 flag, value])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith("config error: nestopt") and flag in err, err
    assert list(tmp_path.iterdir()) == []


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def test_zero_replications_rejected(tmp_path):
    doc = _base_config()
    doc["rate_experiment"] = {"horizons": [10, 100], "replications": 0}
    with pytest.raises(ConfigError) as err:
        parse_config(doc)
    assert "replications" in str(err.value)


# ---------------------------------------------------------------------------
# run command

def test_run_writes_trace_and_summary(tmp_path):
    doc = _base_config()
    code = main(["run", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert len(trace) == 101  # header + one row per iteration
    assert trace[0].startswith("k,tau,d_sq,eta,t_1,t_2,vres_1,vres_2")
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["iterations"] == 100
    assert summary["config"]["algorithm"]["seed"] == 5
    assert "distance_to_solution" in summary["final"]


def test_run_byte_identical_reruns(tmp_path):
    doc = _base_config()
    cfg_path = _write(tmp_path, doc)
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "b")])
    for name in ("trace.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_seed_override_changes_output(tmp_path):
    doc = _base_config()
    cfg_path = _write(tmp_path, doc)
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "a")])
    main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "c"),
          "--seed", "99"])
    assert (tmp_path / "a" / "trace.csv").read_bytes() != \
        (tmp_path / "c" / "trace.csv").read_bytes()
    summary = json.loads((tmp_path / "c" / "summary.json").read_text())
    assert summary["seed"] == 99


def test_runtime_failure_exit_two(tmp_path, capsys):
    doc = _base_config()
    doc["problem"]["noise"]["value_sd"] = 1e200  # squared norms overflow in iteration 0
    code = main(["run", "--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error: non-finite z at iteration 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, config, source, target", [
    pytest.param("run", "synthetic_run", "--out", "file", id="run-flag-file"),
    pytest.param("run", "synthetic_run", "output_dir", "file/sub", id="run-config-under-file"),
    pytest.param("rate-experiment", "synthetic_rate", "--out", "file/sub",
                 id="rate-flag-under-file"),
    pytest.param("rate-experiment", "synthetic_rate", "output_dir", "file", id="rate-config-file"),
])
def test_unusable_output_directory_exits_one_before_iteration_0(tmp_path, capsys, monkeypatch,
                                                                command, config, source, target):
    calls = []
    monkeypatch.setattr(nestopt.experiment, "run", lambda *a, **k: calls.append(a))
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = str(tmp_path / target)
    doc = json.loads((CONFIG_DIR / f"{config}.json").read_text(encoding="utf-8"))
    args = ["--out", out]
    if source == "output_dir":
        doc["output_dir"], args = out, []
    code = main([command, "--config", str(_write(tmp_path, doc)), *args])
    err = capsys.readouterr().err
    assert code == 1, err
    assert err.startswith(f"config error: {source}:"), err
    assert calls == []


def test_failed_run_removes_only_the_directories_it_made(tmp_path):
    doc = _base_config()
    doc["problem"]["noise"]["value_sd"] = 1e200  # squared norms overflow in iteration 0
    config = str(_write(tmp_path, doc))
    assert main(["run", "--config", config, "--out", str(tmp_path / "a" / "b")]) == 2
    assert not (tmp_path / "a").exists()
    (tmp_path / "kept").mkdir()
    assert main(["run", "--config", config, "--out", str(tmp_path / "kept" / "b")]) == 2
    assert list((tmp_path / "kept").iterdir()) == []


def test_validate_and_serial_commands_load_no_process_pool(tmp_path):
    # pytest's own process has imported both packages already, so a fresh interpreter runs
    # validate on every shipped config, a short run of each run config and a serial sweep
    configs = sorted(CONFIG_DIR.glob("*.json"))
    argv = [["validate", "--config", str(c)] for c in configs]
    for c in configs:
        doc = json.loads(c.read_text(encoding="utf-8"))
        if "run" in doc:
            doc["run"]["iterations"] = 20
            argv.append(["run", "--config", str(_write(tmp_path, doc, c.name)),
                         "--out", str(tmp_path / c.stem)])
    rate = _rate_config()
    rate["rate_experiment"]["horizons"] = [4, 8]
    argv.append(["rate-experiment", "--config", str(_write(tmp_path, rate)),
                 "--out", str(tmp_path / "rate"), "--threads", "1"])
    script = ("import json, sys; from nestopt.cli import main; "
              "codes = [main(a) for a in json.loads(sys.argv[1])]; "
              "print(json.dumps([codes, sorted(m for m in sys.modules "
              "if m.split('.')[0] in ('concurrent', 'multiprocessing'))]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0] * len(argv)
    assert loaded == []


def _shipped(name, **run):
    doc = json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))
    doc["run"].update(run)
    return doc


def test_short_run_reports_null_objective_tail(tmp_path):
    # 50 iterations sample the objective at k = 0, 10, ..., 40, none of
    # them inside the final tenth of the run
    doc = _shipped("synthetic_run.json", iterations=50)
    code = main(["run", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["objective_tail"] is None


def test_synthetic_rejects_feasible_set(tmp_path, capsys):
    doc = _shipped("synthetic_run.json")
    doc["problem"]["set"] = {"kind": "ball", "radius": 0.1}
    code = main(["run", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "problem.set" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_svi_over_polytope_validates_and_runs(tmp_path):
    n = 5
    doc = _shipped("svi_run.json", iterations=20)
    doc["problem"]["set"] = {"kind": "polytope",
                             "A": np.vstack([np.eye(n), -np.eye(n)]).tolist(),
                             "b": [2.0] * n + [0.0] * n, "interior": [1.0] * n}
    cfg_path = _write(tmp_path, doc)
    assert main(["validate", "--config", str(cfg_path)]) == 0
    assert main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["iterations"] == 20


def test_validate_command(tmp_path, capsys):
    ok = _base_config()
    assert main(["validate", "--config", str(_write(tmp_path, ok))]) == 0
    bad = _base_config(problem={"family": "risk_p1", "n": 3, "kappa": 2.0,
                                "scenarios": {"count": 4}})
    assert main(["validate", "--config", str(_write(tmp_path, bad, "bad.json"))]) == 1


# ---------------------------------------------------------------------------
# rate experiment command

def _rate_config():
    doc = _base_config()
    del doc["run"]
    doc["rate_experiment"] = {"horizons": [16, 160, 1600],
                              "replications": 3, "theta": 1.0}
    return doc


def test_rate_experiment_payload(tmp_path):
    cfg = parse_config(_rate_config())
    payload = rate_experiment(cfg, tmp_path / "rate")
    assert [e["iterations"] for e in payload["entries"]] == [16, 160, 1600]
    assert np.isfinite(payload["slope"])
    data = json.loads((tmp_path / "rate" / "rate.json").read_text())
    assert data["slope"] == payload["slope"]
    assert len(data["entries"][0]["replication_measures"]) == 3


def test_rate_experiment_without_ground_truth(tmp_path):
    # continuous scenario generators carry no exact evaluators; the measure
    # degrades to the step norm and tracking means are absent
    doc = _rate_config()
    doc["problem"] = {"family": "risk_p1", "n": 3, "kappa": 0.3,
                      "scenarios": {"kind": "gaussian"}}
    cfg = parse_config(doc)
    payload = rate_experiment(cfg, tmp_path / "gauss")
    assert np.isfinite(payload["slope"])
    assert "tracking_mean_sq" not in payload["entries"][0]


def test_rate_experiment_starts_from_init_x(tmp_path, capsys):
    doc = _rate_config()
    plain = rate_experiment(parse_config(doc), tmp_path / "plain")
    doc["run"] = {"init": {"policy": "one_sample", "x": [1.5, -1.5, 1.0, 0.5]}}
    moved = rate_experiment(parse_config(doc), tmp_path / "moved")
    assert moved["entries"] != plain["entries"]
    doc["run"]["init"]["x"] = [1.5, -1.5]
    code = main(["rate-experiment", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "short")])
    assert code == 1
    assert "run.init.x" in capsys.readouterr().err
    assert not (tmp_path / "short").exists()


def test_rate_experiment_thread_count_invariant(tmp_path):
    cfg_path = _write(tmp_path, _rate_config())
    main(["rate-experiment", "--config", str(cfg_path),
          "--out", str(tmp_path / "r1"), "--threads", "1"])
    main(["rate-experiment", "--config", str(cfg_path),
          "--out", str(tmp_path / "r2"), "--threads", "2"])
    assert (tmp_path / "r1" / "rate.json").read_bytes() == \
        (tmp_path / "r2" / "rate.json").read_bytes()


def test_rate_json_reports_the_clipped_stepsize_each_horizon_ran(tmp_path, monkeypatch):
    # a = 4 caps every stepsize at min(1, 1/a, 1/b) = 0.25, above theta / sqrt(N) only at N = 10^4
    ran = {}
    solver_run = nestopt.experiment.run

    def recording_run(problem, params, N, **kwargs):
        records = solver_run(problem, params, N, **kwargs)  # a block of replications
        ran[N] = {tau for record in records for tau in record.tau.tolist()}
        return records

    monkeypatch.setattr(nestopt.experiment, "run", recording_run)
    doc = json.loads((CONFIG_DIR / "synthetic_rate.json").read_text(encoding="utf-8"))
    doc["algorithm"]["a"] = 4.0
    doc["rate_experiment"].update(theta=10.0, horizons=[100, 1000, 10000], replications=1)
    assert main(["rate-experiment", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "out"), "--threads", "1"]) == 0
    entries = json.loads((tmp_path / "out" / "rate.json").read_text())["entries"]
    assert [e["tau"] for e in entries] == [0.25, 0.25, 0.1]
    assert ran == {e["iterations"]: {e["tau"]} for e in entries}


def test_runtime_error_line_same_for_any_thread_count(tmp_path, capsys):
    # a pool worker's NonFiniteIterateError is pickled back to the parent
    doc = json.loads((CONFIG_DIR / "synthetic_rate.json").read_text(encoding="utf-8"))
    doc["problem"]["noise"]["jac_sd"] = 1e200
    doc["rate_experiment"].update(horizons=[10, 100, 1000], replications=2)
    config = str(_write(tmp_path, doc))
    lines = []
    for threads in ("1", "2"):
        code = main(["rate-experiment", "--config", config, "--out", str(tmp_path / threads),
                     "--threads", threads])
        assert code == 2
        lines.append(capsys.readouterr().err)
    assert lines[0] == lines[1] == "runtime error: non-finite x at iteration 0\n"


@pytest.mark.parametrize("command, noise, threads, line", [
    pytest.param("run", "value_sd", None, "non-finite z", id="run"),
    pytest.param("rate-experiment", "jac_sd", "1", "non-finite x", id="rate-threads-1"),
    pytest.param("rate-experiment", "jac_sd", "2", "non-finite x", id="rate-threads-2"),
])
def test_overflowing_run_prints_only_the_error_line(tmp_path, command, noise, threads, line):
    # numpy's overflow warnings are silenced: the finiteness guard reports the failure
    config = "synthetic_run.json" if command == "run" else "synthetic_rate.json"
    doc = json.loads((CONFIG_DIR / config).read_text(encoding="utf-8"))
    doc["problem"]["noise"][noise] = 1e200
    if command == "rate-experiment":
        doc["rate_experiment"].update(horizons=[10, 100, 1000], replications=2)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    threads = ("--threads", threads) if threads else ()
    proc = subprocess.run([sys.executable, "-m", "nestopt.cli", command,
                           "--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out"),
                           *threads], capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr == f"runtime error: {line} at iteration 0\n"


@pytest.mark.parametrize("path, value", [
    pytest.param(("problem", "coupling"), 1e200, id="coupling-overflows"),
    pytest.param(("problem", "noise", "jac_sd"), 1e308, id="jac-noise-overflows"),
])
def test_failed_probe_is_one_config_error_line_from_every_command(tmp_path, path, value):
    # the probe sample validate_problem draws is not finite: a config error before
    # iteration 0, from validate, run and every rate-experiment replication alike
    doc = json.loads((CONFIG_DIR / "synthetic_rate.json").read_text(encoding="utf-8"))
    _mutate(doc, path, value)
    doc["run"] = {"iterations": 10}
    doc["rate_experiment"].update(horizons=[10, 100, 1000], replications=2)
    config = str(_write(tmp_path, doc))
    out = ("--out", str(tmp_path / "out"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]))
    errs = []
    for argv in (["validate"], ["run", *out], ["rate-experiment", *out, "--threads", "1"],
                 ["rate-experiment", *out, "--threads", "2"]):
        proc = subprocess.run([sys.executable, "-m", "nestopt.cli", argv[0], "--config", config,
                               *argv[1:]], capture_output=True, text=True, env=env)
        assert proc.returncode == 1, (argv, proc.stderr)
        assert not (tmp_path / "out").exists()
        errs.append(proc.stderr)
    assert errs[0].startswith("config error: problem: ") and errs[0].count("\n") == 1, errs[0]
    assert errs == [errs[0]] * 4, errs


def test_traced_benchmark_patch_points_exist():
    # a tracing benchmark replaces these names with timed wrappers, looked up without
    # importing it: a name renamed or removed here breaks every traced run
    patched = {
        nestopt.cli: ("main", "load_config", "make_problem"),
        nestopt.experiment: ("load_config", "make_problem", "run", "write_trace_csv",
                             "summarize_run", "_replication_task"),
        nestopt.problems: ("make_problem",),
        nestopt.model: ("init_state",),
        nestopt.solver: ("run", "init_state", "assemble_subgradient", "update_z",
                         "update_trackers"),
    }
    for module, names in patched.items():
        for name in names:
            assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
    # and per built problem: its oracles' sample, its set's project, its exact evaluators
    for name in ("synthetic_run", "risk_p1_run", "svi_run"):
        problem = make_problem(load_config(CONFIG_DIR / f"{name}.json").problem_spec)
        for owner, attr in [*((o, "sample") for o in problem.oracles),
                            (problem.feasible_set, "project"),
                            (problem.exact, "value_jac"), (problem.exact, "nested")]:
            assert callable(getattr(owner, attr, None)), (name, attr)


def test_traced_benchmark_hooks_see_every_iteration(tmp_path, monkeypatch):
    # a tracing benchmark counts iterations as calls of nestopt.solver.update_z and
    # times exact diagnostics through problem.exact.nested: both are looked up per call
    calls = {"update_z": 0, "nested": 0}
    update_z = nestopt.solver.update_z

    def counted_update_z(*args):
        calls["update_z"] += 1
        return update_z(*args)

    monkeypatch.setattr(nestopt.solver, "update_z", counted_update_z)
    cfg = parse_config(_base_config())
    problem = make_problem(cfg.problem_spec)
    nested = problem.exact.nested

    def counted_nested(x):
        calls["nested"] += 1
        return nested(x)

    object.__setattr__(problem.exact, "nested", counted_nested)
    nestopt.solver.run(problem, cfg.algorithm, 100, diagnostics=cfg.diagnostics)
    assert calls == {"update_z": 100, "nested": 1}  # 100 rows make one chunk
    calls["update_z"] = 0
    assert main(["rate-experiment", "--config", str(_write(tmp_path, _rate_config())),
                 "--out", str(tmp_path / "rate"), "--threads", "1"]) == 0
    assert calls["update_z"] == (16 + 160 + 1600) * 3  # horizons times replications


def test_rate_experiment_pool_capped_at_task_count(tmp_path, monkeypatch):
    # a pool forks all its workers up front; this one records its size and the
    # blocks of replications it maps, in-process, so the test starts no process
    sizes, blocks = [], []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            blocks.append([len(item["replications"]) for item in items])
            return map(fn, items)

    # rate_experiment imports the pool class when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg_path = _write(tmp_path, _rate_config())
    for threads in ("1", "5000", "4", "2"):
        assert main(["rate-experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / threads), "--threads", threads]) == 0
    # 3 horizons x 3 replications: blocks of 1 for 3 or more workers, of 1 and 2 for two;
    # none for --threads 1, which runs one block of 3 per horizon
    assert sizes == [9, 4, 2]
    assert blocks == [[1] * 9, [1] * 9, [1, 2] * 3]
    for threads in ("5000", "2"):
        assert (tmp_path / threads / "rate.json").read_bytes() == \
            (tmp_path / "1" / "rate.json").read_bytes()


@pytest.mark.parametrize("family", ["risk_p1", "svi"])
def test_rate_json_same_bytes_at_one_two_and_three_threads(tmp_path, family):
    # 5 replications per horizon run as blocks of 5, of 2 and 3, and of 1, 2 and 2:
    # the Simplex and the scenario levels go row by row, the svi box and levels stacked
    doc = json.loads((CONFIG_DIR / f"{family}_run.json").read_text(encoding="utf-8"))
    del doc["run"]
    doc["rate_experiment"] = {"horizons": [10, 100, 1000], "replications": 5, "theta": 1.0}
    config = str(_write(tmp_path, doc))
    artifacts = []
    for threads in ("1", "2", "3"):
        assert main(["rate-experiment", "--config", config, "--out", str(tmp_path / threads),
                     "--threads", threads]) == 0
        artifacts.append((tmp_path / threads / "rate.json").read_bytes())
    assert artifacts == [artifacts[0]] * 3


# ---------------------------------------------------------------------------
# shipped configs

@pytest.mark.parametrize("name", ["synthetic_run.json", "synthetic_rate.json",
                                  "risk_p1_run.json", "risk_p2_run.json",
                                  "svi_run.json"])
def test_shipped_configs_validate(name):
    assert main(["validate", "--config", str(CONFIG_DIR / name)]) == 0


@pytest.mark.parametrize("name", ["synthetic_run.json", "risk_p1_run.json",
                                  "risk_p2_run.json", "svi_run.json"])
def test_shipped_run_configs_execute(name, tmp_path, golden):
    assert main(["run", "--config", str(CONFIG_DIR / name),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final"]["eta"] <= 1e-12
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == summary["iterations"] + 1
    for artifact in ("trace.csv", "summary.json"):
        golden(f"{Path(name).stem}/{artifact}", tmp_path / artifact)


@pytest.mark.parametrize("name, levels", [("synthetic_run", 3), ("risk_p2_run", 3),
                                         ("svi_run", 2)])
def test_merit_on_run_matches_its_pin(name, levels, tmp_path, golden):
    doc = json.loads((CONFIG_DIR / f"{name}.json").read_text(encoding="utf-8"))
    doc["run"]["iterations"] = 3000
    doc["diagnostics"] = dict(MERIT_DIAGNOSTICS, gammas=[1.0] * (levels - 1))
    assert main(["run", "--config", str(_write(tmp_path, doc)),
                 "--out", str(tmp_path / "out")]) == 0
    for artifact in ("trace.csv", "summary.json"):
        golden(f"{name}-merit/{artifact}", tmp_path / "out" / artifact)


_SPECIAL = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e-5]


def _trace_record(N, M, rng, tracking=True, exact=True, lyapunov=True):
    """A RunRecord of random floats salted with NaN, +-inf, signed zeros and extremes."""
    def col(*shape):
        a = rng.standard_normal((N,) + shape) * 10.0 ** rng.integers(-20, 20, (N,) + shape)
        salt = rng.random(a.shape) < 0.3
        a[salt] = rng.choice(_SPECIAL, size=int(salt.sum()))
        return a
    state = IterateState(N, np.zeros(2), np.zeros(2), tuple(np.zeros(1) for _ in range(M)))
    return RunRecord(iterations=N, tau=col(), d_sq=col(), eta=col(),
                     tracking=col(M) if tracking else None,
                     exact_residual=col(M) if exact else None,
                     lyapunov=col(2) if lyapunov else None,
                     final_state=state, seed=0, objective=col() if exact else None)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(N=st.integers(1, 40), M=st.integers(1, 4), chunk=st.integers(1, 9),
       parts=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_trace_matches_rowwise_writer(tmp_path_factory, N, M, chunk, parts, seed):
    # small chunks, so N = 1, N below, at and off a multiple of the chunk all occur
    rec = _trace_record(N, M, np.random.default_rng(seed), *parts)
    out = tmp_path_factory.mktemp("trace")
    default_chunk = nestopt.experiment._TRACE_CHUNK
    nestopt.experiment._TRACE_CHUNK = chunk
    try:
        write_trace_csv(rec, out / "new.csv")
    finally:
        nestopt.experiment._TRACE_CHUNK = default_chunk
    write_trace_csv_rowwise(rec, out / "old.csv")
    assert (out / "new.csv").read_bytes() == (out / "old.csv").read_bytes()


def test_streamed_trace_matches_rowwise_writer_across_default_chunks(tmp_path):
    N = 2 * nestopt.experiment._TRACE_CHUNK + 3
    rec = _trace_record(N, 3, np.random.default_rng(8))
    write_trace_csv(rec, tmp_path / "new.csv")
    write_trace_csv_rowwise(rec, tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def test_trace_csv_empty_cells_for_unsampled(tmp_path, smooth_problem, default_params):
    from nestopt import run as solver_run
    from nestopt.diagnostics import DiagnosticsConfig

    rec = solver_run(smooth_problem, default_params, 12,
                     diagnostics=DiagnosticsConfig(track_every=1, exact_every=5))
    path = tmp_path / "trace.csv"
    write_trace_csv(rec, path)
    rows = path.read_text().splitlines()
    header = rows[0].split(",")
    vres_1 = header.index("vres_1")
    assert rows[1].split(",")[vres_1] != ""   # k=0 sampled
    assert rows[2].split(",")[vres_1] == ""   # k=1 not sampled
