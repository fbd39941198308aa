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

import nestopt.experiment
from nestopt.cli import main
from nestopt.config import CONFIG, SCHEDULES, Variants, read
from nestopt.diagnostics import RunRecord
from nestopt.errors import ConfigError
from nestopt.experiment import load_config, parse_config, rate_experiment, write_trace_csv
from nestopt.model import IterateState

from helpers import write_trace_csv_rowwise

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
        proc = subprocess.run([sys.executable, "-m", "nestopt.cli", command,
                               "--config", str(config_path), "--out", str(tmp_path / "out"),
                               *args], capture_output=True, text=True, env=env)
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
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
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
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
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
        code = main([command, "--config", str(config_path), "--out", str(tmp_path / "out")])
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
    pytest.param(["run", "--config", "c.json", "--threads", "x"], "--threads",
                 id="threads-text"),
    pytest.param(["validate", "--config", "c.json", "--verbose"], "--verbose",
                 id="unknown-flag"),
])
def test_usage_errors_exit_one_naming_argument(capsys, argv, named):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: nestopt"), err
    assert named in err, err


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
def test_runtime_failure_exit_two(tmp_path, capsys):
    doc = _base_config()
    doc["problem"]["noise"]["value_sd"] = 1e200  # squared norms overflow in iteration 0
    code = main(["run", "--config", str(_write(tmp_path, doc)), "--out", str(tmp_path / "out")])
    assert code == 2
    assert "runtime error: non-finite z at iteration 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy warns of the overflow
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


def test_rate_experiment_pool_capped_at_task_count(tmp_path, monkeypatch):
    # a pool forks all its workers up front; this one records its size and
    # maps in-process, so the test starts no process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(nestopt.experiment, "ProcessPoolExecutor", InProcessPool)
    cfg_path = _write(tmp_path, _rate_config())
    for threads in ("1", "5000", "4"):
        assert main(["rate-experiment", "--config", str(cfg_path),
                     "--out", str(tmp_path / threads), "--threads", threads]) == 0
    assert sizes == [9, 4]  # 3 horizons x 3 replications; none for --threads 1
    assert (tmp_path / "5000" / "rate.json").read_bytes() == \
        (tmp_path / "1" / "rate.json").read_bytes()


# ---------------------------------------------------------------------------
# shipped configs

@pytest.mark.parametrize("name", ["synthetic_run.json", "synthetic_rate.json",
                                  "risk_p1_run.json", "risk_p2_run.json",
                                  "svi_run.json"])
def test_shipped_configs_validate(name):
    assert main(["validate", "--config", str(CONFIG_DIR / name)]) == 0


@pytest.mark.parametrize("name", ["synthetic_run.json", "risk_p1_run.json",
                                  "risk_p2_run.json", "svi_run.json"])
def test_shipped_run_configs_execute(name, tmp_path):
    assert main(["run", "--config", str(CONFIG_DIR / name),
                 "--out", str(tmp_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final"]["eta"] <= 1e-12
    lines = (tmp_path / "trace.csv").read_text().splitlines()
    assert len(lines) == summary["iterations"] + 1


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
