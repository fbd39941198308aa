"""Experiment harness: JSON configs, reproducible runs, CSV/JSON artifacts.

One config file describes one experiment.  All randomness derives from the
master seed through per-(replication, level) counter streams, so replications
can run on a process pool and still produce byte-identical artifacts in any
pool size, including sequential execution.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import CONFIG, SCHEMA_VERSION, read
from .diagnostics import (DiagnosticsConfig, RunRecord, fit_rate,
                          objective_tail_oscillation, optimality_measure)
from .errors import ConfigError
from .model import AlgorithmParams, Constant, Custom, InitPolicy
from .problems import make_problem
from .sets import gap as set_gap
from .solver import run


# ---------------------------------------------------------------------------
# config parsing

@dataclass
class ExperimentConfig:
    """Parsed experiment description (see README for the schema)."""

    raw: dict
    problem_spec: dict
    algorithm: AlgorithmParams
    iterations: int | None
    init_policy: InitPolicy
    init_x: np.ndarray | None
    diagnostics: DiagnosticsConfig
    rate: dict | None
    output_dir: str


def parse_config(doc: dict) -> ExperimentConfig:
    cfg = read(doc, CONFIG)
    (init_policy, init_x), iterations = cfg["run"]["init"], cfg["run"]["iterations"]
    schedule = cfg["algorithm"].schedule
    if iterations is not None and isinstance(schedule, Custom) and len(schedule.taus) < iterations:
        raise ConfigError("algorithm.schedule.taus", f"has {len(schedule.taus)} entries, "
                                                     f"need run.iterations = {iterations}")
    return ExperimentConfig(doc, doc["problem"], cfg["algorithm"], iterations, init_policy,
                            init_x, cfg["diagnostics"], cfg["rate_experiment"], cfg["output_dir"])


def check_diagnostics(diagnostics: DiagnosticsConfig, problem) -> None:
    """ConfigError unless ``problem`` can record what ``diagnostics`` asks for."""
    if diagnostics.lyapunov_every and problem.exact is None:
        raise ConfigError("diagnostics.lyapunov_every",
                          "the merit pair needs exact evaluators, which this problem "
                          "does not carry")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise ConfigError("config", str(exc)) from exc
    return parse_config(doc)


# ---------------------------------------------------------------------------
# artifact writers

_TRACE_CHUNK = 1024  # rows formatted and written at a time


def _cells(col: np.ndarray) -> list[str]:
    """repr of each float, '' for NaN."""
    return [repr(v) if v == v else "" for v in col.tolist()]


def write_trace_csv(record: RunRecord, path) -> None:
    """One row per iteration; unsampled diagnostic cells are left empty."""
    M = record.n_levels
    cols = ["k", "tau", "d_sq", "eta"]
    cols += [f"t_{m}" for m in range(1, M + 1)]
    cols += [f"vres_{m}" for m in range(1, M + 1)]
    cols += ["objective"]
    # one float column per csv column after k; None is a column of empty cells
    data = [record.tau, record.d_sq, record.eta]
    for table in (record.tracking, record.exact_residual):
        data += [None] * M if table is None else list(table.T)
    data.append(record.objective)
    if record.lyapunov is not None:
        cols += ["W", "W_smooth"]
        data += list(record.lyapunov.T)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for start in range(0, record.iterations, _TRACE_CHUNK):
            stop = min(start + _TRACE_CHUNK, record.iterations)
            cells = [[str(k) for k in range(start, stop)]]
            cells += [[""] * (stop - start) if col is None else _cells(col[start:stop])
                      for col in data]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _json_dump(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def summarize_run(record: RunRecord, problem, params: AlgorithmParams) -> dict:
    """Summary payload for one run: final-state measures plus run maxima."""
    state = record.final_state
    final_eta = set_gap(problem.feasible_set, state.x, state.z, params.rho)
    summary = {
        "iterations": record.iterations,
        "seed": record.seed,
        "replication": record.replication,
        "final": {
            "x": [float(v) for v in state.x],
            "eta": final_eta,
            "z_norm": float(np.linalg.norm(state.z)),
        },
        "max_norms": {"z": record.max_z_norm, "u": record.max_u_norm},
        "clamp_events": record.clamp_events,
    }
    if problem.exact is not None:
        vals = problem.exact.nested(state.x)
        summary["final"]["objective"] = float(np.squeeze(vals[0]))
        summary["final"]["exact_residuals"] = [
            float(np.linalg.norm(vals[m] - state.u[m])) for m in range(problem.M)
        ]
        if problem.exact.x_star is not None:
            summary["final"]["distance_to_solution"] = float(
                np.linalg.norm(state.x - problem.exact.x_star))
    if record.tracking is not None:
        summary["mean_squared_measure"] = float(
            np.nanmean(optimality_measure(record)))
    if record.objective is not None:
        osc = objective_tail_oscillation(record)
        summary["objective_tail"] = None if osc is None else {
            "points": osc.tail_points,
            "oscillation": osc.oscillation,
            "mean": osc.mean,
            "last": osc.last,
        }
    return summary


# ---------------------------------------------------------------------------
# commands

def _effective_config(raw: dict, seed: int) -> dict:
    """Config echo with any seed override folded in."""
    echo = json.loads(json.dumps(raw))
    echo.setdefault("algorithm", {})["seed"] = seed
    return echo


def run_single(cfg: ExperimentConfig, problem, out_dir) -> dict:
    """Run the problem built from cfg.problem_spec; write trace.csv + summary.json."""
    if cfg.iterations is None:
        raise ConfigError("run.iterations", "missing required field")
    params = cfg.algorithm
    record = run(problem, params, cfg.iterations, diagnostics=cfg.diagnostics,
                 init_x=cfg.init_x, init_policy=cfg.init_policy)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_trace_csv(record, out / "trace.csv")
    summary = summarize_run(record, problem, params)
    summary["schema_version"] = SCHEMA_VERSION
    summary["config"] = _effective_config(cfg.raw, params.seed)
    _json_dump(summary, out / "summary.json")
    return summary


def _replication_task(payload: dict) -> dict:
    """Run one replication of a constant-stepsize horizon (pool worker).

    Without exact evaluators the squared measure degrades to the step norm
    ||d||^2 alone (tracking errors need ground truth).
    """
    problem = make_problem(payload["problem"])
    check_diagnostics(payload["diagnostics"], problem)
    record = run(problem, payload["params"], payload["iterations"],
                 diagnostics=DiagnosticsConfig(track_every=1, exact_every=0),
                 init_x=payload["init_x"], init_policy=payload["init_policy"],
                 replication=payload["replication"])
    if record.tracking is None:
        measure = float(np.nanmean(record.d_sq))
    else:
        measure = float(np.nanmean(optimality_measure(record)))
    result = {
        "replication": payload["replication"],
        "measure": measure,
        "max_z_norm": record.max_z_norm,
        "max_u_norm": record.max_u_norm,
        "clamp_events": record.clamp_events,
    }
    if record.tracking is not None:
        result["tracking_mean_sq"] = [
            float(np.nanmean(record.tracking[:, m] ** 2)) for m in range(problem.M)
        ]
    return result


def rate_experiment(cfg: ExperimentConfig, out_dir, threads: int = 1) -> dict:
    """Constant-stepsize sweep tau = theta / sqrt(N) over the config horizons.

    Runs the configured number of replications per horizon (optionally on a
    process pool of at most one worker per replication; results are merged
    in replication order so the artifact does not depend on the pool size)
    and writes rate.json with the mean squared measure per horizon and the
    fitted log-log slope.
    """
    if cfg.rate is None:
        raise ConfigError("rate_experiment", "missing required section")
    seed = cfg.algorithm.seed
    theta = cfg.rate["theta"]
    horizons = cfg.rate["horizons"]
    reps = cfg.rate["replications"]
    payloads = [{"problem": cfg.problem_spec, "iterations": n_iter, "replication": r,
                 "params": replace(cfg.algorithm, schedule=Constant(theta / math.sqrt(n_iter))),
                 "init_x": cfg.init_x, "init_policy": cfg.init_policy,
                 "diagnostics": cfg.diagnostics}
                for n_iter in horizons for r in range(reps)]
    # the pool forks all its workers at once, so never more than there are tasks
    workers = min(threads, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replication_task, payloads))
    else:
        results = [_replication_task(p) for p in payloads]

    entries = []
    points = []
    idx = 0
    for n_iter in horizons:
        batch = results[idx:idx + reps]
        idx += reps
        measures = [b["measure"] for b in batch]
        mean_measure = float(np.mean(measures))
        entry = {
            "iterations": n_iter,
            "tau": theta / math.sqrt(n_iter),
            "mean_squared_measure": mean_measure,
            "replication_measures": measures,
            "max_z_norm": max(b["max_z_norm"] for b in batch),
            "max_u_norm": max(b["max_u_norm"] for b in batch),
            "clamp_events": sum(b["clamp_events"] for b in batch),
        }
        if "tracking_mean_sq" in batch[0]:
            per_level = np.array([b["tracking_mean_sq"] for b in batch])
            entry["tracking_mean_sq"] = [float(v) for v in per_level.mean(axis=0)]
        entries.append(entry)
        points.append((n_iter, mean_measure))

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "rate_experiment",
        "seed": seed,
        "theta": theta,
        "replications": reps,
        "entries": entries,
        "config": _effective_config(cfg.raw, seed),
    }
    try:
        payload["slope"] = fit_rate(points)
    except ValueError as exc:
        payload["slope"] = None
        payload["slope_note"] = str(exc)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _json_dump(payload, out / "rate.json")
    return payload
