"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy fixtures are
shared across criteria (the convergence runs feed 3, 4 and 9; the rate
experiment feeds 5, 6 and 9).

Criteria that time their work print the wall time for information only: no
verdict depends on host speed or load.  Running time is tracked by the bench
script, not by this suite.
"""

import json
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog

from nestopt import (AlgorithmParams, Ball, Box, Diminishing, NoiseModel,
                     Polytope, Simplex, run)
from nestopt.cli import main
from nestopt.diagnostics import DiagnosticsConfig
from nestopt.problems import (random_scenarios, risk_p1, svi_problem,
                              synthetic_smooth)
from nestopt.sets import gap as set_gap
from nestopt.solver import assemble_subgradient

from conftest import noisy_norm_bounds
from helpers import random_point, solve_subproblem

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONVERGENCE_SEEDS = (101, 102, 103, 104, 105)
NOISE = NoiseModel(value_sd=0.1, jac_sd=0.1)


def _report(num: int, clauses: dict[str, bool], detail: str) -> None:
    """Print one PASS/FAIL line; on failure, name every clause that failed."""
    failed = [name for name, ok in clauses.items() if not ok]
    verdict = f"FAIL ({', '.join(failed)})" if failed else "PASS"
    print(f"\n[criterion {num:02d}] {verdict}: {detail}")
    assert not failed, f"criterion {num} failed on {', '.join(failed)}: {detail}"


# ---------------------------------------------------------------------------
# shared heavy fixtures

def _convergence_worker(seed: int) -> dict:
    problem = synthetic_smooth(noise=NOISE)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=seed)
    record = run(problem, params, 200_000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=1,
                                               exact_window=20_000))
    state = record.final_state
    tail = record.exact_residual[-20_000:]  # last 10% of iterations
    return {
        "seed": seed,
        "dist": float(np.linalg.norm(state.x - problem.exact.x_star)),
        "final_eta": float(set_gap(problem.feasible_set, state.x, state.z, 1.0)),
        "tail_max_mean_residual": float(np.max(np.mean(tail, axis=0))),
        "max_z_norm": record.max_z_norm,
        "max_u_norm": record.max_u_norm,
    }


@pytest.fixture(scope="module")
def convergence_results():
    t0 = time.perf_counter()
    with ProcessPoolExecutor(max_workers=2) as pool:
        results = list(pool.map(_convergence_worker, CONVERGENCE_SEEDS))
    elapsed = time.perf_counter() - t0
    return results, elapsed


@pytest.fixture(scope="module")
def rate_payload(tmp_path_factory):
    out = tmp_path_factory.mktemp("rate")
    t0 = time.perf_counter()
    code = main(["rate-experiment", "--config", str(CONFIG_DIR / "synthetic_rate.json"),
                 "--out", str(out), "--threads", "2"])
    elapsed = time.perf_counter() - t0
    assert code == 0
    payload = json.loads((out / "rate.json").read_text())
    return payload, elapsed, out / "rate.json"


@pytest.fixture(scope="module")
def risk_result():
    scen = random_scenarios(n=5, count=50, seed=7)
    problem = risk_p1(scen, kappa=0.5)  # simplex feasible set by default
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=11)
    t0 = time.perf_counter()
    record = run(problem, params, 100_000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    elapsed = time.perf_counter() - t0

    # independent oracle: LP formulation of the scenario problem
    # min <abar,x> + bbar + kappa * sum_i w_i t_i
    # s.t. t_i >= (a_i - abar) x + (b_i - bbar), t >= 0, x in simplex
    S, n = scen.count, scen.n
    w = scen.weights
    abar = w @ scen.coef
    bbar = float(w @ scen.offset)
    c = np.concatenate([abar, 0.5 * w])
    A_ub = np.hstack([scen.coef - abar, -np.eye(S)])
    b_ub = -(scen.offset - bbar)
    A_eq = np.hstack([np.ones((1, n)), np.zeros((1, S))])
    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=[1.0],
                  bounds=[(0, None)] * (n + S), method="highs")
    assert res.status == 0
    f_star = float(res.fun) + bbar
    f_final = float(problem.exact.nested(record.final_state.x)[0][0])
    return {"problem": problem, "record": record, "f_star": f_star,
            "f_final": f_final, "elapsed": elapsed}


@pytest.fixture(scope="module")
def svi_result():
    problem = svi_problem(n=5, instance_seed=3, skew_scale=0.5, noise_sd=0.1)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=21)
    t0 = time.perf_counter()
    record = run(problem, params, 200_000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    elapsed = time.perf_counter() - t0
    dist = float(np.linalg.norm(record.final_state.x - problem.exact.x_star))
    return {"problem": problem, "record": record, "dist": dist, "elapsed": elapsed}


# ---------------------------------------------------------------------------
# criteria

def test_criterion_01_chain_rule_matches_finite_differences():
    t0 = time.perf_counter()
    problem = synthetic_smooth(levels=3, n=10)  # deterministic oracles
    oracles = problem.oracles
    M = problem.M
    rng = np.random.default_rng(1)

    def nested_value(x):
        v = None
        for m in range(M, 0, -1):
            v = oracles[m - 1].sample(x, v, rng).value
        return float(v[0])

    worst = 0.0
    h = 1e-6
    for _ in range(100):
        x = random_point(problem.feasible_set, rng)
        samples = [None] * M
        v = None
        for m in range(M, 0, -1):
            samples[m - 1] = oracles[m - 1].sample(x, v, rng)
            v = samples[m - 1].value
        g = assemble_subgradient(samples)[0]
        fd = np.empty_like(g)
        for j in range(problem.n):
            e = np.zeros(problem.n)
            e[j] = h
            fd[j] = (nested_value(x + e) - nested_value(x - e)) / (2 * h)
        rel = float(np.max(np.abs(g - fd) / (np.abs(fd) + 1e-8)))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    _report(1, {"gradient error": worst <= 1e-5},
            f"max relative gradient error {worst:.2e} over 100 points "
            f"in {elapsed:.1f}s")


def test_criterion_02_gap_contract_over_all_set_types():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2)
    poly_rng = np.random.default_rng(3)
    A = np.vstack([np.eye(4), -np.eye(4), poly_rng.standard_normal((3, 4))])
    b = np.concatenate([np.ones(8), np.full(3, 2.0)])
    sets = [
        (Box(np.full(4, -1.0), np.full(4, 1.0)), 3000),
        (Ball(np.zeros(4), 1.5), 3000),
        (Simplex(4), 2500),
        (Polytope(A, b, np.zeros(4)), 1500),  # the slowest projection: an active-set solve
    ]
    rho = 1.0
    worst_eta, worst_resid = -np.inf, -np.inf
    for fs, draws in sets:
        for _ in range(draws):
            x = random_point(fs, rng)
            z = 2.0 * rng.standard_normal(fs.dim)
            y = solve_subproblem(fs, x, z, rho)
            d = y - x
            eta = float(z @ d) + 0.5 * rho * float(d @ d)
            resid = float(z @ d) + rho * float(d @ d)
            worst_eta = max(worst_eta, eta)
            worst_resid = max(worst_resid, resid)
    elapsed = time.perf_counter() - t0
    _report(2, {"gap": worst_eta <= 1e-12,
                "subproblem residual": worst_resid <= 1e-9},
            f"max gap {worst_eta:.2e}, max subproblem residual {worst_resid:.2e} "
            f"over 10^4 draws in {elapsed:.1f}s")


def test_criterion_03_convergence_with_diminishing_steps(convergence_results):
    results, elapsed = convergence_results
    worst_dist = max(r["dist"] for r in results)
    worst_eta = min(r["final_eta"] for r in results)
    _report(3, {"distance": worst_dist <= 0.05, "gap": worst_eta >= -1e-3},
            f"max final distance {worst_dist:.4f}, min final gap "
            f"{worst_eta:.2e} over {len(results)} seeds in {elapsed:.0f}s")


def test_criterion_04_tracking_convergence(convergence_results):
    results, _ = convergence_results
    worst = max(r["tail_max_mean_residual"] for r in results)
    _report(4, {"tracking residual": worst <= 0.05},
            f"max over seeds and levels of tail-averaged nested residual {worst:.4f}")


def test_criterion_05_rate_reproduction(rate_payload):
    payload, elapsed, _ = rate_payload
    slope = payload["slope"]
    _report(5, {"slope": -0.75 <= slope <= -0.25},
            f"log-log slope {slope:.3f} over horizons "
            f"{[e['iterations'] for e in payload['entries']]} in {elapsed:.0f}s")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_rate_json_matches_its_pin(threads, rate_payload, tmp_path, golden):
    # criterion 5's run is the one at --threads 2; --threads 1 is run here
    path = rate_payload[2]
    if threads == "1":
        assert main(["rate-experiment", "--config", str(CONFIG_DIR / "synthetic_rate.json"),
                     "--out", str(tmp_path), "--threads", "1"]) == 0
        path = tmp_path / "rate.json"
    golden(f"synthetic_rate/threads-{threads}/rate.json", path)


def test_criterion_06_per_level_tracking_rate(rate_payload):
    payload, _, _ = rate_payload
    per_level = np.array([e["tracking_mean_sq"] for e in payload["entries"]])
    # columns are levels; tracking error means must not increase with N
    non_increasing = bool(np.all(np.diff(per_level[:, 1:], axis=0) <= 1e-12))
    detail = "; ".join(
        f"level {m + 2}: " + " -> ".join(f"{v:.2e}" for v in per_level[:, m + 1])
        for m in range(per_level.shape[1] - 1))
    _report(6, {"non-increasing tracking error": non_increasing}, detail)


def test_criterion_07_risk_p1_reaches_lp_optimum(risk_result):
    rel = abs(risk_result["f_final"] - risk_result["f_star"]) / abs(risk_result["f_star"])
    _report(7, {"relative LP gap": rel <= 0.01},
            f"final risk {risk_result['f_final']:.6f} vs LP optimum "
            f"{risk_result['f_star']:.6f} (relative gap {rel:.2e}) "
            f"in {risk_result['elapsed']:.0f}s")


def test_criterion_08_svi_reaches_known_solution(svi_result):
    _report(8, {"distance": svi_result["dist"] <= 0.05},
            f"final distance to VI solution {svi_result['dist']:.4f} "
            f"in {svi_result['elapsed']:.0f}s")


def test_criterion_09_boundedness_guard(convergence_results, rate_payload,
                                        risk_result, svi_result):
    results, _ = convergence_results
    payload, _, _ = rate_payload
    synthetic = synthetic_smooth(noise=NOISE)
    z_bound, u_bound = noisy_norm_bounds(synthetic, sigma=0.1)
    checks = []
    for r in results:
        checks.append(r["max_z_norm"] <= z_bound and r["max_u_norm"] <= u_bound)
    for e in payload["entries"]:
        checks.append(e["max_z_norm"] <= z_bound and e["max_u_norm"] <= u_bound)
    rz, ru = noisy_norm_bounds(risk_result["problem"], sigma=0.0)
    checks.append(risk_result["record"].max_z_norm <= rz
                  and risk_result["record"].max_u_norm <= ru)
    sz, su = noisy_norm_bounds(svi_result["problem"], sigma=0.1)
    checks.append(svi_result["record"].max_z_norm <= sz
                  and svi_result["record"].max_u_norm <= su)
    # reaching this point means every run above finished finite (the solver
    # aborts on any NaN/Inf state)
    _report(9, {"norm bounds": all(checks)},
            f"{sum(checks)}/{len(checks)} runs within problem-derived norm bounds")


def test_criterion_10_byte_identical_artifacts(tmp_path):
    clauses = {}
    details = []
    for name in ("synthetic_run.json", "risk_p1_run.json"):
        a, b = tmp_path / f"a_{name}", tmp_path / f"b_{name}"
        for out in (a, b):
            assert main(["run", "--config", str(CONFIG_DIR / name),
                         "--out", str(out)]) == 0
        same = all((a / f).read_bytes() == (b / f).read_bytes()
                   for f in ("trace.csv", "summary.json"))
        clauses[f"{name} rerun identity"] = same
        details.append(f"{name}: {'identical' if same else 'DIFFERS'}")
    # pool size must not leak into the artifact
    rate_cfg = {
        "schema_version": 1,
        "problem": {"family": "synthetic_smooth", "levels": 2, "n": 4,
                    "inner_dim": 2, "noise": {"value_sd": 0.1, "jac_sd": 0.1}},
        "algorithm": {"a": 1.0, "b": 1.0, "rho": 1.0, "seed": 5,
                      "schedule": {"kind": "constant", "tau": 0.1}},
        "rate_experiment": {"horizons": [16, 160, 1600], "replications": 2},
    }
    cfg_path = tmp_path / "rate.json.cfg"
    cfg_path.write_text(json.dumps(rate_cfg), encoding="utf-8")
    r1, r8 = tmp_path / "threads1", tmp_path / "threads8"
    assert main(["rate-experiment", "--config", str(cfg_path),
                 "--out", str(r1), "--threads", "1"]) == 0
    assert main(["rate-experiment", "--config", str(cfg_path),
                 "--out", str(r8), "--threads", "8"]) == 0
    same = (r1 / "rate.json").read_bytes() == (r8 / "rate.json").read_bytes()
    clauses["rate.json thread-count identity"] = same
    details.append(f"rate.json threads 1 vs 8: {'identical' if same else 'DIFFERS'}")
    _report(10, clauses, "; ".join(details))
