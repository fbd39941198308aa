"""Independent reference computations and test-only drivers shared by the tests.

None of these is on the solver's path: they recompute quantities the
package produces (Jacobians, composed gradients, optimality certificates,
merit values, random-iterate measures) by other means, so the tests can
compare the two, or drive the method one iteration at a time.  The norm
bounds of the boundedness guard are computed here from the problems' fields.
"""

from __future__ import annotations

import copy
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from nestopt.diagnostics import DiagnosticsConfig, RunRecord, optimality_measure
from nestopt.errors import CompoptError, ProjectionError
from nestopt.model import (AlgorithmParams, CompositionProblem, IterateState, init_state,
                           next_stepsize)
from nestopt.oracles import LevelOracle, NoisyOracle, OracleSample, level_streams
from nestopt.problems import FiniteScenarios
from nestopt.problems.risk import MeanLossLevel, UpperSemidevLevel
from nestopt.problems.svi import NegatedMeanMapLevel, RegularizedGapLevel
from nestopt.problems.synthetic import LinearBottomLevel, LinearLevel, QuadraticTopLevel
from nestopt.sets import Ball, Box, FeasibleSet, Simplex, gap
from nestopt.solver import _advance, assemble_subgradient


class InsufficientReplicationsError(CompoptError):
    """A replication-averaged diagnostic was asked for with too few replications."""


class DeterministicOracle(LevelOracle):
    """Wraps an exact value/Jacobian callable as a (noise-free) oracle."""

    def __init__(self, value_jac):
        self._value_jac = value_jac

    def sample(self, x, u_next, rng, k=0):
        value, jac_x, jac_u = self._value_jac(x, u_next)
        return OracleSample(value, jac_x, jac_u)


class StepTrace(NamedTuple):
    """What one step computed: subproblem solution, direction, subgradient, samples."""

    y: np.ndarray
    d: np.ndarray
    g1: np.ndarray
    samples: tuple[OracleSample, ...]


def step(state: IterateState, problem: CompositionProblem, params: AlgorithmParams,
         streams: Sequence[np.random.Generator]) -> tuple[IterateState, StepTrace]:
    """One iteration of the method from ``state``, through run's own body."""
    tau = next_stepsize(params.schedule, state.k, params.a, params.b)
    d, _, samples, x, z, u, _, _ = _advance(
        problem, params, state.x, state.z, state.u, tau, streams, state.k)
    y = problem.feasible_set.project(state.x - state.z / params.rho)
    return (IterateState(state.k + 1, x, z, tuple(u)),
            StepTrace(y, d, assemble_subgradient(samples)[0], tuple(samples)))


def default_gammas(problem: CompositionProblem, params: AlgorithmParams,
                   calibration_iters: int = 200) -> tuple[float, ...]:
    """Merit weights a * Lhat^(m-1) + 1 from a short calibration run.

    Lhat is the largest u-block Jacobian norm observed while sampling along
    a short trajectory; the growth in m mirrors how inner residuals
    propagate through the chain rule.
    """
    M = problem.M
    if M == 1:
        return ()
    streams = level_streams(params.seed, M)
    state = init_state(problem, params, streams=streams)
    max_jusq = 0.0
    for _ in range(max(2, calibration_iters)):
        state, trace = step(state, problem, params, streams)
        for s in trace.samples[:-1]:
            max_jusq = max(max_jusq, float(np.sum(s.jac_u * s.jac_u)))
    lhat = max(math.sqrt(max_jusq), 1.0)
    return tuple(params.a * lhat ** (m - 1) + 1.0 for m in range(2, M + 1))


def merit_reference(problem: CompositionProblem, state: IterateState, a: float, rho: float,
                    gammas: Sequence[float]) -> tuple[float, float]:
    """(W, W_smooth) at the state, from value_jac.

    W = a f_1(x, u_2) - eta + sum gamma_m r_m and W_smooth = a V_1(x) - eta
    + sum gamma_m r_m^2, with r_m = ||f_m(x, u_{m+1}) - u_m|| for m = 2..M
    and V_1 folded bottom-up.
    """
    x, z, u = state.x, state.z, state.u
    M = problem.M

    def level(m, u_next):
        return problem.exact.value_jac(m, x, u_next)[0]

    res = [level(m, u[m] if m < M else None) - u[m - 1] for m in range(2, M + 1)]
    v = None
    for m in range(M, 0, -1):
        v = level(m, v)
    eta = gap(problem.feasible_set, x, z, rho)
    w = a * float(level(1, u[1] if M > 1 else None)[0]) - eta
    w_smooth = a * float(v[0]) - eta
    for g, r in zip(gammas, (math.sqrt(float(r @ r)) for r in res)):
        w += g * r
        w_smooth += g * r * r
    return w, w_smooth


def run_rowwise(problem: CompositionProblem, params: AlgorithmParams, iterations: int,
                diagnostics: DiagnosticsConfig) -> RunRecord:
    """What solver.run records, with every diagnostic cell evaluated at its own row.

    Drives the method through solver._advance from run's initial state, and
    before iteration k evaluates the cells of row k one at a time from
    value_jac: tracking errors, the fully nested objective and residuals
    (bottom-up fold), and merit_reference for (W, W_smooth).
    """
    N, M, exact, diag = iterations, problem.M, problem.exact, diagnostics
    taus = [next_stepsize(params.schedule, k, params.a, params.b) for k in range(N)]
    streams = level_streams(params.seed, M)
    state = init_state(problem, params, streams=streams)

    def table(every, cols):
        return np.full((N, cols), np.nan) if every else None
    track, vres = table(diag.track_every, M), table(diag.exact_every, M)
    lyap = table(diag.lyapunov_every, 2)
    obj = np.full(N, np.nan) if diag.exact_every else None
    exact_start = max(0, N - diag.exact_window) if diag.exact_window else 0
    d_sq, eta = np.empty(N), np.empty(N)
    x, z, u = state.x, state.z, state.u
    max_zsq, max_usq = float(z @ z), max(float(v @ v) for v in u)
    clamps = 0

    def level(m, u_next):
        return exact.value_jac(m, x, u_next)[0]

    for k in range(N):
        if track is not None and k % diag.track_every == 0:
            for m in range(1, M + 1):
                r = level(m, u[m] if m < M else None) - u[m - 1]
                track[k, m - 1] = math.sqrt(float(r @ r))
        if vres is not None and k >= exact_start and k % diag.exact_every == 0:
            vals, v = [None] * M, None
            for m in range(M, 0, -1):
                v = vals[m - 1] = level(m, v)
            obj[k] = float(vals[0][0])
            for m in range(M):
                r = vals[m] - u[m]
                vres[k, m] = math.sqrt(float(r @ r))
        if lyap is not None and k % diag.lyapunov_every == 0:
            lyap[k] = merit_reference(problem, IterateState(k, x, z, tuple(u)), params.a,
                                      params.rho, diag.gammas)
        d, d_sq[k], samples, x, z_new, u, zsq, usq = _advance(
            problem, params, x, z, u, taus[k], streams, k)
        eta[k] = float(z @ d) + 0.5 * params.rho * d_sq[k]
        z = z_new
        max_zsq, max_usq = max(max_zsq, zsq), max(max_usq, usq)
        clamps += sum(s.clamped for s in samples)
    return RunRecord(iterations=N, tau=np.array(taus), d_sq=d_sq, eta=eta, tracking=track,
                     exact_residual=vres, lyapunov=lyap,
                     final_state=IterateState(N, x, z, tuple(u)), seed=params.seed,
                     objective=obj, max_z_norm=math.sqrt(max_zsq),
                     max_u_norm=math.sqrt(max_usq), clamp_events=clamps)


def random_point(fs: FeasibleSet, rng: np.random.Generator) -> np.ndarray:
    """A random feasible point, almost surely not a vertex of the set.

    Box: uniform.  Ball: uniform (gaussian direction, radius ~ U^(1/dim)).
    Simplex: Dirichlet(1).  Any other set: a random fraction of the way from
    its anchor to the projection of a gaussian perturbation of it.
    """
    if isinstance(fs, Box):
        return fs.lo + (fs.hi - fs.lo) * rng.random(fs.dim)
    if isinstance(fs, Ball):
        g = rng.standard_normal(fs.dim)
        g /= max(np.linalg.norm(g), 1e-300)
        return fs.center + fs.radius * rng.random() ** (1.0 / fs.dim) * g
    if isinstance(fs, Simplex):
        return fs.scale * rng.dirichlet(np.ones(fs.dim))
    p = fs.project(fs.anchor() + rng.standard_normal(fs.dim))
    return fs.anchor() + rng.uniform(0.05, 0.95) * (p - fs.anchor())


def set_norm_bounds(fs: FeasibleSet) -> tuple[float, float]:
    """(max ||y||, max ||y - y'||) over a Box or a Simplex; vertices attain both."""
    if isinstance(fs, Box):
        return (float(np.linalg.norm(np.maximum(np.abs(fs.lo), np.abs(fs.hi)))),
                float(np.linalg.norm(fs.hi - fs.lo)))
    if isinstance(fs, Simplex):
        return fs.scale, float(fs.scale * np.sqrt(2.0))
    raise TypeError(f"no norm bounds for a {type(fs).__name__}")


class NormBounds(NamedTuple):
    value: list[float]               # value[m-1] >= ||f_m(x, V_{m+1}(x))||
    jac: list[tuple[float, float]]   # jac[m-1] >= (||x-block||, ||u-block||), Frobenius
    diameter: float                  # of the feasible set


def norm_bounds(problem: CompositionProblem) -> NormBounds:
    """Per-level norm bounds over the feasible set, at exact nested arguments.

    Folded innermost first: a level's bound takes the value bound ``v`` of
    the level below as the bound on its inner argument.  Covers the levels
    of synthetic_smooth with M >= 2 and of svi (noisy or not) on a Box, and
    of risk_p1 on a Simplex; any other level or set is a TypeError.
    """
    sup, diam = set_norm_bounds(problem.feasible_set)
    value, jac, v = [], [], 0.0

    def norm(a):
        return float(np.linalg.norm(a))

    for oracle in reversed(problem.oracles):
        o = oracle.base if isinstance(oracle, NoisyOracle) else oracle
        if isinstance(o, (LinearLevel, LinearBottomLevel)):
            nr = norm(o.R) if isinstance(o, LinearLevel) else 0.0
            v, j = norm(o.Q) * sup + nr * v + norm(o.c), (norm(o.Q), nr)
        elif isinstance(o, QuadraticTopLevel):
            bx, bu = sup + norm(o.x_hat), v + norm(o.u_hat)
            v, j = 0.5 * bx**2 + 0.5 * bu**2, (bx, bu)
        elif isinstance(o, (MeanLossLevel, UpperSemidevLevel)):
            bg = float(np.max(np.linalg.norm(o.scen.coef, axis=1)))
            bh = bg * sup + float(np.max(np.abs(o.scen.offset)))
            kappa = getattr(o, "kappa", 0.0)  # the mean loss is the kappa = 0 case
            v, j = bh * (1.0 + 2.0 * kappa), ((1.0 + kappa) * bg, kappa)
        elif isinstance(o, NegatedMeanMapLevel):
            v, j = norm(o.neg_A) * sup + norm(o.neg_b), (norm(o.neg_A), 0.0)
        elif isinstance(o, RegularizedGapLevel):
            v, j = v * diam + 0.5 * o.r * diam**2, (v + o.r * diam, diam)
        else:
            raise TypeError(f"no norm bounds for a {type(o).__name__} level")
        value.append(v)
        jac.append(j)
    return NormBounds(value[::-1], jac[::-1], diam)


def contains(fs: FeasibleSet, v: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether ``v`` is within ``tol`` of its own projection."""
    v = np.asarray(v, dtype=float)
    return float(np.linalg.norm(fs.project(v) - v)) <= tol


def solve_subproblem(feasible_set: FeasibleSet, x: np.ndarray, z: np.ndarray,
                     rho: float) -> np.ndarray:
    """Minimizer of <z, y-x> + (rho/2)||y-x||^2 over the set.

    Equals the projection of ``x - z/rho``; homogeneous in (z, rho) jointly.
    """
    return feasible_set.project(x - z / rho)


def scenarios_to_csv(scen: FiniteScenarios, path) -> None:
    data = np.column_stack([scen.weights, scen.coef, scen.offset])
    np.savetxt(path, data, delimiter=",")


def mean_semideviation(scen: FiniteScenarios, x: np.ndarray, kappa: float,
                       p: int, epsilon: float = 0.0) -> float:
    """Risk functional computed directly on the scenario set.

    Independent of the nested-composition code path; used to cross-check
    that the composition reproduces the risk measure.
    """
    losses, _ = scen.all_losses(x)
    mean = float(scen.weights @ losses)
    dev = np.maximum(losses - mean, 0.0)
    if p == 1:
        return mean + kappa * float(scen.weights @ dev)
    return mean + kappa * math.sqrt(epsilon + float(scen.weights @ dev**2))


def finite_difference_reference(f, x: np.ndarray, u_next: np.ndarray | None = None,
                                step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian of an exact level evaluator.

    ``f(x, u_next)`` must return the level value as a 1-D array (or scalar).
    Returns the full Jacobian with the x-block first, then the u-block, so
    its shape matches [jac_x, jac_u] side by side.  Entrywise error is O(step^2) for
    three times differentiable levels.
    """
    x = np.asarray(x, dtype=float)

    def eval_at(xv, uv):
        return np.atleast_1d(np.asarray(f(xv, uv), dtype=float))

    base = eval_at(x, u_next)
    n = x.size
    du = 0 if u_next is None else np.asarray(u_next).size
    jac = np.empty((base.size, n + du))
    for j in range(n):
        e = np.zeros(n)
        e[j] = step
        jac[:, j] = (eval_at(x + e, u_next) - eval_at(x - e, u_next)) / (2 * step)
    if du:
        u = np.asarray(u_next, dtype=float)
        for j in range(du):
            e = np.zeros(du)
            e[j] = step
            jac[:, n + j] = (eval_at(x, u + e) - eval_at(x, u - e)) / (2 * step)
    return jac


def exact_composed_gradient(problem, x: np.ndarray) -> np.ndarray:
    """Chain-rule gradient of the composed objective at exact inner values.

    Evaluates each level at the true nested value of its inner argument and
    folds the exact Jacobians; rows correspond to top-level outputs.
    """
    exact = problem.exact
    M = problem.M
    vals = exact.nested(x)
    samples = []
    for m in range(1, M + 1):
        u_next = vals[m] if m < M else None
        v, jx, ju = exact.value_jac(m, x, u_next)
        samples.append(OracleSample(np.atleast_1d(v), np.atleast_2d(jx),
                                    None if ju is None else np.atleast_2d(ju)))
    return assemble_subgradient(samples)


def dykstra_projection(A: np.ndarray, b: np.ndarray, v: np.ndarray, tol: float = 1e-12,
                       max_sweeps: int = 10_000) -> np.ndarray:
    """Euclidean projection onto {A y <= b} by Dykstra's algorithm.

    Alternating projections onto the individual halfspaces, each with its
    own correction term, converge to the exact projection for polyhedra;
    the sweep loop stops when the iterate moves less than ``tol``
    (sup-norm) in a full sweep.  Slow but independent of Polytope.project.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    row_sq = np.einsum("ij,ij->i", A, A)
    v = np.asarray(v, dtype=float)
    m = A.shape[0]
    y = v.copy()
    corr = np.zeros((m, A.shape[1]))
    for _ in range(max_sweeps):
        delta = 0.0
        for i in range(m):
            w = y + corr[i]
            viol = float(A[i] @ w - b[i])
            if viol > 0.0:
                y_new = w - (viol / row_sq[i]) * A[i]
            else:
                y_new = w
            corr[i] = w - y_new
            delta = max(delta, float(np.max(np.abs(y_new - y))))
            y = y_new
        if delta <= tol:
            return y
    raise ProjectionError(
        f"Dykstra projection did not converge in {max_sweeps} sweeps"
    )


def same_bits(a, b) -> bool:
    """Equal dtype, shape and bytes: also tells -0.0 from 0.0 and NaN payloads apart."""
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def simplex_projection_reference(v: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """Projection onto {y >= 0, sum(y) = scale} by array sort-and-threshold.

    The vectorised form Simplex.project used before it moved to Python
    floats: sort descending, cumulative sums, last index whose entry exceeds
    its candidate threshold.  IndexError when no index qualifies.
    """
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = (np.cumsum(u) - scale) / np.arange(1, v.size + 1)
    k = np.nonzero(u > css)[0][-1]
    return np.maximum(v - css[k], 0.0)


def write_trace_csv_rowwise(record: RunRecord, path) -> None:
    """trace.csv built one row at a time, as write_trace_csv did before streaming."""
    def fmt(v: float) -> str:
        return "" if math.isnan(v) else repr(float(v))

    M = record.n_levels
    cols = ["k", "tau", "d_sq", "eta"]
    cols += [f"t_{m}" for m in range(1, M + 1)]
    cols += [f"vres_{m}" for m in range(1, M + 1)]
    cols += ["objective"]
    if record.lyapunov is not None:
        cols += ["W", "W_smooth"]
    lines = [",".join(cols)]
    track, vres = record.tracking, record.exact_residual
    obj, lyap = record.objective, record.lyapunov
    nan_row = [""] * M
    for k in range(record.iterations):
        row = [str(k), fmt(record.tau[k]), fmt(record.d_sq[k]), fmt(record.eta[k])]
        row += [fmt(v) for v in track[k]] if track is not None else nan_row
        row += [fmt(v) for v in vres[k]] if vres is not None else nan_row
        row.append(fmt(obj[k]) if obj is not None else "")
        if lyap is not None:
            row += [fmt(lyap[k, 0]), fmt(lyap[k, 1])]
        lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def optimality_residual(z: np.ndarray, d: np.ndarray, rho: float) -> float:
    """<z, d> + rho||d||^2, nonpositive at the exact subproblem solution."""
    return float(z @ d) + rho * float(d @ d)


def is_stationary(eta: float, z: np.ndarray, tol: float = 1e-8) -> bool:
    """Gap-based stationarity test with relative scaling in ||z||."""
    return eta >= -tol * (1.0 + float(np.linalg.norm(z)))


@dataclass(frozen=True)
class RandomIterateMeasure:
    index: int
    value: float
    mean: float


def random_iterate_measure(record: RunRecord, rng: np.random.Generator) -> RandomIterateMeasure:
    """Measure at a uniformly drawn iteration, plus the run mean.

    The mean over all iterations is the quantity the finite-horizon bound
    actually controls; the random-index value is what a single estimate of
    it looks like.
    """
    series = optimality_measure(record)
    r = int(rng.integers(0, record.iterations))
    return RandomIterateMeasure(r, float(series[r]), float(np.nanmean(series)))


@dataclass(frozen=True)
class TrackingBoundReport:
    """Per-level empirical check of the 2/(b sqrt(N)) tracking-rate bound."""

    level: int
    horizons: tuple[int, ...]
    mean_sq: tuple[float, ...]       # replication average of mean_k t_m(k)^2
    init_sq: tuple[float, ...]       # replication average of t_m(0)^2
    c_emp: float                     # smallest C with mean_sq <= decay + C/sqrt(N)
    satisfied: bool
    non_increasing: bool


def tracking_error_bound_check(runs_by_horizon: Mapping[int, Sequence[RunRecord]],
                               b: float) -> list[TrackingBoundReport]:
    """Fit the constant in the per-level tracking-error rate bound.

    For each level m >= 2 and horizon N, computes the replication average
    of the run-mean squared tracking error, subtracts the decaying share
    2/(b sqrt(N)) of the initial error, and reports the smallest constant
    C_emp that makes the residual <= C_emp / sqrt(N) across all horizons.
    Requires constant-stepsize runs with at least 10 replications each.
    """
    horizons = sorted(runs_by_horizon)
    if not horizons:
        raise ValueError("no runs supplied")
    for n in horizons:
        if len(runs_by_horizon[n]) < 10:
            raise InsufficientReplicationsError(
                f"horizon {n} has {len(runs_by_horizon[n])} replications, need >= 10"
            )
    first = runs_by_horizon[horizons[0]][0]
    M = first.n_levels
    reports = []
    for m in range(2, M + 1):
        col = m - 1
        mean_sq, init_sq = [], []
        for n in horizons:
            recs = runs_by_horizon[n]
            per_rep = [float(np.nanmean(r.tracking[:, col] ** 2)) for r in recs]
            per_init = [float(r.tracking[0, col] ** 2) for r in recs]
            mean_sq.append(float(np.mean(per_rep)))
            init_sq.append(float(np.mean(per_init)))
        resid = [ms - (2.0 / (b * np.sqrt(n))) * i0
                 for ms, i0, n in zip(mean_sq, init_sq, horizons)]
        c_emp = max(0.0, max(r * np.sqrt(n) for r, n in zip(resid, horizons)))
        non_inc = all(mean_sq[i + 1] <= mean_sq[i] * (1 + 1e-12)
                      for i in range(len(mean_sq) - 1))
        reports.append(TrackingBoundReport(
            level=m, horizons=tuple(horizons), mean_sq=tuple(mean_sq),
            init_sq=tuple(init_sq), c_emp=float(c_emp),
            satisfied=bool(np.isfinite(c_emp)), non_increasing=non_inc,
        ))
    return reports


# what one leaf of a config becomes: null (as if left out), each other JSON kind, and
# numbers at the signs, edges and overflow points of the ranges
FUZZ_VALUES = (None, True, "x", [], {}, -1, 0, 0.5, 400, -400, 1e308, -1e308, 5e-324)


def _leaves(doc, path: tuple = ()):
    """The path of every scalar in a JSON document."""
    if not isinstance(doc, (dict, list)):
        yield path
        return
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield from _leaves(value, path + (key,))


def fuzz_configs(config_dir, work) -> list[str]:
    """Each call of ``nestopt.cli.main`` that did not end in exit 0, 1 or 2.

    Every single-leaf mutation (to each of FUZZ_VALUES) of every config in
    config_dir goes through validate, run and, for a config with a
    rate_experiment section, rate-experiment --threads 1, all in process.
    Runs are cut to 10 iterations, enough for (k+1)^400 to overflow, and rate
    experiments to horizons 1, 2, 3 of one replication, unless the mutated
    leaf is one of those.
    """
    from nestopt.cli import main

    work = Path(work)
    config, out = work / "config.json", str(work / "out")
    failures = []
    for path in sorted(Path(config_dir).glob("*.json")):
        base = json.loads(path.read_text(encoding="utf-8"))
        base.setdefault("run", {})["iterations"] = 10
        commands = ("validate", "run")
        if "rate_experiment" in base:  # without it, rate-experiment stops at the config read
            base["rate_experiment"].update(horizons=[1, 2, 3], replications=1)
            commands += ("rate-experiment",)
        for leaf in _leaves(base):
            for value in FUZZ_VALUES:
                doc = copy.deepcopy(base)
                node = doc
                for key in leaf[:-1]:
                    node = node[key]
                node[leaf[-1]] = value
                config.write_text(json.dumps(doc), encoding="utf-8")
                for command in commands:
                    err = io.StringIO()
                    try:
                        with redirect_stdout(io.StringIO()), redirect_stderr(err):
                            code = main([command, "--config", str(config), "--out", out,
                                         "--threads", "1"])
                    except Exception as exc:  # noqa: BLE001 - the traceback under test
                        code = f"{type(exc).__name__}: {exc}"
                    if code not in (0, 1, 2) or "Traceback" in err.getvalue():
                        failures.append(f"{path.name} {'.'.join(map(str, leaf))} = {value!r}, "
                                        f"{command}: {code}")
    return failures
