"""The single time-scale projected stochastic subgradient method.

Each iteration solves the regularized linear subproblem at (x, z), moves x a
fraction tau along the solution direction, samples every level once at the
new point and the old trackers, folds the sampled Jacobians backward through
the chain rule, and then filters z and all trackers with gain a*tau (for z)
and b*tau (for the trackers) plus linear correction terms that account for
the movement of x and of the inner trackers.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .diagnostics import DiagnosticsConfig, RunRecord, lyapunov, tracking_errors
from .errors import (InvalidHorizonError, MissingExactEvaluatorsError,
                     NonFiniteIterateError, ProjectionError, SolverSetupError)
from .model import (AlgorithmParams, CompositionProblem, InitPolicy,
                    IterateState, init_state, next_stepsize)
from .oracles import OracleSample, level_streams


def assemble_subgradient(samples: Sequence[OracleSample]) -> np.ndarray:
    """Fold sampled Jacobians backward through the chain rule.

    samples[m-1] is level m's sample, innermost last.  Returns the composite
    subgradient estimate of the top level as a (d_1, n) row-block matrix;
    for a scalar objective that is a single row.
    """
    g = samples[-1].jac_x
    for s in samples[-2::-1]:
        g = s.jac_x + s.jac_u @ g
    return g


def update_z(z: np.ndarray, g1_row: np.ndarray, a: float, tau: float) -> np.ndarray:
    """Filtered subgradient average: convex combination with weight a*tau."""
    return z + (a * tau) * (g1_row - z)


def update_trackers(u: Sequence[np.ndarray], samples: Sequence[OracleSample],
                    dx: np.ndarray, b: float, tau: float) -> list[np.ndarray]:
    """Filtered tracker update, innermost level first.

    Each tracker gets a linear correction for the movement of x (and, for
    outer levels, the movement of the freshly updated inner tracker) plus a
    relaxation toward the sampled value with gain b*tau.  The backward order
    matters: level m consumes the already-updated tracker of level m+1.
    """
    M = len(u)
    out: list[np.ndarray] = [None] * M
    s = samples[M - 1]
    out[M - 1] = u[M - 1] + s.jac_x @ dx + (b * tau) * (s.value - u[M - 1])
    for m in range(M - 2, -1, -1):
        s = samples[m]
        out[m] = (u[m] + s.jac_x @ dx + s.jac_u @ (out[m + 1] - u[m + 1])
                  + (b * tau) * (s.value - u[m]))
    return out


def _advance(problem: CompositionProblem, params: AlgorithmParams, x: np.ndarray,
             z: np.ndarray, u: Sequence[np.ndarray], tau: float,
             streams: Sequence[np.random.Generator], k: int):
    """Iteration k from (x, z, u) with stepsize tau: the method's one body.

    Order: subproblem solve, decision update, sampling at the new point with
    the old trackers, chain-rule assembly, z update, tracker update.  The
    squared norms double as the finiteness guard (NaN propagates, an
    overflowing square counts as divergence): NonFiniteIterateError(k).
    Returns (y, d, ||d||^2, samples, g1, x', z', u', ||z'||^2, max_m ||u'_m||^2).
    """
    y = problem.feasible_set.project(x - z / params.rho)
    d = y - x
    dsq = float(d @ d)
    dx = tau * d
    x = x + dx
    samples = problem.sample_levels(x, u, streams, k)
    g1 = assemble_subgradient(samples)[0]
    z = update_z(z, g1, params.a, tau)
    u = update_trackers(u, samples, dx, params.b, tau)
    zsq = float(z @ z)
    chk = dsq + zsq
    usq = 0.0
    for arr in u:
        sq = float(arr @ arr)
        chk += sq
        if sq > usq:
            usq = sq
    if not math.isfinite(chk):
        raise NonFiniteIterateError(k)
    return y, d, dsq, samples, g1, x, z, u, zsq, usq


def run(problem: CompositionProblem, params: AlgorithmParams, iterations: int,
        diagnostics: DiagnosticsConfig | None = None,
        init_x: np.ndarray | None = None,
        init_policy: InitPolicy = InitPolicy.ONE_SAMPLE,
        replication: int = 0) -> RunRecord:
    """Run the method for a fixed horizon and record diagnostics.

    Row k of the record describes the state at the start of iteration k.
    With identical (problem, params, iterations, replication) the output is
    bit-identical across calls: all randomness flows from per-(replication,
    level) counter-derived streams of params.seed.
    """
    if not isinstance(iterations, int) or iterations < 1:
        raise InvalidHorizonError(f"iterations must be a positive integer, got {iterations}")
    if problem.level_dims[0] != 1:
        raise SolverSetupError("the solver needs a scalar top level (d_1 = 1)")
    diag = diagnostics if diagnostics is not None else DiagnosticsConfig()
    M = problem.M
    exact = problem.exact
    if exact is None:
        # tracking columns are on by default but need ground truth; drop them
        if diag.lyapunov_every:
            raise MissingExactEvaluatorsError("lyapunov recording needs exact evaluators")
        diag = DiagnosticsConfig(track_every=0, exact_every=0, lyapunov_every=0)

    N = iterations
    a, b, rho = params.a, params.b, params.rho
    # the whole schedule up front: a short Custom schedule fails before k = 0
    taus = [next_stepsize(params.schedule, k, a, b) for k in range(N)]

    streams = level_streams(params.seed, M, replication)
    state = init_state(problem, params, init_x, init_policy, streams=streams)

    rec_tau = np.array(taus)
    rec_dsq = np.empty(N)
    rec_eta = np.empty(N)
    rec_track = np.full((N, M), np.nan) if diag.track_every else None
    rec_exact = np.full((N, M), np.nan) if diag.exact_every else None
    rec_obj = np.full(N, np.nan) if diag.exact_every else None
    rec_lyap = np.full((N, 2), np.nan) if diag.lyapunov_every else None
    exact_start = max(0, N - diag.exact_window) if diag.exact_window else 0

    x, z, u = state.x, state.z, state.u
    max_zsq = float(z @ z)
    max_usq = max(float(arr @ arr) for arr in u)
    clamps = 0

    try:
        for k in range(N):
            if rec_track is not None and k % diag.track_every == 0:
                rec_track[k] = tracking_errors(exact, x, u)
            if rec_exact is not None and k >= exact_start and k % diag.exact_every == 0:
                vals = exact.nested(x)
                rec_obj[k] = float(vals[0][0])
                for m in range(M):
                    r = vals[m] - u[m]
                    rec_exact[k, m] = math.sqrt(float(r @ r))
            if rec_lyap is not None and k % diag.lyapunov_every == 0:
                rec_lyap[k] = lyapunov(problem, x, z, u, a, rho, diag.gammas)

            _, d, dsq, samples, _, x, z_new, u, zsq, usq = _advance(
                problem, params, x, z, u, taus[k], streams, k)
            rec_dsq[k] = dsq
            rec_eta[k] = float(z @ d) + 0.5 * rho * dsq
            z = z_new
            if zsq > max_zsq:
                max_zsq = zsq
            if usq > max_usq:
                max_usq = usq
            for s in samples:
                if s.clamped:
                    clamps += 1
    except ProjectionError as exc:
        raise ProjectionError(f"{exc} at iteration {k}") from exc

    final = IterateState(N, x, z, tuple(u))
    return RunRecord(
        iterations=N, tau=rec_tau, d_sq=rec_dsq, eta=rec_eta,
        tracking=rec_track, exact_residual=rec_exact, lyapunov=rec_lyap,
        final_state=final, seed=params.seed, replication=replication,
        objective=rec_obj,
        max_z_norm=math.sqrt(max_zsq), max_u_norm=math.sqrt(max_usq),
        clamp_events=clamps,
    )
