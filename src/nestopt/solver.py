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
from itertools import repeat
from typing import Sequence

import numpy as np

from .diagnostics import (DiagnosticsConfig, RunRecord, _merit, check_gammas, nested_table,
                          tracking_table)
from .errors import NonFiniteIterateError, ProjectionError
from .model import (AlgorithmParams, CompositionProblem, InitPolicy,
                    IterateState, init_state, next_stepsize)
from .oracles import ROW_BLOCK_ELEMENTS, OracleSample, level_streams


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
    overflowing square counts as divergence): NonFiniteIterateError(k, what)
    names the array whose square first makes their running sum non-finite.
    Returns (eta, ||d||^2, samples, x', z', u', ||z'||^2, max_m ||u'_m||^2),
    where eta is the gap at (x, z), the same expression as sets.gap.
    """
    d = problem.feasible_set.project(x - z / params.rho) - x
    dsq = float(d @ d)
    eta = float(z @ d) + 0.5 * params.rho * dsq
    dx = tau * d
    x = x + dx
    samples = problem.sample_levels(x, u, streams, k)
    z = update_z(z, assemble_subgradient(samples)[0], params.a, tau)
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
        raise NonFiniteIterateError(k, _non_finite_array(dsq, zsq, u))
    return eta, dsq, samples, x, z, u, zsq, usq


def _non_finite_array(dsq: float, zsq: float, u: Sequence[np.ndarray]) -> str:
    """x, z or u_m: whose squared norm first makes the guard's running sum non-finite.

    The sum adds ||d||^2, ||z||^2, ||u_1||^2, ..., ||u_M||^2 in that order; a
    non-finite step d makes x non-finite, so it counts as x.
    """
    names = ["x", "z"] + [f"u_{m}" for m in range(1, len(u) + 1)]
    total = 0.0
    for name, sq in zip(names, [dsq, zsq] + [float(arr @ arr) for arr in u]):
        total += sq
        if not math.isfinite(total):
            break
    return name


def _draws(problem: CompositionProblem, streams: Sequence[np.random.Generator], N: int):
    """Per iteration, what each level's sample reads: its row of a block, or its generator.

    A block holds at most max(ROW_BLOCK_ELEMENTS, one sample) entries, where
    a sample has d_m (1 + n + d_{m+1}); a level whose draw is None gets rng.
    """
    dims = [(d, problem.n, dn) for d, dn in zip(problem.level_dims, problem.level_dims[1:] + (0,))]
    size = max(1, ROW_BLOCK_ELEMENTS // max(d * (1 + n + dn) for d, n, dn in dims))
    for lo in range(0, N, size):
        count = min(size, N - lo)
        blocks = [o.draw(g, count, s) for o, g, s in zip(problem.oracles, streams, dims)]
        yield from zip(*[repeat(g, count) if b is None else b for g, b in zip(streams, blocks)])


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

    The diagnostic cells never feed back into the method, so the loop runs
    in chunks of iterations, stores (x, u) of every iteration of a chunk,
    and fills the chunk's cells when it ends from two tables, each evaluated
    once: tracking_table on the tracking and merit rows, nested_table on the
    exact and merit rows; the merit pair adds each row's recorded gap, as
    lyapunov does for one row.  When the loop fails, the chunk's rows up
    to the failing one are evaluated first, so that a failure in those
    rows, which come first, is the one raised.
    Each cell gets the bits a call on its row alone would give.
    """
    if (isinstance(iterations, bool) or not isinstance(iterations, (int, np.integer))
            or iterations < 1):
        raise ValueError(f"iterations must be a positive integer, got {iterations!r}")
    if problem.level_dims[0] != 1:
        raise ValueError("the solver needs a scalar top level (d_1 = 1)")
    diag = diagnostics if diagnostics is not None else DiagnosticsConfig()
    M = problem.M
    exact = problem.exact
    if exact is None:
        # tracking columns are on by default but need ground truth; drop them
        if diag.lyapunov_every:
            raise ValueError("lyapunov recording needs exact evaluators")
        diag = DiagnosticsConfig(track_every=0, exact_every=0, lyapunov_every=0)
    if diag.lyapunov_every:
        check_gammas(M, diag.gammas)

    N = int(iterations)
    # the whole schedule up front: a short Custom schedule fails before k = 0
    taus = [next_stepsize(params.schedule, k, params.a, params.b) for k in range(N)]

    rec_tau = np.array(taus)
    rec_dsq = np.empty(N)
    rec_eta = np.full(N, np.nan)  # NaN in the merit of a failing iteration's row
    rec_track = np.full((N, M), np.nan) if diag.track_every else None
    rec_exact = np.full((N, M), np.nan) if diag.exact_every else None
    rec_obj = np.full(N, np.nan) if diag.exact_every else None
    rec_lyap = np.full((N, 2), np.nan) if diag.lyapunov_every else None
    exact_start = max(0, N - diag.exact_window) if diag.exact_window else 0

    size = min(N, max(1, ROW_BLOCK_ELEMENTS // max(problem.n, *problem.level_dims)))
    block_x = np.empty((size, problem.n))
    block_u = [np.empty((size, d)) for d in problem.level_dims]

    # the rows of one kind: the multiples of its interval from its start on
    def rows_of(every, start=0):
        rows = np.zeros(N, bool)
        if every:
            rows[start + -start % every::every] = True
        return rows
    kinds = (rows_of(diag.track_every), rows_of(diag.exact_every, exact_start),
             rows_of(diag.lyapunov_every))

    # each table once, on the union of the rows of the kinds that read it
    def record(lo, hi, X, U):
        track, nest, merit = (rows[lo:hi] for rows in kinds)
        T, V = np.empty((2, hi - lo, M + 1))
        for out, table, rows in ((T, tracking_table, track | merit),
                                 (V, nested_table, nest | merit)):
            if rows.any():
                out[rows] = table(exact, X[rows], [v[rows] for v in U])
        if diag.track_every:
            rec_track[lo:hi][track] = T[track, 1:]
        if diag.exact_every:
            rec_obj[lo:hi][nest], rec_exact[lo:hi][nest] = V[nest, 0], V[nest, 1:]
        if diag.lyapunov_every:
            rec_lyap[lo:hi][merit, 0], rec_lyap[lo:hi][merit, 1] = _merit(
                T[merit], V[merit], rec_eta[lo:hi][merit], params.a, diag.gammas)

    def evaluate(lo, hi):
        X, U = block_x[:hi - lo], [v[:hi - lo] for v in block_u]
        try:
            record(lo, hi, X, U)
        except ProjectionError:
            for k in range(lo, hi):  # the first failing row names the iteration
                i = k - lo
                try:
                    record(k, k + 1, X[i:i + 1], [v[i:i + 1] for v in U])
                except ProjectionError as exc:
                    raise ProjectionError(f"{exc} at iteration {k}") from exc
            raise

    streams = level_streams(params.seed, M, replication)
    clamps = 0
    # an overflowing state is reported by the finiteness guard, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(problem, params, init_x, init_policy, streams=streams)
        x, z, u = state.x, state.z, state.u
        max_zsq = float(z @ z)
        max_usq = max(float(arr @ arr) for arr in u)
        draws = _draws(problem, streams, N)
        for lo in range(0, N, size):
            hi = min(lo + size, N)
            for k in range(lo, hi):
                block_x[k - lo] = x
                for buf, arr in zip(block_u, u):
                    buf[k - lo] = arr
                try:
                    rec_eta[k], rec_dsq[k], samples, x, z, u, zsq, usq = _advance(
                        problem, params, x, z, u, taus[k], next(draws), k)
                except Exception as exc:
                    evaluate(lo, k + 1)
                    if isinstance(exc, ProjectionError):
                        raise ProjectionError(f"{exc} at iteration {k}") from exc
                    raise
                if zsq > max_zsq:
                    max_zsq = zsq
                if usq > max_usq:
                    max_usq = usq
                for s in samples:
                    if s.clamped:
                        clamps += 1
            evaluate(lo, hi)

    final = IterateState(N, x, z, tuple(u))
    return RunRecord(
        iterations=N, tau=rec_tau, d_sq=rec_dsq, eta=rec_eta,
        tracking=rec_track, exact_residual=rec_exact, lyapunov=rec_lyap,
        final_state=final, seed=params.seed, replication=replication,
        objective=rec_obj,
        max_z_norm=math.sqrt(max_zsq), max_u_norm=math.sqrt(max_usq),
        clamp_events=clamps,
    )
