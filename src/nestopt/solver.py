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
from .errors import NonFiniteIterateError, ProjectionError
from .model import (AlgorithmParams, CompositionProblem, InitPolicy,
                    IterateState, init_state, next_stepsize)
from .oracles import ROW_BLOCK_ELEMENTS, OracleSample, level_streams, row_norm

# recorded rows whose tracking and exact-residual cells one call per level evaluates,
# at most; wide problems take fewer, ROW_BLOCK_ELEMENTS // (widest of n and d_m)
_DIAGNOSTICS_BLOCK = 1024


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
    Returns (d, ||d||^2, samples, x', z', u', ||z'||^2, max_m ||u'_m||^2).
    """
    d = problem.feasible_set.project(x - z / params.rho) - x
    dsq = float(d @ d)
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
    return d, dsq, samples, x, z, u, zsq, usq


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

    The tracking and exact-residual cells never feed back into the method,
    so the loop copies (x, u) of each recorded row into a block of at most
    _DIAGNOSTICS_BLOCK rows (fewer for wide problems) and evaluates the
    block when it fills, when the loop ends, and when the loop fails, so
    that a failure in the block's rows, which come first, is the one
    raised.  Each row gets the bits a call on that row alone would give.
    """
    if not isinstance(iterations, int) or iterations < 1:
        raise ValueError(f"iterations must be a positive integer, got {iterations}")
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

    N = iterations
    a, b, rho = params.a, params.b, params.rho
    # the whole schedule up front: a short Custom schedule fails before k = 0
    taus = [next_stepsize(params.schedule, k, a, b) for k in range(N)]

    streams = level_streams(params.seed, M, replication)
    state = init_state(problem, params, init_x, init_policy, streams=streams)

    track_every, exact_every = diag.track_every, diag.exact_every
    rec_tau = np.array(taus)
    rec_dsq = np.empty(N)
    rec_eta = np.empty(N)
    rec_track = np.full((N, M), np.nan) if track_every else None
    rec_exact = np.full((N, M), np.nan) if exact_every else None
    rec_obj = np.full(N, np.nan) if exact_every else None
    rec_lyap = np.full((N, 2), np.nan) if diag.lyapunov_every else None
    exact_start = max(0, N - diag.exact_window) if diag.exact_window else 0

    size = min(N, _DIAGNOSTICS_BLOCK,
               max(1, ROW_BLOCK_ELEMENTS // max(problem.n, *problem.level_dims)))
    block_k = [0] * size  # iterations of the buffered rows, increasing
    block_x = np.empty((size, problem.n))
    block_u = [np.empty((size, d)) for d in problem.level_dims]

    # The recorded rows of one kind are all multiples of its interval in the
    # block's range, so their cells are a strided slice of the record.  Rows
    # are picked with Python ints, not numpy masks or index arrays: each numpy
    # routine a process first runs pages in more of numpy's library, which
    # counts in its peak resident set.
    def picked(pick, X, U):  # the rows at positions pick; the block itself for all rows
        if len(pick) == len(X):
            return X, U
        return X[pick], [v[pick] for v in U]

    def record(ks, X, U):
        if track_every:
            pick = [i for i, k in enumerate(ks) if k % track_every == 0]
            if pick:
                cells = slice(ks[pick[0]], ks[pick[-1]] + 1, track_every)
                rec_track[cells] = tracking_errors(exact, *picked(pick, X, U))
        if exact_every:
            pick = [i for i, k in enumerate(ks) if k >= exact_start and k % exact_every == 0]
            if pick:
                cells = slice(ks[pick[0]], ks[pick[-1]] + 1, exact_every)
                Xs, Us = picked(pick, X, U)
                vals = exact.nested(Xs)
                rec_obj[cells] = vals[0][:, 0]
                for m in range(M):
                    rec_exact[cells, m] = row_norm(vals[m] - Us[m])

    def evaluate(count):
        ks, X, U = block_k[:count], block_x[:count], [v[:count] for v in block_u]
        try:
            record(ks, X, U)
        except ProjectionError:
            for i in range(count):  # the first failing row names the iteration
                try:
                    record(ks[i:i + 1], X[i:i + 1], [v[i:i + 1] for v in U])
                except ProjectionError as exc:
                    raise ProjectionError(f"{exc} at iteration {ks[i]}") from exc
            raise

    x, z, u = state.x, state.z, state.u
    max_zsq = float(z @ z)
    max_usq = max(float(arr @ arr) for arr in u)
    clamps = 0
    pending = 0

    for k in range(N):
        if ((track_every and k % track_every == 0)
                or (exact_every and k >= exact_start and k % exact_every == 0)):
            block_k[pending] = k
            block_x[pending] = x
            for buf, arr in zip(block_u, u):
                buf[pending] = arr
            pending += 1
            if pending == size:
                evaluate(pending)
                pending = 0
        try:
            if rec_lyap is not None and k % diag.lyapunov_every == 0:
                rec_lyap[k] = lyapunov(problem, x, z, u, a, rho, diag.gammas)
            d, dsq, samples, x, z_new, u, zsq, usq = _advance(
                problem, params, x, z, u, taus[k], streams, k)
        except Exception as exc:
            evaluate(pending)
            if isinstance(exc, ProjectionError):
                raise ProjectionError(f"{exc} at iteration {k}") from exc
            raise
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
    evaluate(pending)

    final = IterateState(N, x, z, tuple(u))
    return RunRecord(
        iterations=N, tau=rec_tau, d_sq=rec_dsq, eta=rec_eta,
        tracking=rec_track, exact_residual=rec_exact, lyapunov=rec_lyap,
        final_state=final, seed=params.seed, replication=replication,
        objective=rec_obj,
        max_z_norm=math.sqrt(max_zsq), max_u_norm=math.sqrt(max_usq),
        clamp_events=clamps,
    )
