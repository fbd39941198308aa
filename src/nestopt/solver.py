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
from .oracles import ROW_BLOCK_ELEMENTS, OracleSample, check_count, level_streams, row_dot


# the products below call .dot: @'s BLAS call without the matmul ufunc's dispatch; blocks keep @
def assemble_subgradient(samples: Sequence[OracleSample]) -> np.ndarray:
    """Fold sampled Jacobians backward through the chain rule.

    samples[m-1] is level m's sample, innermost last.  Returns the composite
    subgradient estimate of the top level as a (d_1, n) row-block matrix;
    for a scalar objective that is a single row.
    """
    g = samples[-1].jac_x
    for s in samples[-2::-1]:
        g = s.jac_x + s.jac_u.dot(g)
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
    out[M - 1] = u[M - 1] + s.jac_x.dot(dx) + (b * tau) * (s.value - u[M - 1])
    for m in range(M - 2, -1, -1):
        s = samples[m]
        out[m] = (u[m] + s.jac_x.dot(dx) + s.jac_u.dot(out[m + 1] - u[m + 1])
                  + (b * tau) * (s.value - u[m]))
    return out


def _advance(problem: CompositionProblem, params: AlgorithmParams, x: np.ndarray,
             z: np.ndarray, u: Sequence[np.ndarray], tau: float,
             streams: Sequence[np.random.Generator], k: int):
    """Iteration k from (x, z, u) with stepsize tau: the method's one body and nothing else.

    Order: subproblem solve, decision update, sampling at the new point with
    the old trackers, chain-rule assembly, z update, tracker update.
    Returns (d, samples, x', z', u'), where d is the step direction at
    (x, z); run reads ||d||^2, the gap and the finiteness guard off its
    stored rows.
    """
    d = problem.feasible_set.project(x - z / params.rho) - x
    dx = tau * d
    x = x + dx
    samples = problem.sample_levels(x, u, streams, k)
    z = update_z(z, assemble_subgradient(samples)[0], params.a, tau)
    u = update_trackers(u, samples, dx, params.b, tau)
    return d, samples, x, z, u


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

    Nothing recorded feeds back into the method, so the loop runs the
    method alone, in chunks of iterations, and stores x, z, u and the step d
    of each.  When a chunk ends, its stored rows give ||d||^2, the gap eta
    (sets.gap's expression), the ||z||/||u|| maxima and the finiteness
    guard: NonFiniteIterateError(k, what) names the first iteration whose
    ||d||^2 + ||z'||^2 + ||u'_1||^2 + ... + ||u'_M||^2, added in that order,
    is not finite, and the array whose square first makes it so (a
    non-finite step counts as x).  Then two tables fill the chunk's cells,
    each evaluated once: tracking_table on the tracking and merit rows,
    nested_table on the exact and merit rows; the merit pair adds each
    row's recorded gap, as lyapunov does for one row.  A failure is raised
    once the chunk's rows up to it are evaluated, and a loop failure at k
    once the guard has checked the iterations before k, so the earliest
    failing row wins; a diverging run may compute up to one chunk past it.
    Each cell gets the bits a call on its row alone would give.
    """
    check_count("iterations", iterations, least=1)
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
    # row i holds the state at the start of the chunk's iteration i, row i + 1 its post-state
    block_x, block_z = np.empty((2, size + 1, problem.n))
    block_u = [np.empty((size + 1, d)) for d in problem.level_dims]
    block_d = np.empty((size, problem.n))
    names = ["x", "z"] + [f"u_{m}" for m in range(1, M + 1)]

    # the rows of one kind: the multiples of its interval from its start on
    def rows_of(every, start=0):
        rows = np.zeros(N, bool)
        if every:
            rows[start + -start % every::every] = True
        return rows
    kinds = (rows_of(diag.track_every), rows_of(diag.exact_every, exact_start),
             rows_of(diag.lyapunov_every))

    # iterations lo..hi-1 are done: their d_sq and gap, the guard and the norm maxima
    def check(lo, hi):
        nonlocal max_zsq, max_usq
        n = hi - lo
        D, Z = block_d[:n], block_z[:n + 1]
        dsq = rec_dsq[lo:hi] = row_dot(D, D)
        rec_eta[lo:hi] = row_dot(Z[:n], D) + (0.5 * params.rho) * dsq
        zsq = row_dot(Z, Z)
        usq = [row_dot(v[:n + 1], v[:n + 1]) for v in block_u]
        total = np.add.accumulate([dsq, zsq[1:]] + [sq[1:] for sq in usq])
        bad = np.flatnonzero(~np.isfinite(total[-1]))
        if bad.size:
            i = int(bad[0])
            evaluate(lo, lo + i + 1)
            raise NonFiniteIterateError(lo + i, names[np.argmin(np.isfinite(total[:, i]))])
        max_zsq = max(max_zsq, float(zsq.max()))
        max_usq = max(max_usq, *(float(sq.max()) for sq in usq))

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
    max_zsq = max_usq = 0.0
    # an overflowing state is reported by the finiteness guard, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        state = init_state(problem, params, init_x, init_policy, streams=streams)
        x, z, u = state.x, state.z, state.u
        draws = _draws(problem, streams, N)
        for lo in range(0, N, size):
            hi = min(lo + size, N)
            block_x[0], block_z[0] = x, z
            for buf, arr in zip(block_u, u):
                buf[0] = arr
            for k in range(lo, hi):
                try:
                    d, samples, x, z, u = _advance(problem, params, x, z, u, taus[k],
                                                   next(draws), k)
                except Exception as exc:
                    check(lo, k)  # a non-finite state before k is the earlier failure
                    evaluate(lo, k + 1)
                    if isinstance(exc, ProjectionError):
                        raise ProjectionError(f"{exc} at iteration {k}") from exc
                    raise
                i = k - lo
                block_d[i], block_x[i + 1], block_z[i + 1] = d, x, z
                for buf, arr in zip(block_u, u):
                    buf[i + 1] = arr
                for s in samples:
                    if s.clamped:
                        clamps += 1
            check(lo, hi)
            evaluate(lo, hi)

    final = IterateState(N, x, z, tuple(u))
    return RunRecord(
        iterations=N, tau=rec_tau, d_sq=rec_dsq, eta=rec_eta,
        tracking=rec_track, exact_residual=rec_exact, lyapunov=rec_lyap,
        final_state=final, seed=int(params.seed), replication=int(replication),
        objective=rec_obj,
        max_z_norm=math.sqrt(max_zsq), max_u_norm=math.sqrt(max_usq),
        clamp_events=clamps,
    )
