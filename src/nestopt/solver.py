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
from .oracles import (ROW_BLOCK_ELEMENTS, OracleSample, check_count, level_streams, row_dot,
                      row_matvec)


# one replication's products call .dot: @'s BLAS call without the matmul ufunc's dispatch; a
# block's stacked rows take @, whose every row has the bits of .dot on that row alone
def assemble_subgradient(samples: Sequence[OracleSample]) -> np.ndarray:
    """Fold sampled Jacobians backward through the chain rule.

    samples[m-1] is level m's sample, innermost last.  Returns the composite
    subgradient estimate of the top level as a (d_1, n) row-block matrix;
    for a scalar objective that is a single row.  Over a block's stacked
    samples it is (R, d_1, n), or (d_1, n) when no level's Jacobians have
    the leading axis.
    """
    matmul = np.ndarray.dot if samples[0].value.ndim == 1 else np.matmul
    g = samples[-1].jac_x
    for s in samples[-2::-1]:
        g = s.jac_x + matmul(s.jac_u, g)
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
    u, samples and dx are one replication's or a block's stacked rows.
    """
    matvec = np.ndarray.dot if dx.ndim == 1 else row_matvec
    M = len(u)
    out: list[np.ndarray] = [None] * M
    s = samples[M - 1]
    out[M - 1] = u[M - 1] + matvec(s.jac_x, dx) + (b * tau) * (s.value - u[M - 1])
    for m in range(M - 2, -1, -1):
        s = samples[m]
        out[m] = (u[m] + matvec(s.jac_x, dx) + matvec(s.jac_u, out[m + 1] - u[m + 1])
                  + (b * tau) * (s.value - u[m]))
    return out


def _advance(problem: CompositionProblem, params: AlgorithmParams, x: np.ndarray,
             z: np.ndarray, u: Sequence[np.ndarray], tau: float, draws, k: int):
    """Iteration k from (x, z, u) with stepsize tau: the method's one body and nothing else.

    Order: subproblem solve, decision update, sampling at the new point with
    the old trackers, chain-rule assembly, z update, tracker update.
    x, z and u[m-1] are one replication's rows, of shapes (n,), (n,) and
    (d_m,), or R replications' rows stacked in lockstep: (R, n), (R, n) and
    (R, d_m).  The rows are projected in one project_rows call.  A block's
    levels sample it in one sample_rows call each, and assemble_subgradient
    and update_trackers run once on the stacked rows; update_z runs once per
    row.  Every row gets the bits it gets alone.
    draws[m-1] is what level m's sample reads (see _draws).
    Returns (d, samples, x', z', u'), where d is the step direction at
    (x, z) and samples[m-1] level m's sample (its sample_rows result for a
    block); run reads ||d||^2, the gap and the finiteness guard off its
    stored rows.
    """
    v = x - z / params.rho
    d = problem.feasible_set.project_rows(v) - x
    dx = tau * d
    x = x + dx
    samples = problem.sample_levels(x, u, draws, k)
    g = assemble_subgradient(samples)
    if x.ndim == 1:
        z = update_z(z, g[0], params.a, tau)
    else:  # one update_z call per row: the benchmark's tracer counts iterations by these calls
        z = np.array([update_z(zr, gr, params.a, tau)
                      for zr, gr in zip(z, g[:, 0] if g.ndim > 2 else repeat(g[0]))])
    u = update_trackers(u, samples, dx, params.b, tau)
    return d, samples, x, z, u


def _draws(problem: CompositionProblem, streams: Sequence[Sequence[np.random.Generator]],
           N: int):
    """Per iteration, what each level's sample reads: its row of a block, or its generator.

    streams holds each replication's per-level generators.  One
    replication's level reads its row or its generator; a lockstep block's
    level reads its replications' rows stacked, shape (R, width), or the
    tuple of their generators.  Each replication draws from its own streams
    the blocks it draws alone: at most max(ROW_BLOCK_ELEMENTS, one sample)
    entries, where a sample has d_m (1 + n + d_{m+1}); a level whose draw
    is None gets rng.
    """
    dims = [(d, problem.n, dn) for d, dn in zip(problem.level_dims, problem.level_dims[1:] + (0,))]
    size = max(1, ROW_BLOCK_ELEMENTS // max(d * (1 + n + dn) for d, n, dn in dims))
    block = len(streams) > 1
    for lo in range(0, N, size):
        count = min(size, N - lo)
        levels = []
        for o, gens, dim in zip(problem.oracles, zip(*streams), dims):
            rows = [o.draw(g, count, dim) for g in gens]
            if rows[0] is None:
                levels.append(repeat(gens if block else gens[0], count))
            else:
                levels.append(np.stack(rows, axis=1) if block else rows[0])
        yield from zip(*levels)


def run(problem: CompositionProblem, params: AlgorithmParams, iterations: int,
        diagnostics: DiagnosticsConfig | None = None,
        init_x: np.ndarray | None = None,
        init_policy: InitPolicy = InitPolicy.ONE_SAMPLE,
        replication: int | Sequence[int] = 0) -> RunRecord | list[RunRecord]:
    """Run the method for a fixed horizon and record diagnostics.

    Row k of the record describes the state at the start of iteration k.
    With identical (problem, params, iterations, replication) the output is
    bit-identical across calls: all randomness flows from per-(replication,
    level) counter-derived streams of params.seed.

    replication may also be a list, tuple or range of replications: they
    then run in lockstep, as one block (see _advance), and run returns
    their records in that order, each bit-identical to the record
    run(..., replication=r) returns alone.  A block that fails anywhere
    runs its replications again one by one, in order, so it raises what
    the first failing replication raises alone.

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
    block = isinstance(replication, (list, tuple, range))
    reps = list(replication) if block else [replication]
    if not reps:
        raise ValueError("replication must be an index or a non-empty sequence of indices")
    streams = [level_streams(params.seed, problem.M, r) for r in reps]
    try:
        records = _lockstep(problem, params, int(iterations), diagnostics, init_x, init_policy,
                            reps, streams)
    except Exception:
        if len(reps) == 1:
            raise
        records = None  # rerun below, once the failed block's frames are released
    if records is None:
        records = [run(problem, params, iterations, diagnostics, init_x, init_policy, r)
                   for r in reps]
    return records if block else records[0]


def _lockstep(problem, params, N, diagnostics, init_x, init_policy, reps, streams):
    """run's body for the replications reps, whose level streams are streams.

    One replication keeps 1-D rows.  R >= 2 stack theirs along a leading
    axis: the state, the chunk's stored rows (R, rows, width) and the
    record arrays (R, N, ...), whose row r is replication r's.  A chunk
    then spans 1/R of the iterations, so its tables evaluate as many rows
    as one replication's do.
    """
    diag = diagnostics if diagnostics is not None else DiagnosticsConfig()
    M, n = problem.M, problem.n
    exact = problem.exact
    if exact is None:
        # tracking columns are on by default but need ground truth; drop them
        if diag.lyapunov_every:
            raise ValueError("lyapunov recording needs exact evaluators")
        diag = DiagnosticsConfig(track_every=0, exact_every=0, lyapunov_every=0)
    if diag.lyapunov_every:
        check_gammas(M, diag.gammas)

    # the whole schedule up front: a short Custom schedule fails before k = 0
    taus = [next_stepsize(params.schedule, k, params.a, params.b) for k in range(N)]

    R = len(reps)
    lead = (R,) if R > 1 else ()
    rec_tau = np.array(taus)
    rec_dsq = np.empty(lead + (N,))
    rec_eta = np.full(lead + (N,), np.nan)  # NaN in the merit of a failing iteration's row
    rec_track = np.full(lead + (N, M), np.nan) if diag.track_every else None
    rec_exact = np.full(lead + (N, M), np.nan) if diag.exact_every else None
    rec_obj = np.full(lead + (N,), np.nan) if diag.exact_every else None
    rec_lyap = np.full(lead + (N, 2), np.nan) if diag.lyapunov_every else None
    exact_start = max(0, N - diag.exact_window) if diag.exact_window else 0

    size = min(N, max(1, ROW_BLOCK_ELEMENTS // (R * max(n, *problem.level_dims))))
    # row i holds the state at the start of the chunk's iteration i, row i + 1 its post-state
    block_x, block_z = np.empty((2,) + lead + (size + 1, n))
    block_u = [np.empty(lead + (size + 1, d)) for d in problem.level_dims]
    block_d = np.empty(lead + (size, n))
    # the same buffers indexed by row first: row i of every replication at once
    row_x, row_z, row_d = (np.moveaxis(b, -2, 0) for b in (block_x, block_z, block_d))
    row_u = [np.moveaxis(b, -2, 0) for b in block_u]
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
        k = hi - lo
        D, Z = block_d[..., :k, :], block_z[..., :k + 1, :]
        dsq = rec_dsq[..., lo:hi] = row_dot(D, D)
        rec_eta[..., lo:hi] = row_dot(Z[..., :k, :], D) + (0.5 * params.rho) * dsq
        zsq = row_dot(Z, Z)
        usq = [row_dot(v[..., :k + 1, :], v[..., :k + 1, :]) for v in block_u]
        total = np.add.accumulate([dsq, zsq[..., 1:]] + [sq[..., 1:] for sq in usq])
        finite = np.isfinite(total).all(axis=tuple(range(1, total.ndim - 1)))  # over a block
        bad = np.flatnonzero(~finite[-1])
        if bad.size:
            i = int(bad[0])
            evaluate(lo, lo + i + 1)
            raise NonFiniteIterateError(lo + i, names[np.argmin(finite[:, i])])
        max_zsq = np.maximum(max_zsq, zsq.max(axis=-1))
        max_usq = np.maximum.reduce([max_usq] + [sq.max(axis=-1) for sq in usq])

    # each table once, on the union of the rows of the kinds that read it
    def record(lo, hi, X, U):
        track, nest, merit = (rows[lo:hi] for rows in kinds)
        T, V = np.empty((2,) + lead + (hi - lo, M + 1))
        for out, table, rows in ((T, tracking_table, track | merit),
                                 (V, nested_table, nest | merit)):
            if rows.any():
                out[..., rows, :] = table(
                    exact, X[..., rows, :].reshape(-1, n),
                    [v[..., rows, :].reshape(-1, v.shape[-1]) for v in U],
                ).reshape(lead + (-1, M + 1))
        if diag.track_every:
            rec_track[..., lo:hi, :][..., track, :] = T[..., track, 1:]
        if diag.exact_every:
            rec_obj[..., lo:hi][..., nest] = V[..., nest, 0]
            rec_exact[..., lo:hi, :][..., nest, :] = V[..., nest, 1:]
        if diag.lyapunov_every:
            lyap = rec_lyap[..., lo:hi, :]
            lyap[..., merit, 0], lyap[..., merit, 1] = _merit(
                T[..., merit, :], V[..., merit, :], rec_eta[..., lo:hi][..., merit], params.a,
                diag.gammas)

    def evaluate(lo, hi):
        X, U = block_x[..., :hi - lo, :], [v[..., :hi - lo, :] for v in block_u]
        try:
            record(lo, hi, X, U)
        except ProjectionError:
            for k in range(lo, hi):  # the first failing row names the iteration
                i = k - lo
                try:
                    record(k, k + 1, X[..., i:i + 1, :], [v[..., i:i + 1, :] for v in U])
                except ProjectionError as exc:
                    raise ProjectionError(f"{exc} at iteration {k}") from exc
            raise

    def stacked(rows):  # one replication's row, or R replications' rows stacked
        return np.stack(rows) if lead else rows[0]

    clamps = np.zeros(lead, int)
    max_zsq = max_usq = np.zeros(lead)
    # an overflowing state is reported by the finiteness guard, not by numpy
    with np.errstate(over="ignore", invalid="ignore"):
        states = [init_state(problem, params, init_x, init_policy, streams=s) for s in streams]
        x, z = stacked([s.x for s in states]), stacked([s.z for s in states])
        u = [stacked(rows) for rows in zip(*(s.u for s in states))]
        draws = _draws(problem, streams, N)
        for lo in range(0, N, size):
            hi = min(lo + size, N)
            row_x[0], row_z[0] = x, z
            for buf, arr in zip(row_u, u):
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
                row_d[i], row_x[i + 1], row_z[i + 1] = d, x, z
                for buf, arr in zip(row_u, u):
                    buf[i + 1] = arr
                for s in samples:
                    if s.clamped is not False:
                        clamps += s.clamped
            check(lo, hi)
            evaluate(lo, hi)

    def of(a, r):  # replication r's part of a record array
        return a[r] if lead and a is not None else a

    return [RunRecord(
        iterations=N, tau=rec_tau, d_sq=of(rec_dsq, r), eta=of(rec_eta, r),
        tracking=of(rec_track, r), exact_residual=of(rec_exact, r), lyapunov=of(rec_lyap, r),
        final_state=IterateState(N, of(x, r), of(z, r), tuple(of(v, r) for v in u)),
        seed=int(params.seed), replication=int(rep), objective=of(rec_obj, r),
        max_z_norm=math.sqrt(of(max_zsq, r)), max_u_norm=math.sqrt(of(max_usq, r)),
        clamp_events=int(of(clamps, r)),
    ) for r, rep in enumerate(reps)]
