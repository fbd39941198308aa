"""Run diagnostics: gap/tracking series, merit functions, rate fitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import CompositionProblem, IterateState
from .oracles import check_count, row_norm
from .sets import gap as set_gap


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What the solver records per iteration.

    Intervals and the window are non-negative ints (ValueError otherwise);
    an interval of 0 disables its kind.  track_every: tracking errors
    ||f_m(x, u_next) - u_m|| (needs exact evaluators).  exact_every: the
    fully nested residuals ||V_m(x) - u_m||; exact_window > 0 restricts
    them to the final that-many iterations of the run.  lyapunov_every:
    the merit pair (W, W_smooth); requires gammas (one weight per level 2..M).
    """

    track_every: int = 1
    exact_every: int = 10
    exact_window: int = 0
    lyapunov_every: int = 0
    gammas: tuple[float, ...] | None = None

    def __post_init__(self):
        for name in ("track_every", "exact_every", "exact_window", "lyapunov_every"):
            check_count(name, getattr(self, name))
        if self.lyapunov_every and self.gammas is None:
            raise ConfigError("diagnostics.gammas", "lyapunov_every > 0 needs the merit weights")


@dataclass
class RunRecord:
    """Per-iteration diagnostics of one solver run plus the final state.

    Row k describes the state at the START of iteration k; columns not
    sampled at k hold NaN.  tracking / exact_residual have one column per
    level; lyapunov has columns (W, W_smooth); objective holds the exact
    composed value at the iterate on the rows where exact residuals were
    sampled.
    """

    iterations: int
    tau: np.ndarray
    d_sq: np.ndarray
    eta: np.ndarray
    tracking: np.ndarray | None
    exact_residual: np.ndarray | None
    lyapunov: np.ndarray | None
    final_state: IterateState
    seed: int
    replication: int = 0
    objective: np.ndarray | None = None
    max_z_norm: float = 0.0
    max_u_norm: float = 0.0
    clamp_events: int = 0

    @property
    def n_levels(self) -> int:
        return len(self.final_state.u)


def optimality_measure(record: RunRecord) -> np.ndarray:
    """Per-iteration non-optimality series ||d^k||^2 + sum_{m>=2} t_m^2.

    This is the quantity whose run average the fixed-stepsize analysis
    bounds.  Iterations where tracking was not recorded yield NaN (for a
    single-level problem the sum is empty and the series is just ||d^k||^2).
    """
    out = record.d_sq.astype(float)
    if record.n_levels >= 2:
        if record.tracking is None:
            raise ValueError("optimality measure needs tracking columns; run with "
                             "track_every >= 1 on a problem with exact evaluators")
        out += np.sum(record.tracking[:, 1:]**2, axis=1)
    return out


def tracking_table(exact, x: np.ndarray, u: Sequence[np.ndarray]) -> np.ndarray:
    """Columns f_1(x, u_2), t_1, ..., t_M with t_m = ||f_m(x, u_{m+1}) - u_m||.

    One exact values call per level.  One row (x of shape (n,), u[m-1] of
    shape (d_m,)) gives shape (M + 1,); a block of rows (x of shape (B, n),
    u[m-1] of shape (B, d_m)) gives (B, M + 1).
    """
    M = len(u)
    f = [value(x, u[m] if m < M else None) for m, value in enumerate(exact.values, 1)]
    return np.stack([f[0][..., 0]] + [row_norm(v - w) for v, w in zip(f, u)], axis=-1)


def nested_table(exact, x: np.ndarray, u: Sequence[np.ndarray]) -> np.ndarray:
    """Columns V_1(x), ||V_1(x) - u_1||, ..., ||V_M(x) - u_M||: one nested fold, rows as above."""
    V = exact.nested(x)
    return np.stack([V[0][..., 0]] + [row_norm(v - w) for v, w in zip(V, u)], axis=-1)


def check_gammas(M: int, gammas: Sequence[float]) -> None:
    """ValueError unless gammas holds one positive merit weight per level 2..M."""
    if len(gammas) != max(M - 1, 0):
        raise ValueError(f"need {M - 1} gamma weights for levels 2..{M}, got {len(gammas)}")
    if any(not g > 0 for g in gammas):  # also rejects NaN
        raise ValueError("gamma weights must be positive")


def _merit(track: np.ndarray, nest: np.ndarray, eta, a: float, gammas: Sequence[float]):
    """(W, W_smooth) of one row or of each row of a block, from its table rows and gap eta."""
    w = a * track[..., 0] - eta
    w_smooth = a * nest[..., 0] - eta
    for m, g in enumerate(gammas, 2):
        w += g * track[..., m]
        w_smooth += g * track[..., m] * track[..., m]
    return w, w_smooth


def lyapunov(problem: CompositionProblem, x: np.ndarray, z: np.ndarray,
             u: Sequence[np.ndarray], a: float, rho: float,
             gammas: Sequence[float]) -> tuple[float, float]:
    """The merit pair (W, W_smooth) at (x, z, u), from exact evaluators.

    W = a*f_1(x, u_2) - eta(x, z) + sum_m gamma_m ||f_m(x, u_{m+1}) - u_m||,
    with the top level evaluated at the tracker u_2.  W_smooth =
    a*V_1(x) - eta(x, z) + sum_m gamma_m ||f_m(x, u_{m+1}) - u_m||^2, with
    the fully nested objective.  Both sums run over m = 2..M.  This is the
    one-row case of what run records from each row's tracking and nested
    tables and its own gap.
    """
    if problem.exact is None:
        raise ValueError("Lyapunov diagnostics need exact evaluators")
    check_gammas(problem.M, gammas)
    w, w_smooth = _merit(tracking_table(problem.exact, x, u), nested_table(problem.exact, x, u),
                         set_gap(problem.feasible_set, x, z, rho), a, gammas)
    return float(w), float(w_smooth)


def objective_tail_oscillation(record: RunRecord,
                               tail_fraction: float = 0.1) -> dict | None:
    """Cauchy-style oscillation of the recorded objective over the run's tail.

    Convergence of the objective sequence is monitored, not asserted: no
    universal tolerance exists for diminishing-step runs, so the report
    only quantifies how much the tail still moves.  Returns {"points",
    "oscillation" (max - min), "mean", "last"} over the tail, or None when
    no objective sample falls inside it (a run shorter than the sampling
    interval over the tail fraction).
    """
    if record.objective is None:
        raise ValueError("objective series not recorded; run with exact_every >= 1")
    if not 0.0 < tail_fraction <= 1.0:
        raise ValueError("tail_fraction must lie in (0, 1]")
    start = record.iterations - max(1, int(tail_fraction * record.iterations))
    tail = record.objective[start:]
    tail = tail[np.isfinite(tail)]
    if tail.size == 0:
        return None
    return {"points": int(tail.size), "oscillation": float(np.max(tail) - np.min(tail)),
            "mean": float(np.mean(tail)), "last": float(tail[-1])}


def fit_rate(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(measure) against log(N).

    Needs at least three horizons spanning two decades; horizons and
    measures must be finite and strictly positive for the logs to exist.
    Invariant to uniform scaling of the measure.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 (N, measure) points to fit a rate")
    ns = np.array([float(p[0]) for p in points])
    ms = np.array([float(p[1]) for p in points])
    if not np.all((0 < ns) & (ns < np.inf) & (0 < ms) & (ms < np.inf)):  # NaN fails too
        raise ValueError("horizons and measures must be finite and positive for a log-log slope")
    if np.max(ns) / np.min(ns) < 100.0:
        raise ValueError("horizons must span at least two decades")
    slope, _ = np.polyfit(np.log(ns), np.log(ms), 1)
    return float(slope)

