"""Run diagnostics: gap/tracking series, merit functions, rate fitting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .model import CompositionProblem, IterateState
from .oracles import row_norm
from .sets import gap as set_gap


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What the solver records per iteration.

    track_every: interval for tracking errors ||f_m(x, u_next) - u_m||
    (0 disables; needs exact evaluators).  exact_every: interval for the
    fully nested residuals ||V_m(x) - u_m||; these require a full nested
    evaluation, so exact_window > 0 restricts them to the final that-many
    iterations of the run.  lyapunov_every: interval for the merit pair
    (W, W_smooth); requires gammas (one weight per level 2..M).
    """

    track_every: int = 1
    exact_every: int = 10
    exact_window: int = 0
    lyapunov_every: int = 0
    gammas: tuple[float, ...] | None = None

    def __post_init__(self):
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


def tracking_errors(exact, x: np.ndarray, u: Sequence[np.ndarray]) -> np.ndarray:
    """||f_m(x, u_{m+1}) - u_m|| for m = 1..M, from exact level values.

    One row (x of shape (n,), u[m-1] of shape (d_m,)) gives shape (M,); a
    block of rows (x of shape (B, n), u[m-1] of shape (B, d_m)) gives (B, M).
    """
    values = exact.values
    M = len(u)
    return np.stack([row_norm(values[m - 1](x, u[m] if m < M else None) - u[m - 1])
                     for m in range(1, M + 1)], axis=-1)


def lyapunov(problem: CompositionProblem, x: np.ndarray, z: np.ndarray,
             u: Sequence[np.ndarray], a: float, rho: float,
             gammas: Sequence[float]) -> tuple[float, float]:
    """The merit pair (W, W_smooth) at (x, z, u), from exact evaluators.

    W = a*f_1(x, u_2) - eta(x, z) + sum_m gamma_m ||f_m(x, u_{m+1}) - u_m||,
    with the top level evaluated at the tracker u_2.  W_smooth =
    a*V_1(x) - eta(x, z) + sum_m gamma_m ||f_m(x, u_{m+1}) - u_m||^2, with
    the fully nested objective.  Both sums run over m = 2..M.
    """
    exact = problem.exact
    if exact is None:
        raise ValueError("Lyapunov diagnostics need exact evaluators")
    M = problem.M
    if len(gammas) != max(M - 1, 0):
        raise ValueError(f"need {M - 1} gamma weights for levels 2..{M}, got {len(gammas)}")
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma weights must be positive")
    eta = set_gap(problem.feasible_set, x, z, rho)
    w = a * float(np.squeeze(exact.values[0](x, u[1] if M >= 2 else None))) - eta
    w_smooth = a * float(np.squeeze(exact.nested(x)[0])) - eta
    for g, r in zip(gammas, tracking_errors(exact, x, u)[1:]):
        w += g * r
        w_smooth += g * r * r
    return w, w_smooth


@dataclass(frozen=True)
class ObjectiveTailReport:
    """Cauchy-style oscillation of the exact objective over the run's tail.

    Convergence of the objective sequence is monitored, not asserted: no
    universal tolerance exists for diminishing-step runs, so the report
    only quantifies how much the tail still moves.
    """

    tail_points: int
    oscillation: float  # max - min over the tail
    mean: float
    last: float


def objective_tail_oscillation(record: RunRecord,
                               tail_fraction: float = 0.1) -> ObjectiveTailReport | None:
    """Oscillation report of the recorded objective series over the tail.

    None when no objective sample falls inside the tail (a run shorter than
    the sampling interval over the tail fraction).
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
    return ObjectiveTailReport(
        tail_points=int(tail.size),
        oscillation=float(np.max(tail) - np.min(tail)),
        mean=float(np.mean(tail)),
        last=float(tail[-1]),
    )


def fit_rate(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(measure) against log(N).

    Needs at least three horizons spanning two decades; measures must be
    strictly positive for the logs to exist.  Invariant to uniform scaling
    of the measure.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 (N, measure) points to fit a rate")
    ns = np.array([float(p[0]) for p in points])
    ms = np.array([float(p[1]) for p in points])
    if np.any(ms <= 0):
        raise ValueError("measures must be positive to fit a log-log slope")
    if np.max(ns) / np.min(ns) < 100.0:
        raise ValueError("horizons must span at least two decades")
    slope, _ = np.polyfit(np.log(ns), np.log(ms), 1)
    return float(slope)

