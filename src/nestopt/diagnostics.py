"""Run diagnostics: gap/tracking series, merit functions, rate fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidParamError, MissingExactEvaluatorsError
from .model import AlgorithmParams, CompositionProblem, IterateState, init_state
from .oracles import level_streams
from .sets import gap as set_gap

SQUARED = "squared"
MIXED = "mixed"


@dataclass(frozen=True)
class DiagnosticsConfig:
    """What the solver records per iteration.

    track_every: interval for tracking errors ||f_m(x, u_next) - u_m||
    (0 disables; needs exact evaluators).  exact_every: interval for the
    fully nested residuals ||V_m(x) - u_m||; these require a full nested
    evaluation, so exact_window > 0 restricts them to the final that-many
    iterations of the run.  lyapunov_every: interval for both merit
    functions; requires gammas (one weight per level 2..M).
    """

    track_every: int = 1
    exact_every: int = 10
    exact_window: int = 0
    lyapunov_every: int = 0
    gammas: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.lyapunov_every and self.gammas is None:
            raise InvalidParamError("diagnostics.gammas",
                                    "lyapunov_every > 0 needs the merit weights")


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


def optimality_measure(record: RunRecord, mode: str = SQUARED) -> np.ndarray:
    """Per-iteration non-optimality series.

    squared: ||d^k||^2 + sum_{m>=2} t_m^2 (the quantity whose run average
    the fixed-stepsize analysis bounds).  mixed: ||d^k||^2 + sum_{m>=2} t_m,
    with unsquared tracking norms.  Iterations where tracking was not
    recorded yield NaN (for a single-level problem the sum is empty and the
    series is just ||d^k||^2).
    """
    if mode not in (SQUARED, MIXED):
        raise ValueError(f"unknown measure mode {mode!r}")
    out = record.d_sq.astype(float)
    if record.n_levels >= 2:
        if record.tracking is None:
            raise MissingExactEvaluatorsError(
                "optimality measure needs tracking columns; "
                "run with track_every >= 1 on a problem with exact evaluators"
            )
        t = record.tracking[:, 1:]
        out += np.sum(t**2 if mode == SQUARED else t, axis=1)
    return out


def tracking_errors(exact, x: np.ndarray, u: Sequence[np.ndarray]) -> list[float]:
    """||f_m(x, u_{m+1}) - u_m|| for m = 1..M, from exact level values."""
    values = exact.values
    M = len(u)
    out = []
    for m in range(1, M + 1):
        r = values[m - 1](x, u[m] if m < M else None) - u[m - 1]
        out.append(math.sqrt(float(r @ r)))
    return out


def _merit(problem: CompositionProblem, x: np.ndarray, z: np.ndarray,
           u: Sequence[np.ndarray], a: float, rho: float,
           gammas: Sequence[float], smooth: bool) -> float:
    if problem.exact is None:
        raise MissingExactEvaluatorsError("Lyapunov diagnostics need exact evaluators")
    M = problem.M
    if len(gammas) != max(M - 1, 0):
        raise ValueError(f"need {M - 1} gamma weights for levels 2..{M}, got {len(gammas)}")
    if any(g <= 0 for g in gammas):
        raise ValueError("gamma weights must be positive")
    if smooth:
        f1 = problem.exact.nested(x)[0]
    else:
        f1 = problem.exact.value(1, x, u[1] if M >= 2 else None)
    w = a * float(np.squeeze(f1)) - set_gap(problem.feasible_set, x, z, rho)
    for g, r in zip(gammas, tracking_errors(problem.exact, x, u)[1:]):
        w += g * r * r if smooth else g * r
    return w


def lyapunov_nonsmooth(problem: CompositionProblem, x: np.ndarray, z: np.ndarray,
                       u: Sequence[np.ndarray], a: float, rho: float,
                       gammas: Sequence[float]) -> float:
    """Merit function a*f_1(x, u_2) - eta(x, z) + sum gamma_m ||f_m - u_m||.

    Uses exact evaluators; the top level is evaluated at the tracker u_2,
    the residual terms at (x, u_{m+1}) for m = 2..M.
    """
    return _merit(problem, x, z, u, a, rho, gammas, smooth=False)


def lyapunov_smooth(problem: CompositionProblem, x: np.ndarray, z: np.ndarray,
                    u: Sequence[np.ndarray], a: float, rho: float,
                    gammas: Sequence[float]) -> float:
    """Smooth-case merit: a*V_1(x) - eta(x, z) + sum gamma_m ||f_m - u_m||^2."""
    return _merit(problem, x, z, u, a, rho, gammas, smooth=True)


def default_gammas(problem: CompositionProblem, params: AlgorithmParams,
                   calibration_iters: int = 200) -> tuple[float, ...]:
    """Merit weights a * Lhat^(m-1) + 1 from a short calibration run.

    Lhat is the largest u-block Jacobian norm observed while sampling along
    a short trajectory; the growth in m mirrors how inner residuals
    propagate through the chain rule.
    """
    from .solver import step  # local import to avoid a cycle

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
        raise MissingExactEvaluatorsError(
            "objective series not recorded; run with exact_every >= 1")
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

