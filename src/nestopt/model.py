"""Problem and algorithm-state data model shared by all modules."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .oracles import _SEED_MAX, LevelOracle, OracleSample, level_streams
from .sets import FeasibleSet


# ---------------------------------------------------------------------------
# stepsize schedules

@dataclass(frozen=True)
class Diminishing:
    """tau_k = tau0 / (k+1)^gamma before clipping.

    gamma in (1/2, 1] gives a divergent-sum, square-summable sequence.
    """

    tau0: float
    gamma: float


@dataclass(frozen=True)
class Constant:
    """Fixed tau; meant for finite-horizon runs only."""

    tau: float


@dataclass(frozen=True)
class Custom:
    """Explicit stepsize sequence; exhausting it is an error."""

    taus: tuple[float, ...]


StepSchedule = Diminishing | Constant | Custom


def stepsize_cap(a: float, b: float) -> float:
    return min(1.0, 1.0 / a, 1.0 / b)


def next_stepsize(schedule: StepSchedule, k: int, a: float, b: float) -> float:
    """Stepsize for iteration k, clipped into (0, min(1, 1/a, 1/b)]."""
    if isinstance(schedule, Diminishing):
        raw = schedule.tau0 / (k + 1) ** schedule.gamma
    elif isinstance(schedule, Constant):
        raw = schedule.tau
    elif isinstance(schedule, Custom):
        if k >= len(schedule.taus):
            raise ValueError(f"custom schedule has {len(schedule.taus)} entries, needed k={k}")
        raw = schedule.taus[k]
    else:
        raise TypeError(f"unknown schedule type {type(schedule).__name__}")
    if not raw > 0.0:  # also rejects NaN
        raise ValueError(f"schedule produced non-positive stepsize {raw} at k={k}")
    return min(raw, stepsize_cap(a, b))


@dataclass(frozen=True)
class AlgorithmParams:
    """Gains of the averaging recursions plus the subproblem regularizer.

    a scales the subgradient average, b the value trackers, rho the
    quadratic term of the per-iteration subproblem.  The seed drives every
    stream of the run.
    """

    a: float
    b: float
    rho: float
    schedule: StepSchedule
    seed: int = 0

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.rho > 0):  # also rejects NaN
            raise ValueError("a, b, rho must all be positive")
        if not 0 <= int(self.seed) < _SEED_MAX:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


# ---------------------------------------------------------------------------
# problem definition

@dataclass(frozen=True)
class ExactEvaluators:
    """Ground-truth evaluators read off a problem's noise-free levels.

    levels[m-1] is level m's noise-free oracle: called with rng=None, its
    sample returns the exact (value, jac_x, jac_u), which value_jac(m, x,
    u_next) gives for m = 1..M (jac_u is None at the innermost level).
    values[m-1](x, u_next) gives level m's exact value alone, for one row
    (x of shape (n,)) or for a block of rows (x of shape (B, n), u_next of
    shape (B, d_{m+1}), value of shape (B, d_m)): the level's exact_value
    where it has one, else that sample's value, row by row.  Both are bound
    when the evaluators are built, so they never call an oracle's sample
    attribute afterwards.  x_star carries a known solution when one exists.
    """

    levels: tuple[LevelOracle, ...]
    x_star: np.ndarray | None = None

    def __post_init__(self):
        samplers = tuple(o.sample for o in self.levels)

        def value_of(sample):
            def value(x, u_next):
                if x.ndim == 1:
                    return sample(x, u_next, None, 0)[0]
                inner = [None] * len(x) if u_next is None else u_next
                return np.array([sample(row, v, None, 0)[0] for row, v in zip(x, inner)])
            return value
        object.__setattr__(self, "_samplers", samplers)
        object.__setattr__(self, "values", tuple(
            getattr(o, "exact_value", None) or value_of(s)
            for o, s in zip(self.levels, samplers)))

    def value_jac(self, m: int, x: np.ndarray, u_next: np.ndarray | None) -> tuple:
        """Exact (value, jac_x, jac_u) of level m."""
        return self._samplers[m - 1](x, u_next, None, 0)[:3]

    def nested(self, x: np.ndarray) -> list[np.ndarray]:
        """Fully composed values [V_1(x), ..., V_M(x)], folded bottom-up; x may be a block."""
        vals: list = [None] * len(self.levels)
        v = None
        for m in range(len(vals), 0, -1):
            v = vals[m - 1] = self.values[m - 1](x, v)
        return vals


@dataclass(frozen=True)
class CompositionProblem:
    """An M-level nested problem: dimensions, feasible set, level oracles.

    level_dims holds (d_1, ..., d_M); d_1 = 1 is required to run the solver
    (scalar objective) but larger d_1 is allowed for diagnostics-only use.
    """

    n: int
    level_dims: tuple[int, ...]
    feasible_set: FeasibleSet
    oracles: tuple[LevelOracle, ...]
    exact: ExactEvaluators | None = None

    @property
    def M(self) -> int:
        return len(self.level_dims)

    def sample_levels(self, x: np.ndarray, u: Sequence[np.ndarray] | None,
                      streams: Sequence[np.random.Generator], k: int) -> list[OracleSample]:
        """One sample per level at x, innermost first; samples[m-1] is level m's.

        Level m < M reads the tracker u[m] of level m+1 as its inner argument,
        or, with u None, the value just sampled from level m+1.
        """
        oracles = self.oracles
        M = len(oracles)
        samples: list = [None] * M
        s = samples[M - 1] = oracles[M - 1].sample(x, None, streams[M - 1], k)
        for m in range(M - 2, -1, -1):
            s = samples[m] = oracles[m].sample(x, s.value if u is None else u[m + 1],
                                               streams[m], k)
        return samples


@dataclass(frozen=True)
class IterateState:
    """Full solver state: iterate, subgradient average, value trackers."""

    k: int
    x: np.ndarray
    z: np.ndarray
    u: tuple[np.ndarray, ...]


class InitPolicy(enum.Enum):
    ZEROS = "zeros"
    ONE_SAMPLE = "one_sample"


# ---------------------------------------------------------------------------
# structural validation

@dataclass(frozen=True)
class Violation:
    """One structural defect found by validate_problem."""

    level: int | None
    kind: str
    message: str
    expected: object = None
    actual: object = None


def validate_problem(problem: CompositionProblem) -> list[Violation]:
    """Check the dimension contract of every level oracle.

    Pure: probing uses a fixed internal seed, so repeated calls return
    identical violation lists.  Violations are data, not exceptions.
    """
    out: list[Violation] = []
    M = problem.M
    if M < 1:
        return [Violation(None, "levels", "problem must have at least one level")]
    if len(problem.oracles) != M:
        return [Violation(None, "levels",
                          f"expected {M} oracles, got {len(problem.oracles)}",
                          expected=M, actual=len(problem.oracles))]
    for m, d in enumerate(problem.level_dims, start=1):
        if d < 1:
            out.append(Violation(m, "level_dim", f"level {m} dimension must be >= 1",
                                 expected=">=1", actual=d))
    if problem.n < 1:
        out.append(Violation(None, "decision_dim", "n must be >= 1",
                             expected=">=1", actual=problem.n))
    if out:
        return out

    try:
        x0 = problem.feasible_set.project(np.asarray(problem.feasible_set.anchor(), dtype=float))
    except Exception as exc:  # noqa: BLE001 - report, don't raise
        return [Violation(None, "feasible_set", f"projection failed: {exc}")]
    if x0.shape != (problem.n,):
        return [Violation(None, "feasible_set",
                          f"set dimension {x0.shape} does not match n={problem.n}",
                          expected=(problem.n,), actual=x0.shape)]

    streams = level_streams(seed=0, n_levels=M, replication=0)
    for m in range(1, M + 1):
        oracle = problem.oracles[m - 1]
        d_m = problem.level_dims[m - 1]
        d_next = problem.level_dims[m] if m < M else 0  # inner-argument dimension
        u_next = np.zeros(d_next) if d_next else None
        try:
            s = oracle.sample(x0, u_next, streams[m - 1], 0)
        except Exception as exc:  # noqa: BLE001
            out.append(Violation(m, "probe_error", f"oracle sample failed: {exc}"))
            continue
        if s.value.shape != (d_m,):
            out.append(Violation(m, "value_dim",
                                 f"level {m} value has shape {s.value.shape}",
                                 expected=(d_m,), actual=s.value.shape))
        if s.jac_x.shape != (d_m, problem.n):
            out.append(Violation(m, "jac_rows" if s.jac_x.shape[0] != d_m else "jac_cols",
                                 f"level {m} x-block has shape {s.jac_x.shape}",
                                 expected=(d_m, problem.n), actual=s.jac_x.shape))
        if d_next:
            if s.jac_u is None or s.jac_u.shape != (d_m, d_next):
                got = None if s.jac_u is None else s.jac_u.shape
                out.append(Violation(m, "jac_cols",
                                     f"level {m} u-block has shape {got}, "
                                     f"expected columns for inner dimension {d_next}",
                                     expected=(d_m, d_next), actual=got))
        elif s.jac_u is not None:
            out.append(Violation(m, "jac_cols",
                                 f"innermost level {m} must not carry a u-block",
                                 expected=None, actual=s.jac_u.shape))
        if not s.check_finite():
            out.append(Violation(m, "nonfinite", f"level {m} probe sample is not finite"))
    return out


# ---------------------------------------------------------------------------
# state initialization

def init_state(problem: CompositionProblem, params: AlgorithmParams,
               init_x: np.ndarray | None = None,
               policy: InitPolicy = InitPolicy.ONE_SAMPLE,
               streams: Sequence[np.random.Generator] | None = None) -> IterateState:
    """Build the iteration-0 state.

    The start point is projected onto the feasible set.  ZEROS leaves the
    averages at zero; ONE_SAMPLE draws one oracle sample per level at the
    start point (bottom-up, each tracker seeded with the sampled value of
    its level) and sets z from the assembled subgradient, which removes
    most of the initial tracking transient.
    """
    from .solver import assemble_subgradient  # local import to avoid a cycle

    if init_x is None:
        init_x = problem.feasible_set.anchor()
    init_x = np.asarray(init_x, dtype=float)
    if init_x.shape != (problem.n,):
        raise ValueError(f"init_x has shape {init_x.shape}, expected ({problem.n},)")
    x0 = problem.feasible_set.project(init_x)

    if policy is InitPolicy.ZEROS:
        u = tuple(np.zeros(d) for d in problem.level_dims)
        return IterateState(0, x0, np.zeros(problem.n), u)

    if streams is None:
        streams = level_streams(params.seed, problem.M, replication=0)
    samples = problem.sample_levels(x0, None, streams, 0)
    if problem.level_dims[0] == 1:
        z0 = assemble_subgradient(samples)[0].copy()
    else:
        z0 = np.zeros(problem.n)  # no scalar chain to fold for diagnostics-only problems
    return IterateState(0, x0, z0, tuple(s.value for s in samples))
