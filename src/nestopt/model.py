"""Problem and algorithm-state data model shared by all modules."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .oracles import _SEED_MAX, LevelOracle, OracleSample, check_count, level_streams
from .sets import FeasibleSet


# ---------------------------------------------------------------------------
# stepsize schedules

class Diminishing(NamedTuple):
    """tau_k = tau0 / (k+1)^gamma before clipping.

    gamma in (1/2, 1] gives a divergent-sum, square-summable sequence.
    """

    tau0: float
    gamma: float


class Constant(NamedTuple):
    """Fixed tau; meant for finite-horizon runs only."""

    tau: float


class Custom(NamedTuple):
    """Explicit stepsize sequence; exhausting it is an error."""

    taus: tuple[float, ...]


StepSchedule = Diminishing | Constant | Custom


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
    return min(raw, 1.0, 1.0 / a, 1.0 / b)


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
        if not all(0 < v < np.inf for v in (self.a, self.b, self.rho)):  # also rejects NaN
            raise ValueError("a, b, rho must all be positive and finite")
        check_count("seed", self.seed, below=_SEED_MAX)


# ---------------------------------------------------------------------------
# problem definition

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

    def __init__(self, levels: tuple[LevelOracle, ...], x_star: np.ndarray | None = None):
        self.levels, self.x_star = levels, x_star
        self._samplers = samplers = tuple(o.sample for o in levels)

        def value_of(sample):
            def value(x, u_next):
                if x.ndim == 1:
                    return sample(x, u_next, None, 0)[0]
                inner = [None] * len(x) if u_next is None else u_next
                return np.array([sample(row, v, None, 0)[0] for row, v in zip(x, inner)])
            return value
        self.values = tuple(getattr(o, "exact_value", None) or value_of(s)
                            for o, s in zip(levels, samplers))

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

    level_dims holds (d_1, ..., d_M); the objective is scalar, so d_1 = 1,
    which init_state checks.
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
        or, with u None, the value just sampled from level m+1.  A block of R
        rows (x of shape (R, n), u[m] of shape (R, d_{m+1}), streams[m] each
        row's rng) takes one sample_rows call per level, whose result is
        samples[m-1].
        """
        oracles = self.oracles
        M = len(oracles)
        method = "sample" if x.ndim == 1 else "sample_rows"
        samples: list = [None] * M
        s = samples[M - 1] = getattr(oracles[M - 1], method)(x, None, streams[M - 1], k)
        for m in range(M - 2, -1, -1):
            s = samples[m] = getattr(oracles[m], method)(x, s.value if u is None else u[m + 1],
                                                         streams[m], k)
        return samples


class IterateState(NamedTuple):
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

def validate_problem(problem: CompositionProblem) -> None:
    """Check the dimension contract of every level oracle.

    Raises ConfigError("problem", ...) joining the message of every defect
    found with "; ", and returns None when there is none.  Probing uses a
    fixed internal seed, so repeated calls give the same outcome.
    """
    messages = _problem_defects(problem)
    if messages:
        raise ConfigError("problem", "; ".join(messages))


def _problem_defects(problem: CompositionProblem) -> list[str]:
    out: list[str] = []
    M = problem.M
    if M < 1:
        return ["problem must have at least one level"]
    if len(problem.oracles) != M:
        return [f"expected {M} oracles, got {len(problem.oracles)}"]
    for m, d in enumerate(problem.level_dims, start=1):
        if d < 1:
            out.append(f"level {m} dimension must be >= 1")
    if problem.n < 1:
        out.append("n must be >= 1")
    if out:
        return out

    try:
        x0 = problem.feasible_set.project(np.asarray(problem.feasible_set.anchor(), dtype=float))
    except Exception as exc:  # noqa: BLE001 - report, don't raise
        return [f"projection failed: {exc}"]
    if x0.shape != (problem.n,):
        return [f"set dimension {x0.shape} does not match n={problem.n}"]

    streams = level_streams(seed=0, n_levels=M, replication=0)
    for m in range(1, M + 1):
        oracle = problem.oracles[m - 1]
        d_m = problem.level_dims[m - 1]
        d_next = problem.level_dims[m] if m < M else 0  # inner-argument dimension
        u_next = np.zeros(d_next) if d_next else None
        try:
            s = oracle.sample(x0, u_next, streams[m - 1], 0)
        except Exception as exc:  # noqa: BLE001
            out.append(f"oracle sample failed: {exc}")
            continue
        fields = {"value": s.value, "jac_x": s.jac_x}
        if s.jac_u is not None:
            fields["jac_u"] = s.jac_u
        wrong = [f"level {m} {name} is a {type(a).__name__}, not an ndarray"
                 for name, a in fields.items() if not isinstance(a, np.ndarray)]
        if wrong:
            out += wrong
            continue
        if s.value.shape != (d_m,):
            out.append(f"level {m} value has shape {s.value.shape}")
        if s.jac_x.shape != (d_m, problem.n):
            out.append(f"level {m} x-block has shape {s.jac_x.shape}")
        if d_next:
            if s.jac_u is None or s.jac_u.shape != (d_m, d_next):
                got = None if s.jac_u is None else s.jac_u.shape
                out.append(f"level {m} u-block has shape {got}, "
                           f"expected columns for inner dimension {d_next}")
        elif s.jac_u is not None:
            out.append(f"innermost level {m} must not carry a u-block")
        if not s.check_finite():
            out.append(f"level {m} probe sample is not finite")
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
    most of the initial tracking transient.  A top level with d_1 != 1
    raises ValueError: the method minimises a scalar objective.
    """
    from .solver import assemble_subgradient  # local import to avoid a cycle

    if problem.level_dims[0] != 1:
        raise ValueError("the solver needs a scalar top level (d_1 = 1)")

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
    z0 = assemble_subgradient(samples)[0].copy()
    return IterateState(0, x0, z0, tuple(s.value for s in samples))
