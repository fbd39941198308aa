"""Mean-semideviation risk minimization as a nested composition.

The risk of a scalar loss Z is E[Z] + kappa * (E[max(0, Z - E[Z])^p])^(1/p).
For p = 1 this is a two-level composition; for p = 2 a three-level one with
a small epsilon inside the square root to keep the top level Lipschitz.
Losses are affine per scenario (optionally passed through a ReLU), so on a
finite scenario table the level oracles called with rng=None sum over all
scenarios and serve as the exact evaluators.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..model import CompositionProblem, ExactEvaluators
from ..oracles import ROW_BLOCK_ELEMENTS, LevelOracle, OracleSample, row_matvec
from ..sets import FeasibleSet, Simplex


@dataclass(frozen=True)
class FiniteScenarios:
    """Discrete scenario table for losses H_i(x) = <coef_i, x> + offset_i.

    With relu=True the loss is max(0, <coef_i, x> + offset_i); the slope at
    the kink is taken as zero so sampled subgradients are deterministic in
    the scenario.
    """

    weights: np.ndarray
    coef: np.ndarray
    offset: np.ndarray
    relu: bool = False

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        with np.errstate(over="ignore"):  # an infinite sum is rejected below
            total = w.sum()
        if np.any(w < 0) or not 0 < total < np.inf:  # also rejects NaN
            raise ConfigError("scenarios.weights", "weights must be >= 0 with a finite sum > 0")
        w = w / total
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "coef", np.atleast_2d(np.asarray(self.coef, dtype=float)))
        object.__setattr__(self, "offset", np.atleast_1d(np.asarray(self.offset, dtype=float)))
        cum = np.cumsum(w)
        cum[-1] = 1.0
        object.__setattr__(self, "_cum", cum)
        if self.coef.shape[0] != w.size or self.offset.size != w.size:
            raise ConfigError("scenarios", "weights, coef, offset row counts differ")

    @property
    def n(self) -> int:
        return self.coef.shape[1]

    @property
    def count(self) -> int:
        return self.weights.size

    def draw_loss(self, x: np.ndarray, rng: np.random.Generator):
        """One sampled (loss value, loss subgradient) pair."""
        i = int(self._cum.searchsorted(rng.random(), side="right"))
        t = float(self.coef[i] @ x) + float(self.offset[i])
        if not self.relu:
            return t, self.coef[i]
        if t > 0.0:
            return t, self.coef[i]
        return 0.0, np.zeros(self.n)

    def loss_values(self, x: np.ndarray) -> np.ndarray:
        """Loss values of every scenario at x, or at each row of a block x."""
        t = row_matvec(self.coef, x) + self.offset
        return np.maximum(t, 0.0) if self.relu else t

    def all_losses(self, x: np.ndarray):
        """Loss values and subgradients of every scenario at x."""
        h = self.loss_values(x)
        if not self.relu:
            return h, self.coef
        return h, self.coef * (h > 0.0)[:, None]  # max(t, 0) > 0 exactly where t > 0


@dataclass(frozen=True)
class GaussianScenarios:
    """Continuous scenario generator for stress tests (no exact evaluators)."""

    coef_mean: np.ndarray
    coef_sd: float
    offset_mean: float
    offset_sd: float

    @property
    def n(self) -> int:
        return np.asarray(self.coef_mean).size

    def draw_loss(self, x: np.ndarray, rng: np.random.Generator):
        a = np.asarray(self.coef_mean, dtype=float) + self.coef_sd * rng.standard_normal(self.n)
        b = self.offset_mean + self.offset_sd * rng.standard_normal()
        return float(a @ x) + b, a


def random_scenarios(n: int, count: int, seed: int = 0, coef_loc: float = 0.3,
                     coef_scale: float = 0.4, offset_loc: float = 1.0,
                     offset_scale: float = 0.5, relu: bool = False) -> FiniteScenarios:
    """Equal-weight random affine scenario table."""
    rng = np.random.default_rng(seed)
    return FiniteScenarios(
        weights=np.full(count, 1.0 / count),
        coef=coef_loc + coef_scale * rng.standard_normal((count, n)),
        offset=offset_loc + offset_scale * rng.standard_normal(count),
        relu=relu,
    )


def scenarios_from_csv(path, relu: bool = False) -> FiniteScenarios:
    """Load a scenario table: one row per scenario, columns weight, coef..., offset."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt only warns about an empty file
            data = np.atleast_2d(np.loadtxt(path, delimiter=","))
    except (OSError, ValueError, UserWarning) as exc:
        raise ConfigError("problem.scenarios.csv", str(exc)) from exc
    if data.shape[1] < 3:
        raise ConfigError("problem.scenarios.csv", "need columns weight, coef..., offset")
    if not np.isfinite(data).all():
        raise ConfigError("problem.scenarios.csv", "every entry must be finite")
    try:
        return FiniteScenarios(weights=data[:, 0], coef=data[:, 1:-1],
                               offset=data[:, -1], relu=relu)
    except ConfigError as exc:
        raise ConfigError("problem.scenarios.csv", exc.message) from exc


# ---------------------------------------------------------------------------
# level oracles

def _identity(v):
    return v


class _ScenarioLevel(LevelOracle):
    """A scalar level written once as formula(h, g, u, E, J).

    h and g are scenario losses and subgradients, u the inner level's
    value, E a mean over scenarios and J(c) the Jacobian mean E[c * g].
    With a generator, one scenario is drawn and E is the identity; with
    rng=None, every row of the finite table is taken with its weight, which
    gives the exact level.  Called with J=None, formula returns the value
    alone and builds no Jacobian: exact_value passes the losses of a row or
    a block of rows, u of shape (..., 1), and an E that keeps that axis.
    """

    def __init__(self, scen):
        self.scen = scen

    def sample(self, x, u_next, rng, k=0):
        u = None if u_next is None else float(u_next[0])
        if rng is not None:
            h, g = self.scen.draw_loss(x, rng)
            return self.formula(h, g, u, _identity, g.__rmul__)
        h, grads = self.scen.all_losses(x)
        w = self.scen.weights
        return self.formula(h, grads, u, w.__matmul__, lambda c: (w * c) @ grads)

    def exact_value(self, x, u_next):
        """The value of sample(x, u_next, None) without its Jacobians; x may be a block.

        A block goes in chunks of rows whose (rows, scenarios) loss tables
        hold at most ROW_BLOCK_ELEMENTS entries.
        """
        rows = max(1, ROW_BLOCK_ELEMENTS // self.scen.count)
        if x.ndim == 2 and len(x) > rows:
            return np.concatenate([
                self.exact_value(x[i:i + rows], None if u_next is None else u_next[i:i + rows])
                for i in range(0, len(x), rows)])
        w_row = self.scen.weights[None, :]
        return self.formula(self.scen.loss_values(x), None, u_next,
                            lambda v: row_matvec(w_row, v), None)


class MeanLossLevel(_ScenarioLevel):
    """Innermost level: E[H(x)]."""

    def formula(self, h, g, u, E, J):
        value = E(h)
        if J is None:
            return value
        return OracleSample(np.array([value]), E(g).reshape(1, -1))


class UpperSemidevLevel(_ScenarioLevel):
    """p=1 top level: E[H(x) + kappa * max(0, H(x) - u)]."""

    def __init__(self, scen, kappa: float):
        super().__init__(scen)
        self.kappa = float(kappa)

    def formula(self, h, g, u, E, J):
        kappa = self.kappa
        d = h - u
        act = (d > 0.0) * 1.0  # subgradient 0 at the kink
        value = E(h) + kappa * E(act * d)
        if J is None:
            return value
        return OracleSample(np.array([value]), J(1.0 + kappa * act).reshape(1, -1),
                            np.array([[-kappa * E(act)]]))


class SquaredShortfallLevel(_ScenarioLevel):
    """p=2 middle level: E[max(0, H(x) - u)^2]."""

    def formula(self, h, g, u, E, J):
        d = h - u
        m0 = (d > 0.0) * d + 0.0  # max(0, d), +0.0 below the kink
        value = E(m0 * m0)
        if J is None:
            return value
        return OracleSample(np.array([value]), J(2.0 * m0).reshape(1, -1),
                            np.array([[-2.0 * E(m0)]]))


class SqrtRiskLevel(_ScenarioLevel):
    """p=2 top level: E[H(x)] + kappa * sqrt(epsilon + u).

    The tracker feeding u is an estimate of a nonnegative quantity but can
    transiently dip below zero; arguments below -epsilon/2 are clamped to
    keep the square root away from its singularity, and the sample is
    flagged so runs can report how often that happened.
    """

    def __init__(self, scen, kappa: float, epsilon: float):
        super().__init__(scen)
        self.kappa = float(kappa)
        self.epsilon = float(epsilon)

    def formula(self, h, g, u, E, J):
        arg = self.epsilon + u
        floor = 0.5 * self.epsilon
        if J is None:  # u may be a block here; np.maximum keeps NaN as the branch below does
            return E(h) + self.kappa * np.sqrt(np.maximum(arg, floor))
        # a sample's u is a float: math is several times faster than numpy on scalars
        clamped = arg < floor
        root = math.sqrt(floor if clamped else arg)
        return OracleSample(np.array([E(h) + self.kappa * root]), E(g).reshape(1, -1),
                            np.array([[self.kappa / (2.0 * root)]]), clamped=clamped)


# ---------------------------------------------------------------------------
# problem builders

def risk_p1(scen, kappa: float, feasible_set: FeasibleSet | None = None) -> CompositionProblem:
    """Two-level mean-semideviation problem (p = 1) over a feasible set."""
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError("problem.kappa", "kappa must lie in [0, 1]")
    fs = feasible_set if feasible_set is not None else Simplex(scen.n)
    oracles = (UpperSemidevLevel(scen, kappa), MeanLossLevel(scen))
    exact = ExactEvaluators(oracles) if isinstance(scen, FiniteScenarios) else None
    return CompositionProblem(scen.n, (1, 1), fs, oracles, exact)


def risk_p2(scen, kappa: float, epsilon: float,
            feasible_set: FeasibleSet | None = None) -> CompositionProblem:
    """Three-level mean-semideviation problem (p = 2)."""
    if not 0.0 <= kappa <= 1.0:
        raise ConfigError("problem.kappa", "kappa must lie in [0, 1]")
    if epsilon <= 0.0:
        raise ConfigError("problem.epsilon", "epsilon must be strictly positive")
    fs = feasible_set if feasible_set is not None else Simplex(scen.n)
    oracles = (SqrtRiskLevel(scen, kappa, epsilon),
               SquaredShortfallLevel(scen),
               MeanLossLevel(scen))
    exact = ExactEvaluators(oracles) if isinstance(scen, FiniteScenarios) else None
    return CompositionProblem(scen.n, (1, 1, 1), fs, oracles, exact)
