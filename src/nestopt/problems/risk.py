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
import numbers
import warnings

import numpy as np

from ..errors import ConfigError
from ..model import CompositionProblem, ExactEvaluators
from ..oracles import (ROW_BLOCK_ELEMENTS, LevelOracle, OracleSample, check_count, row_dot,
                       row_matvec)
from ..sets import FeasibleSet, Simplex


class FiniteScenarios:
    """Discrete scenario table for losses H_i(x) = <coef_i, x> + offset_i.

    With relu=True the loss is max(0, <coef_i, x> + offset_i); the slope at
    the kink is taken as zero so sampled subgradients are deterministic in
    the scenario.
    """

    def __init__(self, weights: np.ndarray, coef: np.ndarray, offset: np.ndarray,
                 relu: bool = False):
        w = np.asarray(weights, dtype=float)
        self.coef = np.atleast_2d(np.asarray(coef, dtype=float))
        self.offset = np.atleast_1d(np.asarray(offset, dtype=float))
        for name, entries, axes in (("weights", w, 1), ("coef", self.coef, 2),
                                    ("offset", self.offset, 1)):
            if entries.ndim != axes:
                raise ConfigError(f"scenarios.{name}",
                                  f"{name} must have {axes} axes, not shape {entries.shape}")
        if not isinstance(relu, (bool, np.bool_)):
            raise ConfigError("scenarios.relu", f"relu must be a bool, got {relu!r}")
        with np.errstate(over="ignore"):  # an infinite sum is rejected below
            total = w.sum()
        if np.any(w < 0) or not 0 < total < np.inf:  # also rejects NaN
            raise ConfigError("scenarios.weights", "weights must be >= 0 with a finite sum > 0")
        self.weights = w = w / total
        for name, entries in (("coef", self.coef), ("offset", self.offset)):
            if not np.isfinite(entries).all():
                raise ConfigError(f"scenarios.{name}", f"every {name} entry must be finite")
        self.relu = bool(relu)
        self._cum = cum = np.cumsum(w)
        cum[-1] = 1.0
        if self.coef.shape[0] != w.size or self.offset.size != w.size:
            raise ConfigError("scenarios", "weights, coef, offset row counts differ")

    @property
    def n(self) -> int:
        return self.coef.shape[1]

    @property
    def count(self) -> int:
        return self.weights.size

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The scenario indices of count samples, from one rng.random(count) call."""
        return self._cum.searchsorted(rng.random(count), side="right")

    def losses(self, x: np.ndarray, pick=None):
        """Loss values h and subgradients g at x: of the drawn scenario pick at one row x
        (h a float), of pick[i] at row i of a block, or of an index array's scenarios at one
        row.  pick None gives every scenario's values alone (g None), at one row or a block,
        as exact values read them.  A relu loss is np.maximum(t, 0.0) of its affine part t,
        so a NaN t stays NaN."""
        if pick is None:
            t, g = row_matvec(self.coef, x) + self.offset, None
        elif x.ndim == 1 and not isinstance(pick, np.ndarray):  # one drawn scenario: floats
            g = self.coef[pick]
            t = float(g.dot(x)) + float(self.offset[pick])
            if not self.relu or t > 0.0:
                return t, g
            return (0.0 if t <= 0.0 else t), np.zeros(self.n)
        else:
            g = self.coef[pick]
            t = (row_matvec(g, x) if x.ndim == 1 else row_dot(g, x)) + self.offset[pick]
        if not self.relu:
            return t, g
        return np.maximum(t, 0.0), None if g is None else np.where((t > 0.0)[..., None], g, 0.0)


def _real(field: str, value, message: str, ok) -> float:
    """value as a float; a ConfigError(field, message) unless it is a real number, not a
    bool, for which ok holds (ok is false at NaN)."""
    if (isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real)
            or not ok(float(value))):
        raise ConfigError(field, message)
    return float(value)


class GaussianScenarios:
    """Continuous scenario generator for stress tests (no exact evaluators)."""

    def __init__(self, coef_mean: np.ndarray, coef_sd: float, offset_mean: float,
                 offset_sd: float):
        self.coef_mean = np.atleast_1d(np.asarray(coef_mean, dtype=float))
        if self.coef_mean.ndim != 1 or not np.isfinite(self.coef_mean).all():
            raise ConfigError("scenarios.coef_mean", "coef_mean must be a vector of finite numbers")
        self.coef_sd, self.offset_sd = (
            _real(f"scenarios.{name}", sd, f"{name} must be >= 0 and finite",
                  lambda v: 0.0 <= v < math.inf)
            for name, sd in (("coef_sd", coef_sd), ("offset_sd", offset_sd)))
        self.offset_mean = _real("scenarios.offset_mean", offset_mean,
                                 "offset_mean must be finite", math.isfinite)

    @property
    def n(self) -> int:
        return self.coef_mean.size

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """The standard normals of count samples: n for the coefficients, then the offset's."""
        return rng.standard_normal((count, self.n + 1))

    def losses(self, x: np.ndarray, pick):
        """Loss values h and subgradients g at x of the drawn rows pick, n + 1 normals
        each, one for one row x or one per row of a block; there is no exact table."""
        g = self.coef_mean + self.coef_sd * pick[..., :-1]
        return row_dot(g, x) + (self.offset_mean + self.offset_sd * pick[..., -1]), g


def random_scenarios(n: int, count: int, seed: int = 0, coef_loc: float = 0.3,
                     coef_scale: float = 0.4, offset_loc: float = 1.0,
                     offset_scale: float = 0.5, relu: bool = False) -> FiniteScenarios:
    """Equal-weight random affine scenario table."""
    check_count("n", n, least=1)
    check_count("count", count, least=1)
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

    h and g are scenario losses and subgradients, u the inner level's value,
    E a mean over scenarios and J(c) the Jacobian mean E[c * g]; formula
    returns (value, jac_x row, jac_u entry or None, clamped) for sample_rows
    to shape.  Its rows are drawn picks, one for a row x or one per row of a
    block, with E the identity, or None at one row x: every scenario with its
    weight, the exact level.  With J=None formula returns the value alone, for
    exact_value: the losses of a row or block, u (..., 1), an E keeping that axis.
    """

    def __init__(self, scen):
        self.scen = scen

    def draw(self, rng, count, dims):
        return self.scen.draw(rng, count)

    def sample(self, x, u_next, rng, k=0):
        if isinstance(rng, np.random.Generator):
            rng = self.scen.draw(rng, 1)[0]
        return self.sample_rows(x, u_next, rng, k)

    def sample_rows(self, x, u_next, rows, k=0):
        h, g = self.scen.losses(x, np.arange(self.scen.count) if rows is None else rows)
        block = x.ndim > 1
        u = None if u_next is None else u_next[:, 0] if block else float(u_next[0])
        if block:  # one drawn scenario per row
            E, J = _identity, lambda c: c[:, None] * g
        elif rows is None:  # every scenario with its weight: the exact level
            w = self.scen.weights
            E, J = w.__matmul__, lambda c: (w * c) @ g
        else:
            E, J = _identity, g.__rmul__
        value, jac_x, jac_u, clamped = self.formula(h, g, u, E, J)
        if block:
            return OracleSample(value[:, None], jac_x[:, None],
                                None if jac_u is None else jac_u[:, None, None], clamped)
        return OracleSample(np.array([value]), jac_x.reshape(1, -1),
                            None if jac_u is None else np.array([[jac_u]]), clamped)

    def exact_value(self, x, u_next):
        """The value of sample(x, u_next, None) without its Jacobians; x may be a block,
        taken in chunks of rows whose (rows, S) loss tables hold at most ROW_BLOCK_ELEMENTS."""
        rows = max(1, ROW_BLOCK_ELEMENTS // self.scen.count)
        if x.ndim == 2 and len(x) > rows:
            return np.concatenate([
                self.exact_value(x[i:i + rows], None if u_next is None else u_next[i:i + rows])
                for i in range(0, len(x), rows)])
        w_row = self.scen.weights[None, :]
        return self.formula(self.scen.losses(x)[0], None, u_next,
                            lambda v: row_matvec(w_row, v), None)


class MeanLossLevel(_ScenarioLevel):
    """Innermost level: E[H(x)]."""

    def formula(self, h, g, u, E, J):
        value = E(h)
        return value if J is None else (value, E(g), None, False)


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
        return value if J is None else (value, J(1.0 + kappa * act), -kappa * E(act), False)


class SquaredShortfallLevel(_ScenarioLevel):
    """p=2 middle level: E[max(0, H(x) - u)^2]."""

    def formula(self, h, g, u, E, J):
        d = h - u
        m0 = (d > 0.0) * d + 0.0  # max(0, d), +0.0 below the kink
        value = E(m0 * m0)
        return value if J is None else (value, J(2.0 * m0), -2.0 * E(m0), False)


class SqrtRiskLevel(_ScenarioLevel):
    """p=2 top level: E[H(x)] + kappa * sqrt(epsilon + u).

    The tracker feeding u is an estimate of a nonnegative quantity but can
    transiently dip below zero; arguments below -epsilon/2 are clamped to
    keep the square root away from its singularity, and the sample is
    flagged (per row, for a block) so runs can report how often that happened.
    """

    def __init__(self, scen, kappa: float, epsilon: float):
        super().__init__(scen)
        self.kappa = float(kappa)
        self.epsilon = float(epsilon)

    def formula(self, h, g, u, E, J):
        arg, floor = self.epsilon + u, 0.5 * self.epsilon
        if isinstance(arg, float):  # one row: math is several times faster than numpy on scalars
            root = math.sqrt(floor if arg < floor else arg)
        else:  # np.maximum keeps a NaN argument, as the branch above does
            root = np.sqrt(np.maximum(arg, floor))
        value = E(h) + self.kappa * root
        return value if J is None else (value, E(g), self.kappa / (2.0 * root), arg < floor)


# ---------------------------------------------------------------------------
# problem builders

def risk_p1(scen, kappa: float, feasible_set: FeasibleSet | None = None) -> CompositionProblem:
    """Two-level mean-semideviation problem (p = 1) over a feasible set."""
    kappa = _real("problem.kappa", kappa, "kappa must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    fs = feasible_set if feasible_set is not None else Simplex(scen.n)
    oracles = (UpperSemidevLevel(scen, kappa), MeanLossLevel(scen))
    exact = ExactEvaluators(oracles) if isinstance(scen, FiniteScenarios) else None
    return CompositionProblem(scen.n, (1, 1), fs, oracles, exact)


def risk_p2(scen, kappa: float, epsilon: float,
            feasible_set: FeasibleSet | None = None) -> CompositionProblem:
    """Three-level mean-semideviation problem (p = 2)."""
    kappa = _real("problem.kappa", kappa, "kappa must lie in [0, 1]", lambda v: 0.0 <= v <= 1.0)
    epsilon = _real("problem.epsilon", epsilon, "epsilon must be strictly positive and finite",
                    lambda v: 0.0 < v < math.inf)
    fs = feasible_set if feasible_set is not None else Simplex(scen.n)
    oracles = (SqrtRiskLevel(scen, kappa, epsilon),
               SquaredShortfallLevel(scen),
               MeanLossLevel(scen))
    exact = ExactEvaluators(oracles) if isinstance(scen, FiniteScenarios) else None
    return CompositionProblem(scen.n, (1, 1, 1), fs, oracles, exact)
