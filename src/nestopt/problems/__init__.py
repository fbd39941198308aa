"""Shipped problem families and the config-driven factory."""

from __future__ import annotations

from ..config import PROBLEMS, read
from ..errors import InvalidParamError
from ..model import CompositionProblem
from .risk import (FiniteScenarios, GaussianScenarios, random_scenarios, risk_p1,
                   risk_p2, scenarios_from_csv)
from .svi import solve_vi_fixed_point, svi_problem
from .synthetic import synthetic_smooth

__all__ = [
    "FiniteScenarios", "GaussianScenarios", "random_scenarios", "risk_p1",
    "risk_p2", "scenarios_from_csv", "solve_vi_fixed_point", "svi_problem",
    "synthetic_smooth", "make_problem",
]


def _scenarios(spec: dict, n: int):
    kind = spec.pop("kind")
    if kind == "count":
        return random_scenarios(n, **spec)
    if kind == "gaussian":
        return GaussianScenarios(**spec)
    scen = scenarios_from_csv(spec["csv"], spec["relu"])
    if scen.n != n:
        raise InvalidParamError("problem.scenarios.csv", f"has {scen.n} coefficient "
                                                         f"columns, problem.n is {n}")
    return scen


def make_problem(spec: dict) -> CompositionProblem:
    """Instantiate a shipped problem family from its JSON description."""
    p = read(spec, PROBLEMS, "problem")
    family, fs = p.pop("family"), p.pop("set", None)
    if family == "synthetic_smooth":
        return synthetic_smooth(**p)
    if family == "svi":
        return svi_problem(feasible_set=fs, **p)
    scen = _scenarios(p["scenarios"], p["n"])
    if family == "risk_p1":
        return risk_p1(scen, p["kappa"], fs)
    return risk_p2(scen, p["kappa"], p["epsilon"], fs)
