"""Shipped problem families and the config-driven factory."""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParamError, UnknownFamilyError, config_number
from ..model import CompositionProblem
from ..oracles import NoiseModel
from ..sets import Ball, Box, FeasibleSet, Polytope, Simplex
from .risk import (FiniteScenarios, GaussianScenarios, mean_semideviation,
                   random_scenarios, risk_p1, risk_p2, scenarios_from_csv,
                   scenarios_to_csv)
from .svi import solve_vi_fixed_point, svi_problem
from .synthetic import synthetic_smooth

__all__ = [
    "FiniteScenarios", "GaussianScenarios", "mean_semideviation",
    "random_scenarios", "risk_p1", "risk_p2", "scenarios_from_csv",
    "scenarios_to_csv", "solve_vi_fixed_point", "svi_problem",
    "synthetic_smooth", "make_problem", "set_from_spec",
]


def _numbers(spec: dict, path: str):
    """num(key, default, integral=False): spec[key] or default, as config number path.key."""
    def num(key: str, default, integral: bool = False):
        return config_number(spec.get(key, default), f"{path}.{key}", integral)
    return num


def set_from_spec(spec: dict, n: int) -> FeasibleSet:
    """Build a feasible set from its JSON description."""
    if not isinstance(spec, dict) or "kind" not in spec:
        raise InvalidParamError("problem.set", "feasible set spec needs a 'kind'")
    kind = spec["kind"]
    num = _numbers(spec, "problem.set")

    def vec(key, default):  # a scalar entry fills all n coordinates
        v = spec.get(key, default)
        return np.full(n, num(key, default)) if np.isscalar(v) else np.asarray(v, dtype=float)

    try:
        if kind == "box":
            return Box(vec("lo", -1.0), vec("hi", 1.0))
        if kind == "ball":
            return Ball(vec("center", 0.0), num("radius", 1.0))
        if kind == "simplex":
            return Simplex(n, num("scale", 1.0))
        if kind == "polytope":
            return Polytope(np.asarray(spec["A"], dtype=float),
                            np.asarray(spec["b"], dtype=float),
                            np.asarray(spec["interior"], dtype=float))
    except KeyError as exc:
        raise InvalidParamError("problem.set", f"polytope spec missing {exc}") from exc
    except ValueError as exc:
        raise InvalidParamError("problem.set", str(exc)) from exc
    raise InvalidParamError("problem.set.kind", f"unknown feasible set kind {kind!r}")


def _noise_from_spec(spec: dict | None) -> NoiseModel | None:
    if not spec:
        return None
    num = _numbers(spec, "problem.noise")
    try:
        return NoiseModel(value_sd=num("value_sd", 0.0),
                          jac_sd=num("jac_sd", 0.0),
                          distribution=spec.get("distribution", "gaussian"))
    except ValueError as exc:
        raise InvalidParamError("problem.noise", str(exc)) from exc


def _scenarios_from_spec(spec, n: int):
    if isinstance(spec, dict):
        num = _numbers(spec, "problem.scenarios")
        if "csv" in spec:
            return scenarios_from_csv(spec["csv"], relu=bool(spec.get("relu", False)))
        if "count" in spec:
            return random_scenarios(
                n, num("count", None, True), seed=num("seed", 0, True),
                coef_loc=num("coef_loc", 0.3), coef_scale=num("coef_scale", 0.4),
                offset_loc=num("offset_loc", 1.0), offset_scale=num("offset_scale", 0.5),
                relu=bool(spec.get("relu", False)),
            )
        if spec.get("kind") == "gaussian":
            return GaussianScenarios(
                coef_mean=np.asarray(spec.get("coef_mean", np.full(n, 0.3)), dtype=float),
                coef_sd=num("coef_sd", 0.4), offset_mean=num("offset_mean", 1.0),
                offset_sd=num("offset_sd", 0.5),
            )
    raise InvalidParamError("problem.scenarios",
                            "expected {'count': ...}, {'csv': ...} or {'kind': 'gaussian'}")


def make_problem(spec: dict) -> CompositionProblem:
    """Instantiate a shipped problem family from its JSON description."""
    if not isinstance(spec, dict) or "family" not in spec:
        raise InvalidParamError("problem.family", "problem spec needs a 'family'")
    family = spec["family"]
    num = _numbers(spec, "problem")
    n = num("n", 5, True)
    fs = set_from_spec(spec["set"], n) if "set" in spec else None

    if family == "synthetic_smooth":
        if fs is not None:
            raise InvalidParamError("problem.set",
                                    "synthetic_smooth builds its own box; 'set' does not apply")
        return synthetic_smooth(
            levels=num("levels", 3, True), n=num("n", 10, True),
            inner_dim=num("inner_dim", 3, True), instance_seed=num("instance_seed", 1, True),
            halfwidth=num("halfwidth", 2.0), coupling=num("coupling", 0.4),
            noise=_noise_from_spec(spec.get("noise")),
        )
    if family == "risk_p1":
        scen = _scenarios_from_spec(spec.get("scenarios", {"count": 50}), n)
        return risk_p1(scen, kappa=num("kappa", 0.5), feasible_set=fs)
    if family == "risk_p2":
        scen = _scenarios_from_spec(spec.get("scenarios", {"count": 50}), n)
        return risk_p2(scen, kappa=num("kappa", 0.5), epsilon=num("epsilon", 1e-4),
                       feasible_set=fs)
    if family == "svi":
        matrix = spec.get("matrix", "identity_plus_skew")
        if isinstance(matrix, list):
            matrix = np.asarray(matrix, dtype=float)
        b = spec.get("b", "auto")
        if isinstance(b, list):
            b = np.asarray(b, dtype=float)
        return svi_problem(
            n=n, instance_seed=num("instance_seed", 3, True),
            skew_scale=num("skew_scale", 0.5), r=num("r", 1.0), feasible_set=fs,
            noise_sd=num("noise_sd", 0.0),
            matrix=matrix, b=b, monotone=bool(spec.get("monotone", True)),
        )
    raise UnknownFamilyError("problem.family", f"unknown problem family {family!r}")

