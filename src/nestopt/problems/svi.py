"""Variational inequality over a convex set via the regularized gap.

The task is to find x in X with <G(x*), xi - x*> >= 0 for all xi in X,
where G(x) = E[A x + b + noise].  The composition minimizes the gap

    theta(x) = max_{y in X} { <-G(x), y - x> - (r/2)||y - x||^2 } >= 0,

whose zeros are exactly the VI solutions; with a positive-definite
symmetric part of A every stationary point of the gap over X solves the
VI, so the minimizer is unique and certifiable by a projected fixed-point
iteration.  The inner level therefore estimates the NEGATED mean map
-(A x + b): the top level consumes the tracker u of that level directly
in the max above.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..model import CompositionProblem, ExactEvaluators
from ..oracles import (NoiseFreeLevel, NoiseModel, NoisyOracle, OracleSample, check_count,
                       row_dot)
from ..sets import Box, FeasibleSet
from .synthetic import LinearBottomLevel


class RegularizedGapLevel(NoiseFreeLevel):
    """Exact top level f(x, u) = max_{y in X} { <u, y-x> - (r/2)||y-x||^2 }.

    The maximizer is the projection of x + u/r; since it is unique, the
    gradients follow from the envelope theorem:
    d/dx = -u + r*(yhat - x), d/du = yhat - x.
    """

    def __init__(self, feasible_set: FeasibleSet, r: float):
        if not 0 < r < np.inf:  # and NaN
            raise ConfigError("problem.r", "regularization r must be positive and finite")
        self.feasible_set = feasible_set
        self.r = float(r)

    def sample_rows(self, x, u_next, rows, k=0):
        r = self.r
        dy = self.feasible_set.project_rows(x + u_next / r) - x
        return OracleSample((row_dot(u_next, dy) - 0.5 * r * row_dot(dy, dy))[..., None],
                            (r * dy - u_next)[..., None, :], dy[..., None, :])


def solve_vi_fixed_point(A: np.ndarray, b: np.ndarray, fs: FeasibleSet,
                         tol: float = 1e-10, max_iter: int = 1_000_000) -> np.ndarray:
    """Solve <A x + b, xi - x> >= 0 for all xi by projected fixed point.

    Converges linearly for maps whose symmetric part is positive definite;
    independent of the composition machinery, so it serves as the ground
    truth for shipped monotone instances.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    try:
        with np.errstate(over="raise"):
            mu = float(np.min(np.linalg.eigvalsh(0.5 * (A + A.T))))
            lip = float(np.linalg.norm(A, 2))
            gamma = mu / lip**2
    except (FloatingPointError, OverflowError) as exc:
        raise ConfigError("problem.matrix", "entries too large: the fixed-point step "
                                            "mu / L^2 overflows") from exc
    if mu <= 0:
        raise ConfigError("problem.matrix", "map is not strongly monotone")
    x = fs.anchor()
    for _ in range(max_iter):
        x_new = fs.project(x - gamma * (A @ x + b))
        if float(np.max(np.abs(x_new - x))) <= tol:
            return x_new
        x = x_new
    raise ConfigError("problem", "fixed-point iteration did not converge")


def svi_problem(n: int = 5, instance_seed: int = 3, skew_scale: float = 0.5,
                r: float = 1.0, feasible_set: FeasibleSet | None = None,
                noise_sd: float = 0.0, matrix: str | np.ndarray = "identity_plus_skew",
                b: np.ndarray | str = "auto", monotone: bool = True) -> CompositionProblem:
    """Build a VI-gap composition instance.

    The default map is A = I + skew (strongly monotone with unit modulus)
    with b chosen so the solution sits strictly inside the default box
    [0, 2]^n.  With monotone=True the exact solution is computed by the
    fixed-point oracle and stored in the exact evaluators.
    """
    check_count("n", n, least=1)
    check_count("instance_seed", instance_seed)
    if not np.isfinite(skew_scale):  # NaN would reach the fixed point's eigensolver
        raise ConfigError("problem.skew_scale", "skew_scale must be finite")
    fs = feasible_set if feasible_set is not None else Box(np.zeros(n), np.full(n, 2.0))
    if fs.dim != n:
        raise ConfigError("problem.set", f"set dimension {fs.dim} != n={n}")
    gap_level = RegularizedGapLevel(fs, r)  # rejects r <= 0
    rng = np.random.default_rng(instance_seed)
    if isinstance(matrix, str):
        if matrix == "identity":
            A = np.eye(n)
        elif matrix == "identity_plus_skew":
            B = rng.standard_normal((n, n))
            A = np.eye(n) + skew_scale * 0.5 * (B - B.T)
        else:
            raise ConfigError("problem.matrix", f"unknown matrix kind {matrix!r}")
    else:
        A = np.asarray(matrix, dtype=float)
        if A.shape != (n, n):
            raise ConfigError("problem.matrix", f"matrix must be {n}x{n}")
    if isinstance(b, str):
        if b != "auto":
            raise ConfigError("problem.b", f"unknown b spec {b!r}")
        # zero the map at a point strictly inside the set
        target = fs.anchor() + 0.1 * rng.standard_normal(n)
        target = fs.anchor() + 0.8 * (fs.project(target) - fs.anchor())
        b_vec = -(A @ target)
    else:
        b_vec = np.asarray(b, dtype=float)

    x_star = solve_vi_fixed_point(A, b_vec, fs) if monotone else None

    inner = LinearBottomLevel(-A, -b_vec)  # the negated mean map -(A x + b)
    inner_oracle = NoisyOracle(inner, NoiseModel(value_sd=noise_sd, jac_sd=noise_sd)) \
        if noise_sd > 0 else inner
    oracles = (gap_level, inner_oracle)

    exact = ExactEvaluators((gap_level, inner), x_star)
    return CompositionProblem(n, (1, n), fs, oracles, exact)

