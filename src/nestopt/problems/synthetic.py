"""Smooth synthetic compositions with a known minimizer.

Inner levels are affine maps, the top level is a strongly convex quadratic
penalty, so the composed objective is strongly convex with a closed-form
unique minimizer.  The instance is built so that the minimizer coincides
with the quadratic's center, strictly inside the box constraint.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..model import CompositionProblem, ExactEvaluators
from ..oracles import (LevelOracle, NoiseFreeLevel, NoiseModel, NoisyOracle, OracleSample,
                       check_count, row_dot, row_matvec)
from ..sets import Box


class QuadraticTopLevel(NoiseFreeLevel):
    """f(x, u) = 0.5||x - x_hat||^2 + 0.5||u - u_hat||^2 (scalar)."""

    def __init__(self, x_hat: np.ndarray, u_hat: np.ndarray):
        self.x_hat = np.asarray(x_hat, dtype=float)
        self.u_hat = np.asarray(u_hat, dtype=float)

    def sample_rows(self, x, u_next, rows, k=0):
        dx = x - self.x_hat
        du = u_next - self.u_hat
        return OracleSample((0.5 * row_dot(dx, dx) + 0.5 * row_dot(du, du))[..., None],
                            dx[..., None, :], du[..., None, :])


class QuadraticPointLevel(NoiseFreeLevel):
    """Single-level variant f(x) = 0.5||x - x_hat||^2."""

    def __init__(self, x_hat: np.ndarray):
        self.x_hat = np.asarray(x_hat, dtype=float)

    def sample_rows(self, x, u_next, rows, k=0):
        dx = x - self.x_hat
        return OracleSample((0.5 * row_dot(dx, dx))[..., None], dx[..., None, :])


class LinearLevel(NoiseFreeLevel):
    """f(x, u) = Q x + R u + c."""

    def __init__(self, Q: np.ndarray, R: np.ndarray, c: np.ndarray):
        self.Q = np.asarray(Q, dtype=float)
        self.R = np.asarray(R, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def sample_rows(self, x, u_next, rows, k=0):
        return OracleSample(row_matvec(self.Q, x) + row_matvec(self.R, u_next) + self.c,
                            self.Q, self.R)


class LinearBottomLevel(NoiseFreeLevel):
    """f(x) = Q x + c."""

    def __init__(self, Q: np.ndarray, c: np.ndarray):
        self.Q = np.asarray(Q, dtype=float)
        self.c = np.asarray(c, dtype=float)

    def sample_rows(self, x, u_next, rows, k=0):
        return OracleSample(row_matvec(self.Q, x) + self.c, self.Q)


def synthetic_smooth(levels: int = 3, n: int = 10, inner_dim: int = 3,
                     instance_seed: int = 1, halfwidth: float = 2.0,
                     coupling: float = 0.4,
                     noise: NoiseModel | None = None) -> CompositionProblem:
    """Build a smooth synthetic instance with known minimizer.

    ``coupling`` scales the affine levels; values well below 1 keep the
    composed map contractive and the problem well conditioned.  The
    quadratic centers are chosen so the unconstrained minimizer is the
    x-center itself, strictly inside the box [-halfwidth, halfwidth]^n.
    """
    for name, count in (("levels", levels), ("n", n), ("inner_dim", inner_dim)):
        check_count(name, count, least=1)
    check_count("instance_seed", instance_seed)
    if not 0 < halfwidth < np.inf:  # and NaN
        raise ConfigError("problem.halfwidth", "halfwidth must be positive and finite")
    if not np.isfinite(coupling):
        raise ConfigError("problem.coupling", "coupling must be finite")
    rng = np.random.default_rng(instance_seed)
    M = levels
    x_hat = rng.uniform(-0.5 * halfwidth, 0.5 * halfwidth, size=n)
    fs = Box(np.full(n, -halfwidth), np.full(n, halfwidth))

    def build(level_oracles: list[LevelOracle], dims: tuple[int, ...]):
        oracles = tuple(NoisyOracle(o, noise) for o in level_oracles) if noise else tuple(level_oracles)
        exact = ExactEvaluators(tuple(level_oracles), x_hat.copy())
        return CompositionProblem(n, dims, fs, oracles, exact)

    if M == 1:
        return build([QuadraticPointLevel(x_hat)], (1,))

    d = inner_dim
    Qs, Rs, cs = {}, {}, {}
    for m in range(2, M + 1):
        Qs[m] = coupling * rng.standard_normal((d, n)) / np.sqrt(n)
        cs[m] = coupling * rng.standard_normal(d)
        if m < M:
            Rs[m] = coupling * rng.standard_normal((d, d)) / np.sqrt(d)

    # composed affine maps: V_m(x) = Abar_m x + ebar_m for m >= 2
    Abar = {M: Qs[M]}
    ebar = {M: cs[M]}
    for m in range(M - 1, 1, -1):
        Abar[m] = Qs[m] + Rs[m] @ Abar[m + 1]
        ebar[m] = cs[m] + Rs[m] @ ebar[m + 1]
    u_hat = Abar[2] @ x_hat + ebar[2]  # makes x_hat the exact minimizer

    level_oracles = [QuadraticTopLevel(x_hat, u_hat)]
    for m in range(2, M):
        level_oracles.append(LinearLevel(Qs[m], Rs[m], cs[m]))
    level_oracles.append(LinearBottomLevel(Qs[M], cs[M]))
    return build(level_oracles, (1,) + (d,) * (M - 1))
