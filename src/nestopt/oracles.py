"""Stochastic level oracles: value/Jacobian estimates with controlled noise.

Every level of a composition problem is observed only through samples.  A
sample carries a value estimate and a Jacobian estimate split into the block
of partials with respect to the decision vector x and the block with respect
to the inner argument u.  Noise is conditionally zero-mean given the past by
construction (centered distributions), with an optional deterministic bias
schedule that vanishes with the iteration counter.

Randomness is organized as one counter-indexed Philox stream per
(replication, level).  Distinct levels never share a stream, so the noise in
one level's u-block is independent of everything drawn by deeper levels.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

_SEED_MAX = 2**64


def level_streams(seed: int, n_levels: int, replication: int = 0) -> list[np.random.Generator]:
    """Independent per-level generators derived from one master seed.

    The Philox counter block is keyed as [0, 0, level, replication]; streams
    are disjoint for every (seed, replication, level) triple and replayable
    in isolation.
    """
    if not 0 <= int(seed) < _SEED_MAX:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    if replication < 0:
        raise ValueError("replication index must be >= 0")
    return [
        np.random.Generator(np.random.Philox(key=int(seed), counter=[0, 0, m, int(replication)]))
        for m in range(1, n_levels + 1)
    ]


# the entries one array may hold when a block of rows is evaluated at once: rows
# times the widest row, so a block costs about as much memory as a few rows did
ROW_BLOCK_ELEMENTS = 2**12


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b for one row, or a_i . b_i for each row i of a block.

    Every row is one BLAS dot, the same call as ``a @ b`` on that row alone,
    so a block gives the bits of its rows evaluated one at a time.
    """
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norm(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of one row, or of each row of a block: sqrt of row_dot(r, r)."""
    return np.sqrt(row_dot(r, r))


def row_matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for one row, or A @ x_i for each row i of a block, bit for bit as for one row."""
    return (A @ x[..., None])[..., 0]


class OracleSample(NamedTuple):
    """One stochastic observation of a level: value and split Jacobian.

    ``jac_u`` is None for the innermost level (no inner argument).
    ``clamped`` flags samples whose evaluation had to guard a domain
    boundary (e.g. a square-root argument).
    """

    value: np.ndarray
    jac_x: np.ndarray
    jac_u: np.ndarray | None = None
    clamped: bool = False

    def check_finite(self) -> bool:
        return all(np.all(np.isfinite(a)) for a in self[:3] if a is not None)


@dataclass(frozen=True)
class NoiseModel:
    """Additive estimation noise for one level.

    value_sd / jac_sd are per-entry standard deviations of the centered
    noise added to the value and Jacobian estimates.  ``bias`` is an
    optional schedule k -> offset added to every entry; it models a
    vanishing systematic error and must tend to zero.
    """

    value_sd: float = 0.0
    jac_sd: float = 0.0
    distribution: str = "gaussian"  # gaussian | uniform | rademacher
    bias: Callable[[int], float] | None = None

    def __post_init__(self):
        if self.value_sd < 0 or self.jac_sd < 0:
            raise ValueError("noise standard deviations must be >= 0")
        if self.distribution not in ("gaussian", "uniform", "rademacher"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")


def _centered_draw(rng: np.random.Generator, size: int, distribution: str) -> np.ndarray:
    """Zero-mean, unit-variance draws of the requested shape."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "uniform":
        return (2.0 * rng.random(size) - 1.0) * np.sqrt(3.0)
    # rademacher
    return 2.0 * rng.integers(0, 2, size).astype(float) - 1.0


class LevelOracle(ABC):
    """Produces stochastic samples of one level of the composition.

    Oracles are stateless: all randomness comes through the explicit
    generator argument.  Their shapes are declared once, by the problem's
    level_dims.
    """

    @abstractmethod
    def sample(self, x: np.ndarray, u_next: np.ndarray | None,
               rng: np.random.Generator, k: int = 0) -> OracleSample:
        """Draw one estimate at (x, u_next); k indexes bias schedules."""


class NoisyOracle(LevelOracle):
    """Adds NoiseModel perturbations on top of a base oracle.

    The value and both Jacobian blocks are perturbed from a single
    per-call draw of the level's stream, keeping one oracle call per
    level per iteration.
    """

    def __init__(self, base: LevelOracle, noise: NoiseModel):
        self.base = base
        self.noise = noise

    def sample(self, x, u_next, rng, k=0):
        s = self.base.sample(x, u_next, rng, k)
        noise = self.noise
        d = s.value.size
        nx = s.jac_x.size
        nu = 0 if s.jac_u is None else s.jac_u.size
        buf = _centered_draw(rng, d + nx + nu, noise.distribution)
        value = s.value + noise.value_sd * buf[:d]
        jac_x = s.jac_x + noise.jac_sd * buf[d:d + nx].reshape(s.jac_x.shape)
        jac_u = s.jac_u
        if jac_u is not None:
            jac_u = jac_u + noise.jac_sd * buf[d + nx:].reshape(jac_u.shape)
        if noise.bias is not None:
            off = float(noise.bias(k))
            value = value + off
            jac_x = jac_x + off
            if jac_u is not None:
                jac_u = jac_u + off
        return OracleSample(value, jac_x, jac_u)
