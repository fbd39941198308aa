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

import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass
from itertools import repeat
from typing import Callable, NamedTuple

import numpy as np

_SEED_MAX = 2**64


def check_count(name: str, value, least: int = 0, below: int | None = None) -> None:
    """ValueError naming ``name`` unless value is an integer in [least, below).

    An int or a numpy integer counts; a bool, a float or a string does not,
    even when it holds a whole number, so nothing is silently truncated.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, np.integer))
            or value < least or (below is not None and value >= below)):
        bound = "" if below is None else f" below {below}"
        kind = "positive" if least == 1 else "non-negative"
        raise ValueError(f"{name} must be a {kind} integer{bound}, got {value!r}")


def level_streams(seed: int, n_levels: int, replication: int = 0) -> list[np.random.Generator]:
    """Independent per-level generators derived from one master seed.

    The Philox counter block is keyed as [0, 0, level, replication], a
    uint64 array, so every replication below 2**64 keys its own streams;
    streams are disjoint for every (seed, replication, level) triple and
    replayable in isolation.
    """
    check_count("seed", seed, below=_SEED_MAX)
    check_count("n_levels", n_levels, least=1)
    check_count("replication", replication, below=_SEED_MAX)
    return [
        np.random.Generator(np.random.Philox(
            key=int(seed), counter=np.array([0, 0, m, replication], dtype=np.uint64)))
        for m in range(1, n_levels + 1)
    ]


# the entries one array may hold when a block of rows is evaluated at once: rows
# times the widest row, so a block costs about as much memory as a few rows did
ROW_BLOCK_ELEMENTS = 2**12


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b for one row, or a_i . b_i for each row i of a block.

    Every row is one BLAS dot, the same call as ``a.dot(b)`` on that row
    alone, so a block gives the bits of its rows evaluated one at a time.
    """
    if a.ndim == 1 == b.ndim:
        return a.dot(b)
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def row_norm(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of one row, or of each row of a block: sqrt of row_dot(r, r)."""
    return np.sqrt(row_dot(r, r))


def row_matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A.dot(x) for one row, or A @ x_i for each row i of a block, bit for bit as for one row."""
    if x.ndim == 1:
        return A.dot(x)
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
        for name in ("value_sd", "jac_sd"):
            sd = getattr(self, name)
            if isinstance(sd, bool) or not isinstance(sd, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {sd!r}")
        if not (0 <= self.value_sd < np.inf and 0 <= self.jac_sd < np.inf):  # and NaN
            raise ValueError("noise standard deviations must be >= 0 and finite")
        if self.distribution not in ("gaussian", "uniform", "rademacher"):
            raise ValueError(f"unknown noise distribution {self.distribution!r}")
        if self.bias is not None and not callable(self.bias):
            raise ValueError(f"bias must be callable or None, got {self.bias!r}")


def _centered_draw(rng: np.random.Generator, size, distribution: str) -> np.ndarray:
    """Zero-mean, unit-variance draws of the requested shape."""
    if distribution == "gaussian":
        return rng.standard_normal(size)
    if distribution == "uniform":
        return (2.0 * rng.random(size) - 1.0) * np.sqrt(3.0)
    # rademacher
    return 2.0 * rng.integers(0, 2, size).astype(float) - 1.0


class LevelOracle(ABC):
    """Produces stochastic samples of one level of the composition.

    Oracles are stateless: sample's rng is a generator to draw from, a row
    of the block the level's draw returned, or None for the exact level.
    Their shapes are declared once, by the problem's level_dims.
    """

    @abstractmethod
    def sample(self, x: np.ndarray, u_next: np.ndarray | None,
               rng, k: int = 0) -> OracleSample:
        """Draw one estimate at (x, u_next); k indexes bias schedules."""

    def sample_rows(self, x: np.ndarray, u_next: np.ndarray | None, rows,
                    k: int = 0) -> OracleSample:
        """The samples of R rows from one call, stacked in one OracleSample.

        x has shape (R, n), u_next (R, d_{m+1}) or None, and rows[i] is what
        row i's sample reads: a generator, or its row of a draw.  The result
        holds value (R, d_m), jac_x (R, d_m, n), jac_u (R, d_m, d_{m+1}) and
        clamped (R,), where a Jacobian without the leading axis, or a bool
        clamped, is every row's; row i has the bits of sample(x[i], u_next[i],
        rows[i], k).  The default takes the rows one at a time and stacks
        each field with np.array (faster than np.stack on small rows); when
        no row clamps, clamped is False.
        """
        inner = repeat(None) if u_next is None else u_next
        value, jac_x, jac_u, clamped = zip(*map(self.sample, x, inner, rows, repeat(k)))
        return OracleSample(np.array(value), np.array(jac_x),
                            None if jac_u[0] is None else np.array(jac_u),
                            np.array(clamped) if any(clamped) else False)

    def draw(self, rng: np.random.Generator, count: int, dims: tuple) -> np.ndarray | None:
        """From one call, what count samples would draw from rng one by one: a row each.

        dims is (d_m, n, d_{m+1}), 0 innermost.  None, the default, has each
        sample draw from rng itself.
        """
        return None


class NoiseFreeLevel(LevelOracle):
    """A level whose samples draw nothing: they read neither their generator nor a row.

    A subclass states its formula once, as a sample_rows that takes one row
    (x of shape (n,)) or a block, and sample and exact_value follow from it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.sample_rows is LevelOracle.sample_rows:  # it states sample: rows go one by one
            if cls.sample is NoiseFreeLevel.sample:
                raise TypeError(f"{cls.__name__} defines neither sample_rows nor sample")
            if cls.exact_value is NoiseFreeLevel.exact_value:
                cls.exact_value = None  # ExactEvaluators then reads its sample's value

    def sample(self, x, u_next, rng, k=0):
        return self.sample_rows(x, u_next, rng, k)

    def exact_value(self, x, u_next):
        return self.sample_rows(x, u_next, None).value


class NoisyOracle(LevelOracle):
    """Adds NoiseModel perturbations on top of a base oracle.

    The value and both Jacobian blocks are perturbed from one row of noise
    per sample, scaled by value_sd on the value columns and by jac_sd on the
    rest, keeping one oracle call per level per iteration.  Over a
    NoiseFreeLevel, draw fills and scales the rows of a whole block at once,
    and sample_rows perturbs the base's stacked samples in one call; over
    any other base the row is drawn per call, after the base's draw.
    """

    def __init__(self, base: LevelOracle, noise: NoiseModel):
        self.base = base
        self.noise = noise

    def _noise(self, rng, count, d, width):
        block = _centered_draw(rng, (count, width), self.noise.distribution)
        block[:, :d] *= self.noise.value_sd
        block[:, d:] *= self.noise.jac_sd
        return block

    def draw(self, rng, count, dims):
        if not isinstance(self.base, NoiseFreeLevel):
            return None  # the base may draw, so each noise row follows its draw, per call
        d, n, d_next = dims
        return self._noise(rng, count, d, d * (1 + n + d_next))

    def sample(self, x, u_next, rng, k=0):
        s = self.base.sample(x, u_next, rng, k)  # a NoiseFreeLevel reads no row
        if isinstance(rng, np.random.Generator):
            width = s.value.size + s.jac_x.size + (0 if s.jac_u is None else s.jac_u.size)
            rng = self._noise(rng, 1, s.value.size, width)[0]
        return self._add(s, rng, k)

    def sample_rows(self, x, u_next, rows, k=0):
        if not isinstance(rows, np.ndarray):  # the base draws: each row's noise follows its draw
            return super().sample_rows(x, u_next, rows, k)
        return self._add(self.base.sample_rows(x, u_next, rows, k), rows, k)

    def _add(self, s, noise, k):
        """One sample plus its row of noise, or a block's stacked samples plus their rows,
        and the bias offset at k; a Jacobian without the leading axis is every row's."""
        d = s.value.shape[-1]
        nx = d * s.jac_x.shape[-1]
        shape = noise.shape[:-1] + (d, -1)
        value = s.value + noise[..., :d]
        jac_x = s.jac_x + noise[..., d:d + nx].reshape(shape)
        jac_u = s.jac_u
        if jac_u is not None:
            jac_u = jac_u + noise[..., d + nx:].reshape(shape)
        if self.noise.bias is not None:
            off = float(self.noise.bias(k))
            value, jac_x = value + off, jac_x + off
            jac_u = None if jac_u is None else jac_u + off
        return OracleSample(value, jac_x, jac_u, s.clamped)
