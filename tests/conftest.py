import numpy as np
import pytest

from nestopt import AlgorithmParams, Diminishing, NoiseModel
from nestopt.problems import synthetic_smooth

from helpers import norm_bounds


@pytest.fixture
def smooth_problem():
    """Deterministic M=3 synthetic instance (exact oracles)."""
    return synthetic_smooth(levels=3, n=10, inner_dim=3, instance_seed=1)


@pytest.fixture
def noisy_problem():
    return synthetic_smooth(levels=3, n=10, inner_dim=3, instance_seed=1,
                            noise=NoiseModel(value_sd=0.1, jac_sd=0.1))


@pytest.fixture
def default_params():
    return AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=42)


def noisy_norm_bounds(problem, sigma: float, b: float = 1.0):
    """Problem-derived ceilings for max_k ||z^k|| and max_k ||u^k||.

    Rebuilds the chain-rule norm bound from the per-level sup norms of
    helpers.norm_bounds, inflating every level's Jacobian and value bound by
    a 10*sigma-per-entry margin for the estimation noise.  The tracker bound
    adds the inertia of the correction terms, which scale with the feasible
    diameter over the tracker gain b.  Intentionally loose: a guard against
    divergence, not a sharp estimate.
    """
    value_bounds, jac_bounds, diameter = norm_bounds(problem)
    dims = problem.level_dims
    n = problem.n
    M = problem.M

    def infl(bound, rows, cols):
        return bound + 10.0 * sigma * np.sqrt(rows * cols)

    g = infl(jac_bounds[-1][0], dims[-1], n)
    for m in range(M - 1, 0, -1):
        bx, bu = jac_bounds[m - 1]
        g = infl(bx, dims[m - 1], n) + infl(bu, dims[m - 1], dims[m]) * g
    f = max(infl(v, d, 1) for v, d in zip(value_bounds, dims))
    u_bound = f + g * diameter / b
    return float(g), float(u_bound)
