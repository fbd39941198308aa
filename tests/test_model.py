import numpy as np
import pytest
from scipy.special import zeta

from nestopt import (AlgorithmParams, CompositionProblem, ConfigError, Constant, Custom,
                     Diminishing, InitPolicy,
                     init_state, level_streams, next_stepsize,
                     validate_problem)
from nestopt.model import IterateState
from nestopt.oracles import LevelOracle, OracleSample
from nestopt.problems import make_problem
from nestopt.sets import Box

from helpers import DeterministicOracle, finite_difference_reference, step


# ---------------------------------------------------------------------------
# stepsizes

def test_diminishing_first_step_uncapped():
    assert next_stepsize(Diminishing(1.0, 1.0), 0, a=1.0, b=1.0) == 1.0


def test_diminishing_tenth_step():
    # 1/(9+1)^1 by hand
    assert next_stepsize(Diminishing(1.0, 1.0), 9, a=1.0, b=1.0) == pytest.approx(0.1)


def test_constant_clipped_to_inverse_gain():
    assert next_stepsize(Constant(0.7), 5, a=2.0, b=1.0) == pytest.approx(0.5)


def test_cap_rule():
    assert next_stepsize(Constant(1.0), 0, a=2.0, b=4.0) == 0.25
    assert next_stepsize(Diminishing(5.0, 0.6), 0, a=2.0, b=4.0) == 0.25


def test_custom_schedule_and_exhaustion():
    sched = Custom((0.5, 0.25))
    assert next_stepsize(sched, 1, 1.0, 1.0) == 0.25
    with pytest.raises(ValueError, match="custom schedule has 2 entries, needed k=2"):
        next_stepsize(sched, 2, 1.0, 1.0)


def test_nonpositive_stepsize_rejected():
    with pytest.raises(ValueError):
        next_stepsize(Custom((0.5, -0.1)), 1, 1.0, 1.0)


def test_diminishing_partial_sums_diverge():
    # gamma = 0.6: the partial sums pass 100 after finitely many terms
    total, k = 0.0, 0
    while total < 100.0:
        total += next_stepsize(Diminishing(1.0, 0.6), k, 1.0, 1.0)
        k += 1
        assert k < 10**6
    # gamma = 1 (harmonic): passes a smaller bound within reach
    total, k = 0.0, 0
    while total < 10.0:
        total += 1.0 / (k + 1)
        k += 1
        assert k < 10**6


@pytest.mark.parametrize("gamma", [0.75, 1.0])
def test_diminishing_square_summable(gamma):
    K = 10**6
    ks = np.arange(1, K + 1, dtype=float)
    partial = float(np.sum(ks ** (-2 * gamma)))
    limit = float(zeta(2 * gamma))
    tail_bound = K ** (1 - 2 * gamma) / (2 * gamma - 1)
    assert 0.0 <= limit - partial <= tail_bound * (1 + 1e-9)
    # monotone convergence of the partial sums
    checkpoints = np.cumsum(ks ** (-2 * gamma))[[10, 100, 10_000, K - 1]]
    assert np.all(np.diff(checkpoints) > 0)
    assert checkpoints[-1] <= limit


def test_params_validation():
    with pytest.raises(ValueError):
        AlgorithmParams(0.0, 1.0, 1.0, Constant(0.1))
    with pytest.raises(ValueError):
        AlgorithmParams(1.0, 1.0, -1.0, Constant(0.1))
    with pytest.raises(ValueError):
        AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=-1)
    for gains in ((np.inf, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            AlgorithmParams(*gains, Constant(0.1))
    # a seed is never truncated: only an integer, not a bool, in [0, 2**64)
    for seed in (1.5, "3", True, 2**64):
        with pytest.raises(ValueError, match=f"seed must be a non-negative integer below "
                                             f"{2**64}, got {seed!r}"):
            AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=seed)
    assert AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=np.uint64(2**63)).seed == 2**63


# ---------------------------------------------------------------------------
# validate_problem

def _linear_problem(n=4):
    A = np.arange(n, dtype=float)[None, :] + 1.0

    def value_jac(x, u):
        return A @ x, A, None

    oracle = DeterministicOracle(value_jac)
    return CompositionProblem(n, (1,), Box(np.full(n, -1.0), np.full(n, 1.0)),
                              (oracle,))


def test_validate_minimal_single_level():
    assert validate_problem(_linear_problem()) is None


class _BadColumnsOracle(LevelOracle):
    """Emits a 2-column u-block where level_dims says 3 columns."""

    def __init__(self, n):
        self.n = n

    def sample(self, x, u_next, rng, k=0):
        return OracleSample(np.zeros(1), np.zeros((1, self.n)), np.zeros((1, 2)))


def test_validate_reports_column_mismatch():
    n = 4
    bottom = DeterministicOracle(lambda x, u: (np.zeros(3), np.zeros((3, n)), None))
    problem = CompositionProblem(n, (1, 3), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (_BadColumnsOracle(n), bottom))
    with pytest.raises(ConfigError) as err:
        validate_problem(problem)
    assert err.value.field == "problem"
    assert err.value.message == ("level 1 u-block has shape (1, 2), "
                                 "expected columns for inner dimension 3")


# each level's sample, outermost first, on a problem with d_m = 1 and n = 3
@pytest.mark.parametrize("samples, message", [
    pytest.param([(1.0, np.zeros((1, 3)), None)],
                 "level 1 value is a float, not an ndarray", id="float-value"),
    pytest.param([(np.zeros(1), [[0.0] * 3], None)],
                 "level 1 jac_x is a list, not an ndarray", id="list-jac_x"),
    pytest.param([(0.0, [[0.0] * 3], None)],
                 "level 1 value is a float, not an ndarray; level 1 jac_x is a list, "
                 "not an ndarray", id="float-value-and-list-jac_x"),
    pytest.param([(np.zeros(1), np.zeros((1, 3)), [[0.0]]), (np.zeros(1), np.zeros((1, 3)), None)],
                 "level 1 jac_u is a list, not an ndarray", id="list-jac_u"),
])
def test_validate_names_sample_fields_that_are_not_ndarrays(samples, message):
    n = 3
    oracles = tuple(DeterministicOracle(lambda x, u, s=s: s) for s in samples)
    problem = CompositionProblem(n, (1,) * len(samples), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 oracles)
    with pytest.raises(ConfigError) as err:
        validate_problem(problem)
    assert err.value.field == "problem" and err.value.message == message


def test_validate_shipped_risk_clean():
    problem = make_problem({"family": "risk_p2", "n": 5, "kappa": 0.5,
                            "epsilon": 1e-4, "scenarios": {"count": 10, "seed": 0}})
    assert problem.level_dims == (1, 1, 1)
    assert validate_problem(problem) is None


def test_validate_is_pure():
    n = 4
    bottom = DeterministicOracle(lambda x, u: (np.zeros(3), np.zeros((3, n)), None))
    problem = CompositionProblem(n, (1, 3), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (_BadColumnsOracle(n), bottom))
    messages = []
    for _ in range(2):
        with pytest.raises(ConfigError) as err:
            validate_problem(problem)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


# ---------------------------------------------------------------------------
# init_state

def _square_problem():
    # f(x) = x^2 on [-10, 10], scalar
    def value_jac(x, u):
        return np.array([x[0] ** 2]), np.array([[2.0 * x[0]]]), None

    oracle = DeterministicOracle(value_jac)
    return CompositionProblem(1, (1,), Box([-10.0], [10.0]), (oracle,))


def test_init_zeros_policy(default_params, smooth_problem):
    state = init_state(smooth_problem, default_params, policy=InitPolicy.ZEROS)
    assert np.all(state.z == 0.0)
    assert all(np.all(arr == 0.0) for arr in state.u)
    assert state.k == 0


def test_init_one_sample_matches_derivative(default_params):
    problem = _square_problem()
    state = init_state(problem, default_params, init_x=np.array([3.0]))
    assert state.z[0] == pytest.approx(6.0)
    # independent check: central differences of the same evaluator
    fd = finite_difference_reference(lambda x, u: np.array([x[0] ** 2]), np.array([3.0]))
    assert state.z[0] == pytest.approx(fd[0, 0], abs=1e-9)
    assert state.u[0][0] == pytest.approx(9.0)


def test_init_projects_onto_box(default_params):
    n = 6
    oracle = DeterministicOracle(lambda x, u: (np.array([0.0]), np.zeros((1, n)), None))
    problem = CompositionProblem(n, (1,), Box(np.zeros(n), np.ones(n)), (oracle,))
    state = init_state(problem, default_params, init_x=2.0 * np.ones(n))
    assert np.array_equal(state.x, np.ones(n))


def test_init_dimension_checked(default_params, smooth_problem):
    with pytest.raises(ValueError):
        init_state(smooth_problem, default_params, init_x=np.zeros(3))


def test_zeros_init_referentially_transparent(default_params, smooth_problem):
    problem = smooth_problem
    state_a = init_state(problem, default_params, policy=InitPolicy.ZEROS)
    x0 = problem.feasible_set.project(problem.feasible_set.anchor())
    state_b = IterateState(0, x0, np.zeros(problem.n),
                           tuple(np.zeros(d) for d in problem.level_dims))
    out_a, _ = step(state_a, problem, default_params,
                    level_streams(default_params.seed, problem.M))
    out_b, _ = step(state_b, problem, default_params,
                    level_streams(default_params.seed, problem.M))
    assert np.array_equal(out_a.x, out_b.x)
    assert np.array_equal(out_a.z, out_b.z)
    for ua, ub in zip(out_a.u, out_b.u):
        assert np.array_equal(ua, ub)
