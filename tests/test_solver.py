import dataclasses

import numpy as np
import pytest

from nestopt import (AlgorithmParams, Box, CompositionProblem, Constant,
                     Custom, CustomSet, Diminishing,
                     InitPolicy, IterateState, NonFiniteIterateError, ProjectionError,
                     assemble_subgradient, init_state, level_streams, run,
                     update_trackers, update_z)
from nestopt.diagnostics import DiagnosticsConfig
from nestopt.oracles import LevelOracle, OracleSample
from nestopt.problems import make_problem

from conftest import noisy_norm_bounds
from helpers import (DeterministicOracle, StepTrace, contains, exact_composed_gradient,
                     finite_difference_reference, step)


# ---------------------------------------------------------------------------
# chain-rule assembly

def test_assemble_single_level_is_jacobian():
    s = OracleSample(np.zeros(1), np.array([[3.0, -1.0]]))
    assert np.array_equal(assemble_subgradient([s]), np.array([[3.0, -1.0]]))


def test_assemble_two_level_hand_case():
    top = OracleSample(np.zeros(1), np.array([[1.0, 0.0]]), np.array([[2.0]]))
    bottom = OracleSample(np.zeros(1), np.array([[3.0, 4.0]]))
    g1 = assemble_subgradient([top, bottom])
    # [1,0] + 2*[3,4] by hand; cross-checked with a dense multiply
    assert np.allclose(g1, [[7.0, 8.0]])
    dense = top.jac_x + np.asarray(top.jac_u) @ bottom.jac_x
    assert np.array_equal(g1, dense)


def test_assemble_matches_finite_differences_on_linear_chain():
    rng = np.random.default_rng(2)
    n, d1, d2, d3 = 6, 2, 3, 4
    A1, B1 = rng.standard_normal((d1, n)), rng.standard_normal((d1, d2))
    A2, B2 = rng.standard_normal((d2, n)), rng.standard_normal((d2, d3))
    A3 = rng.standard_normal((d3, n))

    def composed(x, u):
        v3 = A3 @ x
        v2 = A2 @ x + B2 @ v3
        return A1 @ x + B1 @ v2

    x = rng.standard_normal(n)
    samples = [
        OracleSample(np.zeros(d1), A1, B1),
        OracleSample(np.zeros(d2), A2, B2),
        OracleSample(np.zeros(d3), A3),
    ]
    fd = finite_difference_reference(composed, x)
    assert np.allclose(assemble_subgradient(samples), fd, atol=1e-8)


# ---------------------------------------------------------------------------
# averaging updates

def test_update_z_full_replacement():
    z = np.array([5.0, -5.0])
    g = np.array([1.0, 2.0])
    assert np.array_equal(update_z(z, g, a=1.0, tau=1.0), g)


def test_update_z_fixed_point():
    z = np.array([1.0, 2.0])
    assert np.array_equal(update_z(z, z.copy(), a=1.0, tau=0.3), z)


def test_update_z_halfway():
    out = update_z(np.zeros(2), np.array([2.0, 4.0]), a=1.0, tau=0.5)
    assert np.allclose(out, [1.0, 2.0])


def test_update_z_convex_combination_bound():
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = rng.standard_normal(4)
        g = rng.standard_normal(4)
        out = update_z(z, g, a=2.0, tau=rng.uniform(0.0, 0.5))
        assert np.linalg.norm(out) <= max(np.linalg.norm(z), np.linalg.norm(g)) + 1e-12


def test_trackers_fixed_point():
    u = [np.array([1.0]), np.array([-2.0])]
    samples = [
        OracleSample(np.array([1.0]), np.array([[0.3]]), np.array([[0.7]])),
        OracleSample(np.array([-2.0]), np.array([[0.2]])),
    ]
    out = update_trackers(u, samples, dx=np.zeros(1), b=1.0, tau=0.5)
    assert np.allclose(out[0], u[0]) and np.allclose(out[1], u[1])


def test_trackers_full_gain_replaces_innermost():
    u = [np.array([0.0]), np.array([0.0])]
    samples = [
        OracleSample(np.array([3.0]), np.array([[0.0]]), np.array([[2.0]])),
        OracleSample(np.array([1.0]), np.array([[1.0]])),
    ]
    out = update_trackers(u, samples, dx=np.zeros(1), b=1.0, tau=1.0)
    assert out[1][0] == pytest.approx(1.0)  # full replacement at the bottom
    # outer level: 0 + 0 + 2*(1 - 0) + 1*(3 - 0), traced by direct substitution
    assert out[0][0] == pytest.approx(5.0)


def test_trackers_scalar_hand_trace():
    # dims (1, 1), dx scalar 0.1, b*tau = 0.5
    u = [np.array([0.0]), np.array([0.0])]
    samples = [
        OracleSample(np.array([3.0]), np.array([[0.0]]), np.array([[2.0]])),
        OracleSample(np.array([1.0]), np.array([[1.0]])),
    ]
    out = update_trackers(u, samples, dx=np.array([0.1]), b=0.5, tau=1.0)
    # u2' = 0 + 1*0.1 + 0.5*(1-0) = 0.6 ; u1' = 0 + 0 + 2*0.6 + 0.5*(3-0) = 2.7
    assert out[1][0] == pytest.approx(0.6)
    assert out[0][0] == pytest.approx(2.7)


def test_trackers_backward_order_pinned():
    # a forward sweep would feed the stale inner increment (zero) into level 1
    u = [np.array([0.0]), np.array([0.0])]
    samples = [
        OracleSample(np.array([0.0]), np.array([[0.0]]), np.array([[2.0]])),
        OracleSample(np.array([1.0]), np.array([[0.0]])),
    ]

    def forward_sweep():
        out = [None, None]
        s0, s1 = samples
        out[0] = u[0] + s0.jac_x @ np.zeros(1) + s0.jac_u @ (u[1] - u[1]) \
            + 0.5 * (s0.value - u[0])
        out[1] = u[1] + s1.jac_x @ np.zeros(1) + 0.5 * (s1.value - u[1])
        return out

    backward = update_trackers(u, samples, dx=np.zeros(1), b=0.5, tau=1.0)
    forward = forward_sweep()
    assert backward[1][0] == forward[1][0] == pytest.approx(0.5)
    assert forward[0][0] == pytest.approx(0.0)
    assert backward[0][0] == pytest.approx(1.0)  # consumes the fresh inner delta


# ---------------------------------------------------------------------------
# single step

def _square_problem(record_box=None):
    def value_jac(x, u):
        if record_box is not None:
            record_box.append(x.copy())
        return np.array([x[0] ** 2]), np.array([[2.0 * x[0]]]), None

    oracle = DeterministicOracle(value_jac)
    return CompositionProblem(1, (1,), Box([-1.0], [1.0]), (oracle,))


def test_step_hand_trace_square():
    problem = _square_problem()
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(1.0), seed=0)
    state = init_state(problem, params, init_x=np.array([1.0]),
                       policy=InitPolicy.ZEROS)
    new, trace = step(state, problem, params, level_streams(0, 1))
    # y = proj(1 - 0/1) = 1, x1 = 1, sampled J = 2, h = 1
    assert np.array_equal(trace.y, [1.0])
    assert np.array_equal(new.x, [1.0])
    assert new.z[0] == pytest.approx(2.0)
    assert new.u[0][0] == pytest.approx(1.0)
    assert new.k == 1


def test_step_samples_at_new_point():
    seen = []
    problem = _square_problem(record_box=seen)
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    state = init_state(problem, params, init_x=np.array([1.0]),
                       policy=InitPolicy.ZEROS)
    # force movement: nonzero z
    state = IterateState(0, state.x, np.array([2.0]), state.u)
    new, _ = step(state, problem, params, level_streams(0, 1))
    # y = proj(1 - 2) = -1, x' = 1 + 0.5*(-2) = 0; the sample must see x'
    assert np.array_equal(new.x, [0.0])
    assert np.array_equal(seen[-1], [0.0])


def test_step_fixed_point_at_solution(smooth_problem, default_params):
    problem = smooth_problem
    x_star = problem.exact.x_star
    vals = problem.exact.nested(x_star)
    g = np.zeros(problem.n)  # gradient vanishes at the interior minimizer
    state = IterateState(0, x_star.copy(), g, tuple(v.copy() for v in vals))
    new, trace = step(state, problem, default_params,
                      level_streams(default_params.seed, problem.M))
    assert np.allclose(new.x, x_star, atol=1e-13)
    assert np.allclose(new.z, 0.0, atol=1e-12)
    for u_new, v in zip(new.u, vals):
        assert np.allclose(u_new, v, atol=1e-12)
    assert np.allclose(trace.d, 0.0, atol=1e-13)


def test_run_rejects_vector_objective():
    n = 3
    oracle = DeterministicOracle(lambda x, u: (np.zeros(2), np.zeros((2, n)), None))
    problem = CompositionProblem(n, (2,), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (oracle,))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    with pytest.raises(ValueError, match=r"scalar top level \(d_1 = 1\)"):
        run(problem, params, 5)


# ---------------------------------------------------------------------------
# full runs

def test_run_rejects_bad_horizon(smooth_problem, default_params):
    with pytest.raises(ValueError, match="iterations must be a positive integer, got 0"):
        run(smooth_problem, default_params, 0)
    with pytest.raises(ValueError, match="iterations must be a positive integer, got -3"):
        run(smooth_problem, default_params, -3)


def test_run_single_iteration_equals_step(noisy_problem, default_params):
    problem = noisy_problem
    record = run(problem, default_params, 1,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    streams = level_streams(default_params.seed, problem.M, replication=0)
    state = init_state(problem, default_params, streams=streams)
    manual, _ = step(state, problem, default_params, streams)
    final = record.final_state
    assert np.array_equal(final.x, manual.x)
    assert np.array_equal(final.z, manual.z)
    for a, b in zip(final.u, manual.u):
        assert np.array_equal(a, b)


def test_run_deterministic_replay(noisy_problem, default_params):
    r1 = run(noisy_problem, default_params, 500)
    r2 = run(noisy_problem, default_params, 500)
    assert np.array_equal(r1.d_sq, r2.d_sq)
    assert np.array_equal(r1.eta, r2.eta)
    assert np.array_equal(r1.tau, r2.tau)
    assert np.array_equal(r1.final_state.x, r2.final_state.x)
    assert np.array_equal(r1.final_state.z, r2.final_state.z)
    r3 = run(noisy_problem, default_params, 500, replication=1)
    assert not np.array_equal(r1.final_state.x, r3.final_state.x)


def test_iterates_stay_feasible():
    problem = make_problem({"family": "risk_p1", "n": 4, "kappa": 0.5,
                            "scenarios": {"count": 12, "seed": 5}})
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=3)
    streams = level_streams(params.seed, problem.M)
    state = init_state(problem, params, streams=streams)
    for _ in range(300):
        state, _ = step(state, problem, params, streams)
        assert contains(problem.feasible_set, state.x, tol=1e-9)


def test_deterministic_reduction_linear_convergence():
    # M=1, no noise, effectively unconstrained: doubly-averaged gradient
    # descent on 0.5||x||^2 contracts linearly
    n = 4

    def value_jac(x, u):
        return np.array([0.5 * float(x @ x)]), x[None, :], None

    problem = CompositionProblem(
        n, (1,), Box(np.full(n, -1e12), np.full(n, 1e12)),
        (DeterministicOracle(value_jac),))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    x0 = np.ones(n)
    record = run(problem, params, 1000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0),
                 init_x=x0)
    final_norm = float(np.linalg.norm(record.final_state.x))
    assert final_norm <= 0.99**1000 * float(np.linalg.norm(x0))


class _PoisonOracle(LevelOracle):
    """Returns NaN from iteration 3 onward."""

    def __init__(self, n):
        self.n = n

    def sample(self, x, u_next, rng, k=0):
        val = np.array([np.nan if k >= 3 else 1.0])
        return OracleSample(val, np.zeros((1, self.n)))


def test_non_finite_state_aborts_with_iteration_index():
    n = 2
    problem = CompositionProblem(n, (1,), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (_PoisonOracle(n),))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    with pytest.raises(NonFiniteIterateError) as err:
        run(problem, params, 10, init_policy=InitPolicy.ZEROS)
    assert err.value.iteration == 3
    assert "3" in str(err.value)


def test_projection_error_names_iteration(smooth_problem, default_params):
    box = smooth_problem.feasible_set
    calls = []

    def project(v):  # init_state projects once, then one call per iteration
        calls.append(v)
        if len(calls) >= 4:
            raise ProjectionError("callback gave up")
        return box.project(v)

    problem = dataclasses.replace(smooth_problem,
                                  feasible_set=CustomSet(box.dim, project, box.anchor()))
    with pytest.raises(ProjectionError, match="callback gave up at iteration 2$"):
        run(problem, default_params, 10)


def test_run_without_exact_evaluators_disables_tracking():
    problem = make_problem({"family": "risk_p1", "n": 3, "kappa": 0.2,
                            "scenarios": {"kind": "gaussian"}})
    assert problem.exact is None
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(0.5, 0.75), seed=9)
    record = run(problem, params, 200)
    assert record.tracking is None and record.exact_residual is None


def test_boundedness_long_noisy_run(noisy_problem):
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=17)
    record = run(noisy_problem, params, 100_000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    z_bound, u_bound = noisy_norm_bounds(noisy_problem, sigma=0.1)
    assert record.max_z_norm <= z_bound
    assert record.max_u_norm <= u_bound


def test_recorded_stepsizes_match_schedule_op(noisy_problem):
    # the recorded stepsizes are next_stepsize's, bit for bit, for every k
    from nestopt import next_stepsize
    for schedule in (Diminishing(1.3, 0.8), Constant(0.37)):
        params = AlgorithmParams(1.5, 2.0, 1.0, schedule, seed=4)
        record = run(noisy_problem, params, 60,
                     diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
        expected = np.array([next_stepsize(schedule, k, 1.5, 2.0) for k in range(60)])
        assert np.array_equal(record.tau, expected)


def test_trace_fields_consistent(smooth_problem, default_params):
    streams = level_streams(default_params.seed, smooth_problem.M)
    state = init_state(smooth_problem, default_params, streams=streams)
    _, trace = step(state, smooth_problem, default_params, streams)
    assert isinstance(trace, StepTrace)
    assert np.array_equal(trace.d, trace.y - state.x)
    assert len(trace.samples) == smooth_problem.M
    assert np.array_equal(trace.g1, assemble_subgradient(trace.samples)[0])


def test_short_custom_schedule_fails_before_iterating():
    seen = []
    problem = _square_problem(record_box=seen)
    params = AlgorithmParams(1.0, 1.0, 1.0, Custom((0.5, 0.5)), seed=0)
    with pytest.raises(ValueError, match="custom schedule has 2 entries, needed k=2"):
        run(problem, params, 10)
    assert seen == []  # neither the initial sample nor any iteration ran


def test_filtered_average_tracks_gradient_noise_free(smooth_problem, default_params):
    # guards the z filter on its own: with update_z frozen, z stays at its
    # initial sample and the iterate stalls far from x* (||z - grad|| ~ 6)
    record = run(smooth_problem, default_params, 2000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    final = record.final_state
    grad = exact_composed_gradient(smooth_problem, final.x)[0]
    assert np.linalg.norm(final.z - grad) <= 1e-3
    assert np.linalg.norm(final.x - smooth_problem.exact.x_star) <= 1e-3
