import dataclasses
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nestopt.solver

from nestopt import (AlgorithmParams, Box, CompositionProblem, Constant,
                     Custom, CustomSet, Diminishing, NoiseModel, NoisyOracle,
                     InitPolicy, IterateState, NonFiniteIterateError, ProjectionError,
                     assemble_subgradient, init_state, level_streams, run,
                     update_trackers, update_z)
from nestopt.diagnostics import DiagnosticsConfig
from nestopt.model import ExactEvaluators
from nestopt.oracles import LevelOracle, NoiseFreeLevel, OracleSample
from nestopt.oracles import ROW_BLOCK_ELEMENTS
from nestopt.problems import (FiniteScenarios, GaussianScenarios, make_problem,
                              random_scenarios, risk_p1, risk_p2, svi_problem, synthetic_smooth)
from nestopt.problems.synthetic import LinearBottomLevel
from nestopt.sets import Ball, Polytope, Simplex

from conftest import noisy_norm_bounds
from helpers import (DeterministicOracle, StepTrace, contains, exact_composed_gradient,
                     finite_difference_reference, run_rowwise, same_bits, step)


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


# init_state holds the rule, so no path reaches a state without a scalar subgradient row
@pytest.mark.parametrize("start", [lambda p, a: run(p, a, 5), init_state],
                         ids=["run", "init_state"])
def test_run_rejects_vector_objective(start):
    n = 3
    oracle = DeterministicOracle(lambda x, u: (np.zeros(2), np.zeros((2, n)), None))
    problem = CompositionProblem(n, (2,), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (oracle,))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    with pytest.raises(ValueError, match=r"scalar top level \(d_1 = 1\)"):
        start(problem, params)


# ---------------------------------------------------------------------------
# full runs

def test_run_rejects_bad_horizon(smooth_problem, default_params):
    with pytest.raises(ValueError, match="iterations must be a positive integer, got 0"):
        run(smooth_problem, default_params, 0)
    with pytest.raises(ValueError, match="iterations must be a positive integer, got -3"):
        run(smooth_problem, default_params, -3)


def test_run_counts_iterations_as_diagnostics_counts_intervals(smooth_problem, default_params):
    # a bool is not a count; a numpy integer is, and runs as the int it holds
    for flag in (True, False):
        with pytest.raises(ValueError, match=f"iterations must be a positive integer, got {flag}"):
            run(smooth_problem, default_params, flag)
    record = run(smooth_problem, default_params, np.int64(3))
    plain = run(smooth_problem, default_params, 3)
    assert type(record.iterations) is int and record.iterations == 3
    assert record.d_sq.tobytes() == plain.d_sq.tobytes()
    assert record.final_state.x.tobytes() == plain.final_state.x.tobytes()


# nor is a replication index truncated: 1.5 would run as replication 1
@pytest.mark.parametrize("replication", [1.5, "2", True, -1, 2**64], ids=repr)
def test_run_refuses_a_replication_that_is_not_a_count(smooth_problem, default_params,
                                                        replication):
    message = f"replication must be a non-negative integer below {2**64}, got {replication!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        run(smooth_problem, default_params, 2, replication=replication)


def test_run_records_numpy_integer_seed_and_replication_as_ints(smooth_problem):
    # as with iterations: summary.json cannot hold a numpy integer
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=np.uint64(2**63))
    record = run(smooth_problem, params, 2, replication=np.int64(1))
    assert type(record.seed) is int and record.seed == 2**63
    assert type(record.replication) is int and record.replication == 1


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
    assert str(err.value) == "non-finite u_1 at iteration 3"


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


class _CountingLevel(LevelOracle):
    """A level that notes each of its samples in ``calls`` before drawing from ``base``."""

    def __init__(self, base, calls):
        self.base, self.calls = base, calls

    def sample(self, x, u_next, rng, k=0):
        self.calls.append(k)
        return self.base.sample(x, u_next, rng, k)


def _bad_interval(name, value, **others):
    return pytest.param(dict(others, **{name: value}),
                        f"{name} must be a non-negative integer, got {value!r}",
                        id=f"{name}-{value!r}")


# a library caller's DiagnosticsConfig: the config reader bounds the same fields first
@pytest.mark.parametrize("fields, message", [
    pytest.param({"gammas": (1.0,)}, "need 2 gamma weights for levels 2..3, got 1", id="too-few"),
    pytest.param({"gammas": (1.0, 1.0, 1.0)}, "need 2 gamma weights for levels 2..3, got 3",
                 id="too-many"),
    pytest.param({"gammas": (1.0, 0.0)}, "gamma weights must be positive", id="zero"),
    pytest.param({"gammas": (-1.0, 1.0)}, "gamma weights must be positive", id="negative"),
    pytest.param({"gammas": (float("nan"), 1.0)}, "gamma weights must be positive", id="nan"),
    _bad_interval("track_every", -1, exact_every=0),
    _bad_interval("track_every", 2.0),
    _bad_interval("exact_every", "10"),
    _bad_interval("exact_window", True),
    _bad_interval("lyapunov_every", -3),
    _bad_interval("lyapunov_every", False),
])
def test_bad_gammas_fail_before_any_sample(fields, message):
    calls = []
    p = BLOCK_PROBLEM
    problem = dataclasses.replace(
        p, oracles=tuple(_CountingLevel(o, calls) for o in p.oracles),
        exact=ExactEvaluators(tuple(_CountingLevel(o, calls) for o in p.exact.levels)))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=0)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(problem, params, 10, DiagnosticsConfig(**{"lyapunov_every": 3,
                                                       "gammas": (1.0, 1.0), **fields}))
    assert calls == []
    run(problem, params, 10, DiagnosticsConfig(lyapunov_every=3, gammas=(1.0, 1.0)))
    assert calls  # the counting levels do see the samples of a run


def test_filtered_average_tracks_gradient_noise_free(smooth_problem, default_params):
    # guards the z filter on its own: with update_z frozen, z stays at its
    # initial sample and the iterate stalls far from x* (||z - grad|| ~ 6)
    record = run(smooth_problem, default_params, 2000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    final = record.final_state
    grad = exact_composed_gradient(smooth_problem, final.x)[0]
    assert np.linalg.norm(final.z - grad) <= 1e-3
    assert np.linalg.norm(final.x - smooth_problem.exact.x_star) <= 1e-3


# ---------------------------------------------------------------------------
# diagnostics evaluated on chunks of stored states

def _same_record(a, b):
    for name in ("tau", "d_sq", "eta", "tracking", "exact_residual", "lyapunov", "objective"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x is None) == (y is None), name
        assert x is None or same_bits(x, y), name
    fa, fb = a.final_state, b.final_state
    assert same_bits(fa.x, fb.x) and same_bits(fa.z, fb.z)
    assert all(same_bits(p, q) for p, q in zip(fa.u, fb.u))
    assert (a.iterations, a.max_z_norm, a.max_u_norm, a.clamp_events) == \
        (b.iterations, b.max_z_norm, b.max_u_norm, b.clamp_events)


def _rowwise_level(n):
    """f(x, u) = 0.5||x||^2 + sum(u) with no exact_value: its rows go one at a time."""
    def value_jac(x, u):
        return np.array([0.5 * float(x @ x) + float(np.sum(u))]), x[None, :], np.ones((1, 2))
    return DeterministicOracle(value_jac)


def _custom_problem():
    # a user's top level without exact_value over the synthetic inner levels
    base = make_problem({"family": "synthetic_smooth", "levels": 2, "n": 4, "inner_dim": 2})
    levels = (_rowwise_level(4),) + base.exact.levels[1:]
    return CompositionProblem(4, base.level_dims, base.feasible_set, levels,
                              ExactEvaluators(levels))


BLOCK_DIAGNOSTICS = {
    "shipped": DiagnosticsConfig(track_every=1, exact_every=10),
    "sparse-window": DiagnosticsConfig(track_every=3, exact_every=7, exact_window=1500),
    "exact-merit": DiagnosticsConfig(track_every=0, exact_every=1, lyapunov_every=5,
                                     gammas=(2.0, 3.0)),
    "tracking-only": DiagnosticsConfig(track_every=2, exact_every=0),
}


# the widest row of BLOCK_PROBLEM has n = 4 entries: run takes it in chunks of CHUNK iterations
BLOCK_PROBLEM = synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2,
                                 noise=NoiseModel(value_sd=0.1, jac_sd=0.1))
CHUNK = ROW_BLOCK_ELEMENTS // 4


@pytest.mark.parametrize("N", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("diag", sorted(BLOCK_DIAGNOSTICS))
def test_block_diagnostics_match_rowwise_reference(N, diag):
    assert CHUNK == 1024 and max(BLOCK_PROBLEM.n, *BLOCK_PROBLEM.level_dims) == 4
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=8)
    diagnostics = BLOCK_DIAGNOSTICS[diag]
    _same_record(run(BLOCK_PROBLEM, params, N, diagnostics),
                 run_rowwise(BLOCK_PROBLEM, params, N, diagnostics))


@pytest.mark.parametrize("name", ["risk_p2-clamp", "svi-ball", "svi-polytope", "svi-simplex",
                                  "custom-level", "synthetic-wide"])
def test_block_diagnostics_match_rowwise_reference_per_level_kind(name):
    N = CHUNK + 37
    if name == "synthetic-wide":  # n = 100: blocks of 40 rows
        problem = synthetic_smooth(levels=3, n=100, inner_dim=3)
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=3)
        N = 200
    elif name == "risk_p2-clamp":  # epsilon 1e-2: early trackers take the sqrt clamp
        problem = risk_p2(random_scenarios(n=4, count=30, seed=5, relu=True), 0.5, 1e-2)
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=3, lyapunov_every=7,
                                        gammas=(1.5, 2.5))
    elif name.startswith("svi-"):  # sets whose projection, in the gap too, is not a clip
        feasible_set = {"svi-ball": Ball(np.ones(4), 0.8),
                        "svi-polytope": Polytope(np.vstack([np.eye(4), -np.ones((1, 4))]),
                                                 np.array([1.5, 1.5, 1.5, 1.5, -1.0]),
                                                 np.full(4, 0.5)),
                        "svi-simplex": Simplex(4, 2.0)}[name]
        problem = svi_problem(n=4, noise_sd=0.1, feasible_set=feasible_set)
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=2, lyapunov_every=3,
                                        gammas=(1.5,))
    else:
        problem = _custom_problem()
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=4)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=3)
    record = run(problem, params, N, diagnostics)
    _same_record(record, run_rowwise(problem, params, N, diagnostics))
    if name == "risk_p2-clamp":
        assert record.clamp_events > 0


def test_merit_pair_adds_no_exact_values_call():
    # three chunks with every kind on: the merit pair is read off the tracking and nested
    # tables the chunk evaluates anyway, so turning it on adds no call of a level's values
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=8)
    counts = []
    for lyapunov_every in (0, 5):
        calls = []
        exact = ExactEvaluators(BLOCK_PROBLEM.exact.levels)

        def counted(value):
            def wrapper(x, u_next):
                calls.append(1)
                return value(x, u_next)
            return wrapper
        object.__setattr__(exact, "values", tuple(map(counted, exact.values)))
        run(dataclasses.replace(BLOCK_PROBLEM, exact=exact), params, 2 * CHUNK + 2,
            DiagnosticsConfig(track_every=3, exact_every=7, lyapunov_every=lyapunov_every,
                              gammas=(2.0, 3.0)))
        counts.append(len(calls))
    # per chunk one tracking table and one nested fold over the 3 levels; the last chunk,
    # row 2 * CHUNK + 1 alone, is a tracking row only
    assert counts == [3 * 2 + 3 * 2 + 3] * 2


# ---------------------------------------------------------------------------
# oracle randomness drawn a block of iterations at a time

class _DrawSpy(LevelOracle):
    """Delegates to ``level``; notes (count, entries, d_m (1 + n + d_{m+1})) of each block."""

    def __init__(self, level, blocks):
        self.level, self.blocks = level, blocks

    def draw(self, rng, count, dims):
        block = self.level.draw(rng, count, dims)
        if block is not None:
            d, n, d_next = dims
            self.blocks.append((count, block.size, d * (1 + n + d_next)))
        return block

    def sample(self, x, u_next, rng, k=0):
        return self.level.sample(x, u_next, rng, k)


def _spied(problem):
    blocks = [[] for _ in problem.oracles]
    oracles = tuple(_DrawSpy(o, b) for o, b in zip(problem.oracles, blocks))
    return dataclasses.replace(problem, oracles=oracles), blocks


def _unequal_scenarios(relu):
    rng = np.random.default_rng(4)
    return FiniteScenarios(weights=rng.random(30) + 0.05,
                           coef=0.3 + 0.4 * rng.standard_normal((30, 20)),
                           offset=1.0 + 0.5 * rng.standard_normal(30), relu=relu)


def _noisy_synthetic(distribution="gaussian", bias=None):
    return synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2,
                            noise=NoiseModel(0.1, 0.1, distribution, bias))


BLOCK_DRAW_PROBLEMS = {
    "noise-gaussian": lambda: _noisy_synthetic(),
    "noise-uniform": lambda: _noisy_synthetic("uniform"),
    "noise-rademacher": lambda: _noisy_synthetic("rademacher"),
    "noise-bias": lambda: _noisy_synthetic(bias=lambda k: 0.5 / (k + 1)),
    "risk_p1-relu-off": lambda: risk_p1(_unequal_scenarios(False), 0.5),
    "risk_p1-relu-on": lambda: risk_p1(_unequal_scenarios(True), 0.5),
    "risk_p2-relu-off": lambda: risk_p2(_unequal_scenarios(False), 0.5, 1e-2),
    "risk_p2-relu-on": lambda: risk_p2(_unequal_scenarios(True), 0.5, 1e-2),
    "gaussian-scenarios": lambda: risk_p2(GaussianScenarios(np.full(20, 0.05), 0.4, 1.0, 0.5),
                                          0.5, 1e-2),
    "svi-noisy": lambda: svi_problem(n=4, noise_sd=0.1),
}


def _iterations_per_block(problem):
    """ROW_BLOCK_ELEMENTS over the largest sample's d_m (1 + n + d_{m+1}) entries, at least 1."""
    dims = problem.level_dims
    return max(1, ROW_BLOCK_ELEMENTS // max(d * (1 + problem.n + d_next)
                                            for d, d_next in zip(dims, dims[1:] + (0,))))


@pytest.mark.parametrize("name", sorted(BLOCK_DRAW_PROBLEMS))
def test_block_draws_match_rowwise_reference(name):
    # run reads each level's randomness from blocks; run_rowwise draws per call
    problem, blocks = _spied(BLOCK_DRAW_PROBLEMS[name]())
    count = _iterations_per_block(problem)
    N = 3 * count + count // 3  # three refills and a partial last block
    diagnostics = DiagnosticsConfig(track_every=1, exact_every=5) if problem.exact else \
        DiagnosticsConfig(track_every=0, exact_every=0)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=6)
    _same_record(run(problem, params, N, diagnostics),
                 run_rowwise(problem, params, N, diagnostics))
    assert any(blocks)
    for level in filter(None, blocks):
        assert [c for c, _, _ in level] == [count] * 3 + [count // 3]


@pytest.mark.parametrize("name", ["synthetic-shipped", "synthetic-wide", "svi-one-sample",
                                  "risk_p2-shipped"])
def test_draw_blocks_hold_at_most_row_block_elements_or_one_sample(name):
    problem = {
        "synthetic-shipped": lambda: synthetic_smooth(noise=NoiseModel(0.1, 0.1)),
        "synthetic-wide": lambda: synthetic_smooth(n=100, noise=NoiseModel(0.1, 0.1)),
        # the inner level's one sample, 70 x 71 entries, exceeds ROW_BLOCK_ELEMENTS
        "svi-one-sample": lambda: svi_problem(n=70, noise_sd=0.1),
        "risk_p2-shipped": lambda: risk_p2(random_scenarios(n=5, count=50, seed=7), 0.5, 1e-4),
    }[name]()
    problem, blocks = _spied(problem)
    N = 700
    run(problem, AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=1), N,
        DiagnosticsConfig(track_every=0, exact_every=0))
    assert any(blocks)
    for level in filter(None, blocks):
        assert sum(c for c, _, _ in level) == N
        assert all(entries <= max(ROW_BLOCK_ELEMENTS, sample) for _, entries, sample in level)
    if name == "svi-one-sample":
        assert [len(level) for level in blocks] == [0, N]  # the gap level draws no block
        assert blocks[1][0][1:] == (70 * 71, 70 * 71)


def test_clamp_events_count_through_a_noisy_wrapper():
    # the only clamping level sits under a NoisyOracle; its clamped samples all count
    clamped = []

    class NoteClamps(LevelOracle):
        def __init__(self, level):
            self.level = level

        def sample(self, x, u_next, rng, k=0):
            s = self.level.sample(x, u_next, rng, k)
            clamped.append(s.clamped)
            return s

    problem = risk_p2(random_scenarios(n=4, count=30, seed=5, relu=True), 0.5, 1e-2)
    problem = dataclasses.replace(problem, oracles=(
        NoisyOracle(NoteClamps(problem.oracles[0]), NoiseModel(0.0, 0.0)),) + problem.oracles[1:])
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=3)
    record = run(problem, params, 500, DiagnosticsConfig(track_every=0, exact_every=0))
    assert len(clamped) == 501  # init_state's sample first
    assert record.clamp_events == sum(clamped[1:]) > 0


def test_levels_without_a_draw_get_their_generator_every_call():
    # a DeterministicOracle declares no draw: it and a NoisyOracle over it sample per call
    seen = []

    class SeenRng(DeterministicOracle):
        def __init__(self, level):
            super().__init__(lambda x, u: level.sample(x, u, None)[:3])

        def sample(self, x, u_next, rng, k=0):
            seen.append(type(rng))
            return super().sample(x, u_next, rng, k)

    base = synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2)
    top, middle, bottom = (SeenRng(level) for level in base.oracles)
    noise = NoiseModel(0.1, 0.1)
    problem = dataclasses.replace(base, oracles=(NoisyOracle(top, noise), middle,
                                                 NoisyOracle(bottom, noise)))
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=6)
    diagnostics = DiagnosticsConfig(track_every=1, exact_every=5)
    record = run(problem, params, 400, diagnostics)
    assert len(seen) == 3 * 401 and set(seen) == {np.random.Generator}
    _same_record(record, run_rowwise(problem, params, 400, diagnostics))


class _EmptyRowsLevel(LevelOracle):
    """A user level whose draw returns empty rows; it is not a NoiseFreeLevel."""

    def __init__(self, level, seen):
        self.level, self.seen = level, seen

    def draw(self, rng, count, dims):
        return np.empty((count, 0))

    def sample(self, x, u_next, rng, k=0):
        self.seen.append(type(rng))
        return self.level.sample(x, u_next, None, k)


def test_noise_over_a_user_level_with_empty_rows_is_drawn_per_call():
    # only a NoiseFreeLevel draws nothing: over any other level, a NoisyOracle
    # declines the block, so the level gets its generator and each noise row follows it
    seen = []
    base = synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2)
    top = NoisyOracle(_EmptyRowsLevel(base.oracles[0], seen), NoiseModel(0.1, 0.1))
    rng, ref = level_streams(4, 1)[0], level_streams(4, 1)[0]
    assert top.draw(rng, 5, (1, 4, 3)) is None
    assert rng.random() == ref.random()
    problem = dataclasses.replace(base, oracles=(top,) + base.oracles[1:])
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=6)
    diagnostics = DiagnosticsConfig(track_every=1, exact_every=5)
    record = run(problem, params, 400, diagnostics)
    assert len(seen) == 401 and set(seen) == {np.random.Generator}
    _same_record(record, run_rowwise(problem, params, 400, diagnostics))


class _PickyTopLevel(LevelOracle):
    """0.5 (x_1 - 5)^2 on R^n; exact calls refuse x_1 > 2, samples go NaN at k >= nan_from."""

    def __init__(self, n, nan_from=None, refuse_exact=False):
        self.n, self.nan_from, self.refuse_exact = n, nan_from, refuse_exact

    def sample(self, x, u_next, rng, k=0):
        if rng is None and self.refuse_exact and x[0] > 2.0:
            raise ProjectionError("exact level refused")
        value = np.nan if self.nan_from is not None and k >= self.nan_from else 0.5 * (x[0] - 5) ** 2
        jac = np.zeros((1, self.n))
        jac[0, 0] = x[0] - 5.0
        return OracleSample(np.array([value]), jac)


def _picky_problem(nan_from=None, n=4):
    """The picky level over [-10, 10]^n: run takes it in chunks of ROW_BLOCK_ELEMENTS // n rows."""
    box = Box(np.full(n, -10.0), np.full(n, 10.0))
    return CompositionProblem(n, (1,), box, (_PickyTopLevel(n, nan_from),),
                              ExactEvaluators((_PickyTopLevel(n, refuse_exact=True),)))


def _first_row_above_two(params):
    """k of the first recorded row whose x_1 exceeds 2: where the exact level refuses."""
    problem = _picky_problem()
    streams = level_streams(params.seed, 1)
    state = init_state(problem, params, streams=streams)
    while state.x[0] <= 2.0:
        state, _ = step(state, problem, params, streams)
    return state.k


def test_block_projection_error_names_the_failing_row():
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    k_star = _first_row_above_two(params)
    assert 0 < k_star < CHUNK
    for diag in (DiagnosticsConfig(track_every=1, exact_every=0),
                 DiagnosticsConfig(track_every=0, exact_every=1),
                 DiagnosticsConfig(track_every=0, exact_every=0, lyapunov_every=1, gammas=())):
        with pytest.raises(ProjectionError, match=f"^exact level refused at iteration {k_star}$"):
            run(_picky_problem(), params, 3 * CHUNK, diag)


def _loop_failure_reports_the_earliest_row(n):
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    k_star = _first_row_above_two(params)
    # the loop fails at or after row k_star, whose state is stored first: that row wins
    for nan_from in (k_star, k_star + 1):
        with pytest.raises(ProjectionError, match=f"^exact level refused at iteration {k_star}$"):
            run(_picky_problem(nan_from=nan_from, n=n), params, 3 * CHUNK)
    # the loop fails before it: its own error stands
    with pytest.raises(NonFiniteIterateError, match=f"^non-finite u_1 at iteration {k_star - 1}$"):
        run(_picky_problem(nan_from=k_star - 1, n=n), params, 3 * CHUNK)
    return k_star


def test_loop_failure_evaluates_pending_rows_first():
    assert _loop_failure_reports_the_earliest_row(4) < CHUNK  # all in the first chunk


def test_loop_failure_in_a_later_chunk_reports_the_earliest_row():
    # n = 1024: chunks of 4 rows, so k_star = 9 and the failure at 10 share the third
    k_star = _loop_failure_reports_the_earliest_row(1024)
    size = ROW_BLOCK_ELEMENTS // 1024
    assert size < k_star and (k_star + 1) // size == k_star // size


# ---------------------------------------------------------------------------
# the finiteness guard, read off each chunk's stored rows

class _BlowUpLevel(LevelOracle):
    """0.5 ||x||^2 + 0 . u_next, whose samples go wrong on cue.

    From iteration nan_jac_from on, its x-Jacobian is NaN, so z goes NaN;
    from huge_value_from on, its value is 1e200, so its tracker's square
    overflows.  A picky level raises ValueError on a non-finite x, and at
    iteration raise_at whatever x is.  last_k is the last sample's iteration.
    """

    def __init__(self, n, d_next=None, nan_jac_from=np.inf, huge_value_from=np.inf,
                 picky=False, raise_at=None):
        self.n, self.d_next, self.picky, self.raise_at = n, d_next, picky, raise_at
        self.nan_jac_from, self.huge_value_from, self.last_k = nan_jac_from, huge_value_from, -1

    def sample(self, x, u_next, rng, k=0):
        self.last_k = k
        if self.picky and (k == self.raise_at or not np.isfinite(x).all()):
            raise ValueError("level refuses its input")
        value = 1e200 if k >= self.huge_value_from else 0.5 * float(x @ x)
        jac_x = np.full((1, self.n), np.nan) if k >= self.nan_jac_from else x[None, :]
        jac_u = None if self.d_next is None else np.zeros((1, self.d_next))
        return OracleSample(np.array([value]), jac_x, jac_u)


def _blow_up_problem(what, k_bad, n):
    """A two-level problem whose first non-finite state is ``what`` after iteration k_bad."""
    top = _BlowUpLevel(n, 1, nan_jac_from=k_bad if what == "z" else np.inf)
    bottom = _BlowUpLevel(n, huge_value_from=k_bad if what == "u_2" else np.inf)
    box = Box(np.full(n, -1.0), np.full(n, 1.0))

    def project(v):  # 1e200 from iteration k_bad on: ||d||^2 overflows, so x is named
        return np.full(n, 1e200) if what == "x" and bottom.last_k >= k_bad - 1 else box.project(v)

    feasible_set = CustomSet(n, project, box.anchor())
    return CompositionProblem(n, (1, 1), feasible_set, (top, bottom))


# n = 1024: chunks of 4 rows, so N = 10 runs rows 0-3, 4-7 and the partial 8-9
GUARD_N = 1024
GUARD_ITERATIONS = 10


@pytest.mark.parametrize("k_bad", [3, 4, 9], ids=["chunk-end", "next-chunk-start", "partial"])
@pytest.mark.parametrize("what", ["x", "z", "u_2"])
def test_guard_names_the_rowwise_iteration_and_array_at_chunk_boundaries(what, k_bad):
    assert ROW_BLOCK_ELEMENTS // GUARD_N == 4
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    diagnostics = DiagnosticsConfig(track_every=0, exact_every=0)
    with pytest.raises(NonFiniteIterateError) as rowwise:
        run_rowwise(_blow_up_problem(what, k_bad, GUARD_N), params, GUARD_ITERATIONS,
                    diagnostics)
    with pytest.raises(NonFiniteIterateError) as block:
        run(_blow_up_problem(what, k_bad, GUARD_N), params, GUARD_ITERATIONS, diagnostics)
    assert (rowwise.value.iteration, rowwise.value.what) == (k_bad, what)
    assert (block.value.iteration, block.value.what) == (k_bad, what)


def test_divergence_is_reported_before_the_projection_it_breaks():
    # z goes NaN at iteration 3, so the simplex projection of iteration 4 refuses x - z/rho
    n = 3
    problem = CompositionProblem(n, (1,), Simplex(n), (_BlowUpLevel(n, nan_jac_from=3),))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    with pytest.raises(ProjectionError):
        problem.feasible_set.project(np.full(n, np.nan))
    with pytest.raises(NonFiniteIterateError, match="^non-finite z at iteration 3$"):
        run(problem, params, 10)


@pytest.mark.parametrize("raise_at, error, message", [
    (None, NonFiniteIterateError, "^non-finite z at iteration 3$"),  # refuses iteration 4's NaN x
    (2, ValueError, "^level refuses its input$"),  # refuses iteration 2, before z goes NaN
])
def test_oracle_failure_after_divergence_reports_the_divergence(raise_at, error, message):
    n = 3
    level = _BlowUpLevel(n, nan_jac_from=3, picky=True, raise_at=raise_at)
    problem = CompositionProblem(n, (1,), Box(np.full(n, -1.0), np.full(n, 1.0)), (level,))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.5), seed=0)
    with pytest.raises(error, match=message):
        run(problem, params, 10)
    assert level.last_k == (4 if raise_at is None else raise_at)


# ---------------------------------------------------------------------------
# replications in lockstep blocks

def _lockstep_problems():
    """(problem, diagnostics) of every shipped family, over each kind of set and sampling path."""
    polytope = Polytope(np.vstack([np.eye(4), -np.ones((1, 4))]),
                        np.array([1.5, 1.5, 1.5, 1.5, -1.0]), np.full(4, 0.5))
    merit = DiagnosticsConfig(track_every=1, exact_every=2, lyapunov_every=3, gammas=(1.5,))
    return {
        # stacked samples over a Box
        "synthetic": (synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2),
                      BLOCK_DIAGNOSTICS["shipped"]),
        "synthetic-noise-bias": (_noisy_synthetic("rademacher", bias=lambda k: 0.5 / (k + 1)),
                                 BLOCK_DIAGNOSTICS["tracking-only"]),
        # n = 300: chunks of 4096 // (300 R) rows and draws of 4 iterations
        "synthetic-noisy-wide": (
            synthetic_smooth(levels=3, n=300, inner_dim=3, noise=NoiseModel(0.1, 0.1)),
            DiagnosticsConfig(track_every=2, exact_every=3, lyapunov_every=5, gammas=(2.0, 3.0))),
        # scenario draws and the Simplex: rows sampled and projected one at a time
        "risk_p1": (risk_p1(_unequal_scenarios(True), 0.5),
                    DiagnosticsConfig(track_every=1, exact_every=4)),
        "risk_p2-clamp": (risk_p2(random_scenarios(n=4, count=30, seed=5, relu=True), 0.5, 1e-2),
                          DiagnosticsConfig(track_every=1, exact_every=3, lyapunov_every=7,
                                            gammas=(1.5, 2.5))),
        "risk_p1-polytope": (risk_p1(random_scenarios(n=4, count=20, seed=2), 0.5, polytope),
                             DiagnosticsConfig(track_every=3, exact_every=2)),
        "gaussian-scenarios": (risk_p2(GaussianScenarios(np.full(4, 0.05), 0.4, 1.0, 0.5),
                                       0.5, 1e-2), DiagnosticsConfig()),
        # a noisy inner level under the gap level
        "svi-noisy": (svi_problem(n=4, noise_sd=0.1), merit),
        "svi-ball": (svi_problem(n=4, noise_sd=0.1, feasible_set=Ball(np.ones(4), 0.8)), merit),
        # a user level without sample_rows or exact_value
        "custom-level": (_custom_problem(), DiagnosticsConfig(track_every=1, exact_every=4)),
        # block noise over a user level that draws nothing but samples row by row
        "noisy-user-level": (_noisy_user_level_problem(), BLOCK_DIAGNOSTICS["tracking-only"]),
    }


class _RowwiseNoiseFreeLevel(NoiseFreeLevel):
    """A level's sample alone: no sample_rows of its own, and no draw."""

    def __init__(self, level):
        self.level = level

    def sample(self, x, u_next, rng, k=0):
        return self.level.sample(x, u_next, rng, k)


def _noisy_user_level_problem():
    base = synthetic_smooth(levels=2, n=4, inner_dim=2, instance_seed=3)
    top = NoisyOracle(_RowwiseNoiseFreeLevel(base.oracles[0]), NoiseModel(0.1, 0.1))
    return dataclasses.replace(base, oracles=(top,) + base.oracles[1:])


LOCKSTEP_PROBLEMS = _lockstep_problems()


def _run_lockstep(problem, params, N, diagnostics, replications):
    """run on a block of replications; also returns whether the block itself failed."""
    failures = []
    lockstep = nestopt.solver._lockstep

    def spied(*args):
        try:
            return lockstep(*args)
        except Exception as exc:
            failures.append(exc)
            raise
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(nestopt.solver, "_lockstep", spied)
        return run(problem, params, N, diagnostics, replication=replications), failures


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(LOCKSTEP_PROBLEMS)), first=st.integers(0, 2**64 - 6),
       count=st.integers(2, 5), N=st.integers(1, 50))
@example(name="synthetic-noisy-wide", first=2**64 - 5, count=5, N=50)
@example(name="risk_p2-clamp", first=0, count=2, N=50)
def test_each_replication_of_a_lockstep_block_is_the_run_alone(name, first, count, N):
    problem, diagnostics = LOCKSTEP_PROBLEMS[name]
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=4)
    replications = range(first, first + count)
    block, failures = _run_lockstep(problem, params, N, diagnostics, replications)
    assert not failures  # the block ran in lockstep, not one replication after another
    assert [record.replication for record in block] == list(replications)
    for record, r in zip(block, replications):
        _same_record(record, run(problem, params, N, diagnostics, replication=r))


def test_a_lockstep_block_runs_the_recursions_once_per_iteration_and_update_z_per_row(
        monkeypatch):
    # the chain rule and the trackers run on the block's stacked rows; update_z once per
    # replication, whose calls a tracing benchmark counts as iterations
    calls = dict.fromkeys(("assemble_subgradient", "update_trackers", "update_z"), 0)
    for name in calls:
        def counted(*args, name=name, fn=getattr(nestopt.solver, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(nestopt.solver, name, counted)
    N = 30
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=4)
    run(_noisy_synthetic(), params, N, init_policy=InitPolicy.ZEROS, replication=range(4))
    assert calls == {"assemble_subgradient": N, "update_trackers": N, "update_z": 4 * N}


@pytest.mark.parametrize("count", [2, 3])
def test_a_block_whose_subgradient_is_every_rows_keeps_each_replications_bits(count):
    # a linear top level's Jacobian, and so the subgradient, has no leading axis in a block
    n = 3
    top = LinearBottomLevel(np.array([[1.0, -2.0, 0.5]]), np.zeros(1))
    problem = CompositionProblem(n, (1,), Box(np.full(n, -1.0), np.full(n, 1.0)), (top,))
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=4)
    block, failures = _run_lockstep(problem, params, 20, None, range(count))
    assert not failures
    for r, record in enumerate(block):
        _same_record(record, run(problem, params, 20, replication=r))


class _DiceLevel(LevelOracle):
    """0.5 ||x||^2; each sample rolls one uniform, and a low roll makes its value NaN, a high
    one raises ValueError: a replication fails where its own stream says."""

    def __init__(self, nan_below, raise_above):
        self.nan_below, self.raise_above = nan_below, raise_above

    def sample(self, x, u_next, rng, k=0):
        roll = rng.random()
        if roll > self.raise_above:
            raise ValueError(f"the dice refused iteration {k}")
        value = np.nan if roll < self.nan_below else 0.5 * float(x @ x)
        return OracleSample(np.array([value]), x[None, :])


def _failure(call):
    """(type, message, iteration) of what call() raises, None if it returns; the iteration
    is read off the message."""
    try:
        call()
    except (NonFiniteIterateError, ValueError) as exc:
        return type(exc), str(exc), int(str(exc).rsplit(" ", 1)[1])
    return None


@pytest.mark.parametrize("nan_below, raise_above", [(0.004, 1.0), (0.0, 0.996), (0.003, 0.997)],
                         ids=["non-finite", "oracle-error", "either"])
def test_a_failing_block_raises_what_its_first_failing_replication_raises_alone(nan_below,
                                                                                raise_above):
    n, N = 3, 400
    problem = CompositionProblem(n, (1,), Box(np.full(n, -1.0), np.full(n, 1.0)),
                                 (_DiceLevel(nan_below, raise_above),))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=3)
    alone = [_failure(lambda: run(problem, params, N, replication=r)) for r in range(12)]
    # a replication that fails at an earlier iteration than one before it
    a, b = next((a, b) for a in range(12) for b in range(a + 1, 12)
                if alone[a] and alone[b] and alone[b][2] < alone[a][2])
    first = next(r for r in range(12) if alone[r])
    for replications, r in (([a, b], a), (range(a, b + 1), a), (range(12), first)):
        with pytest.raises(alone[r][0]) as info:
            run(problem, params, N, replication=replications)
        assert str(info.value) == alone[r][1]
