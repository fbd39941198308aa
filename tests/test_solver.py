import dataclasses

import numpy as np
import pytest

from nestopt import (AlgorithmParams, Box, CompositionProblem, Constant,
                     Custom, CustomSet, Diminishing, NoiseModel,
                     InitPolicy, IterateState, NonFiniteIterateError, ProjectionError,
                     assemble_subgradient, init_state, level_streams, run,
                     update_trackers, update_z)
from nestopt.diagnostics import DiagnosticsConfig
from nestopt.model import ExactEvaluators
from nestopt.oracles import LevelOracle, OracleSample
from nestopt.oracles import ROW_BLOCK_ELEMENTS
from nestopt.problems import (make_problem, random_scenarios, risk_p2, svi_problem,
                              synthetic_smooth)
from nestopt.sets import Ball
from nestopt.solver import _DIAGNOSTICS_BLOCK

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
# diagnostics evaluated in blocks of recorded rows

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


# n = 4 is the widest row that still fills a whole block of _DIAGNOSTICS_BLOCK rows
BLOCK_PROBLEM = synthetic_smooth(levels=3, n=4, inner_dim=3, instance_seed=2,
                                 noise=NoiseModel(value_sd=0.1, jac_sd=0.1))


@pytest.mark.parametrize("N", [1, _DIAGNOSTICS_BLOCK - 1, _DIAGNOSTICS_BLOCK,
                               _DIAGNOSTICS_BLOCK + 1, 2 * _DIAGNOSTICS_BLOCK + 1])
@pytest.mark.parametrize("diag", sorted(BLOCK_DIAGNOSTICS))
def test_block_diagnostics_match_rowwise_reference(N, diag):
    assert ROW_BLOCK_ELEMENTS // BLOCK_PROBLEM.n == _DIAGNOSTICS_BLOCK
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=8)
    diagnostics = BLOCK_DIAGNOSTICS[diag]
    _same_record(run(BLOCK_PROBLEM, params, N, diagnostics),
                 run_rowwise(BLOCK_PROBLEM, params, N, diagnostics))


@pytest.mark.parametrize("name", ["risk_p2-clamp", "svi-ball", "custom-level",
                                  "synthetic-wide"])
def test_block_diagnostics_match_rowwise_reference_per_level_kind(name):
    N = _DIAGNOSTICS_BLOCK + 37
    if name == "synthetic-wide":  # n = 100: blocks of 40 rows
        problem = synthetic_smooth(levels=3, n=100, inner_dim=3)
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=3)
        N = 200
    elif name == "risk_p2-clamp":  # epsilon 1e-2: early trackers take the sqrt clamp
        problem = risk_p2(random_scenarios(n=4, count=30, seed=5, relu=True), 0.5, 1e-2)
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=3, lyapunov_every=7,
                                        gammas=(1.5, 2.5))
    elif name == "svi-ball":  # a Ball projects the rows of a block one at a time
        problem = svi_problem(n=4, noise_sd=0.1,
                              feasible_set=Ball(np.ones(4), 0.8))
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=2)
    else:
        problem = _custom_problem()
        diagnostics = DiagnosticsConfig(track_every=1, exact_every=4)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=3)
    record = run(problem, params, N, diagnostics)
    _same_record(record, run_rowwise(problem, params, N, diagnostics))
    if name == "risk_p2-clamp":
        assert record.clamp_events > 0


class _PickyTopLevel(LevelOracle):
    """0.5 (x - 5)^2 on one coordinate; exact calls refuse x > 2, samples go NaN at k >= nan_from."""

    def __init__(self, nan_from=None, refuse_exact=False):
        self.nan_from, self.refuse_exact = nan_from, refuse_exact

    def sample(self, x, u_next, rng, k=0):
        if rng is None and self.refuse_exact and x[0] > 2.0:
            raise ProjectionError("exact level refused")
        value = np.nan if self.nan_from is not None and k >= self.nan_from else 0.5 * (x[0] - 5) ** 2
        return OracleSample(np.array([value]), np.array([[x[0] - 5.0]]))


def _picky_problem(nan_from=None):
    box = Box(np.array([-10.0]), np.array([10.0]))
    return CompositionProblem(1, (1,), box, (_PickyTopLevel(nan_from),),
                              ExactEvaluators((_PickyTopLevel(refuse_exact=True),)))


def _first_row_above_two(params):
    """k of the first recorded row whose x exceeds 2: where the exact level refuses."""
    problem = _picky_problem()
    streams = level_streams(params.seed, 1)
    state = init_state(problem, params, streams=streams)
    while state.x[0] <= 2.0:
        state, _ = step(state, problem, params, streams)
    return state.k


def test_block_projection_error_names_the_failing_row():
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    k_star = _first_row_above_two(params)
    assert 0 < k_star < _DIAGNOSTICS_BLOCK
    for diag in (DiagnosticsConfig(track_every=1, exact_every=0),
                 DiagnosticsConfig(track_every=0, exact_every=1)):
        with pytest.raises(ProjectionError, match=f"^exact level refused at iteration {k_star}$"):
            run(_picky_problem(), params, 3 * _DIAGNOSTICS_BLOCK, diag)


def test_loop_failure_evaluates_pending_rows_first():
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    k_star = _first_row_above_two(params)
    # the loop fails after row k_star is recorded: the earlier block row wins
    with pytest.raises(ProjectionError, match=f"^exact level refused at iteration {k_star}$"):
        run(_picky_problem(nan_from=k_star + 5), params, 3 * _DIAGNOSTICS_BLOCK)
    # the loop fails before it: its own error stands
    with pytest.raises(NonFiniteIterateError, match=f"^non-finite u_1 at iteration {k_star - 1}$"):
        run(_picky_problem(nan_from=k_star - 1), params, 3 * _DIAGNOSTICS_BLOCK)
