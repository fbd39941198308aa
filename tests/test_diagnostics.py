import numpy as np
import pytest

from nestopt import (AlgorithmParams, Box, CompositionProblem, Constant,
                     Diminishing, ExactEvaluators, IterateState, NoiseModel,
                     init_state, level_streams, run)
from nestopt.diagnostics import (DiagnosticsConfig, RunRecord, fit_rate, lyapunov,
                                 objective_tail_oscillation, optimality_measure)
from nestopt.problems import make_problem, synthetic_smooth

from helpers import (DeterministicOracle, InsufficientReplicationsError, default_gammas,
                     merit_reference, random_iterate_measure, same_bits, step,
                     tracking_error_bound_check)


def _fake_record(d_sq, tracking=None, n_levels=1):
    d_sq = np.asarray(d_sq, dtype=float)
    N = d_sq.size
    if tracking is not None:
        tracking = np.asarray(tracking, dtype=float)
        n_levels = tracking.shape[1]
    state = IterateState(N, np.zeros(2), np.zeros(2),
                         tuple(np.zeros(1) for _ in range(n_levels)))
    return RunRecord(iterations=N, tau=np.full(N, 0.1), d_sq=d_sq,
                     eta=np.zeros(N), tracking=tracking, exact_residual=None,
                     lyapunov=None, final_state=state, seed=0)


# ---------------------------------------------------------------------------
# optimality measures

def test_measure_arithmetic_example():
    # d = (0.1, 0) and t_2 = 0.2: squared measure 0.01 + 0.04
    rec = _fake_record([0.01], tracking=[[0.7, 0.2]])
    assert optimality_measure(rec)[0] == pytest.approx(0.05)


def test_measure_single_level_is_just_direction():
    rec = _fake_record([0.3, 0.2], n_levels=1)
    assert np.array_equal(optimality_measure(rec), [0.3, 0.2])


def test_measure_nonnegative_on_random_runs():
    problem = synthetic_smooth(levels=2, n=4, instance_seed=5,
                               noise=NoiseModel(value_sd=0.2, jac_sd=0.2))
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(0.5, 0.75), seed=1)
    rec = run(problem, params, 300)
    series = optimality_measure(rec)
    assert np.all(series >= 0.0)


def test_measure_tiny_at_converged_state():
    problem = synthetic_smooth(levels=3, n=6, instance_seed=2)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=0)
    rec = run(problem, params, 50, init_x=problem.exact.x_star)
    series = optimality_measure(rec)
    assert series[-1] <= 1e-10


def test_random_iterate_measure():
    rng = np.random.default_rng(0)
    single = _fake_record([0.42])
    out = random_iterate_measure(single, rng)
    assert out.index == 0 and out.value == pytest.approx(0.42)

    const = _fake_record(np.full(50, 0.7))
    out = random_iterate_measure(const, rng)
    assert out.value == pytest.approx(0.7)
    assert out.mean == pytest.approx(0.7)

    rnd = _fake_record(rng.random(64))
    out = random_iterate_measure(rnd, rng)
    resummed = sum(float(v) for v in rnd.d_sq) / 64.0  # independent second pass
    assert out.mean == pytest.approx(resummed, abs=1e-14)


# ---------------------------------------------------------------------------
# merit functions

def _two_level_scalar_problem():
    # f1(x, u) = 2x + u, f2(x) = 3x + 1 on X = [-1, 1]
    top = DeterministicOracle(lambda x, u: (
        np.array([2.0 * x[0] + u[0]]), np.array([[2.0]]), np.array([[1.0]])))
    bottom = DeterministicOracle(lambda x, u: (
        np.array([3.0 * x[0] + 1.0]), np.array([[3.0]]), None))
    return CompositionProblem(1, (1, 1), Box([-1.0], [1.0]), (top, bottom),
                              ExactEvaluators((top, bottom)))


def test_lyapunov_hand_computed_two_level():
    problem = _two_level_scalar_problem()
    x = np.array([0.5])
    z = np.array([0.3])
    u = [np.array([0.2]), np.array([0.4])]
    # independent transcription: f1(x,u2)=1.4, eta=-0.045, |f2-u2|=2.1
    w, ws = lyapunov(problem, x, z, u, a=2.0, rho=1.0, gammas=(1.5,))
    assert w == pytest.approx(2 * 1.4 + 0.045 + 1.5 * 2.1, abs=1e-12)
    # smooth variant: F1(x)=3.5 and the residual enters squared
    assert ws == pytest.approx(2 * 3.5 + 0.045 + 1.5 * 2.1**2, abs=1e-12)


def test_lyapunov_at_stationary_point():
    problem = synthetic_smooth(levels=3, n=5, instance_seed=4)
    x_star = problem.exact.x_star
    vals = problem.exact.nested(x_star)
    u = [v.copy() for v in vals]
    z = np.zeros(problem.n)
    w, ws = lyapunov(problem, x_star, z, u, a=1.5, rho=1.0, gammas=(1.0, 1.0))
    # eta and all residuals vanish, leaving a * F1(x*)
    assert w == pytest.approx(1.5 * float(vals[0][0]), abs=1e-12)
    assert ws == pytest.approx(w, abs=1e-12)


def test_lyapunov_gamma_scaling_linear_in_residuals():
    problem = _two_level_scalar_problem()
    x = np.array([0.1])
    z = np.array([0.0])
    u = [np.array([0.0]), np.array([0.5])]
    base = lyapunov(problem, x, z, u, a=1.0, rho=1.0, gammas=(1.0,))
    doubled = lyapunov(problem, x, z, u, a=1.0, rho=1.0, gammas=(2.0,))
    resid = abs(3.0 * 0.1 + 1.0 - 0.5)
    assert doubled[0] - base[0] == pytest.approx(resid, abs=1e-12)
    assert doubled[1] - base[1] == pytest.approx(resid**2, abs=1e-12)


def test_lyapunov_gamma_validation():
    problem = _two_level_scalar_problem()
    with pytest.raises(ValueError):
        lyapunov(problem, np.zeros(1), np.zeros(1),
                 [np.zeros(1), np.zeros(1)], 1.0, 1.0, gammas=())
    with pytest.raises(ValueError):
        lyapunov(problem, np.zeros(1), np.zeros(1),
                 [np.zeros(1), np.zeros(1)], 1.0, 1.0, gammas=(-1.0,))


@pytest.mark.parametrize("spec, seed", [
    ({"family": "synthetic_smooth", "levels": 3, "n": 10, "inner_dim": 3,
      "noise": {"value_sd": 0.1, "jac_sd": 0.1}}, 42),
    ({"family": "risk_p2", "n": 5, "kappa": 0.5, "epsilon": 1e-4,
      "scenarios": {"count": 50, "seed": 7}}, 11),
], ids=["synthetic-noisy", "risk_p2-clamped"])
def test_run_merit_columns_match_reference_bits(spec, seed):
    # run's (W, W_smooth) rows against the reference at the replayed states
    problem = make_problem(spec)
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=seed)
    gammas = (0.7, 1.3)  # not 1, so that g*r*r and g*(r*r) may round apart
    rec = run(problem, params, 60, diagnostics=DiagnosticsConfig(
        track_every=0, exact_every=0, lyapunov_every=7, gammas=gammas))
    if spec["family"] == "risk_p2":
        assert rec.clamp_events > 0  # the clamped sqrt branch is on the path
    streams = level_streams(params.seed, problem.M)
    state = init_state(problem, params, streams=streams)
    for k in range(rec.iterations):
        if k % 7 == 0:
            assert same_bits(rec.lyapunov[k], np.array(
                merit_reference(problem, state, params.a, params.rho, gammas))), k
        else:
            assert np.all(np.isnan(rec.lyapunov[k]))
        state, _ = step(state, problem, params, streams)
    assert same_bits(state.x, rec.final_state.x)


def test_default_gammas_growth_pattern():
    problem = synthetic_smooth(levels=3, n=6, instance_seed=2,
                               noise=NoiseModel(value_sd=0.1, jac_sd=0.1))
    params = AlgorithmParams(2.0, 1.0, 1.0, Diminishing(0.5, 0.75), seed=0)
    gammas = default_gammas(problem, params, calibration_iters=100)
    assert len(gammas) == 2
    lhat = (gammas[0] - 1.0) / params.a
    assert lhat >= 1.0
    assert gammas[1] == pytest.approx(params.a * lhat**2 + 1.0)


def test_smooth_merit_descends_in_expectation():
    """One-step drift of the smooth merit is at most O(tau^2) on average.

    Statistical property: at 20 states sampled along a trajectory, the
    replication-averaged one-step change must stay below C*tau^2 with
    C = 100 (flake margin documented by the fixed seeds; the descent term
    -tau*||d||^2 dominates away from stationarity).
    """
    tau = 0.01
    problem = synthetic_smooth(levels=3, n=6, instance_seed=2,
                               noise=NoiseModel(value_sd=0.1, jac_sd=0.1))
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(tau), seed=5)
    gammas = tuple(10.0 * g for g in default_gammas(problem, params, 100))
    streams = level_streams(params.seed, problem.M)
    state = init_state(problem, params, streams=streams)
    states = []
    for k in range(300):
        state, _ = step(state, problem, params, streams)
        if k % 15 == 0:
            states.append(state)
    ok = 0
    for i, s in enumerate(states[:20]):
        w0 = lyapunov(problem, s.x, s.z, s.u, params.a, params.rho, gammas)[1]
        drifts = []
        for rep in range(100):
            rep_streams = level_streams(params.seed, problem.M,
                                        replication=1000 + 100 * i + rep)
            nxt, _ = step(s, problem, params, rep_streams)
            drifts.append(lyapunov(problem, nxt.x, nxt.z, nxt.u,
                                   params.a, params.rho, gammas)[1] - w0)
        if float(np.mean(drifts)) <= 100.0 * tau**2:
            ok += 1
    assert ok >= 19  # 95% of sampled states


# ---------------------------------------------------------------------------
# rate fitting

def test_fit_rate_exact_half_power():
    slope = fit_rate([(100, 0.1), (10_000, 0.01), (1_000_000, 0.001)])
    assert slope == pytest.approx(-0.5, abs=1e-12)


def test_fit_rate_constant_series():
    assert fit_rate([(100, 2.0), (10_000, 2.0), (1_000_000, 2.0)]) == pytest.approx(0.0)


def test_fit_rate_scale_invariant():
    pts = [(100, 0.37), (3000, 0.11), (50_000, 0.021)]
    scaled = [(n, 7.0 * m) for n, m in pts]
    assert fit_rate(pts) == pytest.approx(fit_rate(scaled), abs=1e-12)


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        fit_rate([(100, 0.1), (1000, 0.01)])
    with pytest.raises(ValueError):
        fit_rate([(100, 0.1), (1000, -0.01), (10_000, 0.001)])
    with pytest.raises(ValueError):
        fit_rate([(100, 0.1), (200, 0.09), (400, 0.08)])  # < 2 decades


# ---------------------------------------------------------------------------
# tracking-error bound

def _constant_step_runs(problem, horizons, reps, theta=1.0):
    runs = {}
    for n_iter in horizons:
        tau = theta / np.sqrt(n_iter)
        params = AlgorithmParams(1.0, 1.0, 1.0, Constant(float(tau)), seed=33)
        runs[n_iter] = [run(problem, params, n_iter,
                            diagnostics=DiagnosticsConfig(track_every=1, exact_every=0),
                            replication=r)
                        for r in range(reps)]
    return runs


def test_tracking_bound_zero_noise_from_solution():
    problem = synthetic_smooth(levels=3, n=5, instance_seed=4)
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.05), seed=0)
    runs = {64: [run(problem, params, 64, init_x=problem.exact.x_star,
                     diagnostics=DiagnosticsConfig(track_every=1, exact_every=0),
                     replication=r) for r in range(10)],
            256: [run(problem, params, 256, init_x=problem.exact.x_star,
                      diagnostics=DiagnosticsConfig(track_every=1, exact_every=0),
                      replication=r) for r in range(10)]}
    reports = tracking_error_bound_check(runs, b=1.0)
    for rep in reports:
        assert rep.satisfied
        assert all(ms <= 1e-20 for ms in rep.mean_sq)


def test_tracking_bound_fitted_constant_and_trend():
    problem = synthetic_smooth(levels=3, n=5, instance_seed=4,
                               noise=NoiseModel(value_sd=0.1, jac_sd=0.1))
    runs = _constant_step_runs(problem, [64, 256, 1024], reps=12)
    reports = tracking_error_bound_check(runs, b=1.0)
    assert len(reports) == 2  # levels 2 and 3
    for rep in reports:
        assert np.isfinite(rep.c_emp)
        assert rep.satisfied
        assert rep.non_increasing


def test_tracking_bound_needs_replications():
    problem = synthetic_smooth(levels=2, n=4, instance_seed=1)
    params = AlgorithmParams(1.0, 1.0, 1.0, Constant(0.1), seed=0)
    single = {64: [run(problem, params, 64)]}
    with pytest.raises(InsufficientReplicationsError):
        tracking_error_bound_check(single, b=1.0)


def test_record_row_count_matches_iterations(smooth_problem, default_params):
    rec = run(smooth_problem, default_params, 37)
    assert rec.iterations == 37
    assert rec.tau.shape == (37,) and rec.d_sq.shape == (37,)
    assert rec.tracking.shape == (37, smooth_problem.M)


def test_exact_window_limits_nested_residual_rows(smooth_problem, default_params):
    rec = run(smooth_problem, default_params, 50,
              diagnostics=DiagnosticsConfig(track_every=0, exact_every=1,
                                            exact_window=10))
    assert np.all(np.isnan(rec.exact_residual[:40]))
    assert np.all(np.isfinite(rec.exact_residual[40:]))
    assert np.all(np.isnan(rec.objective[:40]))
    assert np.all(np.isfinite(rec.objective[40:]))


def test_merits_agree_on_shared_terms_when_top_ignores_tracker():
    # top level does not read its inner argument, so f1(x, u2) = V1(x) and
    # residuals of size one enter both merit functions identically
    top = DeterministicOracle(lambda x, u: (
        np.array([2.0 * x[0]]), np.array([[2.0]]), np.array([[0.0]])))
    bottom = DeterministicOracle(lambda x, u: (
        np.array([3.0 * x[0]]), np.array([[3.0]]), None))
    problem = CompositionProblem(1, (1, 1), Box([-1.0], [1.0]), (top, bottom),
                                 ExactEvaluators((top, bottom)))
    x = np.array([0.5])
    z = np.array([0.1])
    for resid in (0.0, 1.0):
        u = [np.array([0.0]), np.array([3.0 * x[0] - resid])]
        w, ws = lyapunov(problem, x, z, u, a=1.3, rho=1.0, gammas=(0.8,))
        assert w == pytest.approx(ws, abs=1e-12)


def test_objective_tail_oscillation_report():
    problem = synthetic_smooth(levels=3, n=6, instance_seed=2,
                               noise=NoiseModel(value_sd=0.05, jac_sd=0.05))
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=8)
    rec = run(problem, params, 4000,
              diagnostics=DiagnosticsConfig(track_every=0, exact_every=1))
    report = objective_tail_oscillation(rec, tail_fraction=0.1)
    assert report.tail_points == 400
    assert report.oscillation < 0.1  # small tail movement once settled
    assert report.mean == pytest.approx(report.last, abs=0.1)
    bare = run(problem, params, 50,
               diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    with pytest.raises(ValueError, match="objective series not recorded"):
        objective_tail_oscillation(bare)
