import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestopt import ConfigError, NoiseModel, gap, validate_problem
from nestopt.diagnostics import nested_table, tracking_table
from nestopt.model import ExactEvaluators
from nestopt.oracles import LevelOracle, NoiseFreeLevel, OracleSample, row_dot, row_matvec
from nestopt.problems import (FiniteScenarios, GaussianScenarios, make_problem,
                              random_scenarios, risk_p1, risk_p2, scenarios_from_csv,
                              solve_vi_fixed_point, svi_problem, synthetic_smooth)
from nestopt.problems.risk import (MeanLossLevel, SqrtRiskLevel, SquaredShortfallLevel,
                                   UpperSemidevLevel)
from nestopt.sets import Ball, Box, CustomSet, Simplex

from helpers import (exact_composed_gradient, finite_difference_reference,
                     mean_semideviation, norm_bounds, random_point, same_bits,
                     scenarios_to_csv)


def _constant_loss_scenarios():
    # H is constant in x with values {1, 2, 6} at equal weights
    return FiniteScenarios(weights=np.full(3, 1 / 3),
                           coef=np.zeros((3, 2)),
                           offset=np.array([1.0, 2.0, 6.0]))


# ---------------------------------------------------------------------------
# exact nested values

def test_synthetic_nested_at_zero_matches_bottom_up_compose(smooth_problem):
    problem = smooth_problem
    x = np.zeros(problem.n)
    vals = problem.exact.nested(x)
    # recompose bottom-up through value_jac, independently of nested()
    v = problem.exact.value_jac(problem.M, x, None)[0]
    assert np.allclose(v, vals[problem.M - 1], atol=1e-14)
    for m in range(problem.M - 1, 0, -1):
        v = problem.exact.value_jac(m, x, v)[0]
        assert np.allclose(v, vals[m - 1], atol=1e-14)


def _value_path_problems():
    rng = np.random.default_rng(11)

    def unequal(relu):
        return FiniteScenarios(weights=rng.uniform(0.05, 2.0, 30),
                               coef=0.3 + 0.4 * rng.standard_normal((30, 4)),
                               offset=1.0 + 0.5 * rng.standard_normal(30), relu=relu)
    problems = {
        "synthetic-M1": synthetic_smooth(levels=1, n=4),
        "synthetic-M3": synthetic_smooth(levels=3, n=6, inner_dim=2,
                                         noise=NoiseModel(value_sd=0.1, jac_sd=0.1)),
        "svi": svi_problem(n=4, noise_sd=0.1),
    }
    for relu in (False, True):
        tag = "-relu" if relu else ""
        equal = random_scenarios(n=4, count=40, seed=2, relu=relu)
        weighted = unequal(relu)
        problems["risk_p1" + tag] = risk_p1(equal, kappa=0.5)
        problems["risk_p1-unequal" + tag] = risk_p1(weighted, kappa=0.8)
        # epsilon 1e-2: trackers below -5e-3 take SqrtRiskLevel's clamp branch
        problems["risk_p2" + tag] = risk_p2(equal, kappa=0.5, epsilon=1e-2)
        problems["risk_p2-unequal" + tag] = risk_p2(weighted, kappa=0.3, epsilon=1e-2)
    return problems


VALUE_PATH_PROBLEMS = _value_path_problems()


@st.composite
def _problem_point(draw):
    name = draw(st.sampled_from(sorted(VALUE_PATH_PROBLEMS)))
    problem = VALUE_PATH_PROBLEMS[name]
    coords = st.floats(-6.0, 6.0)  # well outside every feasible set too
    x = np.array(draw(st.lists(coords, min_size=problem.n, max_size=problem.n)))
    u = [np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=d, max_size=d)))
         for d in problem.level_dims]
    return problem, x, u


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_problem_point())
def test_value_path_matches_value_jac_bits(case):
    problem, x, u = case
    exact, M = problem.exact, problem.M
    for m in range(1, M + 1):
        u_next = u[m] if m < M else None
        reference = exact.value_jac(m, x, u_next)[0]
        assert same_bits(exact.values[m - 1](x, u_next), reference)
    folded, v = [None] * M, None
    for m in range(M, 0, -1):
        v = folded[m - 1] = exact.value_jac(m, x, v)[0]
    assert all(same_bits(a, b) for a, b in zip(exact.nested(x), folded))
    values = [exact.value_jac(m, x, u[m] if m < M else None)[0] for m in range(1, M + 1)]
    assert same_bits(tracking_table(exact, x, u),
                     np.array([values[0][0]] + [math.sqrt(float((v - w) @ (v - w)))
                                                for v, w in zip(values, u)]))
    assert same_bits(nested_table(exact, x, u),
                     np.array([folded[0][0]] + [math.sqrt(float((v - w) @ (v - w)))
                                                for v, w in zip(folded, u)]))


def test_value_path_covers_the_sqrt_clamp():
    for name in ("risk_p2", "risk_p2-relu"):
        problem = VALUE_PATH_PROBLEMS[name]
        x = problem.feasible_set.anchor()
        u_next = np.array([-0.9e-2])
        assert problem.oracles[0].sample(x, u_next, None).clamped
        assert same_bits(problem.exact.values[0](x, u_next),
                          problem.exact.value_jac(1, x, u_next)[0])


def test_exact_values_call_no_oracle_sample_attribute():
    # the benchmark tracer counts calls through these instance attributes
    calls = []

    def counted(sample):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return sample(*args, **kwargs)
        return wrapper

    for name in sorted(VALUE_PATH_PROBLEMS):
        problem = VALUE_PATH_PROBLEMS[name]
        for oracle in problem.oracles:
            oracle.sample = counted(oracle.sample)
        try:
            x = problem.feasible_set.anchor() + 0.5
            u = problem.exact.nested(x)
            tracking_table(problem.exact, x, [v + 0.1 for v in u])
            problem.exact.values[0](x, u[1] if problem.M > 1 else None)
            X = np.stack([x, x - 0.75, x + 1.5])
            U = problem.exact.nested(X)
            tracking_table(problem.exact, X, [v + 0.1 for v in U])
        finally:
            for oracle in problem.oracles:
                del oracle.sample
    assert calls == []


BLOCK_PROBLEMS = dict(VALUE_PATH_PROBLEMS,
                      **{"svi-simplex": svi_problem(n=4, feasible_set=Simplex(4, 2.0))})


def _edge_rows(problem, X, U, rng):
    """Plant rows on the edges of each level's formula, in place.

    A third of the rows move onto the feasible set (box faces for svi); for
    the scenario levels with an inner argument, some trackers equal one
    scenario's loss at their row (a kink, d == 0 exactly); for the sqrt
    level, some sit at or below the clamp point -epsilon/2.
    """
    rows = X.shape[0]
    for i in rng.choice(rows, size=rows // 3, replace=False):
        X[i] = problem.feasible_set.project(X[i])
    for m, level in enumerate(problem.exact.levels[:-1], start=1):
        scen = getattr(level, "scen", None)
        for i in rng.choice(rows, size=rows // 4, replace=False):
            if hasattr(level, "epsilon"):
                U[m][i, 0] = -level.epsilon * rng.choice([0.5, 0.75, 3.0])
            elif scen is not None:
                U[m][i, 0] = rng.choice(scen.losses(X[i])[0])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BLOCK_PROBLEMS)), rows=st.integers(1, 1100),
       seed=st.integers(0, 2**32 - 1))
def test_block_values_match_rows_bits(name, rows, seed):
    problem = BLOCK_PROBLEMS[name]
    exact, M = problem.exact, problem.M
    rng = np.random.default_rng(seed)
    X = rng.uniform(-6.0, 6.0, (rows, problem.n))
    U = [rng.uniform(-3.0, 3.0, (rows, d)) for d in problem.level_dims]
    _edge_rows(problem, X, U, rng)
    for m in range(1, M + 1):
        u_next = U[m] if m < M else None
        block = exact.values[m - 1](X, u_next)
        assert block.shape == (rows, problem.level_dims[m - 1])
        for i in range(rows):
            u_i = None if u_next is None else u_next[i]
            assert same_bits(block[i], exact.values[m - 1](X[i], u_i))
            assert same_bits(block[i], exact.value_jac(m, X[i], u_i)[0])
    nested = exact.nested(X)
    tables = [table(exact, X, U) for table in (tracking_table, nested_table)]
    for i in range(rows):
        assert all(same_bits(v[i], w) for v, w in zip(nested, exact.nested(X[i])))
        for block, table in zip(tables, (tracking_table, nested_table)):
            assert same_bits(block[i], table(exact, X[i], [v[i] for v in U]))


def _scenario_levels():
    """Every scenario level class over a table, with and without relu, and over Gaussian draws."""
    rng = np.random.default_rng(5)
    kinds = {"gaussian": GaussianScenarios(np.full(3, 0.3), 0.4, 1.0, 0.5)}
    for relu in (False, True):
        # scenario 0 has offset 0, so at x = 0 its affine part t is 0 exactly: the relu kink
        kinds["table-relu" if relu else "table"] = FiniteScenarios(
            weights=rng.random(6) + 0.05, coef=rng.standard_normal((6, 3)),
            offset=np.r_[0.0, rng.standard_normal(5)], relu=relu)
    return {f"{kind}-{cls.__name__}": cls(scen, *args)
            for kind, scen in kinds.items()
            for cls, args in ((MeanLossLevel, ()), (UpperSemidevLevel, (0.5,)),
                              (SquaredShortfallLevel, ()), (SqrtRiskLevel, (0.5, 1e-2)))}


SCENARIO_LEVELS = _scenario_levels()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(SCENARIO_LEVELS)), rows=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
def test_scenario_block_samples_match_row_samples_bits(name, rows, seed):
    level = SCENARIO_LEVELS[name]
    scen, rng = level.scen, np.random.default_rng(seed)
    X = rng.uniform(-2.0, 2.0, (rows, scen.n))
    picks = level.draw(rng, rows, (1, scen.n, 1))
    U = None if isinstance(level, MeanLossLevel) else rng.uniform(-1.0, 1.0, (rows, 1))
    # plant edge rows, as _edge_rows does: the relu kink t == 0, a kink d == 0 of the
    # level's own max, and the sqrt level's clamp, at -epsilon/2 exactly and below it
    for i in rng.choice(rows, size=(rows + 1) // 2, replace=False):
        if isinstance(scen, FiniteScenarios) and rng.random() < 0.5:
            X[i], picks[i] = 0.0, 0
        if hasattr(level, "epsilon"):
            U[i, 0] = -level.epsilon * rng.choice([0.5, 0.75, 3.0])
        elif U is not None:
            U[i, 0] = scen.losses(X[i], picks[i])[0]  # d == 0
    block = level.sample_rows(X, U, picks)
    assert type(block) is OracleSample
    assert block.value.shape == (rows, 1) and block.jac_x.shape == (rows, 1, scen.n)
    assert (block.jac_u is None) == (U is None)
    for i in range(rows):
        s = level.sample(X[i], None if U is None else U[i], picks[i])
        assert all(same_bits(a[i], b) for a, b in zip(block[:3], s[:3]) if b is not None)
        assert (block.clamped is not False and bool(block.clamped[i])) == s.clamped


def test_risk_p1_hand_scenario_values():
    scen = _constant_loss_scenarios()
    problem = risk_p1(scen, kappa=0.5, feasible_set=Simplex(2))
    x = np.array([0.5, 0.5])
    vals = problem.exact.nested(x)
    assert vals[1][0] == pytest.approx(3.0)      # E[H]
    # 3 + 0.5 * (0 + 0 + 3)/3 over the scenario set
    assert vals[0][0] == pytest.approx(3.5)
    assert len(vals) == 2


def test_risk_p2_hand_scenario_values():
    scen = _constant_loss_scenarios()
    problem = risk_p2(scen, kappa=0.5, epsilon=1e-4, feasible_set=Simplex(2))
    x = np.array([0.3, 0.7])
    vals = problem.exact.nested(x)
    assert vals[2][0] == pytest.approx(3.0)
    assert vals[1][0] == pytest.approx(3.0)      # E[max(0, H-3)^2] = 9/3
    assert vals[0][0] == pytest.approx(3.0 + 0.5 * math.sqrt(3.0001))


def test_mean_semideviation_identity_both_orders():
    scen = random_scenarios(n=4, count=30, seed=13)
    rng = np.random.default_rng(1)
    p1 = risk_p1(scen, kappa=0.4)
    p2 = risk_p2(scen, kappa=0.4, epsilon=1e-4)
    for _ in range(20):
        x = random_point(p1.feasible_set, rng)
        assert float(p1.exact.nested(x)[0][0]) == pytest.approx(
            mean_semideviation(scen, x, 0.4, p=1), abs=1e-12)
        assert float(p2.exact.nested(x)[0][0]) == pytest.approx(
            mean_semideviation(scen, x, 0.4, p=2, epsilon=1e-4), abs=1e-12)


# ---------------------------------------------------------------------------
# oracle / exact consistency

class _PickRandom:
    """Stub generator whose random(size) returns r in every entry."""

    def __init__(self, r):
        self.r = r

    def random(self, size):
        return np.full(size, self.r)


@pytest.mark.parametrize("relu", [False, True])
def test_exact_risk_levels_are_weighted_means_of_scenario_samples(relu):
    # rng=None takes every scenario with its weight; a stub generator whose
    # random() falls inside row i's cumulative-weight interval makes the
    # level's draw pick row i, and the sample reads that drawn row
    weights = np.array([0.1, 0.4, 0.2, 0.3])
    scen = FiniteScenarios(weights=weights,
                           coef=np.array([[0.4, -0.2, 0.1], [-1.0, 0.5, 0.3],
                                          [0.2, 0.2, -0.6], [0.9, -0.4, 0.0]]),
                           offset=np.array([0.7, -0.1, 0.3, -0.4]), relu=relu)
    upper = np.cumsum(weights)
    picks = [_PickRandom(0.5 * (lo + hi)) for lo, hi in zip(np.r_[0.0, upper[:-1]], upper)]
    epsilon = 1e-2
    rng = np.random.default_rng(0)
    clamped = 0
    for problem in (risk_p1(scen, kappa=0.5), risk_p2(scen, kappa=0.5, epsilon=epsilon)):
        for u_val in (-0.9 * epsilon, -0.2 * epsilon, 0.05, 0.4, 1.5):
            x = random_point(problem.feasible_set, rng)
            for m, oracle in enumerate(problem.oracles, start=1):
                u_next = np.array([u_val]) if m < problem.M else None
                exact = oracle.sample(x, u_next, None)
                per_row = [oracle.sample(x, u_next, oracle.draw(pick, 1, None)[0])
                           for pick in picks]
                for field in ("value", "jac_x", "jac_u"):
                    rows = [getattr(s, field) for s in per_row]
                    if getattr(exact, field) is None:
                        assert all(r is None for r in rows)
                        continue
                    mean = sum(w * r for w, r in zip(weights, rows))
                    assert np.allclose(getattr(exact, field), mean, rtol=0, atol=1e-12)
                assert all(s.clamped == exact.clamped for s in per_row)
                clamped += exact.clamped
    assert clamped == 1  # SqrtRiskLevel's clamp branch, at u = -0.9 epsilon


def test_synthetic_oracles_match_exact(smooth_problem):
    problem = smooth_problem
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = random_point(problem.feasible_set, rng)
        u_next = rng.standard_normal(problem.level_dims[1])
        for m in range(1, problem.M + 1):
            u_arg = u_next if m < problem.M else None
            s = problem.oracles[m - 1].sample(x, u_arg, rng)
            v, jx, ju = problem.exact.value_jac(m, x, u_arg)
            assert np.allclose(s.value, v, atol=1e-12)
            assert np.allclose(s.jac_x, jx, atol=1e-12)


@pytest.mark.parametrize("family", ["p1", "p2"])
def test_exact_jacobians_match_finite_differences(family):
    scen = random_scenarios(n=4, count=20, seed=3)
    kappa = 0.5
    problem = (risk_p1(scen, kappa) if family == "p1"
               else risk_p2(scen, kappa, epsilon=1e-3))
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 100:
        x = random_point(problem.feasible_set, rng)
        u = rng.uniform(0.05, 3.0, size=1)
        m = 1 + checked % problem.M
        u_next = u if m < problem.M else None
        if family == "p1" and m == 1:
            losses, _ = scen.losses(x)
            if np.min(np.abs(losses - u[0])) < 1e-6:
                continue  # skip the kink band of max(0, .)
        v, jx, ju = problem.exact.value_jac(m, x, u_next)

        def f(xv, uv, m=m):
            return problem.exact.values[m - 1](xv, uv)

        fd = finite_difference_reference(f, x, u_next, step=1e-6)
        full = jx if ju is None else np.hstack([jx, ju])
        assert np.allclose(full, fd, atol=1e-5)
        checked += 1


# the problems whose bounds feed the boundedness guard of criterion 9
GUARDED_PROBLEMS = {
    "synthetic": lambda: synthetic_smooth(noise=NoiseModel(value_sd=0.1, jac_sd=0.1)),
    "risk_p1": lambda: risk_p1(random_scenarios(n=5, count=50, seed=7), kappa=0.5),
    "svi": lambda: svi_problem(n=5, instance_seed=3, skew_scale=0.5, noise_sd=0.1),
}


@pytest.mark.parametrize("name", GUARDED_PROBLEMS)
def test_norm_bounds_hold_at_exact_nested_arguments(name):
    problem = GUARDED_PROBLEMS[name]()
    value_bounds, jac_bounds, _ = norm_bounds(problem)
    rng = np.random.default_rng(8)
    for _ in range(300):
        x = random_point(problem.feasible_set, rng)
        nested = problem.exact.nested(x)
        for m in range(1, problem.M + 1):
            v, jx, ju = problem.exact.value_jac(m, x, nested[m] if m < problem.M else None)
            bx, bu = jac_bounds[m - 1]
            assert np.linalg.norm(v) <= value_bounds[m - 1] * (1 + 1e-12)
            assert np.linalg.norm(jx) <= bx * (1 + 1e-12)
            assert ju is None or np.linalg.norm(ju) <= bu * (1 + 1e-12)


def test_norm_bounds_reject_unguarded_problems():
    for problem in (synthetic_smooth(levels=1),
                    risk_p2(random_scenarios(n=3, count=5), 0.5, epsilon=1e-3),
                    svi_problem(n=2, feasible_set=Ball(np.zeros(2), 1.0))):
        with pytest.raises(TypeError):
            norm_bounds(problem)


# ---------------------------------------------------------------------------
# mean-semideviation specifics

def test_p2_risk_increases_with_epsilon():
    scen = random_scenarios(n=3, count=15, seed=6)
    x = Simplex(3).anchor()
    values = [float(risk_p2(scen, 0.5, eps).exact.nested(x)[0][0])
              for eps in (1e-6, 1e-4, 1e-2, 1.0)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_p2_oracle_clamps_below_half_epsilon():
    # single deterministic scenario so the loss part is fixed at 2.0
    scen = FiniteScenarios(weights=np.array([1.0]), coef=np.zeros((1, 2)),
                           offset=np.array([2.0]))
    problem = risk_p2(scen, kappa=0.5, epsilon=1e-2, feasible_set=Simplex(2))
    rng = np.random.default_rng(0)
    x = np.array([0.5, 0.5])
    ok = problem.oracles[0].sample(x, np.array([-4e-3]), rng)
    assert not ok.clamped
    assert ok.value[0] == pytest.approx(2.0 + 0.5 * math.sqrt(6e-3), abs=1e-12)
    clamped = problem.oracles[0].sample(x, np.array([-9e-3]), rng)
    assert clamped.clamped
    # the root argument is floored at epsilon/2, in value and u-partial alike
    assert clamped.value[0] == pytest.approx(2.0 + 0.5 * math.sqrt(5e-3), abs=1e-12)
    assert clamped.jac_u[0, 0] == pytest.approx(0.5 / (2 * math.sqrt(5e-3)), abs=1e-12)


def test_relu_losses_and_kink_rule():
    scen = FiniteScenarios(weights=np.array([1.0]), coef=np.array([[1.0, 0.0]]),
                           offset=np.array([-0.5]), relu=True)
    h, g = scen.losses(np.array([0.2, 0.0]), 0)   # t = -0.3 -> relu zero
    assert h == 0.0 and np.array_equal(g, np.zeros(2))
    h, g = scen.losses(np.array([0.5, 0.0]), 0)   # t = 0 exactly: slope 0
    assert h == 0.0 and np.array_equal(g, np.zeros(2))
    h, g = scen.losses(np.array([1.0, 0.0]), 0)
    assert h == pytest.approx(0.5) and np.array_equal(g, np.array([1.0, 0.0]))


def test_scenario_csv_roundtrip(tmp_path):
    scen = random_scenarios(n=3, count=8, seed=9)
    path = tmp_path / "scenarios.csv"
    scenarios_to_csv(scen, path)
    loaded = scenarios_from_csv(path)
    assert np.allclose(loaded.weights, scen.weights)
    assert np.allclose(loaded.coef, scen.coef)
    assert np.allclose(loaded.offset, scen.offset)
    problem = make_problem({"family": "risk_p1", "n": 3, "kappa": 0.3,
                            "scenarios": {"csv": str(path)}})
    assert validate_problem(problem) is None


# ---------------------------------------------------------------------------
# variational inequality instance

def test_svi_gap_oracle_zero_certificate():
    problem = svi_problem(n=3)
    s = problem.oracles[0].sample(problem.feasible_set.anchor(), np.zeros(3), None)
    assert s.value[0] == 0.0
    assert np.allclose(s.jac_x, 0.0) and np.allclose(s.jac_u, 0.0)


def test_svi_gap_oracle_interior_closed_form():
    problem = svi_problem(n=2, r=2.0)
    x = np.array([1.0, 1.0])          # interior of [0, 2]^2
    u = np.array([0.3, -0.2])
    s = problem.oracles[0].sample(x, u, None)
    assert s.value[0] == pytest.approx(float(u @ u) / (2 * 2.0), abs=1e-12)
    # grid search over y confirms the maximum
    grid = np.linspace(0.0, 2.0, 201)
    best = max(float(u @ (np.array([g1, g2]) - x))
               - 1.0 * float((np.array([g1, g2]) - x) @ (np.array([g1, g2]) - x))
               for g1 in grid for g2 in grid)
    assert s.value[0] >= best - 1e-9
    assert s.value[0] <= best + 1e-2


def test_svi_gap_gradients_match_finite_differences():
    problem = svi_problem(n=3, r=1.5)
    rng = np.random.default_rng(8)
    fs = problem.feasible_set

    def f(xv, uv):
        return problem.oracles[0].sample(xv, uv, None).value

    for _ in range(20):
        x = random_point(fs, rng)
        u = 0.5 * rng.standard_normal(3)
        s = problem.oracles[0].sample(x, u, None)
        fd = finite_difference_reference(f, x, u, step=1e-6)
        assert np.allclose(np.hstack([s.jac_x, s.jac_u]), fd, atol=1e-5)


def test_svi_known_identity_solution():
    problem = make_problem({"family": "svi", "n": 4, "matrix": "identity",
                            "b": [-1.0, -1.0, -1.0, -1.0],
                            "set": {"kind": "box", "lo": 0.0, "hi": 2.0}})
    assert np.allclose(problem.exact.x_star, np.ones(4), atol=1e-9)


def test_svi_fixed_point_matches_projection_characterization():
    problem = svi_problem(n=5, instance_seed=12)
    x_star = problem.exact.x_star
    A = -problem.oracles[1].Q
    b = -problem.oracles[1].c
    proj = problem.feasible_set.project(x_star - 0.3 * (A @ x_star + b))
    assert np.allclose(proj, x_star, atol=1e-8)


def test_svi_stationarity_certificate_at_solution():
    problem = svi_problem(n=5, instance_seed=12)
    x_star = problem.exact.x_star
    g1 = exact_composed_gradient(problem, x_star)[0]
    eta = gap(problem.feasible_set, x_star, g1, 1.0)
    assert abs(eta) <= 1e-8
    assert float(problem.exact.nested(x_star)[0][0]) == pytest.approx(0.0, abs=1e-12)


def test_svi_non_monotone_toggle():
    problem = svi_problem(n=3, matrix=np.diag([1.0, -1.0, 1.0]), monotone=False)
    assert problem.exact.x_star is None
    with pytest.raises(ConfigError) as exc:
        solve_vi_fixed_point(np.diag([1.0, -1.0, 1.0]), np.zeros(3),
                             Box(np.zeros(3), np.ones(3)))
    assert exc.value.field == "problem.matrix"


# ---------------------------------------------------------------------------
# factory validation

def test_make_problem_families_validate_clean():
    specs = [
        {"family": "synthetic_smooth", "levels": 3, "n": 5},
        {"family": "risk_p1", "n": 4, "kappa": 0.5, "scenarios": {"count": 6}},
        {"family": "risk_p2", "n": 4, "kappa": 0.5, "epsilon": 1e-4,
         "scenarios": {"count": 6}},
        {"family": "svi", "n": 4},
    ]
    for spec in specs:
        assert validate_problem(make_problem(spec)) is None


def test_make_problem_rejects_bad_params():
    cases = [
        ({"family": "does_not_exist"}, "problem.family"),
        ({"family": "risk_p1", "n": 3, "kappa": -0.1, "scenarios": {"count": 4}},
         "problem.kappa"),
        ({"family": "risk_p2", "n": 3, "kappa": 0.5, "epsilon": 0.0, "scenarios": {"count": 4}},
         "problem.epsilon"),
        ({"family": "svi", "n": 3, "r": -1.0}, "problem.r"),
        ({"family": "synthetic_smooth", "levels": 0}, "problem.levels"),
    ]
    for spec, field in cases:
        with pytest.raises(ConfigError) as exc:
            make_problem(spec)
        assert exc.value.field == field, spec


def test_risk_p2_solver_reaches_scipy_optimum():
    # mean-semideviation of affine losses is convex, so a generic NLP solve
    # on the exact nested objective is an independent ground truth
    from scipy.optimize import minimize

    from nestopt import AlgorithmParams, Diminishing, run
    from nestopt.diagnostics import DiagnosticsConfig

    scen = random_scenarios(n=5, count=40, seed=19)
    problem = risk_p2(scen, kappa=0.5, epsilon=1e-4)

    def f1(x):
        return float(problem.exact.nested(x)[0][0])

    res = minimize(f1, np.full(5, 0.2), method="SLSQP",
                   bounds=[(0, None)] * 5,
                   constraints=[{"type": "eq", "fun": lambda x: np.sum(x) - 1.0}],
                   options={"maxiter": 500, "ftol": 1e-12})
    assert res.status == 0
    params = AlgorithmParams(1.0, 1.0, 1.0, Diminishing(1.0, 0.75), seed=23)
    record = run(problem, params, 40_000,
                 diagnostics=DiagnosticsConfig(track_every=0, exact_every=0))
    f_final = f1(record.final_state.x)
    assert abs(f_final - res.fun) <= 0.01 * abs(res.fun)
    # transient square-root guards are counted, not fatal
    assert record.clamp_events >= 0


def test_exact_composed_gradient_matches_fd(smooth_problem):
    problem = smooth_problem
    rng = np.random.default_rng(3)
    x = random_point(problem.feasible_set, rng)

    def f1(xv, uv):
        return problem.exact.nested(xv)[0]

    fd = finite_difference_reference(f1, x, step=1e-6)
    assert np.allclose(exact_composed_gradient(problem, x), fd, atol=1e-6)


# ---------------------------------------------------------------------------
# parameter checks, and one formula per noise-free level

NAN, INF = float("nan"), float("inf")
_SCEN = random_scenarios(n=3, count=5, seed=1)


@pytest.mark.parametrize("build, error, expected", [
    (lambda: svi_problem(n=3, r=NAN), ConfigError, "problem.r"),
    (lambda: svi_problem(n=3, r=INF), ConfigError, "problem.r"),
    (lambda: risk_p2(_SCEN, 0.5, epsilon=NAN), ConfigError, "problem.epsilon"),
    (lambda: risk_p2(_SCEN, 0.5, epsilon=INF), ConfigError, "problem.epsilon"),
    (lambda: synthetic_smooth(halfwidth=NAN), ConfigError, "problem.halfwidth"),
    (lambda: synthetic_smooth(halfwidth=INF), ConfigError, "problem.halfwidth"),
    (lambda: synthetic_smooth(coupling=NAN), ConfigError, "problem.coupling"),
    (lambda: synthetic_smooth(coupling=-INF), ConfigError, "problem.coupling"),
    (lambda: synthetic_smooth(levels=2.5), ValueError, "levels must be a positive integer"),
    (lambda: synthetic_smooth(n=2.5), ValueError, "n must be a positive integer"),
    (lambda: synthetic_smooth(inner_dim=True), ValueError, "inner_dim must be a positive integer"),
    (lambda: Simplex(2.7), ValueError, "dim must be a positive integer"),
    (lambda: Simplex(True), ValueError, "dim must be a positive integer"),
    # counts and seeds numpy would refuse without naming them; a NaN skew would reach eigvalsh
    (lambda: svi_problem(n=2.5), ValueError, "n must be a positive integer"),
    (lambda: svi_problem(n=True), ValueError, "n must be a positive integer"),
    (lambda: svi_problem(n=3, skew_scale=NAN), ConfigError, "problem.skew_scale"),
    (lambda: svi_problem(n=3, skew_scale=INF), ConfigError, "problem.skew_scale"),
    (lambda: random_scenarios(n=2.5, count=5), ValueError, "n must be a positive integer"),
    (lambda: random_scenarios(n=3, count=5.5), ValueError, "count must be a positive integer"),
    (lambda: synthetic_smooth(instance_seed=2.5), ValueError,
     "instance_seed must be a non-negative integer"),
    (lambda: svi_problem(n=3, instance_seed=2.5), ValueError,
     "instance_seed must be a non-negative integer"),
    # a float dimension is refused, not truncated
    (lambda: CustomSet(2.5, np.asarray, np.zeros(2)), ValueError, "dim must be a positive integer"),
    # a scenario table checks its own entries, as it checks its weights
    (lambda: FiniteScenarios([1, 1], [[NAN, 1], [1, 1]], [0, 0]), ConfigError, "scenarios.coef"),
    (lambda: FiniteScenarios([1, 1], [[1, 1], [1, -INF]], [0, 0]), ConfigError,
     "scenarios.coef"),
    (lambda: FiniteScenarios([1, 1], [[1, 1], [1, 1]], [0, NAN]), ConfigError,
     "scenarios.offset"),
    (lambda: FiniteScenarios([1, 1], [[1, 1], [1, 1]], [INF, 0]), ConfigError,
     "scenarios.offset"),
    (lambda: random_scenarios(n=3, count=5, coef_scale=NAN), ConfigError, "scenarios.coef"),
    (lambda: random_scenarios(n=3, count=5, offset_loc=INF), ConfigError, "scenarios.offset"),
    # shapes and flags that would otherwise fail at iteration 0, or run as something else
    (lambda: FiniteScenarios([1, 1], [[1, 1], [1, 1]], [0, 0], relu="no"), ConfigError,
     "scenarios.relu"),
    (lambda: FiniteScenarios([1, 1], [[1, 1], [1, 1]], [[0], [0]]), ConfigError,
     "scenarios.offset"),
    (lambda: FiniteScenarios([[1, 1], [1, 1]], np.ones((4, 2)), np.zeros(4)), ConfigError,
     "scenarios.weights"),
    (lambda: GaussianScenarios(np.full(3, 0.3), -1.0, 1.0, 0.5), ConfigError, "scenarios.coef_sd"),
    (lambda: GaussianScenarios(np.full(3, 0.3), NAN, 1.0, 0.5), ConfigError, "scenarios.coef_sd"),
    (lambda: GaussianScenarios(np.full(3, 0.3), 0.4, 1.0, -0.5), ConfigError,
     "scenarios.offset_sd"),
    (lambda: GaussianScenarios(np.full(3, 0.3), 0.4, INF, 0.5), ConfigError,
     "scenarios.offset_mean"),
    (lambda: GaussianScenarios([0.3, NAN, 0.3], 0.4, 1.0, 0.5), ConfigError,
     "scenarios.coef_mean"),
    (lambda: GaussianScenarios(np.full((2, 3), 0.3), 0.4, 1.0, 0.5), ConfigError,
     "scenarios.coef_mean"),
    (lambda: risk_p1(_SCEN, "0.5"), ConfigError, "problem.kappa"),
    (lambda: risk_p1(_SCEN, True), ConfigError, "problem.kappa"),
    (lambda: risk_p2(_SCEN, 0.5, epsilon=True), ConfigError, "problem.epsilon"),
], ids=["svi-nan-r", "svi-inf-r", "p2-nan-epsilon", "p2-inf-epsilon", "nan-halfwidth",
        "inf-halfwidth", "nan-coupling", "inf-coupling", "float-levels", "float-n",
        "bool-inner-dim", "float-simplex-dim", "bool-simplex-dim", "svi-float-n", "svi-bool-n",
        "svi-nan-skew", "svi-inf-skew", "scenarios-float-n", "scenarios-float-count",
        "float-instance-seed", "svi-float-instance-seed", "float-custom-set-dim",
        "table-nan-coef", "table-inf-coef", "table-nan-offset", "table-inf-offset",
        "scenarios-nan-coef-scale", "scenarios-inf-offset-loc", "table-text-relu",
        "table-column-offset", "table-square-weights", "gaussian-negative-coef-sd",
        "gaussian-nan-coef-sd", "gaussian-negative-offset-sd", "gaussian-inf-offset-mean",
        "gaussian-nan-coef-mean", "gaussian-matrix-coef-mean", "p1-text-kappa", "p1-bool-kappa",
        "p2-bool-epsilon"])
def test_family_parameters_fail_at_construction_with_their_name(build, error, expected):
    with pytest.raises(error) as exc:
        build()
    if error is ConfigError:
        assert exc.value.field == expected
    else:  # a ValueError that no config can reach, naming the parameter
        assert not isinstance(exc.value, ConfigError)
        assert str(exc.value).startswith(expected)


class _SquarePlusLinear(NoiseFreeLevel):
    """f(x, u) = 0.5||x||^2 + w . u, stated once over a row or a block."""

    def __init__(self, w):
        self.w = w

    def sample_rows(self, x, u_next, rows, k=0):
        value = (0.5 * row_dot(x, x) + row_dot(u_next, np.broadcast_to(self.w, u_next.shape)))
        return OracleSample(value[..., None], x[..., None, :], self.w[None, :])


class _SampleOnly(NoiseFreeLevel):
    """The same level stated as sample alone: its rows go one at a time."""

    def sample(self, x, u_next, rng, k=0):
        return _SquarePlusLinear(np.arange(3.0)).sample(x, u_next, rng, k)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_level_stated_as_sample_rows_alone_samples_each_row_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    level = _SquarePlusLinear(rng.standard_normal(3))
    x, u = rng.standard_normal((4, 5)), rng.standard_normal((4, 3))
    state = rng.bit_generator.state
    block = level.sample_rows(x, u, [rng] * 4)
    assert same_bits(level.exact_value(x, u), block.value)
    for i in range(4):
        s = level.sample(x[i], u[i], rng)
        assert same_bits(s.value, block.value[i]) and same_bits(s.jac_x, block.jac_x[i])
        assert same_bits(s.jac_u, block.jac_u) and s.clamped is False
        assert same_bits(level.exact_value(x[i], u[i]), block.value[i])
    assert rng.bit_generator.state == state  # a noise-free level reads no generator


def test_a_level_stated_as_sample_alone_takes_its_exact_values_row_by_row():
    x, u = np.ones((2, 5)), np.ones((2, 3))
    level, values = _SampleOnly(), ExactEvaluators((_SampleOnly(),)).values[0]
    assert level.exact_value is None
    assert same_bits(values(x, u), np.array([level.sample(x[i], u[i], None)[0]
                                             for i in range(2)]))
    with pytest.raises(TypeError, match="neither sample_rows nor sample"):
        type("_Nothing", (NoiseFreeLevel,), {})


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 1000])
def test_row_dot_and_row_matvec_of_one_row_are_dot(n):
    rng = np.random.default_rng(n)
    a, b, A = rng.standard_normal(n), rng.standard_normal(n), rng.standard_normal((n + 2, n))
    for got, want in ((row_dot(a, b), a.dot(b)), (row_matvec(A, a), A.dot(a))):
        assert type(got) is type(want) and same_bits(got, want)


def test_shipped_levels_state_their_own_sample_rows():
    # no shipped level leaves a lockstep block to LevelOracle's row-by-row default
    import nestopt.problems
    levels = [cls for info in pkgutil.iter_modules(nestopt.problems.__path__)
              for cls in vars(importlib.import_module(f"nestopt.problems.{info.name}")).values()
              if isinstance(cls, type) and issubclass(cls, LevelOracle)
              and cls.__module__ == f"nestopt.problems.{info.name}"]
    assert len(levels) >= 10
    for cls in levels:
        assert cls.sample_rows.__module__.startswith("nestopt.problems."), cls.__name__
        if issubclass(cls, NoiseFreeLevel):
            assert "sample_rows" in vars(cls), cls.__name__
            assert not {"sample", "exact_value"} & set(vars(cls)), cls.__name__
