import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestopt import LevelOracle, NoiseModel, NoisyOracle, level_streams
from nestopt.oracles import OracleSample, _centered_draw
from nestopt.problems import GaussianScenarios, FiniteScenarios, random_scenarios
from nestopt.problems.risk import MeanLossLevel, SqrtRiskLevel, UpperSemidevLevel
from nestopt.problems.synthetic import LinearBottomLevel, LinearLevel

from helpers import DeterministicOracle, finite_difference_reference, same_bits


def _affine_oracle(A, B=None, c=None):
    A = np.asarray(A, dtype=float)
    B = None if B is None else np.asarray(B, dtype=float)
    c = np.zeros(A.shape[0]) if c is None else np.asarray(c, dtype=float)

    def value_jac(x, u):
        val = A @ x + c
        if B is not None:
            val = val + B @ u
        return val, A, B

    return DeterministicOracle(value_jac)


def test_deterministic_linear_exact_and_idempotent():
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    oracle = _affine_oracle(A)
    rng = np.random.default_rng(0)
    x = np.array([0.5, -2.0])
    s1 = oracle.sample(x, None, rng)
    s2 = oracle.sample(x, None, rng)
    assert np.array_equal(s1.value, A @ x)
    assert np.array_equal(s1.jac_x, A)
    assert np.array_equal(s1.value, s2.value) and np.array_equal(s1.jac_x, s2.jac_x)


def test_noisy_sample_unbiased():
    A = np.array([[1.0, 2.0], [3.0, -1.0]])
    B = np.array([[0.5], [2.0]])
    base = _affine_oracle(A, B)
    oracle = NoisyOracle(base, NoiseModel(value_sd=0.1, jac_sd=0.1))
    rng = level_streams(
        seed=123, n_levels=1)[0]
    x = np.array([0.3, -0.7])
    u = np.array([1.1])
    N = 100_000
    vsum = np.zeros(2)
    jxsum = np.zeros((2, 2))
    jusum = np.zeros((2, 1))
    for _ in range(N):
        s = oracle.sample(x, u, rng)
        vsum += s.value
        jxsum += s.jac_x
        jusum += s.jac_u
    margin = 4 * 0.1 / np.sqrt(N)  # 4 sigma / sqrt(N), flaky-test margin
    exact_v = A @ x + B @ u
    assert np.all(np.abs(vsum / N - exact_v) < margin)
    assert np.all(np.abs(jxsum / N - A) < margin)
    assert np.all(np.abs(jusum / N - B) < margin)


def test_bias_schedule_offsets():
    A = np.eye(2)
    base = _affine_oracle(A)
    oracle = NoisyOracle(base, NoiseModel(bias=lambda k: 1.0 / (k + 1)))
    rng = np.random.default_rng(0)
    x = np.array([1.0, 2.0])
    s0 = oracle.sample(x, None, rng, k=0)
    assert np.allclose(s0.value, x + 1.0)
    assert np.allclose(s0.jac_x, A + 1.0)
    s999 = oracle.sample(x, None, rng, k=999)
    assert np.allclose(s999.value, x + 1e-3)


def test_finite_difference_square():
    fd = finite_difference_reference(lambda x, u: np.array([x[0] ** 2]),
                                     np.array([3.0]), step=1e-5)
    assert abs(fd[0, 0] - 6.0) < 1e-9


def test_finite_difference_identity_in_u():
    fd = finite_difference_reference(lambda x, u: np.asarray(u),
                                     np.array([0.3, 0.4]), np.array([1.0, -2.0, 0.5]))
    assert np.allclose(fd[:, :2], 0.0, atol=1e-10)
    assert np.allclose(fd[:, 2:], np.eye(3), atol=1e-10)


def test_finite_difference_constant():
    fd = finite_difference_reference(lambda x, u: np.array([7.0, -1.0]),
                                     np.array([0.1, 0.2, 0.3]))
    assert np.allclose(fd, 0.0)


def test_level_streams_disjoint_and_replayable():
    s_a = level_streams(99, 3, replication=0)
    s_b = level_streams(99, 3, replication=0)
    draws_a = [g.standard_normal(4) for g in s_a]
    draws_b = [g.standard_normal(4) for g in s_b]
    for da, db in zip(draws_a, draws_b):
        assert np.array_equal(da, db)
    assert not np.array_equal(draws_a[0], draws_a[1])
    s_rep1 = level_streams(99, 3, replication=1)
    assert not np.array_equal(s_rep1[0].standard_normal(4), draws_a[0])


def test_level_stream_independent_of_deeper_consumption():
    # consuming level 3 differently must not change level 2's samples
    first = level_streams(7, 3)
    first[2].standard_normal(100)
    level2_a = first[1].standard_normal(8)
    second = level_streams(7, 3)
    second[2].standard_normal(3)   # permuted / different draw count
    second[2].random(11)
    level2_b = second[1].standard_normal(8)
    assert np.array_equal(level2_a, level2_b)


def test_level_streams_seed_range():
    with pytest.raises(ValueError):
        level_streams(-1, 2)
    with pytest.raises(ValueError):
        level_streams(2**64, 2)
    for n_levels in (2.5, 0, -1, True):
        with pytest.raises(ValueError, match="n_levels must be a positive integer"):
            level_streams(0, n_levels)


@pytest.mark.parametrize("a, b", [
    (2**63, 2**63 + 1),  # through a float counter, both were counter 2**63
    (2**64 - 1, 0),  # through a float counter, 2**64 - 1 wrapped to 0 with a RuntimeWarning
    (np.uint64(2**64 - 1), 2**64 - 2),
    (2**53, 2**53 + 1),
    (0, 1),
], ids=["2**63", "2**64-1", "uint64", "2**53", "small"])
def test_level_streams_of_distinct_replications_differ(a, b):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        first, second = level_streams(5, 2, a), level_streams(5, 2, b)
    for g, h in zip(first, second):
        assert g.random() != h.random()


@pytest.mark.parametrize("replication", [0, 1, 19, 2**40 + 3, 2**62])
def test_level_streams_of_small_replications_keep_their_bits(replication):
    # a counter [0, 0, m, r] below 2**63 reads the same as a Python list or as uint64
    streams = level_streams(7, 3, replication)
    for m, g in enumerate(streams, 1):
        ref = np.random.Generator(np.random.Philox(key=7, counter=[0, 0, m, replication]))
        assert same_bits(g.standard_normal(5), ref.standard_normal(5))


@pytest.mark.parametrize("dist", ["gaussian", "uniform", "rademacher"])
def test_centered_draw_moments(dist):
    rng = np.random.default_rng(5)
    draws = _centered_draw(rng, 200_000, dist)
    assert abs(float(draws.mean())) < 0.02
    assert abs(float(draws.var()) - 1.0) < 0.02
    if dist == "rademacher":
        assert set(np.unique(draws)) == {-1.0, 1.0}


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(value_sd=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(distribution="cauchy")


@pytest.mark.parametrize("fields", [{"value_sd": float("nan")}, {"jac_sd": float("nan")},
                                    {"jac_sd": -1e-300}, {"value_sd": float("inf")},
                                    {"jac_sd": float("inf")}],
                         ids=["value-nan", "jac-nan", "jac-negative", "value-inf", "jac-inf"])
def test_noise_model_rejects_nan_and_negative_deviations(fields):
    with pytest.raises(ValueError, match="noise standard deviations must be >= 0"):
        NoiseModel(**fields)


@pytest.mark.parametrize("fields, message", [
    ({"bias": 3}, "bias must be callable or None, got 3"),
    ({"bias": "1/k"}, "bias must be callable or None, got '1/k'"),
    ({"value_sd": "0.1"}, "value_sd must be a real number, got '0.1'"),
    ({"jac_sd": None}, "jac_sd must be a real number, got None"),
    ({"value_sd": True}, "value_sd must be a real number, got True"),
    ({"jac_sd": np.bool_(True)}, f"jac_sd must be a real number, got {np.bool_(True)!r}"),
], ids=["int-bias", "str-bias", "str-value-sd", "none-jac-sd", "bool-value-sd",
        "numpy-bool-jac-sd"])
def test_noise_model_rejects_a_field_of_the_wrong_type(fields, message):
    with pytest.raises(ValueError) as exc:
        NoiseModel(**fields)
    assert str(exc.value) == message


def test_sample_block_split_roundtrip():
    # exact evaluators read sample[:3] as (value, jac_x, jac_u)
    jac = np.arange(10.0).reshape(2, 5)
    s = OracleSample(np.zeros(2), jac[:, :3], jac[:, 3:])
    assert np.array_equal(np.hstack(s[1:3]), jac)
    value, jac_x, jac_u, clamped = s
    assert jac_x is s.jac_x and jac_u is s.jac_u and clamped is False
    bottom = OracleSample(np.zeros(2), jac[:, :3])
    assert bottom.jac_u is None and not bottom.clamped


# ---------------------------------------------------------------------------
# block draws: a level's randomness for count samples from one generator call

def test_noisy_oracle_keeps_the_base_clamped_flag():
    base = SqrtRiskLevel(random_scenarios(n=3, count=5, seed=1), kappa=0.5, epsilon=1e-2)
    x, u = np.full(3, 1.0 / 3.0), np.array([-9e-3])  # epsilon + u below epsilon / 2
    rng = level_streams(0, 1)[0]
    assert base.sample(x, u, rng).clamped
    assert NoisyOracle(base, NoiseModel(0.0, 0.0)).sample(x, u, rng).clamped


def test_default_sample_rows_stacks_the_rows_sampled_one_at_a_time():
    # the scenario level states its own sample_rows; this calls LevelOracle's default on it
    level = SqrtRiskLevel(random_scenarios(n=3, count=5, seed=1), kappa=0.5, epsilon=1e-2)
    rng = np.random.default_rng(2)
    x = rng.dirichlet(np.ones(3), size=4)
    u = np.array([[-9e-3], [0.2], [-9e-3], [-4e-3]])  # rows 0 and 2 clamp
    rows = level.draw(level_streams(0, 1)[0], 4, (1, 3, 1))
    block = LevelOracle.sample_rows(level, x, u, rows)
    assert type(block) is OracleSample
    assert block.clamped.dtype == bool and list(block.clamped) == [True, False, True, False]
    for i in range(4):
        s = level.sample(x[i], u[i], rows[i])
        assert all(same_bits(a[i], b) for a, b in zip(block[:3], s[:3]))
        assert block.clamped[i] == s.clamped


def test_noise_moves_the_value_by_value_sd_and_the_jacobians_by_jac_sd():
    base = LinearLevel(np.eye(2, 3), np.ones((2, 2)), np.zeros(2))
    x, u = np.array([0.5, -1.0, 2.0]), np.array([0.3, 0.1])
    exact = base.sample(x, u, None)
    for value_sd, jac_sd in ((0.0, 1.0), (1.0, 0.0)):
        noisy = NoisyOracle(base, NoiseModel(value_sd, jac_sd))
        rng = level_streams(1, 1)[0]
        for s in (noisy.sample(x, u, rng), noisy.sample(x, u, noisy.draw(rng, 1, (2, 3, 2))[0])):
            assert np.array_equal(s.value, exact.value) == (value_sd == 0.0)
            assert np.array_equal(s.jac_x, exact.jac_x) == (jac_sd == 0.0)
            assert np.array_equal(s.jac_u, exact.jac_u) == (jac_sd == 0.0)


_DRAW_KINDS = {  # every generator call a shipped draw makes
    "standard_normal": lambda g, shape: g.standard_normal(shape),
    "random": lambda g, shape: g.random(shape),
    "integers": lambda g, shape: g.integers(0, 2, shape),
}


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(sorted(_DRAW_KINDS)), seed=st.integers(0, 2**64 - 1),
       count=st.integers(0, 30), size=st.integers(0, 40))
def test_one_draw_of_count_by_size_equals_count_draws_of_size(kind, seed, count, size):
    block_rng, call_rng = level_streams(seed, 1)[0], level_streams(seed, 1)[0]
    draw = _DRAW_KINDS[kind]
    block = draw(block_rng, (count, size))
    for row in block:
        assert same_bits(row, draw(call_rng, size))
    assert block_rng.random() == call_rng.random()  # both streams stop at the same place


def _block_levels():
    """Every shipped kind of level whose draw returns a block, with its dims (d, n, d_next)."""
    rng = np.random.default_rng(11)
    Q, R, c = rng.standard_normal((2, 3)), rng.standard_normal((2, 2)), rng.standard_normal(2)
    table = FiniteScenarios(weights=rng.random(7) + 0.05, coef=rng.standard_normal((7, 3)),
                            offset=rng.standard_normal(7), relu=True)
    gauss = GaussianScenarios(np.full(3, 0.3), 0.4, 1.0, 0.5)
    levels = {f"noise-{dist}": (NoisyOracle(LinearLevel(Q, R, c), NoiseModel(0.1, 0.2, dist)),
                                (2, 3, 2))
              for dist in ("gaussian", "uniform", "rademacher")}
    levels["noise-bias-innermost"] = (
        NoisyOracle(LinearBottomLevel(Q, c), NoiseModel(0.1, 0.2, bias=lambda k: 1.0 / (k + 1))),
        (2, 3, 0))
    levels["finite-scenarios"] = (UpperSemidevLevel(table, 0.5), (1, 3, 1))
    levels["gaussian-scenarios"] = (MeanLossLevel(gauss), (1, 3, 0))
    return levels


BLOCK_LEVELS = _block_levels()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(sorted(BLOCK_LEVELS)), seed=st.integers(0, 2**64 - 1),
       count=st.integers(1, 20), k=st.integers(0, 10**6))
def test_block_rows_give_the_samples_drawn_one_call_at_a_time(name, seed, count, k):
    level, (d, n, d_next) = BLOCK_LEVELS[name]
    x, u = np.linspace(-0.5, 0.7, n), np.linspace(0.2, -0.3, d_next) if d_next else None
    block_rng, call_rng = level_streams(seed, 1)[0], level_streams(seed, 1)[0]
    block = level.draw(block_rng, count, (d, n, d_next))
    assert len(block) == count
    for row in block:
        a, b = level.sample(x, u, row, k), level.sample(x, u, call_rng, k)
        assert all(same_bits(p, q) for p, q in zip(a[:3], b[:3]) if p is not None)
        assert (a.jac_u is None) == (b.jac_u is None) and a.clamped == b.clamped
    assert block_rng.random() == call_rng.random()


def test_levels_that_declare_no_draw_sample_per_call():
    # DeterministicOracle keeps LevelOracle's draw; a NoisyOracle over a level
    # that draws per call must draw its noise per call too, after the base's
    scen = random_scenarios(n=2, count=4, seed=3)
    for level in (_affine_oracle(np.eye(2)),
                  NoisyOracle(_affine_oracle(np.eye(2)), NoiseModel(0.1, 0.1)),
                  NoisyOracle(MeanLossLevel(scen), NoiseModel(0.1, 0.1)),
                  NoisyOracle(NoisyOracle(LinearBottomLevel(np.eye(2), np.zeros(2)),
                                          NoiseModel(0.1, 0.1)), NoiseModel(0.1, 0.1))):
        rng, ref = level_streams(4, 1)[0], level_streams(4, 1)[0]
        assert level.draw(rng, 5, (2, 2, 0)) is None
        assert rng.random() == ref.random()  # declining the block drew nothing
