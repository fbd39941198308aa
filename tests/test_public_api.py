import pickle

import nestopt
import nestopt.errors
import nestopt.problems


def test_public_names_pinned():
    assert sorted(nestopt.__all__) == sorted([
        "AlgorithmParams", "Ball", "Box", "CompoptError", "CompositionProblem",
        "ConfigError", "Constant", "Custom", "CustomSet",
        "DiagnosticsConfig", "Diminishing", "ExactEvaluators", "FeasibleSet",
        "InitPolicy", "IterateState", "LevelOracle", "NoiseModel", "NoisyOracle",
        "NonFiniteIterateError", "OracleSample",
        "Polytope", "ProjectionError", "RunRecord", "Simplex", "StepSchedule",
        "assemble_subgradient", "fit_rate",
        "gap", "init_state", "level_streams", "lyapunov",
        "next_stepsize", "objective_tail_oscillation",
        "optimality_measure", "run",
        "update_trackers", "update_z", "validate_problem",
    ])
    assert len(set(nestopt.__all__)) == len(nestopt.__all__) == 38
    for name in nestopt.__all__:
        assert hasattr(nestopt, name), name


def test_problems_names_pinned():
    assert sorted(nestopt.problems.__all__) == sorted([
        "FiniteScenarios", "GaussianScenarios", "make_problem", "random_scenarios",
        "risk_p1", "risk_p2", "scenarios_from_csv", "solve_vi_fixed_point",
        "svi_problem", "synthetic_smooth",
    ])
    for name in nestopt.problems.__all__:
        assert hasattr(nestopt.problems, name), name


def test_every_error_survives_pickling():
    # a process pool sends a worker's error to the parent as a pickle
    examples = {
        nestopt.errors.CompoptError: nestopt.errors.CompoptError("failed"),
        nestopt.errors.ConfigError: nestopt.errors.ConfigError("problem.n", "must be >= 1"),
        nestopt.errors.ProjectionError: nestopt.errors.ProjectionError("stalled at iteration 4"),
        nestopt.errors.NonFiniteIterateError: nestopt.errors.NonFiniteIterateError(3, "u_2"),
    }
    defined = {obj for obj in vars(nestopt.errors).values()
               if isinstance(obj, type) and issubclass(obj, nestopt.errors.CompoptError)}
    assert defined == set(examples)
    for cls, err in examples.items():
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is cls
        assert str(back) == str(err)
        assert back.args == err.args
        assert vars(back) == vars(err)
