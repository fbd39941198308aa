import nestopt
import nestopt.problems


def test_public_names_pinned():
    assert sorted(nestopt.__all__) == sorted([
        "AlgorithmParams", "Ball", "Box", "CompoptError", "CompositionProblem",
        "ConfigError", "Constant", "Custom", "CustomSet",
        "DiagnosticsConfig", "Diminishing", "ExactEvaluators", "FeasibleSet",
        "InitPolicy", "InvalidHorizonError",
        "InvalidParamError", "IterateState", "LevelOracle",
        "MissingExactEvaluatorsError", "NoiseModel", "NoisyOracle",
        "NonFiniteIterateError", "ObjectiveTailReport", "OracleSample",
        "Polytope", "ProjectionError", "RunRecord", "ScheduleExhaustedError",
        "Simplex", "SolverSetupError", "StepSchedule", "UnknownFamilyError",
        "Violation", "assemble_subgradient", "fit_rate",
        "gap", "init_state", "level_streams", "lyapunov",
        "next_stepsize", "objective_tail_oscillation",
        "optimality_measure", "run",
        "stepsize_cap", "update_trackers", "update_z", "validate_problem",
    ])
    assert len(set(nestopt.__all__)) == len(nestopt.__all__) == 47
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
