import nestopt


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
