"""Single time-scale stochastic subgradient method for nested compositions.

A solver library plus experiment CLI for constrained problems of the form
min_{x in X} f_1(x, f_2(x, ... f_M(x) ...)) where every level is observed
only through noisy value and Jacobian samples.  One stepsize sequence
drives the iterate, a filtered subgradient average, and filtered trackers
of all nested values simultaneously.
"""

from .diagnostics import (DiagnosticsConfig, ObjectiveTailReport, RunRecord,
                          fit_rate, lyapunov, objective_tail_oscillation,
                          optimality_measure)
from .errors import CompoptError, ConfigError, NonFiniteIterateError, ProjectionError
from .model import (AlgorithmParams, CompositionProblem, Constant, Custom,
                    Diminishing, ExactEvaluators, InitPolicy, IterateState,
                    StepSchedule, Violation, init_state, next_stepsize,
                    stepsize_cap, validate_problem)
from .oracles import LevelOracle, NoiseModel, NoisyOracle, OracleSample, level_streams
from .sets import Ball, Box, CustomSet, FeasibleSet, Polytope, Simplex, gap
from .solver import assemble_subgradient, run, update_trackers, update_z

__version__ = "0.1.0"

__all__ = [
    "AlgorithmParams", "Ball", "Box", "CompoptError", "CompositionProblem",
    "ConfigError", "Constant", "Custom", "CustomSet", "DiagnosticsConfig",
    "Diminishing", "ExactEvaluators", "FeasibleSet", "InitPolicy", "IterateState",
    "LevelOracle", "NoiseModel", "NoisyOracle", "NonFiniteIterateError",
    "ObjectiveTailReport", "OracleSample", "Polytope", "ProjectionError", "RunRecord",
    "Simplex", "StepSchedule", "Violation",
    "assemble_subgradient", "fit_rate", "gap", "init_state", "level_streams",
    "lyapunov", "next_stepsize", "objective_tail_oscillation",
    "optimality_measure", "run", "stepsize_cap", "update_trackers", "update_z",
    "validate_problem",
]
