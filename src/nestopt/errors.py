"""Exception types shared across the package, and the config number reader."""

import numbers


class CompoptError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CompoptError):
    """A configuration document is invalid; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


def config_number(value, field: str, integral: bool = False):
    """A config entry as a float, or as an int when integral; else ConfigError(field)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if not integral:
            return float(value)
        if float(value).is_integer():
            return int(value)
    raise ConfigError(field, f"expected {'an integer' if integral else 'a number'}, "
                             f"got {value!r}")


class InvalidParamError(ConfigError):
    """A problem or algorithm parameter is outside its admissible range."""


class UnknownFamilyError(ConfigError):
    """The requested problem family is not registered."""


class InvalidHorizonError(CompoptError):
    """Iteration count must be a positive integer."""


class ScheduleExhaustedError(CompoptError):
    """A custom stepsize sequence has fewer entries than requested iterations."""


class ProjectionError(CompoptError):
    """A projection subroutine failed to converge."""


class NonFiniteIterateError(CompoptError):
    """The solver state became NaN/Inf; ``iteration`` is where it happened."""

    def __init__(self, iteration: int, what: str = "state"):
        self.iteration = iteration
        super().__init__(f"non-finite {what} at iteration {iteration}")


class SolverSetupError(CompoptError):
    """The problem cannot be run as configured (e.g. non-scalar objective level)."""


class MissingExactEvaluatorsError(CompoptError):
    """The requested diagnostic needs exact evaluators the problem does not carry."""


class InsufficientReplicationsError(CompoptError):
    """A replication-averaged diagnostic was asked for with too few replications."""
