"""Exception types shared across the package."""


class CompoptError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(CompoptError):
    """A configuration document is invalid; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):  # a pool worker's error reaches the parent with both arguments
        return type(self), (self.field, self.message)


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
