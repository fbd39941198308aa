"""Exception types shared across the package."""


class CompoptError(Exception):
    """Base class of the package's errors: the CLI exits 1 on a ConfigError, 2 on any other.

    A library call given an argument no config can produce raises ValueError.
    """


class ConfigError(CompoptError):
    """A configuration document is invalid; ``field`` names the offending entry."""

    def __init__(self, field: str, message: str):
        self.field, self.message = field, message
        super().__init__(f"{field}: {message}")

    def __reduce__(self):  # a pool worker's error reaches the parent with both arguments
        return type(self), (self.field, self.message)


class ProjectionError(CompoptError):
    """A projection subroutine failed to converge."""


class NonFiniteIterateError(CompoptError):
    """The solver state became NaN/Inf; ``iteration`` is where it happened, ``what`` the array."""

    def __init__(self, iteration: int, what: str):
        self.iteration, self.what = iteration, what
        super().__init__(f"non-finite {what} at iteration {iteration}")

    def __reduce__(self):
        return type(self), (self.iteration, self.what)
