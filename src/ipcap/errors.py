"""Exception types shared across the library.

The CLI maps these onto exit codes: ConfigError and ParameterError are
configuration problems (exit 2), DataError covers bad or missing input data
(exit 3), and the numeric/divergence family exits with 4.
"""


class ParameterError(ValueError):
    """A parameter value is invalid; the message names the offending field."""


class ConfigError(ValueError):
    """An experiment configuration is malformed; the message names the key."""


class DataError(ValueError):
    """Input data violates a precondition (non-finite entries, T <= N, ...)."""


class ShapeError(ValueError):
    """Array lengths or shapes are inconsistent."""


class WindowError(ValueError):
    """A target window does not leave room for the requested delays."""


class DegenerateTargetError(ValueError):
    """A chaos target has zero norm and cannot be normalized."""


class DegeneracyError(ValueError):
    """The fitted basis has a degree that vanishes on the samples (too few distinct values)."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"moment vectors degenerate at degree {degree}")


class DivergenceError(RuntimeError):
    """A simulated trajectory left the admissible range."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"state diverged at step {step}")


class NoFixedPointError(ValueError):
    """The NARMA10 fixed-point discriminant is negative."""


class AnalysisError(RuntimeError):
    """A numerical analysis could not be completed (e.g. divergent trajectory)."""
