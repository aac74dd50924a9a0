"""Exception types shared across the package, the number checks that
raise one, and the float conversion that the settings share."""

import operator


class RankAdmmError(Exception):
    """Base class for all package errors."""


class DimensionError(RankAdmmError):
    """Shapes of the supplied arrays are inconsistent."""


class InvalidParameterError(RankAdmmError):
    """A configuration or scheme parameter is outside its valid range."""


class DataFormatError(RankAdmmError):
    """A data file could not be parsed.

    Carries the 1-based line number when the failure is tied to a line.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SolverError(RankAdmmError):
    """An inner or outer solve failed irrecoverably."""

    def __init__(self, message: str, iteration: int | None = None):
        if iteration is not None:
            message = f"iteration {iteration}: {message}"
        super().__init__(message)
        self.iteration = iteration


def check_positive_int(name: str, value) -> None:
    """Raise InvalidParameterError unless ``value`` is an integer >= 1.
    Python and numpy integers pass (through ``operator.index``); a float
    such as 2.0 or 2.5 does not."""
    try:
        as_int = operator.index(value)
    except TypeError:
        raise InvalidParameterError(f"{name} must be an integer, got {value!r}") from None
    if as_int < 1:
        raise InvalidParameterError(f"{name} must be >= 1, got {as_int}")


def to_float(value) -> float:
    """``float(value)``; InvalidParameterError for a bool, which JSON's true
    and false load as and ``float`` would take as 1.0 and 0.0."""
    if isinstance(value, bool):
        raise InvalidParameterError(f"{value!r} is not a number")
    return float(value)


def store_floats(settings, *names: str) -> None:
    """Store each named field of the frozen dataclass ``settings`` as a
    Python float, leaving None as it is.  Call it after the checks: a
    numpy scalar (float32, say) would otherwise carry its own precision
    into every product it enters under numpy 2's promotion rules."""
    for name in names:
        value = getattr(settings, name)
        if value is not None:
            object.__setattr__(settings, name, float(value))
