"""Exception types shared across the library.

Each class carries the CLI exit code of its failure mode as ``exit_code``;
subclasses inherit it.
"""


class ScrambleError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class ShapeError(ScrambleError, ValueError):
    """Inputs have inconsistent or structurally invalid array shapes."""

    exit_code = 2


class ValidationError(ScrambleError, ValueError):
    """An input violates a mathematical precondition (hermiticity, unitarity, norm)."""

    exit_code = 4


class DomainError(ScrambleError, ValueError):
    """The requested quantity is not defined for the given inputs."""

    exit_code = 5


class UndefinedMetricError(DomainError):
    """A normalizing quantity vanishes, leaving the metric undefined."""


class DecompositionError(ScrambleError, RuntimeError):
    """Structural decomposition failed; the input is likely not a *-algebra
    at the working tolerance."""

    exit_code = 3

