"""Exception types shared across the library."""


class ScrambleError(Exception):
    """Base class for all library errors."""


class ShapeError(ScrambleError, ValueError):
    """Inputs have inconsistent or structurally invalid array shapes."""


class ValidationError(ScrambleError, ValueError):
    """An input violates a mathematical precondition (hermiticity, unitarity, norm)."""


class DomainError(ScrambleError, ValueError):
    """The requested quantity is not defined for the given inputs."""


class UndefinedMetricError(DomainError):
    """A normalizing quantity vanishes, leaving the metric undefined."""


class DecompositionError(ScrambleError, RuntimeError):
    """Structural decomposition failed; the input is likely not a *-algebra
    at the working tolerance."""


class DegeneracyError(DecompositionError):
    """Random witness sampling failed to separate structure after bounded retries."""
