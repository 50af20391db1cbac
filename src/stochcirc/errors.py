"""Exception hierarchy shared across the package.

Every error raised by the library derives from StochcircError so the CLI
can map failures to stable exit codes (see cli.EXIT_CODES).
"""


class StochcircError(Exception):
    """Base class for all library errors."""


class InvalidWidthError(StochcircError):
    """Requested a bit width outside [1, 64]."""


class DomainError(StochcircError):
    """Input value outside the declared domain (gate input, probability, label)."""


class CompositionError(StochcircError):
    """Gate interfaces do not line up for composition."""


class NoSupportError(StochcircError):
    """A distribution has no outcome with nonzero probability."""

    def __init__(self, message, variable=None):
        super().__init__(message)
        self.variable = variable


class ScheduleViolationError(StochcircError):
    """A schedule updates interacting circuits in the same group."""

    def __init__(self, message, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class ConfigError(StochcircError):
    """Inconsistent run configuration (lattice size, temperature, format)."""


class ShapeError(StochcircError):
    """Data dimensions do not match the model."""


class GraphError(StochcircError):
    """Base class for factor-graph validation failures."""


class UnknownVariableError(GraphError):
    """A factor or query references an undeclared variable."""


class TableLengthError(GraphError):
    """Factor table length does not equal the product of member arities."""


class NegativeWeightError(GraphError):
    """Factor table contains a negative entry."""


class DuplicateNameError(GraphError):
    """Two variables or two factors share a name."""


class AcyclicityError(GraphError):
    """A Bayes net contains a directed cycle."""


class StateSpaceError(GraphError):
    """Joint state space too large for exact enumeration."""
