"""Exception and warning types shared across the package."""


class GasTbaError(Exception):
    """Base class for all library errors."""


class DomainError(GasTbaError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """Evaluation requested exactly at a pole."""


class SingularityError(DomainError):
    """Evaluation requested at a non-pole singular point (e.g. x = 0)."""


class DimensionError(DomainError):
    """Operation undefined in the requested spatial dimension."""


class ExcludedOrderError(DomainError):
    """Complex order lies on the excluded set of the quasi-periodic kernel
    normalization (zeros of 1 - 2**(1-nu) or poles of the Gamma factors)."""


class ConvergenceError(GasTbaError, RuntimeError):
    """Iteration or quadrature failed to reach the requested tolerance."""


class NoSolutionError(GasTbaError, RuntimeError):
    """The defining equation has no root in the admissible range."""


class BranchAmbiguityError(GasTbaError, RuntimeError):
    """Two roots are equidistant from the free branch beyond tolerance."""


class EmptyBracketError(NoSolutionError):
    """A bracket holds no sign change: the shift scan found none and
    delta = 0 is not a root, or f has one sign at both ends given to the
    root finder."""


class NearTrivialZeroWarning(UserWarning):
    """zeta evaluated close to a trivial zero at a negative even integer;
    the value is a near-cancellation and carries reduced relative accuracy."""


class PoleWarning(UserWarning):
    """Evaluation close to a pole; a large intermediate cancellation occurs."""


class TruncationWarning(UserWarning):
    """Momentum-grid truncation is too tight: the filling fraction at the
    grid boundary exceeds the solver tolerance."""
