"""Exception types shared across the package."""


class BcMacError(Exception):
    """Base class for all package errors."""


class InvalidInput(BcMacError):
    """Malformed or inconsistent input (shapes, non-finite entries, bad ranges)."""


class SingularConstraintMatrix(BcMacError):
    """A matrix that must be positive definite (constraint matrix or dual
    noise covariance) fails the rule of ``linalg.pd_roots``."""


class NotPositiveDefinite(BcMacError):
    """Positive definiteness required but an eigenvalue is <= 0."""


class DegenerateTransform(BcMacError):
    """The stream-power system of the SINR-preserving transformation is
    singular (a beam carries positive rate through a vanishing gain)."""


class MaxItersExceeded(BcMacError):
    """An iterative solver hit its iteration budget before converging."""


class InfeasibleTargets(BcMacError):
    """SINR targets cannot be met (power fixed point diverged)."""


class GridBudgetExceeded(BcMacError):
    """Requested brute-force grid exceeds the point budget."""
