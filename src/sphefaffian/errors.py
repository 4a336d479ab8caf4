"""Exception and warning types shared across the package."""


class SphefaffianError(Exception):
    """Base class for all package-specific errors."""


class DomainError(SphefaffianError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DimensionError(SphefaffianError, ValueError):
    """Matrix dimensions incompatible with the requested operation."""


class PoleError(SphefaffianError, ZeroDivisionError):
    """Evaluation requested at a pole of the kernel (zeta or eta at +-i)."""


class ConvergenceError(SphefaffianError, RuntimeError):
    """A series or continued fraction failed to converge within budget."""


class QuadratureError(SphefaffianError, RuntimeError):
    """A quadrature did not reach the requested tolerance."""


class NumericalError(SphefaffianError, RuntimeError):
    """A computed quantity violated a numerical sanity bound."""


class DoubleRangeError(NumericalError, OverflowError):
    """A value exceeds double range; its log-scaled form does not."""


class SingularError(SphefaffianError, RuntimeError):
    """Matrix too close to singular to invert stably."""


class PairingError(SphefaffianError, RuntimeError):
    """Eigenvalues could not be matched into conjugate pairs."""


class EigensolverError(SphefaffianError, RuntimeError):
    """Dense eigensolver failed; carries the trial index when sampling."""


class CoincidenceError(SphefaffianError, ValueError):
    """Coincident points passed to a pairwise-singular energy functional."""


class BranchWarning(UserWarning):
    """A principal-branch power was taken near or across the negative real cut."""


class SkewSymmetryWarning(UserWarning):
    """Input matrix deviated from exact skew symmetry beyond the noise tolerance."""


class DegenerateSaddleWarning(UserWarning):
    """Laplace saddle point sits at the integration boundary r = 0."""
