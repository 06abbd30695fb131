"""Exception hierarchy shared by all momentbounds modules."""


class MomentBoundsError(Exception):
    """Base class for all errors raised by this package."""


class ParameterOutOfRange(MomentBoundsError):
    """An input parameter violates its documented range."""


class DimensionMismatch(MomentBoundsError):
    """Matrix/vector dimensions are inconsistent."""


class NotPositiveSemiDefinite(MomentBoundsError):
    """A matrix fails the positive semi-definite test beyond tolerance.

    Signals inconsistent input moments, e.g. a correlation outside [-1, 1]
    or an over-specified correlation structure.
    """


class ConvergenceFailure(MomentBoundsError):
    """An iterative numerical routine failed to converge."""


class MomentInconsistency(MomentBoundsError):
    """Supplied raw moments violate the Cauchy-Schwarz inequality."""


class PriceOutsideArbitrageBounds(MomentBoundsError):
    """An option price lies outside the static no-arbitrage interval."""


class DegenerateCell(MomentBoundsError):
    """A partition cell carries numerically zero probability mass."""


class QuadratureBudgetExceeded(MomentBoundsError):
    """A quadrature routine hit its node budget before reaching the target accuracy."""


class NegativeShiftedRate(MomentBoundsError):
    """A shifted swap rate is not strictly positive, so it cannot be used as an asset."""


class AngleOutOfRange(MomentBoundsError):
    """A binomial calibration angle lies outside the branch validity range."""


class BranchResolutionFailure(MomentBoundsError):
    """A formula angle's two-state model misses the bound by more than
    ``attainment.ATTAIN_TOL``: the angle was resolved onto the wrong branch."""


class ShapeViolation(MomentBoundsError):
    """An emitted bound curve fails the decreasing-convexity no-arbitrage check."""


class NonFiniteResult(MomentBoundsError):
    """A result that is written as a number is not finite."""


class ConfigError(MomentBoundsError):
    """A run configuration is malformed or fails validation."""
