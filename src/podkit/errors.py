"""Exception taxonomy.

Every error raised by this package derives from :class:`PodkitError`.  The two
intermediate bases partition failures the way the command line reports them:
bad inputs exit with code 2, numerical breakdowns with code 3.
"""

from __future__ import annotations


class PodkitError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class InputError(PodkitError):
    """The caller handed us something malformed or out of range."""

    exit_code = 2


class NumericalError(PodkitError):
    """A numerical procedure failed (factorization, eigensolver, Newton, ...)."""

    exit_code = 3


# -- input-side errors -------------------------------------------------------

class NotSymmetric(InputError):
    """A matrix required to be symmetric is not, beyond tolerance."""


class DimensionMismatch(InputError):
    """Array shapes are inconsistent with the declared space dimensions."""


class NonMonotoneGrid(InputError):
    """A time grid is not strictly increasing."""


class MalformedManifest(InputError):
    """A snapshot manifest is missing keys or has inconsistent entries."""


class MissingDataFile(InputError):
    """A file referenced by a manifest does not exist."""


class WeightNonPositive(InputError):
    """A quadrature weight is zero or negative."""


class RankExceeded(InputError):
    """A truncation level beyond the computed rank was requested."""


class IndexOutOfRange(InputError):
    """A snapshot or mode index outside the valid range was requested."""


class ProvenanceMismatch(InputError):
    """A composite projector was assembled from inconsistent ingredients."""


class UsageError(InputError):
    """The command line names an unknown flag, subcommand or choice."""


class ProblemTooLarge(InputError):
    """A dense step would exceed gram_space.DENSE_BYTES_BUDGET."""


# -- numerical errors --------------------------------------------------------

class NotPositiveDefinite(NumericalError):
    """Cholesky factorization of a Gram matrix failed."""


class NegativeQuadraticForm(NumericalError):
    """A quadratic form went negative beyond round-off tolerance."""


class RankDeficient(NumericalError):
    """Orthonormalization hit a column numerically inside the earlier span."""


class RankDeficientImage(NumericalError):
    """Mapped basis vectors are numerically dependent; no projector exists."""


class EigenFailure(NumericalError):
    """The symmetric eigensolver did not converge."""


class NotInvertible(NumericalError):
    """A map could not be certified invertible (singular or too ill-conditioned)."""


class FormNotElliptic(NumericalError):
    """The symmetric part of a bilinear form is not positive definite."""


class SingularRitzSystem(NumericalError):
    """The Ritz linear system is singular to working precision."""


class SolverDiverged(NumericalError):
    """Newton iteration inside the time stepper failed to converge."""
