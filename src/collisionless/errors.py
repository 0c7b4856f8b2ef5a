"""Exception types shared across the package."""


class CollisionlessError(Exception):
    """Base class for every error raised by this package; ``exit_code`` is its CLI exit status."""
    exit_code = 1


class InvalidModelError(CollisionlessError, ValueError):
    """A model definition violates a structural invariant or failed to parse."""


class InvalidParameterError(CollisionlessError, ValueError):
    """A numeric argument is outside its allowed range."""


class DegenerateSpectrumError(CollisionlessError):
    """Two eigenvalues coincide within tolerance; the mode analysis is ill-posed."""


class InterlacingError(CollisionlessError):
    """The free and contact spectra do not strictly interlace."""


class ZeroModeError(CollisionlessError):
    """An eigenvalue is numerically zero, which the generic solver does not support."""


class NormalizationError(CollisionlessError):
    """A normal mode has numerically zero amplitude on the contact coordinate."""


class PoleError(CollisionlessError):
    """Evaluation was requested too close to a pole of tan/cot.

    ``distance`` carries the distance to the nearest pole in phase units.
    """

    def __init__(self, message, distance=None):
        super().__init__(message)
        self.distance = distance


class NoRootError(CollisionlessError):
    """A bracketed search found no root in the requested interval."""
    exit_code = 3


class ConvergenceError(CollisionlessError):
    """Iterative refinement failed to converge."""
    exit_code = 3


class NoExistenceError(CollisionlessError):
    """The solution existence condition (largest contact eigenvalue > 0) fails."""
    exit_code = 2


class DegenerateSolutionError(CollisionlessError):
    """Refined impact times are not certified as a root.

    The matching matrix's rank gap is not below RANK_GAP_MAX, or its null
    vector has no static-force component to scale the mode weights by.
    """


class ValidationFailedError(CollisionlessError):
    """Every converged root, or a stored trajectory, failed physical validation."""
    exit_code = 4


class ReferenceMismatchError(CollisionlessError):
    """Reproduced values differ from the reference table beyond tolerance."""
    exit_code = 5
