"""Exception types, and the input rules of the public entry points: arrays and numbers."""

import math
import sys

import numpy as np


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


def _is_real(value) -> bool:
    """True for one int (not a bool) within the float range, or one float, NumPy's included."""
    return isinstance(value, (float, np.floating)) or (
        isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        and -sys.float_info.max <= value <= sys.float_info.max)


def _real_array(values, label, error):
    """``values`` as a fresh float array; ``error`` unless every entry is ``_is_real``.

    A float or int ndarray is cast directly; anything else is scanned entry by
    entry, so a bool, str, None, complex or container entry, or ragged nesting, raises.
    """
    if isinstance(values, np.ndarray) and values.dtype.kind in "iuf":
        return values.astype(float)
    try:
        entries = np.array(values, dtype=object)
        real = all(_is_real(v) for v in entries.flat)
    except ValueError:   # nesting too ragged for NumPy to hold even as objects
        real = False
    if not real:
        raise error(f"{label} entries must be numbers")
    return entries.astype(float)


def _real_number(value, label, error, *, positive=False, minimum=None):
    """``value`` as a float, or ``error`` unless it is one finite ``_is_real`` number.

    With ``positive`` it must be above 0; with ``minimum``, an int >= minimum, returned as one.
    """
    if minimum is not None:
        if not (_is_real(value) and isinstance(value, (int, np.integer)) and value >= minimum):
            raise error(f"{label} must be an integer >= {minimum}, got {value!r}")
        return int(value)
    if not (_is_real(value) and math.isfinite(value) and (value > 0 or not positive)):
        raise error(f"{label} must be {'positive' if positive else 'a finite number'}, got {value!r}")
    return float(value)


def _require_instance(value, kind, label):
    """InvalidParameterError unless ``value`` is a ``kind`` (a subclass's instance is one)."""
    if not isinstance(value, kind):
        article = "an" if kind.__name__[0] in "AEIOU" else "a"
        raise InvalidParameterError(
            f"{label} must be {article} {kind.__name__}, got {type(value).__name__}")


def _check_positive(**values):
    """``_real_number`` with ``positive`` on each labelled value; InvalidParameterError."""
    for label, value in values.items():
        _real_number(value, label, InvalidParameterError, positive=True)
