"""Cauchy-matrix algebra on interlaced spectra.

The matrix M with entries 1/(lam_i - lam'_j) couples the free and contact
spectra.  Its determinant and inverse, and the squared contact-row amplitudes
eta of the free modes (eta^T M = 0), have O(N^2) product formulas built on one
set of Lagrange weights (``_weights``).  These are componentwise accurate for
any distinct nodes (Demmel, SIAM J. Matrix Anal. Appl. 21, 1999), so no dense
fallback is kept; nodes within NEAR_SINGULAR_RTOL of the spread raise.

``cauchy_matrix`` and ``eta`` also take stacked node sets: arrays of shapes
(..., n) and (..., m) with equal leading axes, one node set per row.  Each
row is checked on its own.  Results beyond the float range are inf or nan, without a warning.
"""

from __future__ import annotations

import numpy as np

from .errors import InterlacingError, InvalidParameterError, _real_array

__all__ = ["cauchy_matrix", "cauchy_det", "cauchy_inverse", "eta"]

# Node pairs closer than NEAR_SINGULAR_RTOL * spread make M numerically useless.
NEAR_SINGULAR_RTOL = 1e-12


def _diffs(x, y):
    """(x, y, x[..., i] - y[..., j]) for node sets stacked on equal leading axes (``_real_array``).

    Every node set needs at least one node, so an empty one raises
    InvalidParameterError in every entry point of this module.
    """
    x = _real_array(x, "node set", InvalidParameterError)
    y = _real_array(y, "node set", InvalidParameterError)
    if min(x.ndim, y.ndim) < 1 or x.shape[:-1] != y.shape[:-1]:
        raise InvalidParameterError("node sets must be 1-d, or stacked on equal leading axes")
    if min(x.shape[-1], y.shape[-1]) < 1:
        raise InvalidParameterError("every node set needs at least one node")
    return x, y, x[..., :, None] - y[..., None, :]


def _half_spread(x, y):
    """Half the spread of x and y, floored at 0.5e-300; halving first keeps it finite."""
    lo = np.minimum(x.min(axis=-1), y.min(axis=-1))
    hi = np.maximum(x.max(axis=-1), y.max(axis=-1))
    return np.maximum(0.5 * hi - 0.5 * lo, 0.5e-300)


def _checked_diffs(x, y, message):
    """``_diffs``; InterlacingError(message) if a row has near-coincident nodes."""
    x, y, d = _diffs(x, y)
    if np.any(0.5 * np.abs(d).min(axis=(-2, -1)) < NEAR_SINGULAR_RTOL * _half_spread(x, y)):
        raise InterlacingError(message)
    return x, y, d


def _weights(x, d):
    """Lagrange weights w_i = prod_j (x_i - y_j) / prod_{k != i} (x_i - x_k), stacked.

    The nodes y enter only through the checked differences d = x - y (``_diffs``).
    """
    dx = x[..., :, None] - x[..., None, :]
    diag = np.arange(x.shape[-1])
    dx[..., diag, diag] = 1.0
    return np.prod(d, axis=-1) / np.prod(dx, axis=-1)


@np.errstate(all="ignore")
def cauchy_matrix(lam, lam_prime) -> np.ndarray:
    """M[..., i, j] = 1 / (lam[..., i] - lam_prime[..., j]); errors on near-coincident nodes.

    Stacked node sets give one matrix per row, and the near-coincidence test
    uses each row's own spread.
    """
    _, _, d = _checked_diffs(
        lam, lam_prime, "near-singular spectrum: lam and lam_prime nodes nearly coincide"
    )
    return 1.0 / d


def _square(x, y, name):
    """(x, y, x - y) for two 1-d node sets of one size."""
    x, y, d = _diffs(x, y)
    if d.shape != (len(x),) * 2:
        raise InvalidParameterError(f"{name} needs two 1-d node sets of equal size")
    return x, y, d


@np.errstate(all="ignore")
def cauchy_det(x, y) -> float:
    """det of 1/(x_i - y_j): prod_{i<j} (x_j - x_i)(y_i - y_j) / prod_{i,j} (x_i - y_j)."""
    x, y, d = _square(x, y, "cauchy_det")
    upper = np.triu_indices(len(x), 1)
    return np.prod((x - x[:, None])[upper] * (y[:, None] - y)[upper]) / np.prod(d)


@np.errstate(all="ignore")
def cauchy_inverse(x, y) -> np.ndarray:
    """Inverse of the square Cauchy matrix C[i, j] = 1/(x_i - y_j) by the product formula.

    inv(C)[j, l] = w(y, x)_j w(x, y)_l / (y_j - x_l) with the Lagrange weights w
    of ``_weights``; nodes closer than NEAR_SINGULAR_RTOL of the spread, across
    or within the two sets, raise InterlacingError.
    """
    x, y, d = _square(x, y, "cauchy_inverse")
    nodes = np.sort(np.concatenate([x, y]))
    if 0.5 * np.diff(nodes).min() < NEAR_SINGULAR_RTOL * _half_spread(x, y):
        raise InterlacingError("near-coincident nodes: Cauchy inverse is singular")
    return _weights(y, -d.T)[:, None] * _weights(x, d)[None, :] / (-d.T)


@np.errstate(all="ignore")
def eta(lam, lam_prime) -> np.ndarray:
    """Squared contact-row mode amplitudes from the spectra alone.

    eta solves eta^T M = 0 with eta[-1] = 1; equivalently (``_weights``)

        eta_i = prod_j (lam_i - lam'_j) / prod_{k != i} (lam_i - lam_k),

    normalized by the i = N value.  All entries are positive for strictly
    interlaced spectra.  Stacked spectra, of shapes (..., N) and (..., N-1),
    give one normalized eta per row; any row with near-coincident nodes or an
    entry that is not positive and finite raises InterlacingError.
    """
    lam, lamp, d = _checked_diffs(lam, lam_prime, "near-singular spectrum in eta")
    if lamp.shape[-1] != lam.shape[-1] - 1:
        raise InvalidParameterError("lam_prime must have one entry fewer than lam")
    out = _weights(lam, d)
    out = out / out[..., -1:]
    if not np.all((out > 0) & (out < np.inf)):
        raise InterlacingError("eta is not positive and finite; spectra are not interlaced")
    return out
