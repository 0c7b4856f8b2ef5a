"""Cauchy-matrix algebra on interlaced spectra.

The matrix M with entries 1/(lam_i - lam'_j) couples the free and contact
spectra.  Because its nodes interlace, its square submatrices admit explicit
product formulas for the determinant and inverse (O(N^2) arithmetic), and the
squared contact-row amplitudes eta of the free modes follow from the null
relation eta^T M = 0 in closed form.

``cauchy_matrix`` and ``eta`` also take stacked node sets: arrays of shapes
(..., n) and (..., m) with equal leading axes, one node set per row.  Each
row is checked on its own, and 1-d node sets give the same results as ever.
"""

from __future__ import annotations

import numpy as np

from .errors import InterlacingError, InvalidParameterError

__all__ = ["cauchy_matrix", "cauchy_det", "cauchy_inverse", "eta"]

# Node pairs closer than NEAR_SINGULAR_RTOL * spread make M numerically useless;
# below DENSE_FALLBACK_RTOL the product formulas lose accuracy and a dense
# solve is preferred.
NEAR_SINGULAR_RTOL = 1e-12
DENSE_FALLBACK_RTOL = 1e-6


def _diffs(x, y):
    """x[..., i] - y[..., j] for node sets stacked on equal leading axes."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    if min(x.ndim, y.ndim) < 1 or x.shape[:-1] != y.shape[:-1]:
        raise InvalidParameterError("node sets must be 1-d, or stacked on equal leading axes")
    return x[..., :, None] - y[..., None, :]


def _spread(x, y):
    lo = np.minimum(x.min(axis=-1), y.min(axis=-1))
    hi = np.maximum(x.max(axis=-1), y.max(axis=-1))
    return np.maximum(hi - lo, 1e-300)


def _checked_diffs(x, y, message):
    """Stacked differences x - y; InterlacingError(message) if a row has near-coincident nodes."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    d = _diffs(x, y)
    if np.any(np.abs(d).min(axis=(-2, -1)) < NEAR_SINGULAR_RTOL * _spread(x, y)):
        raise InterlacingError(message)
    return d


def cauchy_matrix(lam, lam_prime) -> np.ndarray:
    """M[..., i, j] = 1 / (lam[..., i] - lam_prime[..., j]); errors on near-coincident nodes.

    Stacked node sets give one matrix per row, and the near-coincidence test
    uses each row's own spread.
    """
    d = _checked_diffs(
        lam, lam_prime, "near-singular spectrum: lam and lam_prime nodes nearly coincide"
    )
    return 1.0 / d


def cauchy_det(x, y) -> float:
    """Determinant of the square matrix 1/(x_i - y_j) by the product formula."""
    d = _diffs(x, y)
    n = d.shape[0]
    if d.shape != (n, n):
        raise InvalidParameterError("cauchy_det needs two 1-d node sets of equal size")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    num = 1.0
    for i in range(n):
        for j in range(i + 1, n):
            num *= (x[j] - x[i]) * (y[i] - y[j])
    return num / np.prod(d)


def cauchy_inverse(x, y) -> np.ndarray:
    """Inverse of the square Cauchy matrix C[i, j] = 1/(x_i - y_j).

    Uses the Lagrange product formula: with P(z) = prod(z - x_k) and
    Q(z) = prod(z - y_k),

        inv(C)[j, l] = Q(x_l) P(y_j) / ((y_j - x_l) P'(x_l) Q'(y_j)).

    Falls back to a dense inverse when the minimum node gap is below
    DENSE_FALLBACK_RTOL times the node spread.
    """
    d = _diffs(x, y)
    n = d.shape[0]
    if d.shape != (n, n):
        raise InvalidParameterError("cauchy_inverse needs two 1-d node sets of equal size")
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    spread = _spread(x, y)
    min_gap = np.abs(d).min()
    if n > 1:
        dx = np.abs(x[:, None] - x[None, :]) + np.diag(np.full(n, np.inf))
        dy = np.abs(y[:, None] - y[None, :]) + np.diag(np.full(n, np.inf))
        min_gap = min(min_gap, dx.min(), dy.min())
    if min_gap < NEAR_SINGULAR_RTOL * spread:
        raise InterlacingError("near-coincident nodes: Cauchy inverse is singular")
    if min_gap < DENSE_FALLBACK_RTOL * spread:
        return np.linalg.inv(1.0 / d)
    q_at_x = np.prod(d, axis=1)              # Q(x_l), row products
    p_at_y = np.prod(-d, axis=0)             # P(y_j) = prod_k (y_j - x_k)
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    p_deriv = np.prod(dx, axis=1)            # P'(x_l)
    dy = y[:, None] - y[None, :]
    np.fill_diagonal(dy, 1.0)
    q_deriv = np.prod(dy, axis=1)            # Q'(y_j)
    return (p_at_y / q_deriv)[:, None] * (q_at_x / p_deriv)[None, :] / (-d.T)


def eta(lam, lam_prime) -> np.ndarray:
    """Squared contact-row mode amplitudes from the spectra alone.

    eta solves eta^T M = 0 with eta[-1] = 1; equivalently

        eta_i = prod_j (lam_i - lam'_j) / prod_{k != i} (lam_i - lam_k),

    normalized by the i = N value.  All entries are positive for strictly
    interlaced spectra.  Stacked spectra, of shapes (..., N) and (..., N-1),
    give one normalized eta per row; any row with near-coincident nodes or a
    non-positive entry raises InterlacingError.
    """
    lam = np.asarray(lam, float)
    lamp = np.asarray(lam_prime, float)
    n = lam.shape[-1] if lam.ndim else 0
    if lamp.shape != lam.shape[:-1] + (n - 1,):
        raise InvalidParameterError("lam_prime must have one entry fewer than lam")
    d = _checked_diffs(lam, lamp, "near-singular spectrum in eta")
    dl = lam[..., :, None] - lam[..., None, :]
    diag = np.arange(n)
    dl[..., diag, diag] = 1.0
    out = np.prod(d, axis=-1) / np.prod(dl, axis=-1)
    out = out / out[..., -1:]
    if not np.all(out > 0):
        raise InterlacingError("eta has non-positive entries; spectra are not interlaced")
    return out
