"""Normal-mode analysis of the free and contact phases.

The free-phase eigenproblem m^{-1} k X = X diag(lam) is solved by symmetric
reduction through a Cholesky factor of the mass matrix, which guarantees a
real spectrum for positive-definite m.  Columns of the mode matrix X are
normalized so that c X^T m X = I with X[-1, -1] = 1, and signs are fixed so
the contact row of X is strictly positive (the sign flips are absorbed by the
mode weights, so trajectories are unaffected).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSpectrumError,
    InvalidParameterError,
    NormalizationError,
    ZeroModeError,
    _real_array,
    _require_instance,
)
from .model import ModelSpec, SpectrumPair, _frozen

__all__ = [
    "SpectralData",
    "normal_modes",
    "constrained_spectrum",
    "constrained_modes",
    "analyze",
]

DEGENERACY_RTOL = 1e-9
ZERO_MODE_RTOL = 1e-12


def _sym_eig(mass, stiffness):
    """Eigenpairs of m^{-1} k via Cholesky reduction; eigenvectors satisfy V^T m V = I."""
    chol = np.linalg.cholesky(mass)
    chol_inv = np.linalg.inv(chol)
    reduced = chol_inv @ stiffness @ chol_inv.T
    lam, vecs = np.linalg.eigh(reduced)
    return lam, chol_inv.T @ vecs


def _check_spectrum(lam, label, allow_zero=False):
    scale = np.abs(lam).max()
    gaps = np.diff(lam)
    if gaps.size and gaps.min() < DEGENERACY_RTOL * scale:
        raise DegenerateSpectrumError(f"degenerate {label} spectrum: {lam.tolist()}")
    if not allow_zero and np.abs(lam).min() < ZERO_MODE_RTOL * scale:
        raise ZeroModeError(f"{label} spectrum contains a (numerically) zero eigenvalue")


def normal_modes(model: ModelSpec):
    """Free-phase spectrum, mode matrix and normalization constant (lam, X, c).

    Column signs are fixed so the contact row is positive; a mode with zero
    contact amplitude keeps its eigensolver sign (decoupled systems are legal
    here, though ``analyze`` rejects them because the impact equations need
    every mode to reach the contact coordinate).
    """
    lam, vecs = _sym_eig(model.mass, model.stiffness)
    _check_spectrum(lam, "free")
    contact_row = vecs[-1, :]
    if abs(contact_row[-1]) < 1e-9 * np.linalg.norm(vecs, axis=0).max():
        raise NormalizationError(
            "the top mode has (numerically) zero amplitude on the contact coordinate"
        )
    c = contact_row[-1] ** 2
    signs = np.where(contact_row != 0, np.sign(contact_row), 1.0)
    X = vecs * signs / abs(contact_row[-1])
    return lam, X, float(c)


def constrained_spectrum(model: ModelSpec) -> np.ndarray:
    """Ascending eigenvalues of the contact phase (last coordinate removed).

    A zero contact eigenvalue is allowed here: a non-singular stiffness can
    have a singular contact block, which is exactly the existence boundary
    that the gate reports downstream.
    """
    lam_prime, _ = _sym_eig(model.mass[:-1, :-1], model.stiffness[:-1, :-1])
    _check_spectrum(lam_prime, "contact", allow_zero=True)
    return lam_prime


def constrained_modes(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Contact-phase mode matrix X' = (X * X[-1]) M; its last row vanishes."""
    return (X * X[-1, :][None, :]) @ M


@dataclass(frozen=True, eq=False)
class SpectralData(SpectrumPair):
    """The validated spectrum pair of a model with its mode matrix, normalization and offset."""

    mode_matrix: np.ndarray
    norm_const: float
    static_offset: np.ndarray

    def __post_init__(self):
        super().__post_init__()
        n = self.n
        for name, shape in (("mode_matrix", (n, n)), ("static_offset", (n,))):
            value = _frozen(_real_array(getattr(self, name), name, InvalidParameterError))
            if value.shape != shape:
                raise InvalidParameterError(f"{name} must have shape {shape}, got {value.shape}")
            object.__setattr__(self, name, value)
        object.__setattr__(self, "norm_const", float(self.norm_const))

    @property
    def spectra(self) -> SpectrumPair:
        """The spectrum pair, which is this object itself."""
        return self

    @cached_property
    def mode_matrix_prime(self) -> np.ndarray:
        """Read-only contact-phase mode matrix (``constrained_modes``)."""
        return _frozen(constrained_modes(self.mode_matrix, self.M))

    @cached_property
    def mass_matrix(self) -> np.ndarray:
        # c X^T m X = I  =>  m^{-1} = c X X^T
        return np.linalg.inv(self.norm_const * self.mode_matrix @ self.mode_matrix.T)

    @cached_property
    def stiffness_matrix(self) -> np.ndarray:
        # k^{-1} = c X diag(1/lam) X^T
        kinv = self.norm_const * (self.mode_matrix / self.lam[None, :]) @ self.mode_matrix.T
        return np.linalg.inv(kinv)

    @cached_property
    def contact_compliance(self) -> np.ndarray:
        """Last column of k^{-1}, expressed through the mode data."""
        return self.norm_const * self.mode_matrix @ (self.mode_matrix[-1, :] / self.lam)


def analyze(model: ModelSpec) -> SpectralData:
    """Full spectral analysis of a model, with interlacing verified.

    Rejects models in which some mode has zero amplitude on the contact
    coordinate: such a mode never exchanges energy through the contact and
    the squared-amplitude vector eta degenerates.
    """
    _require_instance(model, ModelSpec, "model")
    lam, X, c = normal_modes(model)
    if np.abs(X[-1, :]).min() < 1e-9:
        raise NormalizationError(
            "a mode has (numerically) zero amplitude on the contact coordinate"
        )
    return SpectralData(
        lam=lam,
        lam_prime=constrained_spectrum(model),   # SpectrumPair checks interlacing
        sigma=model.sigma,
        sigma_prime=model.sigma_prime,
        mode_matrix=X,
        norm_const=c,
        static_offset=model.static_offset,
    )
