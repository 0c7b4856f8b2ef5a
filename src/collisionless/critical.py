"""Existence gate and the near-critical regime of the impact equations.

A periodic contact solution exists only when the largest contact eigenvalue
is positive.  As it tends to zero from above, the contact impact time
diverges while the frequency-scaled tangent of the top contact mode tends to
a finite constant c0.  In that limit the two impact equations decouple into a
one-dimensional condition on tau (a 2x2 determinant) plus the constant c0,
and for large tau the condition is solvable in closed form, producing an
asymptotic grid of roots with vertical spacing pi.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError, NoRootError
from .model import SpectrumPair

__all__ = [
    "existence_gate",
    "critical_limit",
    "critical_matrices",
    "solve_critical",
    "critical_roots",
    "predicted_contact_phase",
    "AsymptoticPoint",
    "large_tau_asymptote",
    "asymptotic_grid",
    "StudySummary",
    "c0_sampling_study",
]


# Tau samples of the critical bracket scan.
_SCAN_POINTS = 1200


def existence_gate(lam_prime) -> bool:
    """True iff the largest contact eigenvalue is strictly positive."""
    return bool(np.asarray(lam_prime, float)[-1] > 0)


def critical_limit(spectra: SpectrumPair) -> SpectrumPair:
    """Copy of the spectra with the top contact eigenvalue sent to its zero limit.

    Requires the rest of the critical structure: every other eigenvalue of
    both phases negative (which strict interlacing then enforces).
    """
    lam = np.array(spectra.lam)
    lamp = np.array(spectra.lam_prime)
    if spectra.n < 2:
        raise InvalidParameterError("need at least 2 degrees of freedom")
    if lam[-2] >= 0:
        raise InvalidParameterError(
            "critical limit requires all free eigenvalues below the top one to be negative"
        )
    lamp[-1] = 0.0
    return SpectrumPair(lam, lamp, spectra.sigma, spectra.sigma_prime)


def _require_limit(spectra: SpectrumPair):
    if spectra.lam_prime[-1] != 0.0:
        raise InvalidParameterError(
            "spectra must be in the critical limit (top contact eigenvalue exactly 0); "
            "use critical_limit() first"
        )
    if spectra.lam[-1] <= 0:
        raise InvalidParameterError("top free eigenvalue must be positive")


def _hyperbolic_rates(taus, spectra):
    """w_i(tau) for the (all-hyperbolic) non-top free modes, batched over taus."""
    lam_bar = spectra.lam[:-1]
    nu = np.sqrt(-lam_bar)
    th = np.tanh(nu[None, :] * taus[:, None])
    return np.where(spectra.sigma[:-1][None, :] == 1, -th * nu[None, :], -nu[None, :] / th)


def _k_ingredients(w_bar, spectra):
    """Batched pieces of the 2x2 critical system over rows of hyperbolic rates.

    ``w_bar`` (T, n-1) holds the rates of the non-top free modes.  Returns
    (P0, P1, S, r): the first K row is P0 + w_N * P1 plus the rank-one
    r [1, w_N] term, and the second row is S (independent of w_N), so
    det(K + K~) = A + B w_N with A, B affine combinations of these.
    """
    n = spectra.n
    lam = spectra.lam
    lam_bar = lam[:-1]
    nu_p = np.concatenate([np.sqrt(-spectra.lam_prime[:-1]), [0.0]])
    M = spectra.M
    u_bar = M[None, :-1, :] * (
        1.0 + w_bar[:, :, None] * nu_p[None, None, :] / lam_bar[None, :, None]
    )
    det_u = np.linalg.det(u_bar)
    with np.errstate(all="ignore"):
        adj_u = det_u[:, None, None] * np.linalg.inv(u_bar)
    weighted = adj_u / (lam_bar ** 2)[None, None, :]
    ones = np.ones(n - 1)
    rhs = np.stack([np.broadcast_to(ones, w_bar.shape), w_bar], axis=-1)   # (T, n-1, 2)
    eta_sum = float(np.sum(spectra.eta))
    m_row = M[-1, :]
    m_row_scaled = m_row * nu_p / lam[-1]
    P0 = np.einsum("j,tjk,tkl->tl", m_row, weighted, rhs)
    P1 = np.einsum("j,tjk,tkl->tl", m_row_scaled, weighted, rhs)
    S = eta_sum * np.einsum("j,tjk,tkl->tl", ones, weighted, rhs)
    r = det_u / lam[-1] ** 2
    return P0, P1, S, r


def _det_terms(w_bar, spectra):
    """(A, B, S): det(K + K~) = A + B w_N, and the second K row S, per row of w_bar."""
    P0, P1, S, r = _k_ingredients(w_bar, spectra)
    A = (P0[:, 0] + r) * S[:, 1] - P0[:, 1] * S[:, 0]
    B = P1[:, 0] * S[:, 1] - (P1[:, 1] + r) * S[:, 0]
    return A, B, S


def critical_matrices(tau: float, spectra: SpectrumPair):
    """The 2x2 matrices (K, K~) of the decoupled critical impact equations.

    Both depend on tau and the spectra only (the contact impact time has
    dropped out in the limit).  det(K + K~) = 0 fixes tau; c0 = -K[1,1]/K[1,0].
    """
    _require_limit(spectra)
    taus = np.atleast_1d(float(tau))
    P0, P1, S, r = _k_ingredients(_hyperbolic_rates(taus, spectra), spectra)
    lam_top = spectra.lam[-1]
    om_top = np.sqrt(lam_top)
    o_top = om_top * tau
    sig_top = spectra.sigma[-1]
    w_top = np.tan(o_top) * om_top if sig_top == 1 else -om_top / np.tan(o_top)
    K = np.vstack([P0[0] + w_top * P1[0], S[0]])
    K_tilde = np.array([[r[0], r[0] * w_top], [0.0, 0.0]])
    return K, K_tilde


def _depoled_residual(taus, spectra):
    """det(K + K~) multiplied through by the tan/cot denominator of w_N.

    The determinant is affine in w_N, so this form is continuous in tau and
    its sign changes bracket genuine roots only (never w_N poles).
    """
    A, B, _ = _det_terms(_hyperbolic_rates(taus, spectra), spectra)
    om_top = np.sqrt(spectra.lam[-1])
    o_top = om_top * taus
    if spectra.sigma[-1] == 1:
        return A * np.cos(o_top) + B * om_top * np.sin(o_top)
    return A * np.sin(o_top) - B * om_top * np.cos(o_top)


def _brackets(spectra, o_max, points):
    """Ascending tau intervals over which the depoled residual changes sign."""
    _require_limit(spectra)
    om_top = np.sqrt(spectra.lam[-1])
    taus = np.linspace(1e-3 / om_top, o_max / om_top, points)
    vals = _depoled_residual(taus, spectra)
    finite = np.isfinite(vals)
    signs = np.sign(vals)
    idx = np.nonzero((signs[:-1] * signs[1:] < 0) & finite[:-1] & finite[1:])[0]
    return [(taus[i], taus[i + 1]) for i in idx]


def _polish(spectra, lo, hi):
    """Critical root (tau_c, c0) inside one sign-change bracket."""
    tau_c = brentq(
        lambda t: _depoled_residual(np.array([t]), spectra)[0],
        lo,
        hi,
        xtol=1e-13,
        rtol=8.9e-16,
    )
    _, _, S = _det_terms(_hyperbolic_rates(np.array([tau_c]), spectra), spectra)
    return float(tau_c), float(-S[0, 1] / S[0, 0])


def critical_roots(spectra: SpectrumPair, o_max: float = 6 * np.pi, points: int = _SCAN_POINTS):
    """All critical roots (tau_c, c0) with o_N below o_max, in ascending tau."""
    return [_polish(spectra, lo, hi) for lo, hi in _brackets(spectra, o_max, points)]


def solve_critical(spectra: SpectrumPair, o_max: float = 6 * np.pi):
    """First critical root: (tau_critical, c0).  Raises NoRootError if none found."""
    brackets = _brackets(spectra, o_max, _SCAN_POINTS)
    if not brackets:
        raise NoRootError(f"no critical root with o_N < {o_max:.4g}")
    return _polish(spectra, *brackets[0])


def predicted_contact_phase(c0: float, lam_prime_top: float, sigma_prime_top: int) -> float:
    """Contact impact phase predicted by w'(tau') = c0 for a small positive eigenvalue.

    Exact inversion on the principal branch: arctan(c0/om') for an odd top
    contact mode, pi - arctan(om'/c0) for an even one.  Both approach
    (3 - sigma') pi / 4 as the eigenvalue tends to zero.
    """
    if c0 <= 0:
        raise InvalidParameterError(f"prediction requires c0 > 0, got {c0!r}")
    if lam_prime_top <= 0:
        raise InvalidParameterError("top contact eigenvalue must be positive")
    om = np.sqrt(lam_prime_top)
    if sigma_prime_top == 1:
        return float(np.arctan(c0 / om))
    return float(np.pi - np.arctan(om / c0))


@dataclass(frozen=True)
class AsymptoticPoint:
    """One large-tau grid point with its constants."""

    n: int
    o_n: float
    o_prime: float
    w_top: float
    c0: float


def large_tau_asymptote(n: int, spectra: SpectrumPair) -> AsymptoticPoint:
    """Explicit large-tau critical root on oscillation branch n.

    For large tau every hyperbolic rate saturates (w_i -> -nu_i), leaving the
    top-mode rate as the only unknown; the 2x2 system then yields w_N as a
    ratio of determinants and the branch phases

        o_N      = (n - (1 - sigma_N)/4) pi + arctan(w_N / omega_N),
        o'_{N-1} = (3 - sigma'_{N-1}) pi / 4 - omega'_{N-1} / c0.

    The matrices are evaluated at the exact zero limit of the top contact
    eigenvalue; the actual (small) eigenvalue of ``spectra`` enters only
    through omega'_{N-1} in the second formula.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"branch index must be a positive integer, got {n!r}")
    if spectra.lam[-1] <= 0:
        raise InvalidParameterError("top free eigenvalue must be positive")
    limit = critical_limit(spectra)
    nu_bar = np.sqrt(-limit.lam[:-1])
    A, B, S = _det_terms(-nu_bar[None, :], limit)
    if B[0] == 0:
        raise InvalidParameterError("degenerate asymptotic system")
    w_top = -A[0] / B[0]
    c0 = -S[0, 1] / S[0, 0]
    om_top = np.sqrt(spectra.lam[-1])
    sig_top = spectra.sigma[-1]
    o_n = (n - (1 - sig_top) / 4) * np.pi + np.arctan(w_top / om_top)
    om_p = np.sqrt(max(spectra.lam_prime[-1], 0.0))
    sig_p = spectra.sigma_prime[-1]
    o_p = (3 - sig_p) * np.pi / 4 - om_p / c0
    return AsymptoticPoint(n=int(n), o_n=float(o_n), o_prime=float(o_p),
                           w_top=float(w_top), c0=float(c0))


def asymptotic_grid(spectra: SpectrumPair, branches) -> np.ndarray:
    """Stacked (o_N, o'_{N-1}) asymptotic points for the given branch indices."""
    pts = [large_tau_asymptote(int(n), spectra) for n in branches]
    return np.array([[p.o_n, p.o_prime] for p in pts])


# ------------------------------------------------------------- sampling study

@dataclass(frozen=True)
class StudySummary:
    """Outcome of a randomized c0-positivity study."""

    n_dof: int
    samples: int
    failures: int
    nonpositive: int
    min_c0: float
    seed: int

    def to_dict(self) -> dict:
        return {
            "N": self.n_dof,
            "samples": self.samples,
            "failures": self.failures,
            "nonpositive": self.nonpositive,
            "minC0": self.min_c0,
            "seed": self.seed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def _sample_critical_spectra(n_dof, rng):
    """Interlaced spectra in the critical limit: uniform gaps, max |lam| rescaled to 1.

    The top contact eigenvalue is pinned at 0; the free/contact values below
    alternate downward with gaps drawn from Uniform(0.1, 1); the top free
    eigenvalue sits one gap above zero.  Signatures are drawn uniformly.
    """
    lam = np.empty(n_dof)
    lamp = np.empty(n_dof - 1)
    lamp[-1] = 0.0
    lam[-1] = rng.uniform(0.1, 1.0)
    downs = -np.cumsum(rng.uniform(0.1, 1.0, 2 * n_dof - 3))
    lam[: n_dof - 1] = downs[0::2][::-1]
    if n_dof > 2:
        lamp[: n_dof - 2] = downs[1::2][::-1]
    scale = np.abs(lam).max()
    sigma = rng.choice([-1, 1], n_dof)
    sigma_prime = rng.choice([-1, 1], n_dof - 1)
    return SpectrumPair(lam / scale, lamp / scale, sigma, sigma_prime)


def c0_sampling_study(n_samples: int, n_dof: int, seed: int) -> StudySummary:
    """Randomized check that c0 > 0 across sampled near-critical spectra.

    Individual samples that yield no root in the scan window are counted as
    failures, never raised; any non-positive c0 is counted and reflected in
    ``min_c0``.  Deterministic for a fixed seed.
    """
    if n_samples < 1:
        raise InvalidParameterError("need at least one sample")
    if n_dof < 2:
        raise InvalidParameterError("need at least 2 degrees of freedom")
    rng = np.random.default_rng(seed)
    failures = 0
    nonpositive = 0
    min_c0 = np.inf
    for _ in range(n_samples):
        spectra = _sample_critical_spectra(n_dof, rng)
        try:
            _, c0 = solve_critical(spectra)
        except NoRootError:
            failures += 1
            continue
        min_c0 = min(min_c0, c0)
        if c0 <= 0:
            nonpositive += 1
    return StudySummary(
        n_dof=n_dof,
        samples=n_samples,
        failures=failures,
        nonpositive=nonpositive,
        min_c0=float(min_c0),
        seed=seed,
    )
