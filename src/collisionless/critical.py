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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError, NoRootError
from .impact import existence_gate, phase_rate
from .model import SpectrumPair, _check_branch_index

__all__ = [
    "existence_gate",
    "critical_limit",
    "critical_matrices",
    "solve_critical",
    "predicted_contact_phase",
    "AsymptoticPoint",
    "large_tau_asymptote",
    "asymptotic_grid",
    "StudySummary",
    "c0_sampling_study",
]


# Tau samples of the critical bracket scan, evaluated in ascending blocks of
# _SCAN_BLOCK intervals; _O_MAX is the default end of the scanned o_N range.
_SCAN_POINTS = 1200
_SCAN_BLOCK = 32
_O_MAX = 6 * np.pi
# Bracket-polish stopping test: width below _XTOL + _RTOL * tau.
_XTOL = 1e-13
_RTOL = 8.9e-16
# Samples a c0 study draws and solves at once.
_STUDY_CHUNK = 128


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


class _Stack(NamedTuple):
    """Spectra in the critical limit, S of them stacked on axis 0.

    Holds only what the critical kernel reads: the free spectra and
    signatures, the non-top contact frequencies (0 in the top slot), the
    non-top rows of M, the three weight rows (m_row, m_row_scaled, ones)
    and sum(eta).
    """

    lam: np.ndarray          # (S, n)
    sigma: np.ndarray        # (S, n)
    nu_p: np.ndarray         # (S, n-1)
    m_bar: np.ndarray        # (S, n-1, n-1)
    rows: np.ndarray         # (S, 3, n-1)
    eta_sum: np.ndarray      # (S,)

    def take(self, idx) -> _Stack:
        return _Stack(*(field[idx] for field in self))


def _stack(pairs) -> _Stack:
    """Stack spectra of one dimension; each pair's M and eta are its own cached ones."""
    lam = np.stack([p.lam for p in pairs])
    lam_prime = np.stack([p.lam_prime for p in pairs])
    M = np.stack([p.M for p in pairs])
    nu_p = np.zeros_like(lam_prime)
    nu_p[:, :-1] = np.sqrt(-lam_prime[:, :-1])
    m_row = M[:, -1, :]
    rows = np.stack([m_row, m_row * nu_p / lam[:, -1:], np.ones_like(m_row)], axis=1)
    return _Stack(
        lam=lam,
        sigma=np.stack([p.sigma for p in pairs]),
        nu_p=nu_p,
        m_bar=M[:, :-1, :],
        rows=rows,
        eta_sum=np.array([float(np.sum(p.eta)) for p in pairs]),
    )


def _hyperbolic_rates(taus, stack):
    """w_i(tau) (S, T, n-1) of the (all-hyperbolic) non-top free modes at taus (S, T)."""
    nu = np.sqrt(-stack.lam[:, None, :-1])
    th = np.tanh(nu * taus[:, :, None])
    return np.where(stack.sigma[:, None, :-1] == 1, -th * nu, -nu / th)


def _k_ingredients(w_bar, stack):
    """Pieces of the 2x2 critical system for stacked rows of hyperbolic rates.

    ``w_bar`` (S, T, n-1) holds the rates of the non-top free modes of each
    of the S spectra at T taus.  Returns (P0, P1, S, r) with leading axes
    (S, T): the first K row is P0 + w_N * P1 plus the rank-one r [1, w_N]
    term, and the second row is S (independent of w_N), so
    det(K + K~) = A + B w_N with A, B affine combinations of these.
    """
    lam_bar = stack.lam[:, :-1]
    u_bar = stack.m_bar[:, None] * (
        1.0 + w_bar[..., None] * stack.nu_p[:, None, None, :] / lam_bar[:, None, :, None]
    )
    det_u = np.linalg.det(u_bar)
    with np.errstate(all="ignore"):
        adj_u = det_u[..., None, None] * np.linalg.inv(u_bar)
    weighted = adj_u / (lam_bar ** 2)[:, None, None, :]
    rhs = np.stack([np.ones_like(w_bar), w_bar], axis=-1)          # (S, T, n-1, 2)
    P = stack.rows[:, None] @ weighted @ rhs                        # (S, T, 3, 2)
    r = det_u / stack.lam[:, -1:] ** 2
    return P[..., 0, :], P[..., 1, :], stack.eta_sum[:, None, None] * P[..., 2, :], r


def _det_terms(w_bar, stack):
    """(A, B, S): det(K + K~) = A + B w_N, and the second K row S, per (sample, tau)."""
    P0, P1, S, r = _k_ingredients(w_bar, stack)
    A = (P0[..., 0] + r) * S[..., 1] - P0[..., 1] * S[..., 0]
    B = P1[..., 0] * S[..., 1] - (P1[..., 1] + r) * S[..., 0]
    return A, B, S


def critical_matrices(tau: float, spectra: SpectrumPair):
    """The 2x2 matrices (K, K~) of the decoupled critical impact equations.

    Both depend on tau and the spectra only (the contact impact time has
    dropped out in the limit).  det(K + K~) = 0 fixes tau; c0 = -K[1,1]/K[1,0].
    """
    _require_limit(spectra)
    stack = _stack([spectra])
    P0, P1, S, r = (
        v[0, 0] for v in _k_ingredients(_hyperbolic_rates(np.array([[float(tau)]]), stack), stack)
    )
    w_top = phase_rate(tau, spectra.lam[-1:], spectra.sigma[-1:])[0]
    K = np.vstack([P0 + w_top * P1, S])
    K_tilde = np.array([[r, r * w_top], [0.0, 0.0]])
    return K, K_tilde


def _depoled_residual(taus, stack):
    """det(K + K~) multiplied through by the tan/cot denominator of w_N, at taus (S, T).

    The determinant is affine in w_N, so this form is continuous in tau and
    its sign changes bracket genuine roots only (never w_N poles).
    """
    A, B, _ = _det_terms(_hyperbolic_rates(taus, stack), stack)
    om_top = np.sqrt(stack.lam[:, -1:])
    o_top = om_top * taus
    cos, sin = np.cos(o_top), np.sin(o_top)
    return np.where(stack.sigma[:, -1:] == 1, A * cos + B * om_top * sin, A * sin - B * om_top * cos)


def _itp(stack, a, b, fa, fb):
    """Roots of the depoled residual in the sign-change brackets [a, b], in lockstep.

    The ITP iteration (Oliveira & Takahashi 2020, ACM TOMS 47(1)) with
    k1 = 0.2 / (b - a), k2 = 2 and n0 = 1: a regula-falsi point, truncated
    toward the midpoint and projected into a radius that keeps bisection's
    worst case.  Each bracket stops once it is narrower than
    _XTOL + _RTOL * a, brentq's test at the same tolerances, and returns the
    regula-falsi point of its final bracket.  The truncation is at least
    half that width: once the regula-falsi point has converged, k1 (b - a)^2
    falls below the rounding of tau and the far end would only move by
    projection, one bisection step at a time.  One residual evaluation per
    iteration serves every open bracket.
    """
    a, b, fa, fb = (np.array(v, float) for v in (a, b, fa, fb))
    width_tol = _XTOL + _RTOL * a
    k1 = 0.2 / (b - a)
    n_max = np.ceil(np.log2((b - a) / width_tol)) + 1.0
    open_ = np.nonzero(b - a > width_tol)[0]
    j = 0
    while open_.size:
        lo, hi, f_lo, f_hi = a[open_], b[open_], fa[open_], fb[open_]
        mid = 0.5 * (lo + hi)
        radius = np.maximum(0.5 * width_tol[open_] * 2.0 ** (n_max[open_] - j) - 0.5 * (hi - lo), 0.0)
        delta = np.maximum(k1[open_] * (hi - lo) ** 2, 0.5 * width_tol[open_])
        x_f = (hi * f_lo - lo * f_hi) / (f_lo - f_hi)
        side = np.sign(mid - x_f)
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + side * delta, mid)
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - side * radius)
        y = _depoled_residual(x[:, None], stack.take(open_))[:, 0]
        right = y * f_lo > 0        # the root lies right of x
        a[open_] = np.where(right | (y == 0), x, lo)
        fa[open_] = np.where(right, y, f_lo)
        b[open_] = np.where(right, hi, x)
        fb[open_] = np.where(right, f_hi, y)
        open_ = open_[b[open_] - a[open_] > width_tol[open_]]
        j += 1
    return (b * fa - a * fb) / (fa - fb)


def _first_roots(stack, o_max):
    """First critical root (tau_c, c0) of each stacked sample; NaN where none is found.

    Each sample's o_N = omega_N tau runs over the _SCAN_POINTS-point grid on
    [1e-3, o_max].  The grid is evaluated in ascending blocks of _SCAN_BLOCK
    intervals for every sample still scanning, and a sample leaves the scan
    at its first block holding a finite sign change, so the rest of its grid
    is never evaluated.  All first brackets are then polished together.
    """
    om_top = np.sqrt(stack.lam[:, -1])
    grid = np.linspace(1e-3 / om_top, o_max / om_top, _SCAN_POINTS, axis=-1)
    bracket = np.full((4, om_top.size), np.nan)        # lo, hi, f(lo), f(hi)
    active = np.arange(om_top.size)
    for start in range(0, _SCAN_POINTS - 1, _SCAN_BLOCK):
        taus = grid[active, start:start + _SCAN_BLOCK + 1]
        vals = _depoled_residual(taus, stack.take(active))
        finite = np.isfinite(vals)
        signs = np.sign(vals)
        change = (signs[:, :-1] * signs[:, 1:] < 0) & finite[:, :-1] & finite[:, 1:]
        hit = np.nonzero(change.any(axis=1))[0]
        i = change[hit].argmax(axis=1)
        bracket[:, active[hit]] = taus[hit, i], taus[hit, i + 1], vals[hit, i], vals[hit, i + 1]
        active = np.delete(active, hit)
        if not active.size:
            break
    tau_c = np.full(om_top.size, np.nan)
    c0 = np.full(om_top.size, np.nan)
    found = np.nonzero(~np.isnan(bracket[0]))[0]
    if found.size:
        sub = stack.take(found)
        tau_c[found] = _itp(sub, *bracket[:, found])
        _, _, S = _det_terms(_hyperbolic_rates(tau_c[found, None], sub), sub)
        c0[found] = -S[:, 0, 1] / S[:, 0, 0]
    return tau_c, c0


def solve_critical(spectra: SpectrumPair, o_max: float = _O_MAX):
    """First critical root: (tau_critical, c0).  Raises NoRootError if none found."""
    _require_limit(spectra)
    tau_c, c0 = _first_roots(_stack([spectra]), o_max)
    if np.isnan(tau_c[0]):
        raise NoRootError(f"no critical root with o_N < {o_max:.4g}")
    return float(tau_c[0]), float(c0[0])


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
    _check_branch_index(n)
    if spectra.lam[-1] <= 0:
        raise InvalidParameterError("top free eigenvalue must be positive")
    limit = critical_limit(spectra)
    nu_bar = np.sqrt(-limit.lam[:-1])
    A, B, S = (v[0, 0] for v in _det_terms(-nu_bar[None, None, :], _stack([limit])))
    if B == 0:
        raise InvalidParameterError("degenerate asymptotic system")
    w_top = -A / B
    c0 = -S[1] / S[0]
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
    for start in range(0, n_samples, _STUDY_CHUNK):
        count = min(_STUDY_CHUNK, n_samples - start)
        pairs = [_sample_critical_spectra(n_dof, rng) for _ in range(count)]
        tau_c, c0 = _first_roots(_stack(pairs), _O_MAX)
        c0 = c0[~np.isnan(tau_c)]
        failures += count - c0.size
        nonpositive += int(np.count_nonzero(c0 <= 0))
        min_c0 = min(min_c0, c0.min(initial=np.inf))
    return StudySummary(
        n_dof=n_dof,
        samples=n_samples,
        failures=failures,
        nonpositive=nonpositive,
        min_c0=float(min_c0),
        seed=seed,
    )
