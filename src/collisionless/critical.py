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

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .cauchy import cauchy_matrix, eta
from .errors import (
    InvalidParameterError,
    NoRootError,
    _is_real,
    _real_array,
    _real_number,
    _require_instance,
)
from .impact import _subsets, existence_gate, phase_rate
from .model import SpectrumPair, _check_spectra

__all__ = [
    "existence_gate",
    "critical_limit",
    "critical_matrices",
    "solve_critical",
    "predicted_contact_phase",
    "AsymptoticPoint",
    "large_tau_asymptote",
    "asymptotic_grid",
    "STUDY_STAGES",
    "StudySummary",
    "c0_sampling_study",
]


# Tau samples of the critical bracket scan, evaluated in ascending blocks of
# _SCAN_BLOCK intervals; _O_MAX is the end of the scanned o_N range.  A sample
# leaves the scan at its first sign change, so the block size moves no bracket,
# only the per-block overhead against the points evaluated past that change.
_SCAN_POINTS = 1200
_SCAN_BLOCK = 64
_O_MAX = 6 * np.pi
# Bracket-polish stopping test: a Newton step, or a bracket width, of at most
# _XTOL + _RTOL * tau.
_XTOL = 1e-13
_RTOL = 8.9e-16
# Samples a c0 study draws and solves at once.
_STUDY_CHUNK = 128
# The coefficient table's corner nodes put each non-top rate at 0 or _NODE:
# negative like every rate of a non-top mode, and a power of two, so the
# table's row m is divided by _NODE**|m| exactly.
_NODE = -4.0
# Stages of ``c0_sampling_study`` timed in ``StudySummary.timings``, in run order:
# "sample" draws, checks and stacks a chunk, corner build of its coefficient
# table included; "scan" brackets each sample's first root, "polish" refines it.
STUDY_STAGES = ("sample", "scan", "polish")


def critical_limit(spectra: SpectrumPair) -> SpectrumPair:
    """Copy of the spectra with the top contact eigenvalue sent to its zero limit.

    Requires the rest of the critical structure: every other eigenvalue of
    both phases negative (which strict interlacing then enforces).
    """
    _require_instance(spectra, SpectrumPair, "spectra")
    lam = np.array(spectra.lam)
    lamp = np.array(spectra.lam_prime)
    if lam[-2] >= 0:
        raise InvalidParameterError(
            "critical limit requires all free eigenvalues below the top one to be negative"
        )
    lamp[-1] = 0.0
    return SpectrumPair(lam, lamp, spectra.sigma, spectra.sigma_prime)


def _require_limit(spectra: SpectrumPair):
    """InvalidParameterError unless ``spectra`` is a pair whose top contact eigenvalue is exactly 0.

    Strict interlacing (``SpectrumPair``) then puts the top free eigenvalue above 0.
    """
    _require_instance(spectra, SpectrumPair, "spectra")
    if spectra.lam_prime[-1] != 0.0:
        raise InvalidParameterError(
            "spectra must be in the critical limit (top contact eigenvalue exactly 0); "
            "use critical_limit() first"
        )


class _Stack:
    """Spectra in the critical limit, S of them stacked on axis 0.

    Holds only what the scan and the polish read: the free spectra and
    signatures, and the coefficient table of the critical kernel.  Row m of
    ``coef`` multiplies the monomial prod(w_i for i in subset m) of the
    non-top hyperbolic rates (``impact._subsets`` order); its seven columns
    are P0, P1, S and r of ``_pieces``.  The per-sample constants of the
    rates are derived once here, in the kernel's mode-first layout: the decay
    rates nu and odd masks of the non-top modes (``_modes``), and the top
    mode's omega_N and odd mask, each (S, 1).  Iteration yields the three
    defining arrays; ``take`` gathers a sub-stack from every field, the
    derived ones included, by one integer index.
    """

    _fields = ("lam", "sigma", "coef")

    def __init__(self, lam, sigma, coef):
        self.lam = lam            # (S, n)
        self.sigma = sigma        # (S, n)
        self.coef = coef          # (S, 2**(n-1), 7)
        self.nu, self.odd = _modes(lam, sigma)
        self.om_top = np.sqrt(lam[:, -1:])
        self.odd_top = sigma[:, -1:] == 1

    def __iter__(self):
        return (getattr(self, name) for name in self._fields)

    def take(self, idx) -> _Stack:
        """The sub-stack of samples ``idx``, an integer index or a boolean mask."""
        idx = np.flatnonzero(idx) if idx.dtype == bool else idx
        sub = object.__new__(_Stack)
        for name in self._fields + ("om_top", "odd_top"):
            setattr(sub, name, getattr(self, name).take(idx, axis=0))
        sub.nu, sub.odd = self.nu.take(idx, axis=1), self.odd.take(idx, axis=1)
        return sub


def _stack(lam, lam_prime, sigma, sigma_prime) -> _Stack:
    """Stack S spectra of one dimension, given with sample axis 0, after SpectrumPair's checks."""
    lam, lam_prime, sigma, _ = _check_spectra(lam, lam_prime, sigma, sigma_prime, ndim=2)
    return _stacked(lam, lam_prime, sigma, cauchy_matrix(lam, lam_prime), eta(lam, lam_prime))


def _stack_one(spectra: SpectrumPair) -> _Stack:
    """One spectrum pair as a stack of length 1, from its checked arrays and cached M and eta."""
    fields = (spectra.lam, spectra.lam_prime, spectra.sigma, spectra.M, spectra.eta)
    return _stacked(*(values[None] for values in fields))


def _stacked(lam, lam_prime, sigma, M, eta_vec) -> _Stack:
    """The stack of checked spectra with their Cauchy matrices and eta vectors.

    P0, P1, S and r are multilinear in the non-top rates w_1..w_{N-1}: row i
    of U-bar is affine in w_i, a cofactor that drops row i holds no w_i, and
    the right-hand side [1, w] brings w_i back once (Horn & Johnson, *Matrix
    Analysis*, 2nd ed., sec. 0.3).  So each is a sum of 2**(N-1) constant
    coefficients times the monomials of w.  ``_pieces`` at the corners
    w in {0, _NODE}**(N-1) (``_corners``) gives, at corner m, the sum over the
    subsets s of m of coefficient s times _NODE**|s|; differencing over one
    bit at a time inverts that sum (Moebius inversion, Rota,
    Z. Wahrscheinlichkeitstheorie 2, 1964), and dividing row m by _NODE**|m|,
    a power of two, is exact.
    """
    k = lam.shape[-1] - 1
    nu_p = _contact_rates(lam_prime)
    bits = _subsets(k)
    P0, P1, S, r = _pieces(*_corners(lam, nu_p, M), _NODE * bits[None], lam, nu_p, M, eta_vec)
    coef = np.concatenate([P0, P1, S, r[..., None]], axis=-1)     # (S, 2**k, 7)
    for i in range(k):
        halves = coef.reshape(coef.shape[0], -1, 2, 2 ** i, 7)    # subsets without / with i
        halves[:, :, 1] -= halves[:, :, 0]
    coef /= (_NODE ** bits.sum(axis=1))[:, None]
    return _Stack(lam=lam, sigma=sigma, coef=coef)


def _contact_rates(lam_prime):
    """nu'_j = sqrt(-lam'_j) of the non-top contact modes, and 0 for the top one: (S, n-1)."""
    nu_p = np.zeros_like(lam_prime)
    nu_p[:, :-1] = np.sqrt(-lam_prime[:, :-1])
    return nu_p


def _corners(lam, nu_p, M):
    """det (S, 2**(n-1)) and inverse (S, 2**(n-1), n-1, n-1) of U-bar at w in {0, _NODE}**(n-1).

    Corner 0 is the Cauchy matrix M-bar = M[:, :-1], whose det and inverse
    are taken once per sample.  Corner m + 2**i is corner m with h V_i added
    to row i, h = _NODE and V_i = M-bar_i nu' / lam_i, so with
    z = h V_i inv(U) the matrix determinant lemma and the Sherman-Morrison
    formula (Sherman & Morrison, *Ann. Math. Statist.* 21, 1950) give it from
    corner m with the update factor g = 1 + z_i: det' = g det and
    inv' = inv - inv[:, i] z / g.  Step i derives the 2**i corners m + 2**i,
    m < 2**i, from those of the steps before it, in one vectorised update.
    Measured, not proven: on 1,500 samples per N = 2..8 (seed 42) every g is
    at least 1 (exactly 1 at N = 2, where V_1 = 0, and at least 1.085 above),
    so no update divides by a small factor; positive nodes, rates that no
    non-top mode has, give negative factors from N = 3 on.
    """
    m_bar = M[:, :-1]
    count, k = m_bar.shape[:2]
    det_u = np.empty((count, 2 ** k))
    inv_u = np.empty((count, 2 ** k, k, k))
    det_u[:, 0] = np.linalg.det(m_bar)
    inv_u[:, 0] = np.linalg.inv(m_bar)
    hv = _NODE * m_bar * nu_p[:, None, :] / lam[:, :-1, None]      # row i: h V_i
    for i in range(k):
        low, high = slice(0, 2 ** i), slice(2 ** i, 2 ** (i + 1))    # corners without / with i
        inv = inv_u[:, low]
        z = hv[:, None, i:i + 1] @ inv                             # (S, 2**i, 1, n-1)
        g = 1.0 + z[..., 0, i]
        det_u[:, high] = g * det_u[:, low]
        inv_u[:, high] = inv - inv[..., i:i + 1] * (z / g[..., None, None])
    return det_u, inv_u


def _modes(lam, sigma):
    """(nu, odd) of the non-top free modes of S stacked spectra, mode-first: (n-1, S, 1) each."""
    nu = np.sqrt(-np.ascontiguousarray(lam.T[:-1, :, None]))
    return nu, np.ascontiguousarray(sigma.T[:-1, :, None]) == 1


def _hyperbolic_rates(taus, nu, odd):
    """w_i(tau) of the (all-hyperbolic) non-top free modes at taus (S, T), mode-first: (n-1, S, T).

    ``nu`` and ``odd`` are ``_modes``' (n-1, S, 1) arrays, so each mode's
    tanh runs over one contiguous (S, T) slab.
    """
    th = np.tanh(nu * taus)
    w = np.multiply(th, -nu)                           # -nu tanh, kept where odd
    return np.divide(-nu, th, out=w, where=~odd)       # -nu / tanh where even


def _k_ingredients(w_bar, lam, lam_prime, M, eta_vec):
    """Pieces of the 2x2 critical system, directly from the spectra, for rows of hyperbolic rates.

    ``lam``, ``lam_prime``, ``M`` and ``eta_vec`` hold S spectra in the
    critical limit on axis 0; ``w_bar`` (S or 1, T, n-1) holds the rates of
    the non-top free modes at T taus.  Each point costs a det and an inv of
    U-bar, and ``_pieces`` forms (P0, P1, S, r) from them.  This direct form
    is ``critical_matrices``' and the reference of the stack's coefficient
    table, which ``_corners`` builds without a factorisation per corner.
    """
    nu_p = _contact_rates(lam_prime)
    u_bar = M[:, None, :-1, :] * (
        1.0 + w_bar[..., None] * nu_p[:, None, None, :] / lam[:, None, :-1, None]
    )
    return _pieces(np.linalg.det(u_bar), np.linalg.inv(u_bar), w_bar, lam, nu_p, M, eta_vec)


def _pieces(det_u, inv_u, w_bar, lam, nu_p, M, eta_vec):
    """(P0, P1, S, r) with leading axes (S, T) from U-bar's det and inverse at the rates ``w_bar``.

    ``det_u`` is (S, T), ``inv_u`` (S, T, n-1, n-1) and ``w_bar`` (S or 1,
    T, n-1); ``nu_p`` is ``_contact_rates``.  The first K row is
    P0 + w_N * P1 plus the rank-one r [1, w_N] term, and the second row is S
    (independent of w_N), so det(K + K~) = A + B w_N with A, B affine
    combinations of these (``_ab``).
    """
    m_row = M[:, -1, :]
    rows = np.stack([m_row, m_row * nu_p / lam[:, -1:], np.ones_like(m_row)], axis=1)
    with np.errstate(all="ignore"):
        adj_u = det_u[..., None, None] * inv_u
    weighted = adj_u / (lam[:, :-1] ** 2)[:, None, None, :]
    rhs = np.stack([np.ones_like(w_bar), w_bar], axis=-1)          # (S, T, n-1, 2)
    P = rows[:, None] @ weighted @ rhs                              # (S, T, 3, 2)
    r = det_u / lam[:, -1:] ** 2
    return P[..., 0, :], P[..., 1, :], np.sum(eta_vec, axis=-1)[:, None, None] * P[..., 2, :], r


def _det_terms(w_bar, stack):
    """(A, B, S): det(K + K~) = A + B w_N, and the second K row S, per (sample, tau).

    ``w_bar`` holds the rates mode-first, (n-1, S, T) as ``_hyperbolic_rates``
    gives them.  The monomials are doubled in place into one (2**(n-1), S, T)
    array, in the order of the stack's coefficient table: monomial m + 2**i is
    monomial m times w_i.  One product of its (S, T, 2**(n-1)) view with the
    table gives the seven pieces.
    """
    k = w_bar.shape[0]
    mono = np.empty((2 ** k,) + w_bar.shape[1:])
    mono[0] = 1.0
    for i in range(k):
        np.multiply(mono[:2 ** i], w_bar[i], out=mono[2 ** i:2 ** (i + 1)])
    pieces = mono.transpose(1, 2, 0) @ stack.coef                   # (S, T, 7)
    p = pieces.transpose(2, 0, 1)
    return (*_ab(p, p), pieces[..., 4:6])


def _ab(first, second):
    """(A, B) of det(K + K~) = A + B w_N from the seven pieces, one bilinear form each.

    The first K row's pieces (P0, P1, r) come from ``first`` and S from
    ``second``, so the tau-slope of each is ``_ab(slopes, values) + _ab(values, slopes)``.
    """
    p00, p01, p10, p11, _, _, r = first
    s0, s1 = second[4], second[5]
    return (p00 + r) * s1 - p01 * s0, p10 * s1 - (p11 + r) * s0


@np.errstate(all="ignore")
def critical_matrices(tau: float, spectra: SpectrumPair):
    """The 2x2 matrices (K, K~) of the decoupled critical impact equations.

    Both depend on tau and the spectra only (the contact impact time has
    dropped out in the limit).  det(K + K~) = 0 fixes tau; c0 = -K[1,1]/K[1,0].
    tau is a finite number; entries beyond the float range are inf or nan.
    """
    tau = _real_number(tau, "tau", InvalidParameterError)
    _require_limit(spectra)
    lam, lam_prime, M, eta_vec = (
        values[None] for values in (spectra.lam, spectra.lam_prime, spectra.M, spectra.eta)
    )
    w_bar = _hyperbolic_rates(np.array([[tau]]), *_modes(lam, spectra.sigma[None]))
    P0, P1, S, r = (
        v[0, 0] for v in _k_ingredients(np.moveaxis(w_bar, 0, -1), lam, lam_prime, M, eta_vec)
    )
    w_top = phase_rate(tau, spectra.lam[-1:], spectra.sigma[-1:])[0]
    K = np.vstack([P0 + w_top * P1, S])
    K_tilde = np.array([[r, r * w_top], [0.0, 0.0]])
    return K, K_tilde


def _depoled_residual(taus, stack, trig=None):
    """det(K + K~) multiplied through by the tan/cot denominator of w_N, at taus (S, T).

    The determinant is affine in w_N, so this form is continuous in tau and
    its sign changes bracket genuine roots only (never w_N poles).  ``trig``
    is (cos, sin) of o_N = omega_N tau, broadcast against taus; without it,
    both are taken of ``stack.om_top * taus``.
    """
    A, B, _ = _det_terms(_hyperbolic_rates(taus, stack.nu, stack.odd), stack)
    if trig is None:
        o_top = stack.om_top * taus
        trig = np.cos(o_top), np.sin(o_top)
    return _depole(A, B, stack, *trig)


def _depole(A, B, stack, cos, sin):
    """A + B w_N times the denominator of w_N: cos(o_N) for an odd top mode, else sin(o_N)."""
    om_b = B * stack.om_top
    return np.where(stack.odd_top, A * cos + om_b * sin, A * sin - om_b * cos)


def _residual_slope(x, stack):
    """The depoled residual and its exact tau-slope at one tau per sample, x (S,): two (S,) arrays.

    Both parities of a non-top rate obey the Riccati identity
    w_i' = w_i**2 - nu_i**2.  Each monomial's slope is doubled in place next
    to the monomial, d(m w_i) = dm w_i + m w_i', so one product of the
    (S, 2, 2**(n-1)) value/slope view with the coefficient table gives the
    seven pieces and their slopes.  With o_N = omega_N tau and the depoling
    factor's own slope, F' is F's form with (A, B) replaced by
    (A' + omega_N**2 B, B' - A): for an odd top mode
    F' = (A' + omega_N**2 B) cos + omega_N (B' - A) sin.
    """
    taus = x[:, None]
    w = _hyperbolic_rates(taus, stack.nu, stack.odd)                # (n-1, S, 1)
    dw = w * w - stack.nu * stack.nu
    k = w.shape[0]
    mono = np.empty((2 ** k, x.size, 2))                            # value, slope
    mono[0] = 1.0, 0.0
    for i in range(k):
        low, high = mono[:2 ** i], mono[2 ** i:2 ** (i + 1)]
        np.multiply(low, w[i], out=high)
        high[..., 1] += low[..., 0] * dw[i, :, 0]
    pieces = mono.transpose(1, 2, 0) @ stack.coef                   # (S, 2, 7)
    p, dp = pieces.transpose(1, 2, 0)[..., None]                   # (7, S, 1) each
    A, B = _ab(p, p)
    dA, dB = (u + v for u, v in zip(_ab(dp, p), _ab(p, dp)))
    o_top = stack.om_top * taus
    cos, sin = np.cos(o_top), np.sin(o_top)
    f = _depole(A, B, stack, cos, sin)
    df = _depole(dA + stack.lam[:, -1:] * B, dB - A, stack, cos, sin)
    return f[:, 0], df[:, 0]


def _newton(stack, a, b, fa, fb):
    """Roots of the depoled residual in the sign-change brackets [a, b], in lockstep.

    Safeguarded Newton on the exact slope (``rtsafe``, Press et al., *Numerical
    Recipes*, 3rd ed., sec. 9.4).  Each bracket starts at its regula-falsi
    point and is kept by sign.  A round bisects where the Newton point leaves
    the bracket or the Newton step |f/f'| is more than half the previous
    step, so the step size at least halves between bisections.  A bracket
    stops once its Newton step, inside the bracket, is at most
    _XTOL + _RTOL * a, or once it is narrower than that, and returns its last
    Newton point (the midpoint where that point is outside).  One evaluation
    of the residual and its slope per round serves every open bracket, and a
    stopped one is frozen: its iterates depend on no other bracket.  The
    slice of the stack is taken again only when a bracket stops.
    """
    lo, hi, f_lo = (np.array(v, float) for v in (a, b, fa))
    tol = _XTOL + _RTOL * lo
    x = (hi * f_lo - lo * fb) / (f_lo - fb)
    step = hi - lo
    roots = np.full(lo.size, np.nan)
    open_ = np.arange(lo.size)
    sub = stack
    while open_.size:
        f, df = _residual_slope(x, sub)
        right = f * f_lo > 0        # the root lies right of x
        lo = np.where(right, x, lo)
        f_lo = np.where(right, f, f_lo)
        hi = np.where(right, hi, x)
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = f / df     # inf or nan bisects
        x_n = x - dx
        mid = 0.5 * (lo + hi)
        inside = (lo <= x_n) & (x_n <= hi)
        done = inside & (abs(dx) <= tol) | (hi - lo <= tol)
        roots[open_[done]] = np.where(inside, x_n, mid)[done]
        x_next = np.where(inside & (abs(dx) <= 0.5 * step), x_n, mid)
        step = abs(x_next - x)
        still = ~done
        if not still.all():
            open_, sub = open_[still], sub.take(still)
            lo, hi, f_lo, tol, x_next, step = (v[still] for v in (lo, hi, f_lo, tol, x_next, step))
        x = x_next
    return roots


def _scan(stack, o_max):
    """First finite sign-change bracket (lo, hi, f(lo), f(hi)) of each sample; NaN where none.

    Each sample's o_N = omega_N tau runs over the _SCAN_POINTS-point grid on
    [1e-3, o_max].  The grid is evaluated in ascending blocks of _SCAN_BLOCK
    intervals for every sample still scanning, and a sample leaves the scan
    at its first block holding a finite sign change, so the rest of its grid
    is never evaluated.  A block's taus are formed on demand with
    ``np.linspace``'s own arithmetic, index * step + first with the last point
    pinned to the end, so they are the linspace grid bit for bit.  The grid of
    o_N itself is one for every sample, so cos and sin of the top mode are
    taken of ``np.linspace(1e-3, o_max, _SCAN_POINTS)`` once, and each block
    reads its slice.
    """
    first = 1e-3 / stack.om_top
    last = o_max / stack.om_top
    step = (last - first) / (_SCAN_POINTS - 1)
    o_top = np.linspace(1e-3, o_max, _SCAN_POINTS)
    cos, sin = np.cos(o_top), np.sin(o_top)
    bracket = np.full((4, first.size), np.nan)         # lo, hi, f(lo), f(hi)
    active = np.arange(first.size)
    sub = stack
    for start in range(0, _SCAN_POINTS - 1, _SCAN_BLOCK):
        stop = min(start + _SCAN_BLOCK + 1, _SCAN_POINTS)
        idx = np.arange(start, stop, dtype=float)
        taus = idx * step + first
        if stop == _SCAN_POINTS:
            taus[:, -1] = last[:, 0]
        vals = _depoled_residual(taus, sub, (cos[start:stop], sin[start:stop]))
        finite = np.isfinite(vals)
        signs = np.sign(vals)
        change = (signs[:, :-1] * signs[:, 1:] < 0) & finite[:, :-1] & finite[:, 1:]
        keep = ~change.any(axis=1)
        if keep.all():
            continue
        hit = np.nonzero(~keep)[0]
        i = change[hit].argmax(axis=1)
        bracket[:, active[hit]] = taus[hit, i], taus[hit, i + 1], vals[hit, i], vals[hit, i + 1]
        if not keep.any():
            break
        active, first, step, last = (values[keep] for values in (active, first, step, last))
        sub = sub.take(keep)
    return bracket


def _polish(stack, bracket):
    """(tau_c, c0) of each sample from its ``_scan`` bracket; NaN where none.

    Every bracket is polished by ``_newton`` in lockstep, and c0 = -S_1 / S_0
    is read off at each root by one more evaluation of the coefficient table.
    """
    tau_c = np.full(stack.lam.shape[0], np.nan)
    c0 = np.full(stack.lam.shape[0], np.nan)
    found = np.nonzero(~np.isnan(bracket[0]))[0]
    if found.size:
        sub = stack.take(found)
        tau_c[found] = _newton(sub, *bracket[:, found])
        _, _, S = _det_terms(_hyperbolic_rates(tau_c[found, None], sub.nu, sub.odd), sub)
        c0[found] = -S[:, 0, 1] / S[:, 0, 0]
    return tau_c, c0


def solve_critical(spectra: SpectrumPair):
    """First critical root with o_N < _O_MAX: (tau_critical, c0).  Raises NoRootError if none."""
    _require_limit(spectra)
    stack = _stack_one(spectra)
    tau_c, c0 = _polish(stack, _scan(stack, _O_MAX))
    if np.isnan(tau_c[0]):
        raise NoRootError(f"no critical root with o_N < {_O_MAX:.4g}")
    return float(tau_c[0]), float(c0[0])


def predicted_contact_phase(c0: float, lam_prime_top: float, sigma_prime_top: int) -> float:
    """Contact impact phase predicted by w'(tau') = c0 for a small positive eigenvalue.

    Exact inversion on the principal branch: arctan(c0/om') for an odd top
    contact mode, pi - arctan(om'/c0) for an even one.  Both approach
    (3 - sigma') pi / 4 as the eigenvalue tends to zero.  Python floats carry
    the quotients, so one that overflows is inf, whose arctan is exact.
    """
    c0 = _real_number(c0, "c0", InvalidParameterError, positive=True)
    om = float(np.sqrt(_real_number(lam_prime_top, "top contact eigenvalue", InvalidParameterError,
                                    positive=True)))
    if not (_is_real(sigma_prime_top) and sigma_prime_top in (-1, 1)):
        raise InvalidParameterError(f"sigma_prime_top must be +1 or -1, got {sigma_prime_top!r}")
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
    _real_number(n, "branch index", InvalidParameterError, minimum=1)
    _require_instance(spectra, SpectrumPair, "spectra")
    if spectra.lam[-1] <= 0:
        raise InvalidParameterError("top free eigenvalue must be positive")
    stack = _stack_one(critical_limit(spectra))
    A, B, S = (v[0, 0] for v in _det_terms(-stack.nu, stack))
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
    """Stacked (o_N, o'_{N-1}) asymptotic points for a 1-d sequence of branch indices: (n, 2)."""
    _require_instance(spectra, SpectrumPair, "spectra")
    if _real_array(branches, "branches", InvalidParameterError).ndim != 1:
        raise InvalidParameterError(f"branches must be a 1-d sequence, got {branches!r}")
    pts = [large_tau_asymptote(n, spectra) for n in branches]
    return np.array([[p.o_n, p.o_prime] for p in pts]).reshape(len(pts), 2)


# ------------------------------------------------------------- sampling study

@dataclass(frozen=True)
class StudySummary:
    """Outcome of a randomized c0-positivity study.

    ``timings`` maps each name in ``STUDY_STAGES`` to its wall time in
    seconds, summed over chunks; "sample" counts the corner build of each
    chunk's coefficient table (``_stacked``: one det and inverse per sample,
    then rank-one corner updates), so "scan" and "polish" time only the
    table's evaluation.  It is left out of comparisons and of
    ``to_dict``, so equal studies compare equal.
    """

    n_dof: int
    samples: int
    failures: int
    nonpositive: int
    min_c0: float
    seed: int
    timings: dict = field(default_factory=dict, compare=False)

    def to_dict(self) -> dict:
        return {
            "N": self.n_dof,
            "samples": self.samples,
            "failures": self.failures,
            "nonpositive": self.nonpositive,
            "minC0": self.min_c0,
            "seed": self.seed,
        }


def _sample_chunk(n_dof, count, rng):
    """``count`` interlaced spectra in the critical limit, stacked on axis 0.

    Returns (lam, lam_prime, sigma, sigma_prime).  The top contact eigenvalue
    is pinned at 0; the top free eigenvalue sits one gap above zero and the
    free/contact values below alternate downward, with gaps drawn from
    Uniform(0.1, 1); then max |lam| is rescaled to 1.  Signatures are drawn
    uniformly.

    The numbers are those of two draws per sample in turn,
    ``rng.uniform(0.1, 1.0, 2N - 2)`` and then ``rng.integers(0, 2, 2N - 1)``
    (its N free and N - 1 contact signature bits), rebuilt from one
    ``random_raw`` block of 64-bit words per chunk.  A gap takes one word w,
    0.1 + 0.9 * ((w >> 11) * 2**-53): NumPy's ``next_double`` through
    ``uniform``.  A bit takes one 32-bit half-word, its top bit: Lemire's
    multiply-shift with range 2, which never rejects (Lemire, *ACM TOMS*
    45(1), 2019).  ``rng``'s bit generator (PCG64, as ``default_rng`` makes)
    hands out the low half of a word first and keeps the high half as a spare
    (``has_uint32``/``uinteger`` of its state), which carries across calls.
    So a sample takes 2N - 2 gap words, then N bit words, or N - 1 when a
    spare is waiting, and 2N - 1 being odd, the spare alternates from sample
    to sample.  The spare is written back as the loop would leave it, with
    ``uinteger`` the last high half handed out, so a chunk continues the
    stream exactly where the previous one stopped, whatever its size.
    """
    n_gaps, n_bits = 2 * n_dof - 2, 2 * n_dof - 1
    bit_gen = rng.bit_generator
    state = bit_gen.state
    spare = state["has_uint32"]
    words = n_gaps + n_dof - (spare + np.arange(count)) % 2    # of each sample
    ends = np.cumsum(words)
    raw = bit_gen.random_raw(int(ends[-1]))
    is_gap = np.zeros(raw.size, dtype=bool)
    is_gap[(ends - words)[:, None] + np.arange(n_gaps)] = True
    gaps = 0.1 + 0.9 * ((raw[is_gap] >> 11) * 2.0 ** -53).reshape(count, n_gaps)
    bit_words = raw[~is_gap]
    stream = np.empty(spare + 2 * bit_words.size, dtype=np.uint64)   # the half-words' top bits
    stream[:spare] = state["uinteger"] >> 31
    stream[spare::2] = bit_words >> 31 & 1     # low halves
    stream[spare + 1::2] = bit_words >> 63     # high halves
    bits = stream[:count * n_bits].reshape(count, n_bits).astype(np.int64)
    state = bit_gen.state
    state["has_uint32"] = int(stream.size > bits.size)
    state["uinteger"] = int(bit_words[-1] >> 32)
    bit_gen.state = state
    lam = np.empty((count, n_dof))
    lamp = np.zeros((count, n_dof - 1))
    lam[:, -1] = gaps[:, 0]
    downs = -np.cumsum(gaps[:, 1:], axis=1)
    lam[:, :-1] = downs[:, 0::2][:, ::-1]
    lamp[:, :-1] = downs[:, 1::2][:, ::-1]
    scale = np.abs(lam).max(axis=1, keepdims=True)
    signs = 2 * bits - 1
    return lam / scale, lamp / scale, signs[:, :n_dof], signs[:, n_dof:]


def _sample_critical_spectra(n_dof, rng) -> SpectrumPair:
    """One sample of ``_sample_chunk`` as a ``SpectrumPair``."""
    return SpectrumPair(*(v[0] for v in _sample_chunk(n_dof, 1, rng)))


def c0_sampling_study(n_samples: int, n_dof: int, seed: int) -> StudySummary:
    """Randomized check that c0 > 0 across sampled near-critical spectra.

    Individual samples that yield no root in the scan window are counted as
    failures, never raised; any non-positive c0 is counted and reflected in
    ``min_c0``.  Deterministic for a fixed seed.  ``n_samples`` >= 1,
    ``n_dof`` >= 2 and ``seed`` >= 0 must be integers.
    """
    _real_number(n_samples, "n_samples", InvalidParameterError, minimum=1)
    _real_number(n_dof, "n_dof", InvalidParameterError, minimum=2)
    _real_number(seed, "seed", InvalidParameterError, minimum=0)
    rng = np.random.default_rng(seed)
    failures = 0
    nonpositive = 0
    min_c0 = np.inf
    timings = dict.fromkeys(STUDY_STAGES, 0.0)
    for start in range(0, n_samples, _STUDY_CHUNK):
        count = min(_STUDY_CHUNK, n_samples - start)
        marks = [perf_counter()]   # one mark after each stage
        stack = _stack(*_sample_chunk(n_dof, count, rng))
        marks.append(perf_counter())
        bracket = _scan(stack, _O_MAX)
        marks.append(perf_counter())
        tau_c, c0 = _polish(stack, bracket)
        marks.append(perf_counter())
        for stage, a, b in zip(STUDY_STAGES, marks, marks[1:]):
            timings[stage] += b - a
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
        timings=timings,
    )
