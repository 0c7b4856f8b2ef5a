"""Impact-time equations and their numerical machinery.

The search for an energy-conserving contact trajectory reduces to two scalar
equations in the impact times (tau, tau').  This module provides:

* the per-mode time kernels and the frequency-scaled tangent ``phase_rate``,
* the continuous contact matrix whose two maximal-minor determinants vanish
  exactly at solutions,
* a marching-squares contour scan of the two determinant zero sets in impact
  phase coordinates (o_N, o'_{N-1}) and seed extraction at curve crossings
  (both determinants on the whole grid as one matrix product, by their
  expansion in the free and the contact kernels; the cells come from the
  products' signs, and only the corners of the cells where both change sign
  take values, from the unit-row evaluator of the residual),
* damped-Newton refinement of a scan's seeds in lockstep: each iteration
  serves every active seed with one batched solve and at most two
  residual calls, so a run makes at most 1 + 2 * (largest iteration
  count) calls, and each seed's outcome is the one it gets alone; the
  line search tries the full step first and builds the table of halved
  steps only when a full step leaves the positive quadrant or fails, and
  asks for a sufficient decrease, a cut of max|F| by the fraction
  ``REFINE_MIN_DECREASE``, except below ``REFINE_TOL_RESIDUAL`` where no
  increase suffices; on a pair whose free kernels share one parity the
  residual has phantom roots (0, o'_c) at tau = 0, which are no impact,
  and a seed whose iterate comes within ``CORNER_RADIUS`` of one ends
  there instead of refining into it (tested only while some iterate has
  o_N below ``CORNER_RADIUS``, since its distance to (0, o'_c) is at
  least o_N),
* assembly of the full (2N+1) x 2N matching matrix, and
* certification of a solve's roots by one SVD call on the stack of their
  matching matrices: each rank gap decides a root, and each null vector
  gives its mode weights.

Everything except the matching matrix and its weights depends on the model
only through its spectra and symmetry signatures.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    InvalidParameterError,
    NoExistenceError,
    PoleError,
    ZeroModeError,
    _check_positive,
    _is_real,
    _real_array,
    _real_number,
    _require_instance,
)
from .model import SpectrumPair, _as_dict, _check_signature, _kernel_constants, _zero_modes
from .spectral import SpectralData
from .svgout import SvgCanvas

__all__ = [
    "mode_motion_vec",
    "phase_rate",
    "kernel_ratio",
    "existence_gate",
    "contact_matrix",
    "impact_residual",
    "GridSpec",
    "ContourField",
    "scan_contour",
    "ImpactTimes",
    "refine_root",
    "refine_roots",
    "assemble_impact_matrix",
    "reduction_gap",
    "alt_impact_residual",
    "RANK_GAP_MAX",
    "ImpactSolution",
    "build_solution",
    "build_solutions",
]

POLE_ATOL = 1e-9

# Certification: refined times are a root iff the matching matrix's rank gap is below this.
RANK_GAP_MAX = 1e-6

# Newton refinement: convergence tolerances, forward-difference step, and the
# relative cut in max|F| that the line search demands above REFINE_TOL_RESIDUAL.
REFINE_TOL_RESIDUAL = 1e-11
REFINE_TOL_STEP = 1e-12
REFINE_FD_STEP = 1e-6
REFINE_MIN_DECREASE = 1e-8

# On a pair whose free kernels share one parity, refinement ends a seed whose iterate comes
# within this distance, in impact phase, of a phantom root (0, o'_c) (see ``refine_roots``).
# No converging seed of the benchmark's pools, the armed biped or the random test models
# comes within 1.28 of one, and every failing rocker seed of its criterion-2 pools comes
# within 0.3 by its second iteration.
CORNER_RADIUS = 0.3


# --------------------------------------------------------------------------- kernels

@np.errstate(over="ignore", invalid="ignore")
def mode_motion_vec(t, lam, sigma):
    """Position and velocity factors (g, gdot) of unit normal modes: t broadcast against lam/sigma.

    sigma = -1 selects the even kernel (cos for lam > 0, cosh for lam < 0) and
    sigma = +1 the odd one (sin / sinh); gddot = -lam * g identically.
    Returns arrays of shape broadcast(t, lam).  This is the form for a bare
    spectrum; the library reads a pair's cached ``SpectrumPair.kernels``.
    An eigenvalue within ``ZERO_EIGENVALUE_ATOL`` of the spectrum's largest
    |lam| raises ZeroModeError, as ``SpectrumPair.kernels`` does: the odd
    kernel of a zero-frequency mode is (t, 1), which no periodic kernel gives.
    lam and sigma go through ``_bare_spectrum``; kernels beyond the float range are inf or nan.
    """
    lam, sigma = _bare_spectrum(lam, sigma)
    if _zero_modes(lam).any():
        raise ZeroModeError("mode_motion_vec is undefined for a zero eigenvalue")
    return _mode_kernels(_real_array(t, "t", InvalidParameterError), *_kernel_constants(lam, sigma))


def _bare_spectrum(lam, sigma):
    """lam as a float array of at most one axis, and sigma as its ``_check_signature``."""
    lam = _real_array(lam, "lam", InvalidParameterError)
    if lam.ndim > 1:
        raise InvalidParameterError(f"lam must have at most one axis, got shape {lam.shape}")
    return lam, _check_signature(sigma, lam.shape, "sigma")


def _mode_kernels(t, om, osc, even, rate):
    """``mode_motion_vec`` from a spectrum's kernel constants (``SpectrumPair.kernels``).

    Calls each circular and hyperbolic function once.
    """
    t = np.asarray(t, float)
    if t.ndim:
        t = t[..., None]
    arg = om * t
    c = np.where(osc, np.cos(arg), np.cosh(arg))
    s = np.where(osc, np.sin(arg), np.sinh(arg))
    # d/dt sin(h) = om cos(h)
    return np.where(even, c, s), np.where(even, rate * s, om * c)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def phase_rate(tau, lam, sigma):
    """Frequency-scaled kernel tangent w(tau) = lam * g(tau) / gdot(tau).

    Evaluates sigma * tan(om tau)^sigma * om for lam > 0 and
    -tanh(nu tau)^sigma * nu for lam < 0.

    Raises ZeroModeError for a zero eigenvalue (``mode_motion_vec``'s rule),
    and PoleError when an oscillatory mode sits within POLE_ATOL (in phase
    units) of a tan/cot pole.  Errors are raised for the first offending mode.
    tau is a finite number; a mode whose phase om tau is beyond float range has rate nan.
    """
    tau = _real_number(tau, "tau", InvalidParameterError)
    lam, sigma = map(np.atleast_1d, _bare_spectrum(lam, sigma))
    even = sigma == -1
    zero = _zero_modes(lam)
    osc = lam > 0
    om = np.sqrt(np.abs(lam))
    o = om * tau
    # poles: sin(o)=0 for sigma=-1 (cot), cos(o)=0 for sigma=+1 (tan)
    dist = np.abs((o - np.where(even, 0.0, np.pi / 2) + np.pi / 2) % np.pi - np.pi / 2)
    bad = (osc & (dist < POLE_ATOL)) | zero
    if bad.any():
        i = int(np.argmax(bad))
        if zero[i]:
            raise ZeroModeError("phase_rate is undefined for a zero eigenvalue")
        raise PoleError(
            f"phase_rate pole: o = {o[i]:.6g} is within {dist[i]:.2e} of a pole",
            distance=dist[i],
        )
    tan = np.where(osc, np.tan(o), np.tanh(o))
    return np.where(even, -om / tan, np.where(osc, tan, -tan) * om)


def existence_gate(lam_prime) -> bool:
    """True iff the largest (last) entry of the 1-d, non-empty spectrum lam_prime is positive."""
    lam_prime = _real_array(lam_prime, "lam_prime", InvalidParameterError)
    if lam_prime.ndim != 1 or not lam_prime.size:
        raise InvalidParameterError(f"lam_prime must be non-empty and 1-d, got {lam_prime!r}")
    return bool(lam_prime[-1] > 0)


def kernel_ratio(tau: float, tau_prime: float, spectra: SpectrumPair) -> np.ndarray:
    """Cross-phase kernel ratio matrix G[i, j] = -(w_i/lam_i) / (w'_j/lam'_j)."""
    w = phase_rate(tau, spectra.lam, spectra.sigma)
    wp = phase_rate(tau_prime, spectra.lam_prime, spectra.sigma_prime)
    return -np.outer(w / spectra.lam, spectra.lam_prime / wp)


def _u_matrix(tau, tau_prime, spectra, M):
    """U = M - G * M, the kernel-weighted Cauchy matrix (poles of G permitted nowhere)."""
    return M * (1.0 - kernel_ratio(tau, tau_prime, spectra))


# --------------------------------------------------------------- contact matrix

@np.errstate(over="ignore", invalid="ignore")
def contact_matrix(tau, tau_prime, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """Continuous (N+1) x N matrix whose two maximal minors vanish at solutions.

    Top block: (gdot g'^T - g g'dot^T) * M with last column gdot/lam; bottom
    row: sum(eta) * [g', 1].  The contact-phase kernels are evaluated at
    -tau_prime (the contact symmetry point lies after the impact).  Entries
    are entire functions of the times, so zero contours can be traced without
    pole gaps.  The times may be arrays; their broadcast shape leads the
    result, which then has shape (..., N+1, N).  The kernels come from the
    pair's cached constants (``SpectrumPair.kernels``), which raise
    ZeroModeError for a zero free eigenvalue.  The times go through ``_real_array``;
    entries beyond the float range are inf or nan.
    """
    tau = _real_array(tau, "tau", InvalidParameterError)
    tau_prime = _real_array(tau_prime, "tau_prime", InvalidParameterError)
    free, contact = spectra.kernels
    return _assemble_contact(*_mode_kernels(tau, *free), *_mode_kernels(-tau_prime, *contact),
                             spectra.lam, M, eta_vec)


def _assemble_contact(g, gd, gp, gpd, lam, M, eta_vec) -> np.ndarray:
    """``contact_matrix`` from the free kernels (..., N) and the contact kernels (..., N-1)."""
    n = lam.size
    eta_sum = np.add.reduce(eta_vec)
    out = np.empty(np.broadcast(g[..., 0], gp[..., 0]).shape + (n + 1, n))
    out[..., :n, : n - 1] = (
        gd[..., :, None] * gp[..., None, :] - g[..., :, None] * gpd[..., None, :]
    ) * M
    out[..., :n, n - 1] = gd / lam
    out[..., n, : n - 1] = eta_sum * gp
    out[..., n, n - 1] = eta_sum
    return out


def _norms(a: np.ndarray, axis: int) -> np.ndarray:
    """Euclidean norms of ``a`` along ``axis``, kept as a length-1 axis.

    Where squares overflow (a stiff hyperbolic kernel), it is the largest
    magnitude times the norm of the entries divided by it; elsewhere it is
    the plain norm.
    """
    with np.errstate(over="ignore"):
        # np.linalg.norm's own sum of squares, without its per-call dispatch
        norms = np.sqrt(np.add.reduce(a * a, axis=axis, keepdims=True))
    huge = ~np.isfinite(norms)
    if huge.any():
        peak = np.where(huge, np.abs(a).max(axis=axis, keepdims=True), 1.0)
        norms = np.where(huge, peak * np.linalg.norm(a / peak, axis=axis, keepdims=True), norms)
    return norms


def _scaled_free_kernels(tau, spectra: SpectrumPair):
    """Free-phase kernels (g, gdot) at tau, each mode scaled by an exact power of two, and e.

    Mode i is multiplied by 2**-e_i, where e_i is the ``np.frexp`` exponent of
    max(|g_i|, |gdot_i|), so both are below 1 in magnitude (and gdot_i / lam_i
    below 1 / |lam_i|) and a stiff hyperbolic kernel does not overflow the
    products that form its contact row.  The factor scales the whole row
    i < N of the contact matrix; it is exact, so the row divided by its norm
    keeps its bits wherever neither row overflows or underflows, whichever
    power of two is taken.  The exponents e come last, for callers that undo
    the scaling.
    """
    g, gd = _mode_kernels(tau, *spectra.kernels[0])
    _, e = np.frexp(np.maximum(np.abs(g), np.abs(gd)))
    return np.ldexp(g, -e), np.ldexp(gd, -e), e


def _unit_contact(o_n, o_prime, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """``contact_matrix`` at impact phases o = (o_n, o_prime), with unit rows.

    The free rows come from ``_scaled_free_kernels``; each row is then
    divided by its ``_norms`` entry, floored at 1e-300, so each maximal minor
    is O(1); a row norm does not depend on which row a minor drops.  A row
    whose squares would overflow still becomes a unit row, not a row of
    zeros.  ``impact_residual``, the scan's corners and ``ContourField``'s
    grids all evaluate their points here.
    """
    tau, tau_prime = spectra.from_phase(o_n, o_prime)
    g, gd, _ = _scaled_free_kernels(tau, spectra)
    gp, gpd = _mode_kernels(-tau_prime, *spectra.kernels[1])
    bc = _assemble_contact(g, gd, gp, gpd, spectra.lam, M, eta_vec)
    bc /= np.maximum(_norms(bc, -1), 1e-300)
    return bc


def _minor_dets(bc: np.ndarray) -> np.ndarray:
    """The two maximal minors of (..., N+1, N) contact matrices, on a last axis of length 2.

    det_a keeps every row but the top-mode row N-1, det_b every row but the
    amplitude-sum row N; one row gather and one ``det`` call give both.
    ``impact_residual`` takes them of unit-row matrices (``_unit_contact``),
    and ``_minor_grids`` of the constant matrices of its expansion.
    """
    return np.linalg.det(bc[..., _minor_rows(bc.shape[-1]), :])


@cache
def _minor_rows(n: int) -> np.ndarray:
    """(2, N) row indices of ``_minor_dets``' two minors, built once per N and read-only."""
    rows = np.array([[*range(n - 1), n], [*range(n)]])
    rows.flags.writeable = False
    return rows


def _subsets(k: int) -> np.ndarray:
    """(2**k, k) mask whose row m marks the subset of {0..k-1} with bit mask m."""
    return (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1 == 1


def _minor_grids(o_n_axis, o_p_axis, spectra: SpectrumPair):
    """Raw (det_a, det_b) of the contact matrix on the grid o_n_axis x o_p_axis.

    A determinant is multilinear in its columns and in its rows (Horn &
    Johnson, *Matrix Analysis*, 2nd ed., sec. 0.3).  Column j < N-1 of the
    contact matrix is gp_j u_j - gpd_j v_j, with u_j = [gdot * M[:, j];
    sum(eta)] and v_j = [g * M[:, j]; 0], so each minor is the sum over the
    subsets S of {0..N-2} of A_S(tau) B_S(tau'): A_S is the minor with
    column u_j for j in S and v_j otherwise, and B_S is the product of gp_j
    over S and of -gpd_j elsewhere.  Row i < N of A_S's matrix is gdot_i
    times its u and last-column entries plus g_i times its v entries, so
    A_S is in turn the sum over the subsets T of the free rows of
    F_T(tau) C[T, S]: F_T is the product of g_i over T and of gdot_i
    elsewhere, and C[T, S] is a minor of constants, zero unless
    |T| + |S| = N - 1.  A scan thus takes C(2N-1, N-1) small determinants,
    and each raw grid is F @ C @ B^T.

    Exact powers of two keep the products in range: the free rows are
    scaled by ``_scaled_free_kernels``, and at each tau' the contact kernels
    by one 2**-f, which scales columns 0..N-2.  Each raw minor is thus its
    unit-row minor (``_unit_contact``) times positive row norms and powers
    of two, and has its sign wherever neither underflows nor overflows; the
    grids are returned undivided.
    """
    n = spectra.n
    M = spectra.M
    tau, tau_prime = spectra.from_phase(o_n_axis, o_p_axis)
    g, gd, _ = _scaled_free_kernels(tau, spectra)                # (n_tau, N)
    gp, gpd = _mode_kernels(-tau_prime, *spectra.kernels[1])     # (n_tau', N-1)
    # 2**f per tau' takes the contact kernels below 1 in magnitude
    _, f = np.frexp(np.maximum(np.abs(gp), np.abs(gpd)).max(axis=-1))
    gp, gpd = np.ldexp(gp, -f[:, None]), np.ldexp(gpd, -f[:, None])
    rows, cols = _subsets(n), _subsets(n - 1)                   # T and S
    t, s = np.nonzero(rows.sum(axis=1)[:, None] + cols.sum(axis=1) == n - 1)
    # C[:, T, S]: the minors of the contact matrix whose kernels are g = [i in T],
    # gd = [i not in T], gp = [j in S] and gpd = -[j not in S]; zero unless |T| + |S| = N - 1
    C = np.zeros((2, rows.shape[0], cols.shape[0]))
    C[:, t, s] = _minor_dets(_assemble_contact(rows[t] * 1.0, ~rows[t] * 1.0, cols[s] * 1.0,
                                               cols[s] - 1.0, spectra.lam, M, spectra.eta)).T
    F = np.where(cols, g[:, None, :-1], gd[:, None, :-1]).prod(axis=-1)   # rows 0..N-2
    B = np.where(cols, gp[:, None], -gpd[:, None]).prod(axis=-1)
    det_a = F @ (C[0, : len(cols)] @ B.T)   # det_a drops row N-1: the subsets T without it
    det_b = np.hstack([F * gd[:, -1:], F * g[:, -1:]]) @ (C[1] @ B.T)
    return det_a, det_b


def impact_residual(o, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """Two normalized determinants at impact phases o = (o_N, o'_{N-1}).

    The first drops the top-mode row, the second drops the amplitude-sum row;
    both vanish simultaneously exactly at impact-time solutions.  Spectra
    whose top contact eigenvalue is not positive (``existence_gate``) have no
    solution and raise NoExistenceError.  Each point costs two determinants,
    so refinement's scattered points come here, not to ``_minor_grids``.
    o goes through ``_real_array`` and needs a leading axis of length 2.
    """
    o = _real_array(o, "o", InvalidParameterError)
    if not o.ndim or len(o) != 2:
        raise InvalidParameterError(f"o must have a leading axis of length 2, got shape {o.shape}")
    if not existence_gate(spectra.lam_prime):
        raise NoExistenceError(
            f"largest contact eigenvalue {spectra.lam_prime[-1]:.6g} is not positive"
        )
    dets = _minor_dets(_unit_contact(o[0], o[1], spectra, M, eta_vec))
    return dets.transpose(dets.ndim - 1, *range(dets.ndim - 1))   # the minor axis first


# ----------------------------------------------------------------- contour scan

# Most points a ``GridSpec`` grid may hold; the scan's arrays grow with it.
GRID_MAX_POINTS = 10 ** 6


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan window in impact-phase coordinates.

    Each axis steps by ``step`` from its minimum (from ``step`` if that is 0)
    to within half a step of its maximum, so it can end up to half a step
    below it.  Seeds are crossings inside this grid; Newton may take one to a
    root outside the window.  Impact phases are positive, so a negative
    ``o_n_min`` or ``o_p_min`` raises InvalidParameterError, as does a grid of
    more than GRID_MAX_POINTS points, before any axis is built.
    """

    o_n_max: float = 4 * np.pi
    o_p_max: float = 2 * np.pi
    step: float = 0.05
    o_n_min: float = 0.0
    o_p_min: float = 0.0

    def axes(self):
        _check_positive(step=self.step)
        bounds = (self.o_n_min, self.o_n_max, self.o_p_min, self.o_p_max)
        if not all(_is_real(bound) and math.isfinite(bound) for bound in bounds):
            raise InvalidParameterError(f"contour grid bounds must be finite numbers, got {bounds!r}")
        for name in ("o_n_min", "o_p_min"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        ends = [(lo if lo > 0 else self.step, hi + 0.5 * self.step)
                for lo, hi in ((self.o_n_min, self.o_n_max), (self.o_p_min, self.o_p_max))]
        # np.arange's own length, ceil((stop - start) / step), as a float that cannot overflow
        sizes = np.ceil([(stop - start) / self.step for start, stop in ends])
        if (sizes < 2).any():
            raise InvalidParameterError("contour grid must contain at least 2x2 points")
        if sizes.prod() > GRID_MAX_POINTS:
            raise InvalidParameterError(
                f"contour grid must hold at most {GRID_MAX_POINTS} points, got {sizes.prod():.7g}")
        return tuple(np.arange(start, stop, self.step) for start, stop in ends)


def _sign_change_cells(Z):
    """Mask of the grid cells whose four finite corner values of Z do not share one sign.

    A cell with a non-finite corner is never a sign change: NaN compares
    unequal to every sign, and an overflowed corner locates no crossing.
    """
    s = np.sign(Z)
    f = np.isfinite(Z)
    finite = f[:-1, :-1] & f[1:, :-1] & f[:-1, 1:] & f[1:, 1:]
    return finite & (
        (s[:-1, :-1] != s[1:, :-1])
        | (s[:-1, :-1] != s[:-1, 1:])
        | (s[1:, 1:] != s[1:, :-1])
        | (s[1:, 1:] != s[:-1, 1:])
    )


def _cell_corners(Z, i, j):
    """(4, k) values of Z at the corners (i, j), (i+1, j), (i, j+1), (i+1, j+1) of k cells."""
    return np.array([Z[i, j], Z[i + 1, j], Z[i, j + 1], Z[i + 1, j + 1]])


def _segments(xa, ya, i, j, corners):
    """Marching-squares zero segments in the cells (i, j), in their order.

    ``corners`` are the cells' corner values as ``_cell_corners`` orders
    them.  Returns ``(segs, kept)``: ``segs[c, k]`` is the k-th segment (two
    points) of the c-th cell and ``kept[c, k]`` says whether it exists.  An
    edge is crossed where its two corners have strictly opposite signs (so an
    exactly-zero corner gives no crossing), at the linearly interpolated
    point; crossings are taken bottom, top, left, right.  Two crossings make
    one segment; four (a saddle cell) make two, paired by the sign of the
    centre value.
    """
    x0, x1, y0, y1 = xa[i], xa[i + 1], ya[j], ya[j + 1]
    v00, v10, v01, v11 = corners
    s00, s10, s01, s11 = np.sign(corners)
    hit = np.stack([s00 * s10 < 0, s01 * s11 < 0, s00 * s01 < 0, s10 * s11 < 0], axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        xs = [x0 + (x1 - x0) * v00 / (v00 - v10), x0 + (x1 - x0) * v01 / (v01 - v11), x0, x1]
        ys = [y0, y1, y0 + (y1 - y0) * v00 / (v00 - v01), y0 + (y1 - y0) * v10 / (v10 - v11)]
    pts = np.stack([np.stack(xs, axis=1), np.stack(ys, axis=1)], axis=-1)
    count = hit.sum(axis=1)
    centre = 0.25 * (v00 + v10 + v01 + v11)
    ends = np.where(((v00 > 0) == (centre > 0))[:, None, None], [[0, 2], [1, 3]], [[0, 3], [1, 2]])
    ends[count == 2, 0] = np.argsort(~hit[count == 2], axis=1, kind="stable")[:, :2]
    segs = pts[np.arange(i.size)[:, None, None], ends]
    return segs, np.stack([(count == 2) | (count == 4), count == 4], axis=1)


def _chain_segments(segments, digits=9):
    """Join shared-endpoint segments (k, 2, 2) into polylines (greedy adjacency walk)."""
    points = segments.tolist()
    keys = [[tuple(p) for p in ends] for ends in np.round(segments, digits).tolist()]
    adjacency: dict = {}
    for idx, ends in enumerate(keys):
        for k in ends:
            adjacency.setdefault(k, []).append(idx)
    used = [False] * len(points)
    polylines = []
    for start, (a, b) in enumerate(points):
        if used[start]:
            continue
        used[start] = True
        tail, head = [], []
        for tip, grown in ((keys[start][1], tail), (keys[start][0], head)):
            while (nxt := next((i for i in adjacency[tip] if not used[i]), None)) is not None:
                used[nxt] = True
                far = int(keys[nxt][0] == tip)   # the end of segment nxt away from the tip
                tip = keys[nxt][far]
                grown.append(points[nxt][far])
        polylines.append(np.array(head[::-1] + [a, b] + tail))
    return polylines


def _crossing_seeds(xa, ya, i, j, corners_a, corners_b):
    """Points where a zero segment of det_a meets one of det_b in the same cell (i, j).

    ``corners_a`` and ``corners_b`` are the cells' corner values of the two
    minors (see ``_segments``).  Seeds come in the order of the cells, then
    by segment of det_a, then of det_b.  Segments that are parallel or do
    not reach each other give none.  Rounding in p + t r can put a crossing
    just outside its cell (o_N = 0.0 beside 1e-170), so each is clipped into it.
    """
    (a, kept_a), (b, kept_b) = (_segments(xa, ya, i, j, v) for v in (corners_a, corners_b))
    # each a-segment p + t r of a cell against each b-segment q + u w of the same cell
    p, r = a[:, :, None, 0], a[:, :, None, 1] - a[:, :, None, 0]
    q, w = b[:, None, :, 0], b[:, None, :, 1] - b[:, None, :, 0]
    cross = lambda v1, v2: v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = cross(r, w)
        t, u = cross(q - p, w) / d, cross(q - p, r) / d
        crossings = p + t[..., None] * r
    meet = kept_a[:, :, None] & kept_b[:, None, :] & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    cell = np.nonzero(meet)[0]
    return np.clip(crossings[meet], np.stack([xa[i], ya[j]], axis=-1)[cell],
                   np.stack([xa[i + 1], ya[j + 1]], axis=-1)[cell])


@dataclass(eq=False)
class ContourField:
    """Gridded determinant values with crossing seeds.

    ``seeds`` are where a marching-squares zero segment of ``det_a`` crosses
    one of ``det_b`` in the same grid cell.  The grids ``det_a`` (top-mode
    row dropped) and ``det_b`` (amplitude-sum row dropped) hold
    ``impact_residual``'s two minors at every grid point, from the same
    unit-row evaluator (``_unit_contact`` and ``_minor_dets``) on the whole
    grid of ``spectra``, so the scan's corner values are theirs bit for bit.
    They, and the zero curves ``curves_a``/``curves_b`` that chain the same
    segments, serve export only, so they are built on first access.
    """

    o_n_axis: np.ndarray
    o_p_axis: np.ndarray
    seeds: np.ndarray
    spectra: SpectrumPair

    @cached_property
    def _unit_grids(self):
        """(det_a, det_b) on the whole grid, from one ``_unit_contact`` call."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            dets = _minor_dets(_unit_contact(self.o_n_axis[:, None], self.o_p_axis,
                                             self.spectra, self.spectra.M, self.spectra.eta))
        return dets[..., 0], dets[..., 1]

    @property
    def det_a(self) -> np.ndarray:
        """Unit-row minor without the top-mode row, (n_o_n, n_o_p)."""
        return self._unit_grids[0]

    @property
    def det_b(self) -> np.ndarray:
        """Unit-row minor without the amplitude-sum row, (n_o_n, n_o_p)."""
        return self._unit_grids[1]

    @cached_property
    def curves_a(self) -> list:
        """Zero polylines of ``det_a``."""
        return self._curves(self.det_a)

    @cached_property
    def curves_b(self) -> list:
        """Zero polylines of ``det_b``."""
        return self._curves(self.det_b)

    def _curves(self, Z) -> list:
        i, j = np.nonzero(_sign_change_cells(Z))
        segs, kept = _segments(self.o_n_axis, self.o_p_axis, i, j, _cell_corners(Z, i, j))
        return _chain_segments(segs[kept])

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["o_n", "o_prime", "det_a", "det_b", "phi"])
            for i, on in enumerate(self.o_n_axis):
                phi_row = self.det_a[i] * self.det_b[i]
                for j, op in enumerate(self.o_p_axis):
                    writer.writerow(
                        [f"{on:.10g}", f"{op:.10g}", f"{self.det_a[i, j]:.12e}",
                         f"{self.det_b[i, j]:.12e}", f"{phi_row[j]:.12e}"]
                    )

    def to_svg(self, path, asymptotes=None):
        canvas = SvgCanvas(
            (self.o_n_axis[0], self.o_n_axis[-1]),
            (self.o_p_axis[0], self.o_p_axis[-1]),
            title="impact-equation zero contours",
        )
        for poly in self.curves_a:
            canvas.polyline(poly[:, 0], poly[:, 1], color="#2f5fbf")
        for poly in self.curves_b:
            canvas.polyline(poly[:, 0], poly[:, 1], color="#c03030")
        for o_n, o_p in self.seeds:
            canvas.circle(o_n, o_p, color="#caa002")
        if asymptotes is not None:
            for o_n, o_p in np.atleast_2d(np.asarray(asymptotes, float)):
                canvas.cross(o_n, o_p)
        canvas.write(path)


def scan_contour(spectra: SpectrumPair, grid: GridSpec | None = None) -> ContourField:
    """Evaluate both determinants on a grid and seed at their zero-curve crossings.

    ``_minor_grids`` builds the raw ``det_a`` and ``det_b`` on the whole
    grid from one kernel evaluation per axis.  They are the minors before
    division by the row norms, which are positive, so the cells come from
    their signs.  Only the corners of the cells where both minors change
    sign take values, from ``_unit_contact`` and ``_minor_dets`` as in
    ``impact_residual``, and ``_crossing_seeds`` reads nothing else.  Each
    intersection of a cell's zero segments of ``det_a`` and ``det_b`` is a
    seed for ``refine_root``; a cell with a non-finite corner is dropped,
    and a corner that is exactly 0 gives no crossing.  Seeds lie inside the
    grid (see ``GridSpec``), whose last point can be up to half a step below
    ``o_n_max``/``o_p_max``.  Newton may take a seed to a root outside the
    window, and which out-of-window roots appear depends on the step.
    Spectra that fail ``existence_gate`` have no solution and no seeds.
    ``grid`` None is the default ``GridSpec()``; only its ``axes()`` is read.
    """
    _require_instance(spectra, SpectrumPair, "spectra")
    grid = GridSpec() if grid is None else grid
    if not callable(getattr(grid, "axes", None)):   # a GridSpec, or any grid with its axes()
        raise InvalidParameterError(f"grid must be a GridSpec, got {type(grid).__name__}")
    o_n_axis, o_p_axis = grid.axes()
    # Stiff hyperbolic modes can overflow on the grid, and a zero top contact eigenvalue
    # makes every contact time infinite; _sign_change_cells skips non-finite corners.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        det_a, det_b = _minor_grids(o_n_axis, o_p_axis, spectra)
        cells = (_sign_change_cells(det_a) & _sign_change_cells(det_b)
                 & existence_gate(spectra.lam_prime))
        i, j = np.nonzero(cells)
        # neighbouring cells share corners: each grid point is evaluated once
        corner = np.ravel_multi_index(([i, i + 1, i, i + 1], [j, j, j + 1, j + 1]), det_a.shape)
        points, back = np.unique(corner, return_inverse=True)
        p, q = np.unravel_index(points, det_a.shape)
        values = _minor_dets(_unit_contact(o_n_axis[p], o_p_axis[q], spectra, spectra.M,
                                           spectra.eta))
        corners = values[back.reshape(4, -1)]   # (4, cells, 2)
    finite = np.isfinite(corners).all(axis=(0, 2))
    return ContourField(
        o_n_axis=o_n_axis,
        o_p_axis=o_p_axis,
        seeds=_crossing_seeds(o_n_axis, o_p_axis, i[finite], j[finite],
                              corners[:, finite, 0], corners[:, finite, 1]),
        spectra=spectra,
    )


# ------------------------------------------------------------------ refinement

@dataclass(frozen=True)
class ImpactTimes:
    """Converged impact times with their phase coordinates and residuals."""

    tau: float
    tau_prime: float
    o_n: float
    o_prime: float
    residual: tuple
    iterations: int = 0

    @property
    def mu(self) -> float:
        """Time ratio tau / tau'."""
        return self.tau / self.tau_prime


def refine_root(seed, spectra: SpectrumPair, M, eta_vec, *, max_iter=100) -> ImpactTimes:
    """Damped Newton refinement of one contour seed: ``refine_roots`` on that seed alone.

    Returns its ImpactTimes, or raises its ConvergenceError.  A seed that is
    not two finite positive phases raises InvalidParameterError.
    """
    o = _checked_phases(seed, 1, "seed must be two finite positive phases")
    outcome, = _refine(o[None], [seed], spectra, M, eta_vec, max_iter)
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome


def _checked_phases(value, ndim, message):
    """``value`` as a fresh array of ``ndim`` axes whose rows are finite positive phase pairs."""
    o = _real_array(value, "seed", InvalidParameterError)
    if not (o.ndim == ndim and o.shape[-1] == 2 and np.isfinite(o).all() and (o > 0).all()):
        raise InvalidParameterError(f"{message}, got {value!r}")
    return o


# probe offsets of the forward-difference Jacobian, and the line search's step scalings
_FD_PROBES = np.array([[0.0, REFINE_FD_STEP, 0.0], [0.0, 0.0, REFINE_FD_STEP]])
_SCALINGS = np.ldexp(1.0, -np.arange(40))[:, None]
_SCALINGS.flags.writeable = _FD_PROBES.flags.writeable = False


def _newton_terms(pts, spectra, M, eta_vec):
    """F (k, 2) and the forward-difference J (k, 2, 2) at the k rows of pts, from one call."""
    R = impact_residual(pts.T[:, :, None] + _FD_PROBES[:, None, :], spectra, M, eta_vec)
    return R[:, :, 0].T, ((R[:, :, 1:] - R[:, :, :1]) / REFINE_FD_STEP).transpose(1, 0, 2)


def _newton_steps(J, F):
    """Newton steps -J^-1 F of a stack, and the mask of the singular J (whose steps are NaN).

    One batched solve serves the stack; only when it meets a singular J is
    each J solved on its own, so that one singular seed stops no other.
    """
    try:
        return np.linalg.solve(J, -F[:, :, None])[:, :, 0], np.zeros(len(F), bool)
    except np.linalg.LinAlgError:
        step = np.full_like(F, np.nan)
        singular = np.zeros(len(F), bool)
        for r in range(len(F)):
            try:
                step[r] = np.linalg.solve(J[r], -F[r])
            except np.linalg.LinAlgError:
                singular[r] = True
        return step, singular


def _phantom_corners(o, spectra: SpectrumPair):
    """Distance of each row of o (k, 2) to its nearest phantom root (0, o'_c), and that o'_c.

    Only a pair whose free kernels share one parity has phantoms; on any
    other the distances are inf.  A phantom's o'_c is a zero of a contact
    kernel's velocity gpd_j when every free kernel is even, and of its
    position gp_j when every free kernel is odd (see ``refine_roots``).
    The factor that vanishes is sin-like (zeros at omega'_j tau' = k pi)
    for the velocity of an even kernel and the position of an odd one, and
    cos-like (zeros at pi/2 + k pi) otherwise; for a hyperbolic kernel a
    sinh-like factor vanishes at tau' = 0 only and a cosh-like one never,
    and a zero-frequency kernel is left out.  The gap to the nearest zero in
    each mode's own phase is the modulo distance of ``phase_rate``'s pole
    check, converted to o' = omega'_top tau'.
    """
    free_even = spectra.kernels[0][2]
    if free_even.any() and not free_even.all():
        return np.full(len(o), np.inf), np.full(len(o), np.nan)
    om, osc, even, _ = spectra.kernels[1]
    sin_like = even == free_even[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        per_o = om / spectra.omega_prime_top   # each contact mode's phase per unit of o'
        phase = o[:, 1:] * per_o
        # signed phase from the nearest zero, inf where there is none
        off = np.where(osc, (phase - np.where(sin_like, 0.0, np.pi / 2) + np.pi / 2) % np.pi
                       - np.pi / 2, np.where(sin_like, phase, np.inf))
        gap = np.where(om > 0, np.abs(off) / per_o, np.inf)
        j = gap.argmin(axis=1)
        rows = np.arange(len(o))
        return np.hypot(o[:, 0], gap[rows, j]), o[:, 1] - off[rows, j] / per_o[j]


def refine_roots(seeds, spectra: SpectrumPair, M, eta_vec, *, max_iter=100) -> list:
    """Damped Newton refinement of contour seeds in impact-phase coordinates, in lockstep.

    ``seeds`` is a (k, 2) array of finite positive phases; the result lists,
    per seed and in order, its ImpactTimes or the ConvergenceError that ended
    it: a phantom corner, a singular Jacobian, a stall, or ``max_iter``
    iterations without convergence.  The residual is the pair of normalized
    determinants; the Jacobian is forward finite differences with step
    ``REFINE_FD_STEP``, taken from the same residual evaluation as F.  The
    line search takes the first of the step scalings 1, 1/2, ..., 2**-39
    that stays in the positive quadrant and decreases the residual norm
    max|F| sufficiently (Dennis & Schnabel 1996, section 6.3): to at most
    (1 - ``REFINE_MIN_DECREASE``) times its current value, or, once that value
    is below ``REFINE_TOL_RESIDUAL``, to at most the value itself.  A seed
    with no such scaling stalls, and its error names the iteration.
    Convergence requires both residuals below ``REFINE_TOL_RESIDUAL`` and the
    last full Newton step below ``REFINE_TOL_STEP``.

    The residual has phantom roots (0, o'_c), which are no impact (tau = 0).
    On a pair whose free kernels are all even (sigma = -1) every free
    velocity gdot_i vanishes at tau = 0, and so does the top block's last
    column gdot / lam, the only column of det_b that is not
    -g_i gpd_j M_ij there: det_b is 0 on the whole line o_N = 0, and
    det_a, which keeps the amplitude-sum row's 1, is a multiple of the
    product of the contact velocities gpd_j(-tau'), so each velocity zero
    o'_c of a contact kernel is a phantom.  det_b's first-order term in tau
    carries the same product, so the Jacobian's det_b row vanishes there:
    the root is singular and Newton creeps into it linearly (for N = 2 the
    free rows vanish with it and the unit-row residual has no limit, so
    seeds stall near it instead).  On a pair whose free kernels are all
    odd every g_i vanishes at tau = 0 instead, contact column j of the top
    block is gp_j times gdot_i M_ij and of the amplitude-sum row gp_j times
    sum(eta), and both minors vanish at each position zero of a contact
    kernel; there the root is regular, and ``build_solution`` certifies it.
    At the top of every iteration, from the seed itself on, a seed whose
    iterate lies within ``CORNER_RADIUS`` of a phantom
    (``_phantom_corners``) ends with an error that names the corner, the
    iteration, the point and the residual; this is tested before
    convergence, so no root within the radius is returned.  An iterate's
    distance to (0, o'_c) is at least its o_N, so the test runs only in the
    iterations where some active iterate has o_N below ``CORNER_RADIUS``.

    Every iteration serves all seeds still active: one batched solve of their
    Jacobians, one ``impact_residual`` call on each seed's first candidate
    in the quadrant, and one more on all remaining candidates of the seeds
    whose first one failed.  The first candidate is the full step o + step
    whenever every active seed's full step stays in the quadrant; the table
    of all 40 scaled steps is built only when one leaves it or fails.  A run
    thus makes at most 1 + 2 * (largest iteration count) residual calls,
    and each seed's outcome is bit for bit the one it gets when refined
    alone.
    """
    o = _checked_phases(seeds, 2, "seeds must be a (k, 2) array of finite positive phases")
    return _refine(o, seeds, spectra, M, eta_vec, max_iter)


def _scaled_steps(o, step):
    """Each row's line-search candidates o + 2**-j step, j = 0..39, and which lie in the quadrant."""
    cands = o[:, None] + _SCALINGS * step[:, None]
    return cands, cands.min(axis=2) > 0


def _refine(o, seeds, spectra, M, eta_vec, max_iter) -> list:
    """``refine_roots`` on the checked (k, 2) phases o of ``seeds``, which its messages name."""
    _require_instance(spectra, SpectrumPair, "spectra")
    _real_number(max_iter, "max_iter", InvalidParameterError, minimum=1)
    outcomes = [None] * len(o)
    live = np.arange(len(o))   # the seed index of each active row
    if not live.size:
        return outcomes
    F, J = _newton_terms(o, spectra, M, eta_vec)
    for iteration in range(1, max_iter + 1):
        step, singular = _newton_steps(J, F)
        bound = np.abs(F).max(axis=1)
        converged = (bound < REFINE_TOL_RESIDUAL) & (np.abs(step).max(axis=1) < REFINE_TOL_STEP)
        near = np.zeros(len(o), bool)
        if o[:, 0].min() < CORNER_RADIUS:   # hypot(o_N, .) >= o_N: no row is near otherwise
            gap, corner = _phantom_corners(o, spectra)
            near = gap < CORNER_RADIUS
        stop = near | singular | converged
        if stop.any():
            for r in np.flatnonzero(stop):
                if near[r]:
                    outcomes[live[r]] = ConvergenceError(
                        f"refinement reached the phantom corner (0, o'_c = {corner[r]:.6g})"
                        f" in iteration {iteration} at o = {o[r].tolist()}"
                        f" (residual {bound[r]:.2e})"
                    )
                elif singular[r]:
                    outcomes[live[r]] = ConvergenceError("singular Jacobian during refinement")
                else:
                    tau, tau_prime = spectra.from_phase(o[r, 0], o[r, 1])
                    outcomes[live[r]] = ImpactTimes(
                        tau=tau,
                        tau_prime=tau_prime,
                        o_n=float(o[r, 0]),
                        o_prime=float(o[r, 1]),
                        residual=(float(F[r, 0]), float(F[r, 1])),
                        iterations=iteration,
                    )
            keep = ~stop
            live, o, F, J, step, bound = (a[keep] for a in (live, o, F, J, step, bound))
            if not live.size:
                return outcomes
        # sufficient decrease: above the tolerance a candidate must cut max|F| by a fraction
        limit = np.where(bound >= REFINE_TOL_RESIDUAL, (1 - REFINE_MIN_DECREASE) * bound, bound)
        # each seed's candidates o + 2**-j step, j = 0..39; those outside the quadrant do not
        # count.  The first is the full step (2**0 step is step), and while every full step
        # stays in the quadrant no table is built unless one of them fails
        pts, cands = o + step, None
        first, lead = np.zeros(live.size, int), np.arange(live.size)
        if not (pts > 0).all():
            cands, inside = _scaled_steps(o, step)
            first = inside.argmax(axis=1)
            lead = np.flatnonzero(inside[lead, first])   # seeds with a candidate
            pts = cands[lead, first[lead]]
        ok = np.zeros(live.size, bool)
        if lead.size:   # first call: each seed's first candidate
            F_new, J_new = _newton_terms(pts, spectra, M, eta_vec)
            take = np.abs(F_new).max(axis=1) <= limit[lead]
            if take.all() and lead.size == live.size:   # every seed takes its first candidate
                o, F, J = pts, F_new, J_new
                continue
            if cands is None:   # from o before any seed moves
                cands, inside = _scaled_steps(o, step)
            ok[lead[take]] = True
            o[ok], F[ok], J[ok] = pts[take], F_new[take], J_new[take]
        # second call: every later candidate in the quadrant of the seeds still without a step
        rows, cols = np.nonzero(inside & ~ok[:, None] & (_SCALINGS.T < _SCALINGS[first]))
        if rows.size:
            F_new, J_new = _newton_terms(cands[rows, cols], spectra, M, eta_vec)
            good = np.abs(F_new).max(axis=1) <= limit[rows]
            r, i = np.unique(rows[good], return_index=True)   # first good one, in scaling order
            ok[r] = True
            o[r], F[r], J[r] = cands[r, cols[good][i]], F_new[good][i], J_new[good][i]
        for r in np.flatnonzero(~ok):
            outcomes[live[r]] = ConvergenceError(
                f"refinement stalled in iteration {iteration} at o = {o[r].tolist()}"
                f" (residual {bound[r]:.2e})"
            )
        live, o, F, J = live[ok], o[ok], F[ok], J[ok]
        if not live.size:
            return outcomes
    for row, r in enumerate(live.tolist()):
        outcomes[r] = ConvergenceError(
            f"no convergence after {max_iter} iterations from seed {seeds[r]!r}"
            f" (ended at o = {o[row].tolist()}, residual {np.abs(F[row]).max():.2e})"
        )
    return outcomes


# ---------------------------------------------------- matching matrix and weights

def _certified_matrices(spectral: SpectralData, tau, tau_prime):
    """Column-scaled (k, 2N+1, 2N) matching matrices, their rank gaps, null vectors and scales.

    One matrix per pair of impact times in the (k,) arrays ``tau`` and
    ``tau_prime``.  Rows stack position matching, velocity matching, and the
    contact-coordinate acceleration; columns are the free weights, contact
    weights, and the static force.  One SVD call on the stack of
    column-normalized matrices (column scaling is rank-preserving and removes
    the arbitrary hyperbolic magnitude spread) gives each matrix's rank gap,
    min/max singular value, which drops below ~1e-10 at genuine solutions,
    and its last right singular vector; divided by the column norms, that
    vector spans A's kernel at a root.  Each matrix's numbers are bit for bit
    those it gets alone.

    Free-mode column j is built scaled by 2**-e_j, the power of two that
    ``_scaled_free_kernels`` takes, so a stiff hyperbolic kernel does not
    overflow it; the null vector's free entries come out times 2**e_j, and
    the (k, N) exponents e are returned to undo both.  Exact powers of two
    commute with the column norms and with A v, so the rank gaps, and A v,
    are those of the unscaled matrices bit for bit wherever those are finite.
    """
    n = spectral.n
    X = spectral.mode_matrix
    Xp = spectral.mode_matrix_prime
    g, gd, e = _scaled_free_kernels(tau, spectral)
    gp, gpd = _mode_kernels(-tau_prime, *spectral.kernels[1])
    A = np.zeros((len(tau), 2 * n + 1, 2 * n))
    A[:, :n, :n] = X * g[:, None, :]
    A[:, :n, n : 2 * n - 1] = -Xp * gp[:, None, :]
    A[:, :n, -1] = -spectral.contact_compliance
    A[:, n : 2 * n, :n] = X * gd[:, None, :]
    A[:, n : 2 * n, n : 2 * n - 1] = -Xp * gpd[:, None, :]
    A[:, 2 * n, :n] = X[-1, :] * (-spectral.lam * g)
    scale = _norms(A, -2)
    _, sv, vt = np.linalg.svd(A / scale, full_matrices=False)
    return A, sv[:, -1] / sv[:, 0], vt[:, -1] / scale[:, 0], e


def assemble_impact_matrix(spectral: SpectralData, tau: float, tau_prime: float):
    """Full (2N+1) x 2N matching matrix A and its rank gap (see ``build_solutions``)."""
    A, gaps, _, e = _certified_matrices(spectral, np.array([tau]), np.array([tau_prime]))
    return np.ldexp(A[0], np.append(e[0], np.zeros(spectral.n, int))), float(gaps[0])


def reduction_gap(spectral: SpectralData, tau: float, tau_prime: float) -> float:
    """Max-abs deviation of the rank-preserving reduction of the matching matrix.

    Left/right multipliers built from the mode matrix and kernels must map A
    onto the block form [[I, M, 1/lam], [0, U, 1/lam], [0, sum(eta) * ones]];
    the map is an identity in exact arithmetic at any non-pole times, so the
    returned gap measures only rounding.  Exercised as a property test.
    """
    n = spectral.n
    X = spectral.mode_matrix
    lam = spectral.lam
    M, eta_vec = spectral.M, spectral.eta
    A, _ = assemble_impact_matrix(spectral, tau, tau_prime)
    g, gd = _mode_kernels(tau, *spectral.kernels[0])
    gp, _ = _mode_kernels(-tau_prime, *spectral.kernels[1])
    X_inv = np.linalg.inv(X)
    row_n = X[-1, :]
    D1 = X_inv / row_n[:, None]
    D2 = -(g / (gd * row_n))[:, None] * X_inv
    S_left = np.zeros((2 * n + 1, 2 * n + 1))
    S_left[:n, :n] = D1
    S_left[n : 2 * n, :n] = D1
    S_left[n : 2 * n, n : 2 * n] = D2
    S_left[2 * n, :n] = (eta_vec * lam) @ D1
    S_left[2 * n, 2 * n] = 1.0
    S_right = np.diag(np.concatenate([row_n / g, -1.0 / gp, [-1.0 / spectral.norm_const]]))
    U = _u_matrix(tau, tau_prime, spectral, M)
    target = np.zeros((2 * n + 1, 2 * n))
    target[:n, :n] = np.eye(n)
    target[:n, n : 2 * n - 1] = M
    target[:n, -1] = 1.0 / lam
    target[n : 2 * n, n : 2 * n - 1] = U
    target[n : 2 * n, -1] = 1.0 / lam
    target[2 * n, n:] = np.sum(eta_vec)
    return float(np.abs(S_left @ A @ S_right - target).max())


def alt_impact_residual(spectra: SpectrumPair, tau: float, tau_prime: float) -> np.ndarray:
    """Impact equations in bracketed form, valid where the reduced block is invertible.

    Returns [lam_N U_N; sum(eta) ones] inv(U-bar) (1/lam-bar) - [1; sum(eta)],
    a two-vector that vanishes at solutions together with the determinant form.
    """
    U = _u_matrix(tau, tau_prime, spectra, spectra.M)
    u_bar = U[:-1, :]
    rhs = np.linalg.solve(u_bar, 1.0 / spectra.lam[:-1])
    eta_sum = float(np.sum(spectra.eta))
    lhs = np.array([spectra.lam[-1] * U[-1, :] @ rhs, eta_sum * np.sum(rhs)])
    return lhs - np.array([1.0, eta_sum])


@dataclass(frozen=True, eq=False)
class ImpactSolution:
    """A certified root: its times, mode weights and certification numbers.

    As ``build_solutions`` makes it, ``q`` and ``q_prime`` come from the
    matching matrix's null vector and ``rank_gap`` is below RANK_GAP_MAX.
    """

    times: ImpactTimes
    q: np.ndarray
    q_prime: np.ndarray
    spectral: SpectralData
    rank_gap: float
    weight_residual: float

    def to_dict(self) -> dict:
        """The impact times with ``mu``, then the other fields except ``spectral``."""
        return {
            **_as_dict(self.times),
            "mu": self.times.mu,
            **_as_dict(self, skip=("times", "spectral")),
        }


def build_solutions(spectral: SpectralData, times_list) -> list:
    """Certify refined impact times as roots and take their mode weights.

    This is the one place that decides what a root is.  One SVD call on the
    stack of column-scaled matching matrices (``_certified_matrices``) gives
    each root's rank gap and null vector [q; q'; f].  The result lists, per
    entry of ``times_list`` and in order, its ImpactSolution or the
    DegenerateSolutionError that refuses it: times whose rank gap is not
    below RANK_GAP_MAX are no root, and neither are times whose null vector
    has no force component.  At a root the weights are the null vector
    scaled so that f equals the static force, so they satisfy every row of
    the matching system.  ``weight_residual`` is
    max |W [q; q'] - [x0; 0]| over the top-left (2N-1) square block W.
    Each entry's outcome is bit for bit the one it gets alone.  ``spectral``
    that is no SpectralData, ``times_list`` no list, or an entry no
    ImpactTimes raises InvalidParameterError.
    """
    _require_instance(spectral, SpectralData, "spectral")
    _require_instance(times_list, list, "times_list")
    for times in times_list:
        _require_instance(times, ImpactTimes, "times")
    if not times_list:
        return []
    A, gaps, kernels, e = _certified_matrices(
        spectral, np.array([t.tau for t in times_list]), np.array([t.tau_prime for t in times_list])
    )
    n = spectral.n
    root = gaps < RANK_GAP_MAX
    forced = root & (kernels[:, -1] != 0)
    compliance = spectral.contact_compliance
    force = float(spectral.static_offset @ compliance) / float(compliance @ compliance)
    weights = kernels[forced, :-1] * (force / kernels[forced, -1:])
    rhs = np.concatenate([spectral.static_offset, np.zeros(n - 1)])
    block = A[forced, : 2 * n - 1, : 2 * n - 1]
    residuals = np.abs(block @ weights[:, :, None] - rhs[:, None]).max(axis=(1, 2)).tolist()
    weights[:, :n] = np.ldexp(weights[:, :n], -e[forced])
    outcomes = []
    certified = zip(weights, residuals)
    for times, gap, is_root, is_forced in zip(times_list, gaps.tolist(), root, forced):
        if not is_root:
            outcomes.append(DegenerateSolutionError(
                f"matching-matrix rank gap {gap:.2e} is not below {RANK_GAP_MAX:g}: no root"
            ))
        elif not is_forced:
            outcomes.append(DegenerateSolutionError(
                "matching-matrix kernel has no static-force component"
            ))
        else:
            w, residual = next(certified)
            outcomes.append(ImpactSolution(
                times=times,
                q=w[:n],
                q_prime=w[n:],
                spectral=spectral,
                rank_gap=gap,
                weight_residual=residual,
            ))
    return outcomes


def build_solution(spectral: SpectralData, times: ImpactTimes) -> ImpactSolution:
    """Certify one root: ``build_solutions`` on ``times`` alone.

    Returns its ImpactSolution, or raises its DegenerateSolutionError.
    """
    outcome, = build_solutions(spectral, [times])
    if isinstance(outcome, DegenerateSolutionError):
        raise outcome
    return outcome
