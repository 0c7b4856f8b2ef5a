"""Impact-time equations and their numerical machinery.

The search for an energy-conserving contact trajectory reduces to two scalar
equations in the impact times (tau, tau').  This module provides:

* the per-mode time kernels and the frequency-scaled tangent ``phase_rate``,
* the continuous contact matrix whose two maximal-minor determinants vanish
  exactly at solutions,
* a marching-squares contour scan of the two determinant zero sets in impact
  phase coordinates (o_N, o'_{N-1}) and seed extraction at curve crossings
  (det_b on the whole grid, det_a only at the corners of det_b's sign-change
  cells; the full det_a grid is built on first access, for export),
* damped-Newton refinement of seeds,
* assembly of the full (2N+1) x 2N matching matrix with its rank test, and
* the linear solve for the mode weights.

Everything except the weight solve and the matching matrix depends on the
model only through its spectra and symmetry signatures.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    InvalidParameterError,
    NoExistenceError,
    PoleError,
    ZeroModeError,
)
from .model import (
    ZERO_EIGENVALUE_ATOL,
    SpectrumPair,
    _as_dict,
    _check_integer,
    _check_positive,
    _kernel_constants,
)
from .spectral import SpectralData
from .svgout import SvgCanvas

__all__ = [
    "mode_motion",
    "mode_motion_vec",
    "phase_rate",
    "kernel_ratio",
    "existence_gate",
    "contact_matrix",
    "impact_residual",
    "phi",
    "GridSpec",
    "ContourField",
    "scan_contour",
    "ImpactTimes",
    "refine_root",
    "assemble_impact_matrix",
    "reduction_gap",
    "alt_impact_residual",
    "solve_weights",
    "ImpactSolution",
    "build_solution",
]

POLE_ATOL = 1e-9

# Newton refinement: convergence tolerances and forward-difference step.
REFINE_TOL_RESIDUAL = 1e-11
REFINE_TOL_STEP = 1e-12
REFINE_FD_STEP = 1e-6


# --------------------------------------------------------------------------- kernels

def mode_motion(t: float, lam: float, s: int):
    """Position and velocity factors of a unit normal mode at time t.

    ``s = 1`` selects the even kernel (cos for lam > 0, cosh for lam < 0) and
    ``s = 0`` the odd one (sin / sinh).  The returned pair (g, gdot) satisfies
    gddot = -lam * g identically.  lam = 0 is rejected: a free mode with zero
    frequency has no periodic kernel.
    """
    if s not in (0, 1):
        raise InvalidParameterError(f"s must be 0 or 1, got {s!r}")
    if abs(lam) <= ZERO_EIGENVALUE_ATOL:
        raise ZeroModeError("mode_motion is undefined for a zero eigenvalue")
    om = np.sqrt(abs(lam))
    if lam > 0:
        if s == 1:
            return np.cos(om * t), -om * np.sin(om * t)
        return np.sin(om * t), om * np.cos(om * t)
    if s == 1:
        return np.cosh(om * t), om * np.sinh(om * t)
    return np.sinh(om * t), om * np.cosh(om * t)


def mode_motion_vec(t, lam, sigma):
    """Vectorized kernels for a spectrum: t broadcast against lam/sigma.

    sigma uses the signature convention sigma = 1 - 2 s (so sigma = -1 is the
    even kernel).  Returns arrays of shape broadcast(t, lam).
    """
    return _mode_kernels(t, *_kernel_constants(np.asarray(lam, float), np.asarray(sigma)))


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


def phase_rate(tau, lam, sigma):
    """Frequency-scaled kernel tangent w(tau) = lam * g(tau) / gdot(tau).

    Evaluates sigma * tan(om tau)^sigma * om for lam > 0 and
    -tanh(nu tau)^sigma * nu for lam < 0.

    Raises ZeroModeError for a zero eigenvalue, and PoleError when an
    oscillatory mode sits within POLE_ATOL (in phase units) of a tan/cot
    pole.  Errors are raised for the first offending mode.
    """
    lam = np.atleast_1d(np.asarray(lam, float))
    even = np.broadcast_to(np.asarray(sigma), lam.shape) == -1
    scale = np.abs(lam).max() if lam.size else 1.0
    zero = np.abs(lam) <= ZERO_EIGENVALUE_ATOL * max(scale, 1.0)
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
    with np.errstate(divide="ignore", invalid="ignore"):
        tan = np.where(osc, np.tan(o), np.tanh(o))
        return np.where(even, -om / tan, np.where(osc, tan, -tan) * om)


def existence_gate(lam_prime) -> bool:
    """True iff the largest contact eigenvalue is strictly positive."""
    return bool(np.asarray(lam_prime, float)[-1] > 0)


def kernel_ratio(tau: float, tau_prime: float, spectra: SpectrumPair) -> np.ndarray:
    """Cross-phase kernel ratio matrix G[i, j] = -(w_i/lam_i) / (w'_j/lam'_j)."""
    w = phase_rate(tau, spectra.lam, spectra.sigma)
    wp = phase_rate(tau_prime, spectra.lam_prime, spectra.sigma_prime)
    return -np.outer(w / spectra.lam, spectra.lam_prime / wp)


def _u_matrix(tau, tau_prime, spectra, M):
    """U = M - G * M, the kernel-weighted Cauchy matrix (poles of G permitted nowhere)."""
    return M * (1.0 - kernel_ratio(tau, tau_prime, spectra))


# --------------------------------------------------------------- contact matrix

def contact_matrix(tau, tau_prime, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """Continuous (N+1) x N matrix whose two maximal minors vanish at solutions.

    Top block: (gdot g'^T - g g'dot^T) * M with last column gdot/lam; bottom
    row: sum(eta) * [g', 1].  The contact-phase kernels are evaluated at
    -tau_prime (the contact symmetry point lies after the impact).  Entries
    are entire functions of the times, so zero contours can be traced without
    pole gaps.  The times may be arrays; their broadcast shape leads the
    result, which then has shape (..., N+1, N).  The kernels come from the
    pair's cached constants (``SpectrumPair.kernels``), which raise
    ZeroModeError for a zero free eigenvalue.
    """
    n = spectra.n
    free, contact = spectra.kernels
    g, gd = _mode_kernels(tau, *free)
    gp, gpd = _mode_kernels(-tau_prime, *contact)
    eta_sum = float(np.sum(eta_vec))
    out = np.empty(np.broadcast_shapes(g.shape[:-1], gp.shape[:-1]) + (n + 1, n))
    out[..., :n, : n - 1] = (
        gd[..., :, None] * gp[..., None, :] - g[..., :, None] * gpd[..., None, :]
    ) * M
    out[..., :n, n - 1] = gd / spectra.lam
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
        norms = np.linalg.norm(a, axis=axis, keepdims=True)
    huge = ~np.isfinite(norms)
    if huge.any():
        peak = np.where(huge, np.abs(a).max(axis=axis, keepdims=True), 1.0)
        norms = np.where(huge, peak * np.linalg.norm(a / peak, axis=axis, keepdims=True), norms)
    return norms


def _unit_contact(o_n, o_prime, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """``contact_matrix`` at impact phases o = (o_n, o_prime), with unit rows.

    Each row is divided by its ``_norms`` entry, floored at 1e-300, so each
    maximal minor is O(1); a row norm does not depend on which row a minor
    drops.  A row whose squares overflow still becomes a unit row, not a row
    of zeros.  The scan's grid, the lazy full ``det_a`` and
    ``impact_residual`` all scale their rows here.
    """
    tau, tau_prime = spectra.from_phase(o_n, o_prime)
    bc = contact_matrix(tau, tau_prime, spectra, M, eta_vec)
    bc /= np.maximum(_norms(bc, -1), 1e-300)
    return bc


def _minor_rows(n: int) -> np.ndarray:
    """Rows kept by the two maximal minors of an (N+1) x N contact matrix.

    Row 0 is det_a's (the top-mode row N-1 dropped), row 1 det_b's (the
    amplitude-sum row N dropped).
    """
    return np.array([[*range(n - 1), n], [*range(n)]])


def _minor_dets(bc: np.ndarray, rows) -> np.ndarray:
    """Determinants of the minors of unit-row (..., N+1, N) contact matrices.

    ``rows`` selects the kept rows with one gather and one ``det`` call: N
    indices (or a slice, a view with no copy) give one minor of shape (...),
    a (k, N) index array k minors of shape (..., k).  The scan's grid and
    corners, the lazy full ``det_a`` grid and ``impact_residual`` all take
    their minors here, of matrices from ``_unit_contact``.
    """
    return np.linalg.det(bc[..., rows, :])


def impact_residual(o, spectra: SpectrumPair, M, eta_vec) -> np.ndarray:
    """Two normalized determinants at impact phases o = (o_N, o'_{N-1}).

    The first drops the top-mode row, the second drops the amplitude-sum row;
    both vanish simultaneously exactly at impact-time solutions.  Spectra
    whose top contact eigenvalue is not positive (``existence_gate``) have no
    solution and raise NoExistenceError.
    """
    if not existence_gate(spectra.lam_prime):
        raise NoExistenceError(
            f"largest contact eigenvalue {spectra.lam_prime[-1]:.6g} is not positive"
        )
    dets = _minor_dets(_unit_contact(o[0], o[1], spectra, M, eta_vec), _minor_rows(spectra.n))
    return np.moveaxis(dets, -1, 0)


def phi(o_n, o_prime, spectra: SpectrumPair, M, eta_vec) -> float:
    """Product of the two normalized determinants; its zero set is both curves."""
    d = impact_residual((o_n, o_prime), spectra, M, eta_vec)
    return float(d[0] * d[1])


# ----------------------------------------------------------------- contour scan

@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan window in impact-phase coordinates.

    Each axis steps by ``step`` from its minimum (from ``step`` if that is 0)
    to within half a step of its maximum, so it can end up to half a step
    below it.  Seeds are crossings inside this grid; Newton may take one to a
    root outside the window.  Impact phases are positive, so a negative
    ``o_n_min`` or ``o_p_min`` raises InvalidParameterError.
    """

    o_n_max: float = 4 * np.pi
    o_p_max: float = 2 * np.pi
    step: float = 0.05
    o_n_min: float = 0.0
    o_p_min: float = 0.0

    def axes(self):
        _check_positive(step=self.step)
        if not np.all(np.isfinite([self.o_n_min, self.o_n_max, self.o_p_min, self.o_p_max])):
            raise InvalidParameterError("contour grid bounds must be finite")
        for name in ("o_n_min", "o_p_min"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        start_n = self.o_n_min if self.o_n_min > 0 else self.step
        start_p = self.o_p_min if self.o_p_min > 0 else self.step
        o_n = np.arange(start_n, self.o_n_max + 0.5 * self.step, self.step)
        o_p = np.arange(start_p, self.o_p_max + 0.5 * self.step, self.step)
        if o_n.size < 2 or o_p.size < 2:
            raise InvalidParameterError("contour grid must contain at least 2x2 points")
        return o_n, o_p


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


def _segments(xa, ya, Z, cells):
    """Marching-squares zero segments of Z in the masked cells, in raster order.

    Returns ``(segs, kept)``: ``segs[c, k]`` is the k-th segment (two points)
    of the c-th masked cell and ``kept[c, k]`` says whether it exists.  An
    edge is crossed where its two corners have strictly opposite signs (so an
    exactly-zero corner gives no crossing), at the linearly interpolated
    point; crossings are taken bottom, top, left, right.  Two crossings make
    one segment; four (a saddle cell) make two, paired by the sign of the
    centre value.
    """
    i, j = np.nonzero(cells)
    x0, x1, y0, y1 = xa[i], xa[i + 1], ya[j], ya[j + 1]
    v00, v10, v01, v11 = Z[i, j], Z[i + 1, j], Z[i, j + 1], Z[i + 1, j + 1]
    s00, s10, s01, s11 = (np.sign(v) for v in (v00, v10, v01, v11))
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


def _crossing_seeds(xa, ya, det_a, det_b, cells):
    """Points where a zero segment of det_a meets one of det_b in the same masked cell.

    Seeds come in raster order of the cells, then by segment of det_a, then
    of det_b.  Segments that are parallel or do not reach each other give none.
    """
    (a, kept_a), (b, kept_b) = (_segments(xa, ya, Z, cells) for Z in (det_a, det_b))
    # each a-segment p + t r of a cell against each b-segment q + u w of the same cell
    p, r = a[:, :, None, 0], a[:, :, None, 1] - a[:, :, None, 0]
    q, w = b[:, None, :, 0], b[:, None, :, 1] - b[:, None, :, 0]
    cross = lambda v1, v2: v1[..., 0] * v2[..., 1] - v1[..., 1] * v2[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        d = cross(r, w)
        t, u = cross(q - p, w) / d, cross(q - p, r) / d
        crossings = p + t[..., None] * r
    meet = kept_a[:, :, None] & kept_b[:, None, :] & (t >= 0) & (t <= 1) & (u >= 0) & (u <= 1)
    return crossings[meet]


@dataclass(eq=False)
class ContourField:
    """Gridded determinant values with crossing seeds.

    ``seeds`` are where a marching-squares zero segment of ``det_a`` crosses
    one of ``det_b`` in the same grid cell.  ``det_b`` is the scan's grid.
    Both grids scale rows as ``impact_residual`` does, so they hold its
    values at every grid point, NaNs included.  The scan evaluates
    ``det_a`` only at the corners of ``det_b``'s sign-change cells; the
    full ``det_a`` grid, and the zero curves ``curves_a``/``curves_b`` that
    chain the same segments, serve export only, so they are built from
    ``spectra`` on first access.
    """

    o_n_axis: np.ndarray
    o_p_axis: np.ndarray
    det_b: np.ndarray            # amplitude-sum row dropped
    seeds: np.ndarray
    spectra: SpectrumPair

    @cached_property
    def det_a(self) -> np.ndarray:
        """The top-mode-row-dropped determinant on the whole grid, as the scan evaluates it."""
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bc = _unit_contact(self.o_n_axis[:, None], self.o_p_axis[None, :], self.spectra,
                               self.spectra.M, self.spectra.eta)
            return _minor_dets(bc, _minor_rows(self.spectra.n)[0])

    @cached_property
    def curves_a(self) -> list:
        """Zero polylines of ``det_a``."""
        return self._curves(self.det_a)

    @cached_property
    def curves_b(self) -> list:
        """Zero polylines of ``det_b``."""
        return self._curves(self.det_b)

    def _curves(self, Z) -> list:
        segs, kept = _segments(self.o_n_axis, self.o_p_axis, Z, _sign_change_cells(Z))
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
    """Evaluate the determinants on a grid and seed at their zero-curve crossings.

    ``det_b`` is evaluated on the whole grid, and ``det_a`` only at the
    corners of the cells where ``det_b`` changes sign, since only those
    cells can hold a crossing; ``ContourField.det_a`` builds the rest for
    export.  Each intersection of a cell's zero segments of ``det_a`` and
    ``det_b`` is a seed for ``refine_root``; a cell with a non-finite corner is
    skipped, and a corner that is exactly 0 gives no crossing.  The rows are
    scaled as in ``impact_residual`` (``_unit_contact``), so a row whose
    squares overflow stays a unit row instead of becoming zeros.  Seeds lie
    inside the grid (see ``GridSpec``), whose last point can be up to half a
    step below ``o_n_max``/``o_p_max``.  Newton may take a seed to a root
    outside the window, and which out-of-window roots appear depends on the step.
    Spectra that fail ``existence_gate`` have no solution, no seeds and no
    ``det_a`` evaluation.
    """
    grid = grid or GridSpec()
    o_n_axis, o_p_axis = grid.axes()
    n = spectra.n
    # Stiff hyperbolic modes can overflow on the grid, and a zero top contact eigenvalue
    # makes every contact time infinite; _sign_change_cells skips non-finite corners.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bc = _unit_contact(o_n_axis[:, None], o_p_axis[None, :], spectra, spectra.M, spectra.eta)
        det_b = _minor_dets(bc, slice(n))
        cells = _sign_change_cells(det_b) & existence_gate(spectra.lam_prime)
        padded = np.pad(cells, 1)
        corners = padded[1:, 1:] | padded[:-1, 1:] | padded[1:, :-1] | padded[:-1, :-1]
        det_a = np.full(det_b.shape, np.nan)   # NaN only where no cell of ``cells`` reads it
        det_a[corners] = _minor_dets(bc[corners], _minor_rows(n)[0])
    both = cells & _sign_change_cells(det_a)
    return ContourField(
        o_n_axis=o_n_axis,
        o_p_axis=o_p_axis,
        det_b=det_b,
        seeds=_crossing_seeds(o_n_axis, o_p_axis, det_a, det_b, both),
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
    """Damped Newton refinement of a contour seed in impact-phase coordinates.

    The residual is the pair of normalized determinants; the Jacobian is
    forward finite differences with step ``REFINE_FD_STEP``, taken from the
    same batched residual evaluation as F.  The line search takes the first
    of the step scalings 1, 1/2, ..., 2**-39 that stays in the positive
    quadrant and does not increase the residual norm.  The full step is
    evaluated alone; only if it fails are all remaining scalings evaluated in
    one batched call, so an iteration costs at most two residual calls.
    Convergence requires both residuals below ``REFINE_TOL_RESIDUAL`` and the
    last full Newton step below ``REFINE_TOL_STEP``.
    """
    try:
        o = np.array(seed, float)
        valid = o.shape == (2,) and np.isfinite(o).all() and o.min() > 0
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise InvalidParameterError(f"seed must be two finite positive phases, got {seed!r}")
    _check_integer("max_iter", max_iter, 1)
    probes = np.array([[0.0, REFINE_FD_STEP, 0.0], [0.0, 0.0, REFINE_FD_STEP]])
    scalings = np.ldexp(1.0, -np.arange(40))[:, None]

    def evaluate(pts):
        # one call on pt, pt + h e0 and pt + h e1 for each of the k rows of pts:
        # F has shape (k, 2) and J shape (k, 2, 2)
        R = impact_residual(pts.T[:, :, None] + probes[:, None, :], spectra, M, eta_vec)
        return R[:, :, 0].T, ((R[:, :, 1:] - R[:, :, :1]) / REFINE_FD_STEP).transpose(1, 0, 2)

    F, J = (a[0] for a in evaluate(o[None, :]))
    for iteration in range(1, max_iter + 1):
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular Jacobian during refinement") from None
        if np.abs(F).max() < REFINE_TOL_RESIDUAL and np.abs(step).max() < REFINE_TOL_STEP:
            tau, tau_prime = spectra.from_phase(o[0], o[1])
            return ImpactTimes(
                tau=tau,
                tau_prime=tau_prime,
                o_n=float(o[0]),
                o_prime=float(o[1]),
                residual=(float(F[0]), float(F[1])),
                iterations=iteration,
            )
        cands = o + scalings * step
        cands = cands[cands.min(axis=1) > 0]
        bound = np.abs(F).max()
        for batch in (cands[:1], cands[1:]):
            if not batch.size:
                continue
            F_cand, J_cand = evaluate(batch)
            accepted = np.flatnonzero(np.abs(F_cand).max(axis=1) <= bound)
            if accepted.size:
                k = accepted[0]
                o, F, J = batch[k], F_cand[k], J_cand[k]
                break
        else:
            raise ConvergenceError(
                f"refinement stalled at o = {o.tolist()} (residual {bound:.2e})"
            )
    raise ConvergenceError(f"no convergence after {max_iter} iterations from seed {seed!r}")


# ---------------------------------------------------- matching matrix and weights

def assemble_impact_matrix(spectral: SpectralData, tau: float, tau_prime: float):
    """Full (2N+1) x 2N matching matrix A and its rank gap.

    Rows stack position matching, velocity matching, and the contact-coordinate
    acceleration; columns are the free weights, contact weights, and the static
    force.  The rank gap is min/max singular value of the column-normalized
    matrix (column scaling is rank-preserving and removes the arbitrary
    hyperbolic magnitude spread); it drops below ~1e-10 at genuine solutions.
    """
    n = spectral.n
    X = spectral.mode_matrix
    Xp = spectral.mode_matrix_prime
    g, gd = mode_motion_vec(tau, spectral.lam, spectral.sigma)
    gp, gpd = mode_motion_vec(-tau_prime, spectral.lam_prime, spectral.sigma_prime)
    A = np.zeros((2 * n + 1, 2 * n))
    A[:n, :n] = X * g[None, :]
    A[:n, n : 2 * n - 1] = -Xp * gp[None, :]
    A[:n, -1] = -spectral.contact_compliance
    A[n : 2 * n, :n] = X * gd[None, :]
    A[n : 2 * n, n : 2 * n - 1] = -Xp * gpd[None, :]
    A[2 * n, :n] = X[-1, :] * (-spectral.lam * g)
    sv = np.linalg.svd(A / _norms(A, 0), compute_uv=False)
    return A, float(sv[-1] / sv[0])


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
    g, gd = mode_motion_vec(tau, lam, spectral.sigma)
    gp, _ = mode_motion_vec(-tau_prime, spectral.lam_prime, spectral.sigma_prime)
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


def solve_weights(spectral: SpectralData, times: ImpactTimes):
    """Mode weights (q, q') from the top-left (2N-1) square of the matching matrix.

    Solves [[X*g, -X'*g'], [Xbar*gdot, -X'bar*g'dot]] [q; q'] = [x0; 0] and
    returns the weights with the absolute residual of the solve.

    For highly symmetric models (e.g. all-odd free kernels) the square
    subsystem can be singular at a genuine root even though the full matching
    matrix has its proper one-dimensional kernel; in that case the weights are
    recovered from that kernel, scaled to the static force, and still satisfy
    the square system (the returned residual certifies it).
    """
    return _weights(spectral, *assemble_impact_matrix(spectral, times.tau, times.tau_prime))


def _weights(spectral: SpectralData, A: np.ndarray, rank_gap: float):
    """``solve_weights`` on an assembled matching matrix A with its rank gap."""
    n = spectral.n
    W = A[: 2 * n - 1, : 2 * n - 1]
    rhs = np.concatenate([spectral.static_offset, np.zeros(n - 1)])
    cond = np.linalg.cond(W)
    if np.isfinite(cond) and cond < 1e12:
        sol = np.linalg.solve(W, rhs)
    else:
        if rank_gap > 1e-6:
            raise DegenerateSolutionError(
                f"weight subsystem singular (cond {cond:.2e}) away from a root"
            )
        kernel = np.linalg.svd(A)[2][-1]
        compliance = spectral.contact_compliance
        denom = float(compliance @ compliance)
        force = float(spectral.static_offset @ compliance) / denom if denom > 0 else 0.0
        if force == 0.0:
            sol = np.zeros(2 * n - 1)
        elif abs(kernel[-1]) < 1e-9:
            raise DegenerateSolutionError(
                "matching-matrix kernel has no static-force component"
            )
        else:
            sol = (kernel / kernel[-1] * force)[:-1]
    residual = float(np.abs(W @ sol - rhs).max())
    return sol[:n], sol[n:], residual


@dataclass(frozen=True, eq=False)
class ImpactSolution:
    """A refined root together with its weights and certification numbers."""

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


def build_solution(spectral: SpectralData, times: ImpactTimes) -> ImpactSolution:
    """Assemble the matching matrix, certify the rank drop, and solve the weights."""
    A, rank_gap = assemble_impact_matrix(spectral, times.tau, times.tau_prime)
    q, q_prime, weight_residual = _weights(spectral, A, rank_gap)
    return ImpactSolution(
        times=times,
        q=q,
        q_prime=q_prime,
        spectral=spectral,
        rank_gap=rank_gap,
        weight_residual=weight_residual,
    )
