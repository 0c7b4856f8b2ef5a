"""Trajectory assembly between the two symmetry points, validation, and export.

The emitted trajectory covers the half cycle from the free-phase symmetry
point (t = 0) through the impact (t = tau) to the contact-phase symmetry
point (t = tau + tau'); the rest of the period follows by the solution's
time-reversal symmetries.  It serves export only.  Physical realizability
must hold on the *full* phases, which extend symmetrically about each
symmetry point, so the validator works from the solution itself: it samples
t in [-tau, tau] and the contact phase in [-tau', tau'] analytically for the
clearance, the contact force and the scales.  Its check grid is CHECK_SAMPLES
evenly spaced times per phase.  ``_coarse_kernels`` evaluates the mode
kernels at every GRID_BLOCK-th time, and ``_grid_kernels`` builds the rest
from that table by the addition theorem rather than by a circular or
hyperbolic function per sample.  A first tier reads only the table's 51
times per phase against modal upper bounds on the scales; it fails most
failing records without building the grid.
``validate_solutions`` checks all of a solve's solutions in one call: one
model check, then the impact residuals and the first tier on stacked
arrays, and a grid for each solution the first tier leaves open;
``validate`` is its one-solution case.

The conserved energy is the plain mechanical one, E = (xd^T m xd + x^T k x)/2.
It is constant within each phase for any mode weights: in the free phase it
is a sum of constant modal energies, and in the contact phase the constraint
force acts on a fixed coordinate and does no work.  It can therefore vary
only by a jump at the impact, and the validator takes it from the two impact
states alone.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    CollisionlessError,
    InvalidParameterError,
    _check_positive,
    _real_number,
    _require_instance,
)
from .impact import ImpactSolution, ImpactTimes, _mode_kernels, build_solution
from .model import ModelSpec, _as_dict
from .spectral import SpectralData
from .svgout import SvgCanvas

__all__ = [
    "Trajectory",
    "ValidatorTolerances",
    "ValidationReport",
    "synthesize",
    "validate",
    "validate_solutions",
    "to_csv",
    "to_json",
    "to_svg",
    "trajectory_from_json",
]

# CSV label of each value of ``Trajectory.phase``
_PHASE_NAMES = ("unconstrained", "constrained")

# Samples per full phase in ``validate``.
CHECK_SAMPLES = 2001

# Intervals per phase of a synthesized trajectory, unless the caller gives another count.
SAMPLES_PER_PHASE = 500

# Rounding margin of ``validate``'s first tier, relative to the terms a sampled clearance
# or force sums: a coarse and a fine evaluation of one sample, and a fine scale and its
# modal bound, differ by far less.
TIER_RTOL = 1e-12

# Largest deviation of a solution's model quantity from the given model's,
# relative to the largest entry of the model's.
MODEL_RTOL = 1e-9

# Largest deviation of a stored trajectory value (sample or solution number)
# from the one derived again, relative to the derived value's largest magnitude.
SAMPLE_RTOL = 1e-12


def _phase_state(spectral: SpectralData, phase, q, t):
    """Analytic x, xd, xdd of a phase (0 free, 1 contact) at offsets t (array) from its symmetry
    point, from its mode weights q; the contact phase's x includes the static offset."""
    g, gd = _mode_kernels(t, *spectral.kernels[phase])
    X, lam = ((spectral.mode_matrix, spectral.lam),
              (spectral.mode_matrix_prime, spectral.lam_prime))[phase]
    x = (g * q) @ X.T
    return (x + spectral.static_offset if phase else x), (gd * q) @ X.T, ((-lam * g) * q) @ X.T


def _phase_grid(X, q, lam, g, gd, offset=0.0):
    """x + offset, xd, xdd of a phase from its mode kernels g, gd (..., N, samples).

    X is the phase's mode matrix and q its weights (..., N); one row per
    coordinate, and a leading axis per solution of a stack.
    """
    Xq = X * q[..., None, :]
    return Xq @ g + offset, Xq @ gd, (Xq * -lam) @ g


# Fine offsets per coarse time in ``_grid_kernels``: the block is gcd(m, GRID_BLOCK), which
# is 40 on the 2001-sample check grid (m = 1000).
GRID_BLOCK = 40


def _mirror(table, even):
    """Fill the t < 0 columns of a [g, gdot] table (2, ..., N, 2k + 1) by parity, in place.

    Column k is t = 0.  An even kernel has g even and gdot odd, an odd one the
    reverse, so g(-t) = +-g(t) and gdot(-t) = -+gdot(t) bit for bit.
    """
    k = table.shape[-1] // 2
    parity = np.where(even, 1.0, -1.0)[:, None]
    table[0, ..., :k] = parity * table[0, ..., :k:-1]
    table[1, ..., :k] = -parity * table[1, ..., :k:-1]
    return table


def _coarse_kernels(half, count, om, osc, even, rate):
    """[g, gdot] at every B-th time of the check grid over [-half, half], (2, ..., N, 2m/B + 1).

    The grid has ``count`` (odd) times k h, |k| <= m = (count - 1) / 2, h = half / m,
    and B = gcd(m, GRID_BLOCK).  The times a B h < half and half go through
    ``_mode_kernels``; ``half`` may be an array, whose axes lead the table's middle ones.
    """
    m = (count - 1) // 2
    half = np.asarray(half, float)[..., None]
    starts = np.arange(0, m, math.gcd(m, GRID_BLOCK)) * (half / m)
    kernels = _mode_kernels(np.concatenate([starts, half], axis=-1), om, osc, even, rate)
    k = starts.shape[-1]
    table = np.empty((2, *half.shape[:-1], om.size, 2 * k + 1))
    table[..., k:] = np.swapaxes(kernels, -1, -2)
    return _mirror(table, even)


def _grid_kernels(half, count, om, osc, even, rate, coarse):
    """``_mode_kernels`` as a [g, gdot] array (2, N, count) at the check grid over [-half, half].

    ``coarse`` is one half-width's ``_coarse_kernels`` table.  Each time
    t = k h >= 0 splits into a coarse time a B h of the table and a fine
    offset f = b h, b < B; ``_mode_kernels`` gives C and S (cos and sin, or
    cosh and sinh, of om f) at the B offsets, and the addition theorem joins
    them: g(t + f) = g C + gdot S / om, gdot(t + f) = gdot C + rate g S.
    t = half is the table's, and t < 0 follows by ``_mirror``.  No time
    beyond ``half`` is formed, every argument is non-negative and
    cosh a cosh b <= cosh(a + b), so the grid is finite, without an overflow
    warning, wherever the direct evaluation is.  A mode with om = 0 takes
    S / om = 0.  Where the kernels are finite, every B-th column is the
    table, up to the sign of a zero.
    """
    m = (count - 1) // 2
    h = half / m
    block = math.gcd(m, GRID_BLOCK)
    coarse = coarse[..., m // block:]
    # the even kernel at the offsets is (C, rate S), and rate om = -lam
    c, rate_s = (k.T for k in _mode_kernels(np.arange(block) * h, om, osc, True, rate))
    s_om = np.divide(rate_s, (rate * om)[:, None], out=np.zeros_like(rate_s),
                     where=om[:, None] > 0)
    # [g, gdot](t) @ [[C, rate S], [S / om, C]] = [g, gdot](t + f): per mode, the g and
    # the gdot columns of the addition theorem, (2, N, 2, B)
    theorem = np.array([[c, s_om], [rate_s, c]]).transpose(0, 2, 1, 3)
    both = np.empty((2, om.size, count))
    both[..., m:-1] = (coarse[..., :-1].transpose(1, 2, 0) @ theorem).reshape(2, om.size, m)
    both[..., -1] = coarse[..., -1]
    return _mirror(both, even)


def _clearance_and_force(model: ModelSpec, offset, free, contact):
    """Signed clearance over the free samples and contact force over the contact samples."""
    sign = model.contact_sign
    return (sign * (free[0][..., -1, :] - offset[-1]),
            sign * (model.mass[-1] @ contact[2] + model.stiffness[-1] @ contact[0]))


def _dot(a, b):
    """a @ b over the last axis, broadcast over the others, with the operand shapes of 1-D a @ b."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _scale(*arrays) -> float:
    """Largest magnitude in ``arrays``, floored away from zero."""
    return max(*(np.abs(values).max() for values in arrays), 1e-300)


def _energy(spectral: SpectralData, x, xd):
    """Mechanical energy (xd^T m xd + x^T k x) / 2 per sample row."""
    return 0.5 * np.einsum("ij,jk,ik->i", xd, spectral.mass_matrix, xd) + 0.5 * np.einsum(
        "ij,jk,ik->i", x, spectral.stiffness_matrix, x
    )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Sampled half-cycle with per-sample energy and contact force.

    ``t`` runs from 0 (free symmetry point) to tau + tau' (contact symmetry
    point), with the impact at its middle sample; ``constraint_force`` is NaN
    on free samples.
    """

    t: np.ndarray
    x: np.ndarray
    xdot: np.ndarray
    xddot: np.ndarray
    energy: np.ndarray
    constraint_force: np.ndarray
    meta: ImpactSolution

    @property
    def n(self) -> int:
        return self.x.shape[1]

    @property
    def tau_mark(self) -> float:
        """Impact time tau of the solution."""
        return self.meta.times.tau

    @property
    def phase(self) -> np.ndarray:
        """Per-sample phase: 0 up to and including the impact sample, 1 after it."""
        return (np.arange(self.t.size) > self.t.size // 2).astype(int)


# Names of the sample arrays of a Trajectory.
SAMPLES = tuple(f.name for f in fields(Trajectory) if f.name != "meta")


def _agrees(stored, derived) -> bool:
    """True if ``stored`` has the shape of ``derived`` and lies within SAMPLE_RTOL of it."""
    atol = SAMPLE_RTOL * np.nanmax(np.abs(derived))
    return stored.shape == derived.shape and np.allclose(
        stored, derived, rtol=0.0, atol=atol, equal_nan=True
    )


def synthesize(solution: ImpactSolution,
               samples_per_phase: int = SAMPLES_PER_PHASE) -> Trajectory:
    """Sample the half-cycle trajectory of a solution analytically (no integration).

    Each phase contributes ``samples_per_phase`` intervals, an integer >= 1;
    the impact sample is shared, so the total row count is
    2 * samples_per_phase + 1.
    """
    _require_instance(solution, ImpactSolution, "solution")
    _real_number(samples_per_phase, "samples_per_phase", InvalidParameterError, minimum=1)
    spectral = solution.spectral
    times = solution.times
    tau, taup = times.tau, times.tau_prime
    t_free = np.linspace(0.0, tau, samples_per_phase + 1)
    t_contact = np.linspace(tau, tau + taup, samples_per_phase + 1)[1:]
    free = _phase_state(spectral, 0, solution.q, t_free)
    x_c, _, xdd_c = contact = _phase_state(spectral, 1, solution.q_prime, t_contact - (tau + taup))
    x, xd, xdd = (np.vstack(pair) for pair in zip(free, contact))
    t = np.concatenate([t_free, t_contact])
    force = np.full(t.size, np.nan)
    force[t_free.size:] = xdd_c @ spectral.mass_matrix[-1] + x_c @ spectral.stiffness_matrix[-1]
    return Trajectory(
        t=t,
        x=x,
        xdot=xd,
        xddot=xdd,
        energy=_energy(spectral, x, xd),
        constraint_force=force,
        meta=solution,
    )


@dataclass(frozen=True)
class ValidatorTolerances:
    """Relative tolerances of the physical-realizability checks."""

    velocity: float = 1e-8
    acceleration: float = 1e-8
    continuity: float = 1e-10
    energy: float = 1e-9
    contact: float = 1e-8

    def __post_init__(self):
        _check_positive(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass(frozen=True)
class ValidationReport:
    """Residuals and worst-case clearances of one solution.

    ``penetration_violation`` and ``contact_force_violation`` are the worst
    signed values of contact_sign * (x_N - x0_N) over the full free phase and
    contact_sign * F_N over the full contact phase, taken over
    ``check_samples`` samples per phase; negative values beyond the contact
    tolerance (times the respective scale) fail the check.
    ``check_samples`` is CHECK_SAMPLES, the check grid, unless ``validate``'s
    first tier failed the record: then it is the 51 directly evaluated
    samples of that grid, and the two violations are their minima.  Those
    are never below the grid's minima by more than rounding, and one of
    them lies below -tolerance times a modal upper bound on its scale, which
    proves the failure.  ``energy_variation`` is the jump
    |E_free - E_contact| between the two constant phase energies at the
    impact, relative to the larger of them.  Every other scale a tolerance
    multiplies (velocity, acceleration, position, clearance, force) is a
    maximum over the full phases.
    """

    impact_velocity_residual: float
    impact_accel_residual: float
    continuity_residual: float
    energy_variation: float
    penetration_violation: float
    contact_force_violation: float
    passed: bool
    check_samples: int = CHECK_SAMPLES
    tolerances: ValidatorTolerances = field(default_factory=ValidatorTolerances)

    def to_dict(self) -> dict:
        return _as_dict(self, skip=("tolerances",))


def _check_same_model(spectral: SpectralData, model: ModelSpec):
    """Raise InvalidParameterError unless the solution's spectral data derive from ``model``."""
    if model.n != spectral.n:
        raise InvalidParameterError("model and solution dimensions differ")
    for name, ours, theirs in (
        ("mass_matrix", spectral.mass_matrix, model.mass),
        ("stiffness_matrix", spectral.stiffness_matrix, model.stiffness),
        ("sigma", spectral.sigma, model.sigma),
        ("sigma_prime", spectral.sigma_prime, model.sigma_prime),
        ("static_offset", spectral.static_offset, model.static_offset),
    ):
        if np.abs(ours - theirs).max() > MODEL_RTOL * np.abs(theirs).max():
            raise InvalidParameterError(f"the solution is not one of this model: {name} differs")


def validate(solution: ImpactSolution, model: ModelSpec,
             tolerances: ValidatorTolerances | None = None) -> ValidationReport:
    """Check one solution's impact conditions, conservation, clearance and contact force.

    ``validate_solutions`` on that solution alone; it raises what that raises.
    """
    return validate_solutions([solution], model, tolerances)[0]


def validate_solutions(solutions, model: ModelSpec,
                       tolerances: ValidatorTolerances | None = None) -> list:
    """Check impact conditions, conservation, clearance and contact force of each solution.

    Returns one ValidationReport per solution, in order; each is bit for bit
    the one the solution gets alone, because every product is taken with
    the operand shapes of a single solution.
    Impact conditions, continuity and the energy jump are evaluated
    analytically from both phase formulas at the impact; the energy is
    constant within each phase, so the jump is its whole variation.
    Clearance, contact force and every scale come from CHECK_SAMPLES
    analytic samples of each full symmetric phase (t in [-tau, tau] and
    u in [-tau', tau']), where higher-branch roots reveal attractive-force
    stretches invisible on the emitted half cycle.  The samples are the
    check grid t_k = k h, |k| <= m, with m = (CHECK_SAMPLES - 1) / 2 and
    h = tau / m (u likewise).  Its mode kernels come from ``_grid_kernels``:
    the coarse times of ``_coarse_kernels``, evaluated directly, joined to a
    table of fine offsets by the addition theorem and mirrored to t < 0 by
    ``_mirror``.  They agree with direct evaluation at the same times to within
    1e-13 of each mode's largest kernel value on the grid, so a violation
    differs from the direct samples' by rounding only.  The grid is still
    a sampling: a dip narrower than h can fall between two samples.

    A first tier runs on all solutions at once, before any grid is built.
    It evaluates the clearance and the force at the grid's 51 coarse times
    per phase, and bounds each scale by its modal sum:
    sum_i |c_i q_i| max|g_i| plus the static term, |x0_N| for the clearance
    and |k_N . x0| for the force, where c_i is mode i's coefficient in the
    quantity and max|g_i| over the phase is 1 for an oscillatory mode and
    |g_i(half)| for a hyperbolic one.  A coarse minimum below -tolerance
    times its bound, by more than TIER_RTOL times the magnitude of the
    terms it sums, proves that the grid fails too; the solution then fails
    with the coarse minima as its violations (see
    ``ValidationReport.check_samples``).  Every other solution takes its
    own grid, which reuses its coarse kernels, and gets the report the grid
    alone gives.

    Raises InvalidParameterError when ``solutions`` is no list, a solution
    no ImpactSolution, the model no ModelSpec or the tolerances no
    ValidatorTolerances, when the solutions do not share one SpectralData,
    and, naming the quantity, when its derived mass or stiffness matrix,
    signatures or static offset differ from the model's by more than
    MODEL_RTOL of its largest entry.
    """
    _require_instance(solutions, list, "solutions")
    for solution in solutions:
        _require_instance(solution, ImpactSolution, "solution")
    _require_instance(model, ModelSpec, "model")
    tol = ValidatorTolerances() if tolerances is None else tolerances
    _require_instance(tol, ValidatorTolerances, "tolerances")
    if not solutions:
        return []
    spectral = solutions[0].spectral
    if any(s.spectral is not spectral for s in solutions):
        raise InvalidParameterError("the solutions do not share one SpectralData")
    _check_same_model(spectral, model)
    tau = np.array([s.times.tau for s in solutions])
    taup = np.array([s.times.tau_prime for s in solutions])
    q = np.array([s.q for s in solutions])
    qp = np.array([s.q_prime for s in solutions])

    # the states at the impact, one (1, N) row per solution
    x_f, xd_f, xdd_f = _phase_state(spectral, 0, q[:, None], tau[:, None])
    x_c, xd_c, _ = _phase_state(spectral, 1, qp[:, None], -taup[:, None])
    v_resid = np.abs(xd_f[:, 0, -1]).tolist()
    a_resid = np.abs(xdd_f[:, 0, -1]).tolist()
    continuity = np.maximum(np.abs(x_f - x_c).max(axis=(1, 2)),
                            np.abs(xd_f - xd_c).max(axis=(1, 2))).tolist()

    # the energy is constant within each phase, so it can vary only by a jump at the impact
    e_free, e_contact = (np.concatenate([_energy(spectral, *row) for row in zip(x, xd)])
                         for x, xd in ((x_f, xd_f), (x_c, xd_c)))
    energy_var = (np.abs(e_free - e_contact)
                  / np.maximum(np.maximum(np.abs(e_free), np.abs(e_contact)), 1e-300)).tolist()

    X, Xp, offset = spectral.mode_matrix, spectral.mode_matrix_prime, spectral.static_offset
    lam, lamp = spectral.lam, spectral.lam_prime
    phases = spectral.kernels
    coarse = [_coarse_kernels(half, CHECK_SAMPLES, *constants)
              for half, constants in zip((tau, taup), phases)]

    # first tier: the coarse samples against modal bounds on the clearance and force scales
    clearance, force = _clearance_and_force(
        model, offset, _phase_grid(X, q, lam, *coarse[0]),
        _phase_grid(Xp, qp, lamp, *coarse[1], offset[:, None]))
    # max|g_i| over each phase: 1 for an oscillatory mode, |g_i(half)| for a hyperbolic one
    peak, peak_p = (np.where(constants[1], 1.0, np.abs(table[0, ..., -1]))
                    for constants, table in zip(phases, coarse))
    # the clearance's bound is also the magnitude of its terms; the force's is not
    clearance_bound = _dot(np.abs(X[-1] * q), peak) + abs(offset[-1])
    k_n, m_n = model.stiffness[-1], model.mass[-1]
    weights = np.abs(qp) * peak_p
    force_bound = _dot(np.abs(k_n @ Xp - lamp * (m_n @ Xp)), weights) + abs(k_n @ offset)
    force_terms = (_dot(np.abs(k_n) @ np.abs(Xp) + np.abs(lamp) * (np.abs(m_n) @ np.abs(Xp)),
                        weights) + np.abs(k_n) @ np.abs(offset))
    slack = TIER_RTOL * (1 + tol.contact)
    coarse_min = clearance.min(axis=-1), force.min(axis=-1)
    failed = ((coarse_min[0] < -tol.contact * clearance_bound - slack * clearance_bound)
              | (coarse_min[1] < -tol.contact * force_bound - slack * force_terms))

    reports = []
    for i in range(len(solutions)):
        report = dict(
            impact_velocity_residual=v_resid[i],
            impact_accel_residual=a_resid[i],
            continuity_residual=continuity[i],
            energy_variation=energy_var[i],
            tolerances=tol,
        )
        if failed[i]:
            reports.append(ValidationReport(
                **report, penetration_violation=float(coarse_min[0][i]),
                contact_force_violation=float(coarse_min[1][i]), passed=False,
                check_samples=clearance.shape[-1]))
            continue
        # (x, xd, xdd) of each full phase, one column per sample
        free = _phase_grid(X, q[i], lam, *_grid_kernels(
            tau[i], CHECK_SAMPLES, *phases[0], coarse[0][:, i]))
        contact = _phase_grid(Xp, qp[i], lamp, *_grid_kernels(
            taup[i], CHECK_SAMPLES, *phases[1], coarse[1][:, i]), offset[:, None])
        xd_scale = _scale(free[1], contact[1])
        clearance_i, force_i = _clearance_and_force(model, offset, free, contact)
        penetration = float(clearance_i.min())
        force_violation = float(force_i.min())
        passed = (
            v_resid[i] < tol.velocity * xd_scale
            and a_resid[i] < tol.acceleration * _scale(free[2], contact[2])
            and continuity[i] < tol.continuity * max(_scale(free[0], contact[0]), xd_scale)
            and energy_var[i] < tol.energy
            and penetration >= -tol.contact * _scale(clearance_i)
            and force_violation >= -tol.contact * _scale(force_i)
        )
        reports.append(ValidationReport(**report, penetration_violation=penetration,
                                        contact_force_violation=force_violation,
                                        passed=bool(passed)))
    return reports


# ------------------------------------------------------------------- exporters

def to_csv(traj: Trajectory, path):
    _require_instance(traj, Trajectory, "traj")
    n = traj.n
    header = ["t", "phase", *(f"{name}{i + 1}" for name in ("x", "xd", "xdd") for i in range(n)),
              "energy", "constraint_force"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        phase = traj.phase
        for i in range(traj.t.size):
            row = [f"{traj.t[i]:.12g}", _PHASE_NAMES[phase[i]]]
            row += [f"{v:.12e}" for v in (*traj.x[i], *traj.xdot[i], *traj.xddot[i], traj.energy[i])]
            force = traj.constraint_force[i]
            row.append("" if np.isnan(force) else f"{force:.12e}")
            writer.writerow(row)


def to_json(traj: Trajectory, path):
    """Serialize the samples, the solution and its spectral data (lossless)."""
    payload = {name: getattr(traj, name).tolist() for name in SAMPLES}
    payload["constraint_force"] = [None if np.isnan(v) else v for v in payload["constraint_force"]]
    payload["solution"] = {**traj.meta.to_dict(), "spectral": _as_dict(traj.meta.spectral)}
    with open(path, "w") as fh:
        json.dump(payload, fh)


def trajectory_from_json(path) -> Trajectory:
    """Read a trajectory written by ``to_json``, rebuilding its solution.

    The solution is built again, as ``solve_model`` builds it, from the
    stored spectral data, the impact phases ``o_n`` and ``o_prime``, and the
    refinement's ``residual`` and ``iterations``.  The stored ``tau``,
    ``tau_prime``, ``mu``, ``q`` and ``q_prime`` must agree with the rebuilt
    ones to SAMPLE_RTOL of each one's largest magnitude.  ``rank_gap``,
    ``weight_residual``, ``phase``, ``tau_mark`` and ``mode_matrix_prime``
    are derived, and stored values of them are ignored.

    A file that cannot be opened, is not JSON, lacks a field, stores spectra
    that fail ``SpectrumPair``'s checks, stores impact phases from which no
    solution can be built, or stores a solution number that disagrees with
    the rebuilt one raises InvalidParameterError naming the file and the
    fault.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
        stored = payload["solution"]
        spectral = SpectralData(**{f.name: stored["spectral"][f.name] for f in fields(SpectralData)})
        o_n, o_prime = stored["o_n"], stored["o_prime"]
        times = ImpactTimes(
            *spectral.from_phase(o_n, o_prime), o_n, o_prime,
            tuple(stored["residual"]), stored["iterations"],
        )
        try:
            solution = build_solution(spectral, times)
        except CollisionlessError as exc:
            raise InvalidParameterError(
                f"stored o_n and o_prime give no solution: {type(exc).__name__}: {exc}"
            ) from exc
        rebuilt = solution.to_dict()
        for key in ("tau", "tau_prime", "mu", "q", "q_prime"):
            if not _agrees(np.asarray(stored[key], float), np.asarray(rebuilt[key])):
                raise InvalidParameterError(
                    f"stored {key} disagrees with the solution rebuilt from o_n and o_prime"
                )
        return Trajectory(
            **{name: np.array(payload[name], float) for name in SAMPLES}, meta=solution
        )
    except (OSError, ValueError, KeyError, TypeError, CollisionlessError) as exc:
        raise InvalidParameterError(
            f"cannot read trajectory file {path}: {type(exc).__name__}: {exc}"
        ) from exc


_PALETTE = ["#c03030", "#2f8f2f", "#2f5fbf", "#b06f10", "#7d3fa0", "#2f8f8f"]


def to_svg(traj: Trajectory, path):
    """Plot x (solid), xdot (dashed) and xddot (dotted) per coordinate.

    One color per coordinate; a vertical line marks the impact.
    """
    lo = min(traj.x.min(), traj.xdot.min(), traj.xddot.min())
    hi = max(traj.x.max(), traj.xdot.max(), traj.xddot.max())
    pad = 0.05 * (hi - lo if hi > lo else 1.0)
    canvas = SvgCanvas(
        (traj.t[0], traj.t[-1]),
        (lo - pad, hi + pad),
        title="collisionless half-cycle (positions, velocities, accelerations)",
    )
    canvas.vline(traj.tau_mark, color="#888", dash="4,3")
    for i in range(traj.n):
        color = _PALETTE[i % len(_PALETTE)]
        canvas.polyline(traj.t, traj.x[:, i], color=color, width=1.6)
        canvas.polyline(traj.t, traj.xdot[:, i], color=color, width=1.1, dash="6,3")
        canvas.polyline(traj.t, traj.xddot[:, i], color=color, width=1.0, dash="1.5,2.5")
    canvas.write(path)
