"""Trajectory assembly between the two symmetry points, validation, and export.

The emitted trajectory covers the half cycle from the free-phase symmetry
point (t = 0) through the impact (t = tau) to the contact-phase symmetry
point (t = tau + tau'); the rest of the period follows by the solution's
time-reversal symmetries.  It serves export only.  Physical realizability
must hold on the *full* phases, which extend symmetrically about each
symmetry point, so the validator works from the solution itself: it samples
t in [-tau, tau] and the contact phase in [-tau', tau'] analytically.

The conserved energy is the plain mechanical one, E = (xd^T m xd + x^T k x)/2:
the contact constraint force acts on a fixed coordinate and does no work, so
one scalar is constant and continuous across both phases.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import CollisionlessError, InvalidParameterError
from .impact import ImpactSolution, ImpactTimes, build_solution, mode_motion_vec
from .model import ModelSpec, _as_dict, _check_positive
from .spectral import SpectralData, static_offset
from .svgout import SvgCanvas

__all__ = [
    "Trajectory",
    "ValidatorTolerances",
    "ValidationReport",
    "synthesize",
    "validate",
    "to_csv",
    "to_json",
    "to_svg",
    "trajectory_from_json",
]

# CSV label of each value of ``Trajectory.phase``
_PHASE_NAMES = ("unconstrained", "constrained")

# Samples per full phase in ``validate``.
CHECK_SAMPLES = 2001

# Largest deviation of a solution's model quantity from the given model's,
# relative to the largest entry of the model's.
MODEL_RTOL = 1e-9

# Largest deviation of a stored trajectory value (sample or solution number)
# from the one derived again, relative to the derived value's largest magnitude.
SAMPLE_RTOL = 1e-12


def _free_state(spectral: SpectralData, q, t):
    """Analytic x, xd, xdd in the free phase at times t (array)."""
    g, gd = mode_motion_vec(t, spectral.lam, spectral.sigma)
    X = spectral.mode_matrix
    x = (g * q) @ X.T
    xd = (gd * q) @ X.T
    xdd = ((-spectral.lam * g) * q) @ X.T
    return x, xd, xdd


def _contact_state(spectral: SpectralData, q_prime, u):
    """Analytic x, xd, xdd in the contact phase at offsets u from its symmetry point."""
    gp, gpd = mode_motion_vec(u, spectral.lam_prime, spectral.sigma_prime)
    Xp = spectral.mode_matrix_prime
    x = (gp * q_prime) @ Xp.T + spectral.static_offset[None, :]
    xd = (gpd * q_prime) @ Xp.T
    xdd = ((-spectral.lam_prime * gp) * q_prime) @ Xp.T
    return x, xd, xdd


def _scale(values) -> float:
    """Largest magnitude in ``values``, floored away from zero."""
    return max(np.abs(values).max(), 1e-300)


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


def synthesize(solution: ImpactSolution, samples_per_phase: int = 500) -> Trajectory:
    """Sample the half-cycle trajectory of a solution analytically (no integration).

    Each phase contributes ``samples_per_phase`` intervals; the impact sample
    is shared, so the total row count is 2 * samples_per_phase + 1.
    """
    if samples_per_phase < 1:
        raise InvalidParameterError("samples_per_phase must be >= 1")
    spectral = solution.spectral
    times = solution.times
    tau, taup = times.tau, times.tau_prime
    t_free = np.linspace(0.0, tau, samples_per_phase + 1)
    t_contact = np.linspace(tau, tau + taup, samples_per_phase + 1)[1:]
    x_f, xd_f, xdd_f = _free_state(spectral, solution.q, t_free)
    u_contact = t_contact - (tau + taup)
    x_c, xd_c, xdd_c = _contact_state(spectral, solution.q_prime, u_contact)
    x = np.vstack([x_f, x_c])
    xd = np.vstack([xd_f, xd_c])
    xdd = np.vstack([xdd_f, xdd_c])
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
    contact_sign * F_N over the full contact phase; negative values beyond
    the contact tolerance (times the respective scale) fail the check.  Every
    scale a tolerance multiplies (velocity, acceleration, position, energy,
    clearance, force) is a maximum over the full phases.
    """

    impact_velocity_residual: float
    impact_accel_residual: float
    continuity_residual: float
    energy_variation: float
    penetration_violation: float
    contact_force_violation: float
    passed: bool
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
        ("static_offset", spectral.static_offset, static_offset(model)),
    ):
        if np.abs(ours - theirs).max() > MODEL_RTOL * np.abs(theirs).max():
            raise InvalidParameterError(f"the solution is not one of this model: {name} differs")


def validate(solution: ImpactSolution, model: ModelSpec,
             tolerances: ValidatorTolerances | None = None) -> ValidationReport:
    """Check impact conditions, conservation, clearance and contact force.

    Impact conditions and continuity are evaluated analytically from both
    phase formulas at the impact.  Everything else, and every scale, comes
    from CHECK_SAMPLES analytic samples of each full symmetric phase
    (t in [-tau, tau] and u in [-tau', tau']), where higher-branch roots
    reveal attractive-force stretches invisible on the emitted half cycle.

    Raises InvalidParameterError, naming the quantity, when the solution's
    derived mass or stiffness matrix, signatures or static offset differ
    from the model's by more than MODEL_RTOL of its largest entry.
    """
    tol = tolerances or ValidatorTolerances()
    spectral = solution.spectral
    _check_same_model(spectral, model)
    times = solution.times
    tau, taup = times.tau, times.tau_prime
    q, qp = solution.q, solution.q_prime

    x_f, xd_f, xdd_f = _free_state(spectral, q, np.array([tau]))
    x_c, xd_c, _ = _contact_state(spectral, qp, np.array([-taup]))
    v_resid = abs(xd_f[0, -1])
    a_resid = abs(xdd_f[0, -1])
    continuity = max(
        np.abs(x_f[0] - x_c[0]).max(), np.abs(xd_f[0] - xd_c[0]).max()
    )

    # (x, xd, xdd) of each full phase, then of both stacked
    free = _free_state(spectral, q, np.linspace(-tau, tau, CHECK_SAMPLES))
    contact = _contact_state(spectral, qp, np.linspace(-taup, taup, CHECK_SAMPLES))
    x, xd, xdd = (np.vstack(pair) for pair in zip(free, contact))
    energy = _energy(spectral, x, xd)
    energy_var = float((energy.max() - energy.min()) / _scale(energy))

    sign = model.contact_sign
    clearance = sign * (free[0][:, -1] - spectral.static_offset[-1])
    penetration = float(clearance.min())
    force = sign * (contact[2] @ model.mass[-1] + contact[0] @ model.stiffness[-1])
    force_violation = float(force.min())

    passed = (
        v_resid < tol.velocity * _scale(xd)
        and a_resid < tol.acceleration * _scale(xdd)
        and continuity < tol.continuity * max(np.abs(x).max(), _scale(xd))
        and energy_var < tol.energy
        and penetration >= -tol.contact * _scale(clearance)
        and force_violation >= -tol.contact * _scale(force)
    )
    return ValidationReport(
        impact_velocity_residual=float(v_resid),
        impact_accel_residual=float(a_resid),
        continuity_residual=float(continuity),
        energy_variation=energy_var,
        penetration_violation=penetration,
        contact_force_violation=force_violation,
        passed=bool(passed),
        tolerances=tol,
    )


# ------------------------------------------------------------------- exporters

def to_csv(traj: Trajectory, path):
    n = traj.n
    header = (
        ["t", "phase"]
        + [f"x{i + 1}" for i in range(n)]
        + [f"xd{i + 1}" for i in range(n)]
        + [f"xdd{i + 1}" for i in range(n)]
        + ["energy", "constraint_force"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        phase = traj.phase
        for i in range(traj.t.size):
            row = [f"{traj.t[i]:.12g}", _PHASE_NAMES[phase[i]]]
            row += [f"{v:.12e}" for v in traj.x[i]]
            row += [f"{v:.12e}" for v in traj.xdot[i]]
            row += [f"{v:.12e}" for v in traj.xddot[i]]
            row.append(f"{traj.energy[i]:.12e}")
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
    that fail ``SpectrumPair``'s checks, or stores a solution number that
    disagrees with the rebuilt one raises InvalidParameterError naming the
    file and the fault.
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
        solution = build_solution(spectral, times)
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
