"""The benchmark's workloads: seeded inputs, the timed call, checks and fingerprints.

Every library call a task makes is resolved through its defining module at
call time (``_pipeline.solve_model``, ``_impact.scan_contour``, ...), so the
tracer can rebind those names.  The correctness checks use the functions
captured below at import time, before any tracing, so they never show up in
the per-layer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from collisionless import cauchy as _cauchy
from collisionless import closed_form as _closed_form
from collisionless import critical as _critical
from collisionless import impact as _impact
from collisionless import model as _model
from collisionless import pipeline as _pipeline
from collisionless.cauchy import cauchy_matrix as _check_cauchy_matrix
from collisionless.cauchy import eta as _check_eta
from collisionless.errors import CollisionlessError, ConvergenceError, NoExistenceError
from collisionless.impact import assemble_impact_matrix as _check_assemble
from collisionless.impact import impact_residual as _check_residual
from collisionless.reference import REFERENCE, TOLERANCES, compare_reference
from collisionless.spectral import analyze as _check_analyze

RANK_GAP_MAX = _pipeline.RANK_GAP_MAX
RESIDUAL_MAX = 1e-11
ORACLE_TOL = 1e-8
HOPPER_RESIDUAL_MAX = 1e-12
PHASE_DIGITS = 8

# solve-batch models drawn from this fixed seed are the same in every run; they
# hold the workload's cost mix steady across run seeds (see README.md).
REFERENCE_SEED = 20240226

# Criterion-1 quantities of the armed-biped reference (mode_matrix_prime is
# only checked by the ``reproduce`` command).
BIPED_KEYS = ("lam", "lam_prime", "norm_const", "cauchy", "mode_matrix",
              "tau", "tau_prime", "q", "q_prime")


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its tasks, run one, and judge the result.

    ``make_tasks(seed)`` returns the task pool; the timed phase cycles through
    it, and the first ``fixed_tasks`` of it are always run, so fingerprints
    and per-layer counts cover the same tasks in every run with one seed.
    """

    name: str
    why: str
    make_tasks: Callable
    run: Callable
    check: Callable
    fingerprint: Callable
    items: Callable
    fixed_tasks: int
    tail_percentile: float


def _phase(x: float) -> float:
    return round(float(x), PHASE_DIGITS)


# ------------------------------------------------------------------ solve-batch

SOLVE_DOFS = (3, 4, 5, 6)
SOLVE_PER_DOF = 20
SOLVE_SEEDED_EVERY = 3


@dataclass(frozen=True)
class ModelTask:
    label: str
    model: object


def random_spd_model(n: int, rng, name: str):
    """Random well-conditioned model, accepted by the rules of the test helper.

    SPD mass, symmetric stiffness, random signatures; spectra with small
    gaps, near-zero eigenvalues or tiny contact-row amplitudes are redrawn.
    """
    while True:
        L = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        mass = L @ L.T
        k = rng.standard_normal((n, n))
        stiffness = 0.5 * (k + k.T)
        try:
            model = _model.ModelSpec(
                name=name, n=n, mass=mass, stiffness=stiffness,
                sigma=rng.choice([-1, 1], n), sigma_prime=rng.choice([-1, 1], n - 1),
                static_force=1.0, contact_sign=1,
            )
            spectral = _check_analyze(model)
        except CollisionlessError:
            continue
        lam, lamp = spectral.lam, spectral.lam_prime
        spread = lam.max() - lam.min()
        merged = np.sort(np.concatenate([lam, lamp]))
        if np.diff(merged).min() < 0.02 * spread:
            continue
        if np.abs(lam).min() < 1e-3 * np.abs(lam).max():
            continue
        row = np.abs(spectral.mode_matrix[-1, :])
        if row.min() < 1e-2 or row.max() > 1e3:
            continue
        return model


def solve_batch_tasks(seed: int) -> list:
    """Armed biped first, then the random models interleaved by N.

    Every third slot draws its models from the run seed, the others from
    REFERENCE_SEED; see README.md for why.
    """
    reference = np.random.default_rng(REFERENCE_SEED)
    seeded = np.random.default_rng(seed)
    tasks = [ModelTask("armed-biped", _model.build_armed_biped())]
    for slot in range(SOLVE_PER_DOF):
        is_seeded = slot % SOLVE_SEEDED_EVERY == SOLVE_SEEDED_EVERY - 1
        rng, kind = (seeded, "seeded") if is_seeded else (reference, "ref")
        for n in SOLVE_DOFS:
            label = f"n{n}-{kind}-{slot}"
            tasks.append(ModelTask(label, random_spd_model(n, rng, label)))
    return tasks


def solve_batch_run(task: ModelTask):
    try:
        return "ok", _pipeline.solve_model(task.model)
    except NoExistenceError:
        return "no-existence", None
    except ConvergenceError:
        return "no-convergence", None


def solve_batch_check(task: ModelTask, outcome) -> list:
    status, run = outcome
    if task.label == "armed-biped" and status != "ok":
        return [f"armed biped: {status}"]
    if status != "ok":
        return []
    problems = []
    spectral = run.spectral
    M = _check_cauchy_matrix(spectral.lam, spectral.lam_prime)
    eta_vec = _check_eta(spectral.lam, spectral.lam_prime)
    for record in run.records:
        times = record.solution.times
        _, gap = _check_assemble(spectral, times.tau, times.tau_prime)
        if not gap < RANK_GAP_MAX:
            problems.append(f"{task.label}: rank gap {gap:.2e} at {times.o_n:.6f}")
        res = np.abs(_check_residual((times.o_n, times.o_prime), spectral.spectra, M, eta_vec))
        if not res.max() < RESIDUAL_MAX:
            problems.append(f"{task.label}: residual {res.max():.2e} at {times.o_n:.6f}")
    if task.label == "armed-biped":
        problems += _biped_reference_problems(run, M)
    return problems


def _biped_reference_problems(run, M) -> list:
    picked = _pipeline.pick_records(run, "lowest-row")
    if not picked:
        return ["armed biped: no validated lowest-row root"]
    solution = picked[0].solution
    spectral = run.spectral
    computed = {
        "lam": spectral.lam,
        "lam_prime": spectral.lam_prime,
        "norm_const": spectral.norm_const,
        "cauchy": M,
        "mode_matrix": spectral.mode_matrix,
        "tau": solution.times.tau,
        "tau_prime": solution.times.tau_prime,
        "q": solution.q,
        "q_prime": solution.q_prime,
    }
    reference = {key: REFERENCE[key] for key in BIPED_KEYS}
    rows = compare_reference(computed, reference, TOLERANCES)
    return [f"armed biped {r.name}: {r.max_diff:.2e} >= {r.tolerance:.0e}"
            for r in rows if not r.passed]


def solve_batch_fingerprint(task: ModelTask, outcome):
    status, run = outcome
    if status != "ok":
        return [task.label, status]
    return [
        task.label,
        status,
        len(run.records),
        sum(bool(r.accepted) for r in run.records),
        run.failed_seeds,
        run.spurious_roots,
        [[_phase(r.solution.times.o_n), _phase(r.solution.times.o_prime), r.row, r.col]
         for r in run.records],
    ]


# ------------------------------------------------------------------ n2-oracle

N2_GRID = _impact.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
N2_BRANCHES = {"rocker": (2, 3, 4), "rimless": (1, 2, 3)}
N2_POOL = 200
N2_FIXED = 30


@dataclass(frozen=True)
class Spectrum:
    family: str
    nu1: float
    omega2: float
    omega1p: float


@dataclass(frozen=True)
class OracleTask:
    spectra: tuple     # one rocker and one rimless Spectrum
    hopper: tuple      # (omega2, omega1p, branch) for the hopper/juggler residuals


@dataclass(frozen=True)
class SpectrumOutcome:
    seeds: int
    failed: int
    roots: np.ndarray
    branches: list     # (branch, N2Solution) per closed-form branch


@dataclass(frozen=True)
class OracleOutcome:
    spectra: list      # SpectrumOutcome per spectrum of the task
    hoppers: list      # hopper and juggler N2Solution


def n2_oracle_tasks(seed: int) -> list:
    """Rocker/rimless spectrum pairs drawn as in acceptance criterion 2.

    A task holds one spectrum of each family: a rocker spectrum costs about
    five times a rimless one, so single-spectrum task times would split into
    two clusters with the median falling between them.
    """
    rng = np.random.default_rng(seed)
    tasks = []
    for _ in range(N2_POOL):
        spectra = []
        for family in ("rocker", "rimless"):
            nu1 = rng.uniform(0.3, 2.0)
            om2 = rng.uniform(1.0, 3.0)
            spectra.append(Spectrum(family, nu1, om2, om2 * rng.uniform(0.25, 0.9)))
        h_om2 = rng.uniform(0.5, 3.0)
        hopper = (h_om2, h_om2 * rng.uniform(0.2, 0.9), int(rng.integers(2, 6)))
        tasks.append(OracleTask(tuple(spectra), hopper))
    return tasks


def _oracle_spectrum(spec: Spectrum) -> SpectrumOutcome:
    pair = _model.n2_spectrum(spec.family, nu1=spec.nu1, omega2=spec.omega2,
                              omega1p=spec.omega1p)
    M = _cauchy.cauchy_matrix(pair.lam, pair.lam_prime)
    eta_vec = _cauchy.eta(pair.lam, pair.lam_prime)
    field = _impact.scan_contour(pair, N2_GRID)
    roots = []
    failed = 0
    for seed in field.seeds:
        try:
            t = _impact.refine_root(seed, pair, M, eta_vec, max_iter=40)
        except ConvergenceError:
            failed += 1
            continue
        roots.append((t.o_n, t.o_prime))
    solver = getattr(_closed_form, f"solve_{spec.family}")
    branches = [(n, solver(spec.nu1, spec.omega2, spec.omega1p, n))
                for n in N2_BRANCHES[spec.family]]
    return SpectrumOutcome(len(field.seeds), failed, np.array(roots).reshape(-1, 2), branches)


def n2_oracle_run(task: OracleTask) -> OracleOutcome:
    spectra = [_oracle_spectrum(spec) for spec in task.spectra]
    hoppers = [_closed_form.solve_hopper(*task.hopper), _closed_form.solve_juggler(*task.hopper)]
    return OracleOutcome(spectra, hoppers)


def _in_window(sol) -> bool:
    return bool(sol.o_2 <= N2_GRID.o_n_max - 0.2 and sol.o_prime_1 >= 0.03)


def n2_oracle_check(task: OracleTask, out: OracleOutcome) -> list:
    problems = []
    for spec, got in zip(task.spectra, out.spectra):
        label = f"{spec.family} {spec.nu1:.4f},{spec.omega2:.4f},{spec.omega1p:.4f}"
        if not len(got.roots):
            problems.append(f"{label}: no generic roots")
            continue
        for n, sol in got.branches:
            if not _in_window(sol):
                continue
            delta = np.abs(got.roots - [sol.o_2, sol.o_prime_1]).max(axis=1).min()
            if not delta < ORACLE_TOL:
                problems.append(f"{label} n={n}: |delta o| = {delta:.2e}")
    for sol in out.hoppers:
        r1 = sol.o_2 / np.tan(sol.o_2) - 1.0
        r2 = sol.mu * sol.o_prime_1 / np.tan(sol.o_prime_1) + 1.0
        if not max(abs(r1), abs(r2)) < HOPPER_RESIDUAL_MAX:
            problems.append(f"{sol.family} n={sol.n}: residual {max(abs(r1), abs(r2)):.2e}")
    return problems


def n2_oracle_fingerprint(task: OracleTask, out: OracleOutcome):
    return [
        [[spec.family, got.seeds, got.failed, sum(_in_window(sol) for _, sol in got.branches),
          [[_phase(a), _phase(b)] for a, b in got.roots]]
         for spec, got in zip(task.spectra, out.spectra)],
        [_phase(sol.o_2) for sol in out.hoppers],
    ]


# ------------------------------------------------------------------ c0-study

C0_DOFS = (2, 3, 5)
C0_SAMPLES = 100
C0_POOL = 90
C0_FIXED = 9


@dataclass(frozen=True)
class StudyTask:
    n_dof: int
    seed: int


def c0_study_tasks(seed: int) -> list:
    rng = np.random.default_rng(seed)
    return [StudyTask(C0_DOFS[i % len(C0_DOFS)], int(rng.integers(2 ** 31)))
            for i in range(C0_POOL)]


def c0_study_run(task: StudyTask):
    return _critical.c0_sampling_study(C0_SAMPLES, task.n_dof, task.seed)


def c0_study_check(task: StudyTask, summary) -> list:
    label = f"c0 study N={task.n_dof} seed={task.seed}"
    problems = []
    if summary.samples != C0_SAMPLES:
        problems.append(f"{label}: {summary.samples} samples")
    if summary.failures != 0:
        problems.append(f"{label}: {summary.failures} failures")
    if summary.nonpositive != 0:
        problems.append(f"{label}: {summary.nonpositive} non-positive c0")
    if not (np.isfinite(summary.min_c0) and summary.min_c0 > 0):
        problems.append(f"{label}: min c0 = {summary.min_c0!r}")
    return problems


def c0_study_fingerprint(task: StudyTask, summary):
    return [task.n_dof, task.seed, summary.failures, summary.nonpositive, summary.min_c0]


# ------------------------------------------------------------------ registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="solve-batch",
            why=("The real solve path on the armed biped and random SPD models, N = 3..6: "
                 "heavy on the contour scan, with refinement, synthesis and validation."),
            make_tasks=solve_batch_tasks,
            run=solve_batch_run,
            check=solve_batch_check,
            fingerprint=solve_batch_fingerprint,
            items=lambda task: 1,
            fixed_tasks=1 + len(SOLVE_DOFS) * 10,
            tail_percentile=80.0,
        ),
        Workload(
            name="n2-oracle",
            why=("Criterion-2 traffic: N = 2 scan on a fine narrow grid, then refinement "
                 "of every seed; heavy on refinement, bypasses pipeline and trajectory."),
            make_tasks=n2_oracle_tasks,
            run=n2_oracle_run,
            check=n2_oracle_check,
            fingerprint=n2_oracle_fingerprint,
            items=lambda task: len(task.spectra),
            fixed_tasks=N2_FIXED,
            tail_percentile=85.0,
        ),
        Workload(
            name="c0-study",
            why=("Randomized c0-positivity study, N cycling 2, 3, 5: uses only the critical "
                 "layer; impact, pipeline and trajectory never run."),
            make_tasks=c0_study_tasks,
            run=c0_study_run,
            check=c0_study_check,
            fingerprint=c0_study_fingerprint,
            items=lambda task: C0_SAMPLES,
            fixed_tasks=C0_FIXED,
            tail_percentile=65.0,
        ),
    )
}
