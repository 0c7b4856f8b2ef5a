"""End-to-end solve: spectral analysis, existence gate, scan, refine, certify, validate."""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .critical import existence_gate
from .errors import (
    ConvergenceError,
    DegenerateSolutionError,
    InvalidParameterError,
    NoExistenceError,
    _real_array,
    _require_instance,
)
from .impact import (
    RANK_GAP_MAX,
    ContourField,
    GridSpec,
    ImpactSolution,
    build_solutions,
    refine_roots,
    scan_contour,
)
from .model import ModelSpec
from .spectral import SpectralData, analyze
from .trajectory import ValidationReport, ValidatorTolerances, validate_solutions

__all__ = ["RootRecord", "SolveRun", "solve_model", "pick_records", "RANK_GAP_MAX"]

ROOT_MERGE_ATOL = 1e-6
ROW_CLUSTER_GAP = np.pi / 2
# Stages of ``solve_model`` timed in ``SolveRun.timings``, in run order.
STAGES = ("analyze", "gate", "scan", "refine", "certify", "validate")


@dataclass(frozen=True, eq=False)
class RootRecord:
    """One certified root with its physical-validation report and grid position."""

    solution: ImpactSolution
    report: ValidationReport
    row: int
    col: int

    @property
    def accepted(self) -> bool:
        return self.report.passed


@dataclass(eq=False)
class SolveRun:
    """Everything produced by one full solve of a model.

    ``timings`` maps each name in ``STAGES`` to its wall time in seconds.
    """

    model: ModelSpec
    spectral: SpectralData
    contour: ContourField
    records: list
    spurious_roots: int = 0
    failed_seeds: int = 0
    timings: dict = field(default_factory=dict)


def _cluster_rows(values, gap):
    """Row index per value: sorted values further apart than ``gap`` start a new row."""
    order = np.argsort(values)
    ordered = np.asarray(values)[order]
    rows = np.empty(len(values), dtype=int)
    rows[order] = np.cumsum(np.diff(ordered, prepend=ordered[0]) > gap)
    return rows


def solve_model(model: ModelSpec, grid: GridSpec | None = None, *,
                tolerances: ValidatorTolerances | None = None) -> SolveRun:
    """Run the full procedure on a model and return every certified root.

    One ``refine_roots`` call refines every seed of the scan in lockstep, with
    at most 1 + 2 * (largest iteration count) residual calls in all; the
    converged seeds are then merged within ROOT_MERGE_ATOL, and the others
    counted in ``failed_seeds``, in seed order.  Raises NoExistenceError when
    the largest contact eigenvalue is not positive, and ConvergenceError when
    no seed refines to a certified root.
    One ``build_solutions`` call certifies the merged roots with one SVD
    call; the roots it refuses with DegenerateSolutionError (a matching
    matrix that keeps full rank, as at spurious curve crossings, e.g. from
    kernel zeros) are dropped and counted in ``spurious_roots``.  One
    ``validate_solutions`` call then validates the certified roots, in
    record order (rows of o_prime, each sorted by o_n).
    """
    marks = [perf_counter()]   # one mark after each stage
    spectral = analyze(model)
    marks.append(perf_counter())
    if not existence_gate(spectral.lam_prime):
        raise NoExistenceError(
            f"largest contact eigenvalue {spectral.lam_prime[-1]:.6g} is not positive"
        )
    marks.append(perf_counter())
    contour = scan_contour(spectral, grid)
    marks.append(perf_counter())
    roots = []
    kept = np.empty((len(contour.seeds), 2))   # (o_n, o_prime) of roots[k] in row k
    failed = 0
    for times in refine_roots(contour.seeds, spectral, spectral.M, spectral.eta):
        if isinstance(times, ConvergenceError):
            failed += 1
            continue
        point = (times.o_n, times.o_prime)
        if (np.abs(kept[: len(roots)] - point).max(axis=1) < ROOT_MERGE_ATOL).any():
            continue
        kept[len(roots)] = point
        roots.append(times)
    marks.append(perf_counter())
    outcomes = build_solutions(spectral, roots)
    solutions = [s for s in outcomes if not isinstance(s, DegenerateSolutionError)]
    if not solutions:
        raise ConvergenceError("no certified impact-time root in the scan window")
    marks.append(perf_counter())
    o_primes = [s.times.o_prime for s in solutions]
    rows = _cluster_rows(o_primes, ROW_CLUSTER_GAP)
    places = []   # (solution, row, col) in record order
    for row_idx in range(rows.max() + 1):
        members = [s for s, r in zip(solutions, rows) if r == row_idx]
        members.sort(key=lambda s: s.times.o_n)
        places += [(solution, row_idx, col_idx) for col_idx, solution in enumerate(members)]
    reports = validate_solutions([solution for solution, _, _ in places], model, tolerances)
    records = [RootRecord(solution=solution, report=report, row=row, col=col)
               for (solution, row, col), report in zip(places, reports)]
    marks.append(perf_counter())
    return SolveRun(
        model=model,
        spectral=spectral,
        contour=contour,
        records=records,
        spurious_roots=len(outcomes) - len(solutions),
        failed_seeds=failed,
        timings={stage: b - a for stage, a, b in zip(STAGES, marks, marks[1:])},
    )


def pick_records(run: SolveRun, strategy) -> list:
    """Select records: 'lowest-row', 'all', or a ('nearest', (o_n, o_p)) tuple.

    'lowest-row' returns the leftmost validated root of the lowest validated
    row; 'all' returns every validated root; 'nearest' returns the single
    converged root closest to the given phases, two finite numbers,
    regardless of validation.
    """
    _require_instance(run, SolveRun, "run")
    if (isinstance(strategy, tuple) and len(strategy) == 2 and isinstance(strategy[0], str)
            and strategy[0] == "nearest"):
        target = _real_array(strategy[1], "nearest target", InvalidParameterError)
        if target.shape != (2,) or not np.isfinite(target).all():
            raise InvalidParameterError(
                f"nearest target must be two finite phases (o_n, o_prime), got {strategy[1]!r}"
            )
        best = min(
            run.records,
            key=lambda r: np.hypot(
                r.solution.times.o_n - target[0], r.solution.times.o_prime - target[1]
            ),
        )
        return [best]
    if not isinstance(strategy, str):
        raise InvalidParameterError(f"unknown pick strategy {strategy!r}")
    if strategy == "all":
        return [r for r in run.records if r.accepted]
    if strategy == "lowest-row":
        accepted = [r for r in run.records if r.accepted]
        if not accepted:
            return []
        lowest = min(r.row for r in accepted)
        in_row = [r for r in accepted if r.row == lowest]
        return [min(in_row, key=lambda r: r.solution.times.o_n)]
    raise InvalidParameterError(f"unknown pick strategy {strategy!r}")
