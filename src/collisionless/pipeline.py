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
)
from .impact import (
    RANK_GAP_MAX,
    ContourField,
    GridSpec,
    ImpactSolution,
    build_solution,
    refine_root,
    scan_contour,
)
from .model import ModelSpec
from .spectral import SpectralData, analyze
from .trajectory import ValidationReport, ValidatorTolerances, validate

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

    Raises NoExistenceError when the largest contact eigenvalue is not
    positive, and ConvergenceError when no seed refines to a certified root.
    Refined roots that ``build_solution`` refuses with DegenerateSolutionError
    (a matching matrix that keeps full rank, as at spurious curve crossings,
    e.g. from kernel zeros) are dropped and counted in ``spurious_roots``.
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
    failed = 0
    for seed in contour.seeds:
        try:
            times = refine_root(seed, spectral, spectral.M, spectral.eta)
        except ConvergenceError:
            failed += 1
            continue
        point = np.array([times.o_n, times.o_prime])
        if any(
            np.abs(point - np.array([r.o_n, r.o_prime])).max() < ROOT_MERGE_ATOL
            for r in roots
        ):
            continue
        roots.append(times)
    marks.append(perf_counter())
    spurious = 0
    solutions = []
    for times in roots:
        try:
            solution = build_solution(spectral, times)
        except DegenerateSolutionError:
            spurious += 1
            continue
        solutions.append(solution)
    if not solutions:
        raise ConvergenceError("no certified impact-time root in the scan window")
    marks.append(perf_counter())
    o_primes = [s.times.o_prime for s in solutions]
    rows = _cluster_rows(o_primes, ROW_CLUSTER_GAP)
    records = []
    for row_idx in range(rows.max() + 1):
        members = [s for s, r in zip(solutions, rows) if r == row_idx]
        members.sort(key=lambda s: s.times.o_n)
        for col_idx, solution in enumerate(members):
            report = validate(solution, model, tolerances)
            records.append(
                RootRecord(solution=solution, report=report, row=row_idx, col=col_idx)
            )
    marks.append(perf_counter())
    return SolveRun(
        model=model,
        spectral=spectral,
        contour=contour,
        records=records,
        spurious_roots=spurious,
        failed_seeds=failed,
        timings={stage: b - a for stage, a, b in zip(STAGES, marks, marks[1:])},
    )


def pick_records(run: SolveRun, strategy) -> list:
    """Select records: 'lowest-row', 'all', or a ('nearest', (o_n, o_p)) tuple.

    'lowest-row' returns the leftmost validated root of the lowest validated
    row; 'all' returns every validated root; 'nearest' returns the single
    converged root closest to the given phases regardless of validation.
    """
    if isinstance(strategy, tuple) and strategy and strategy[0] == "nearest":
        target = np.asarray(strategy[1], float)
        best = min(
            run.records,
            key=lambda r: np.hypot(
                r.solution.times.o_n - target[0], r.solution.times.o_prime - target[1]
            ),
        )
        return [best]
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
