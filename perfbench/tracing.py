"""Outside-in layer tracing for the benchmark.

The tracer wraps the public functions that the library's own modules call,
by rebinding the names those modules resolve at call time.  Each call
records a span ``(name, site, start, end, parent, task, error)`` in memory;
the spans are written out when the run ends.  Self time is a span's duration
minus the part of it covered by its child spans, so the self times of all
spans of a task sum to the task's traced wall time.

A target whose function or binding no longer exists is reported as absent
and contributes zero counts; it never stops the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from collisionless.pipeline import RANK_GAP_MAX

# A binding is (site module, wrapped layer function).  The site is the module
# whose global name gets rebound: the library modules for calls the library
# makes itself, and the defining module for calls the benchmark makes.
SITE_PIPELINE = "pipeline"
SITE_IMPACT = "impact"
SITE_CRITICAL = "critical"
CAUCHY_SITES = (SITE_PIPELINE, SITE_IMPACT, SITE_CRITICAL)


@dataclass(frozen=True)
class Target:
    """One wrapped function: its span name, where it is defined, where it is called."""

    name: str
    module: str
    attr: str
    sites: tuple


TARGETS = (
    # entry points the benchmark calls
    Target("pipeline.solve_model", "pipeline", "solve_model", ("pipeline",)),
    Target("critical.c0_sampling_study", "critical", "c0_sampling_study", ("critical",)),
    Target("closed_form.solve_rocker", "closed_form", "solve_rocker", ("closed_form",)),
    Target("closed_form.solve_rimless", "closed_form", "solve_rimless", ("closed_form",)),
    Target("closed_form.solve_hopper", "closed_form", "solve_hopper", ("closed_form",)),
    Target("closed_form.solve_juggler", "closed_form", "solve_juggler", ("closed_form",)),
    # layers reached from the pipeline, and from the benchmark on n2-oracle
    Target("spectral.analyze", "spectral", "analyze", ("pipeline",)),
    Target("critical.existence_gate", "critical", "existence_gate", ("pipeline",)),
    Target("impact.scan_contour", "impact", "scan_contour", ("pipeline", "impact")),
    Target("impact.refine_root", "impact", "refine_root", ("pipeline", "impact")),
    Target("impact.build_solution", "impact", "build_solution", ("pipeline",)),
    Target("trajectory.synthesize", "trajectory", "synthesize", ("pipeline",)),
    Target("trajectory.validate", "trajectory", "validate", ("pipeline",)),
    # inner layers of impact
    Target("impact.impact_residual", "impact", "impact_residual", ("impact",)),
    Target("impact.assemble_impact_matrix", "impact", "assemble_impact_matrix", ("impact",)),
    # critical region
    Target("critical.solve_critical", "critical", "solve_critical", ("critical",)),
    Target("critical.critical_roots", "critical", "critical_roots", ("critical",)),
    Target("critical.brentq", "scipy.optimize", "brentq", ("critical",)),
    # Cauchy algebra, counted per call site; the "cauchy" site is the benchmark
    Target("cauchy.cauchy_matrix", "cauchy", "cauchy_matrix",
           CAUCHY_SITES + ("spectral", "cauchy")),
    Target("cauchy.eta", "cauchy", "eta", CAUCHY_SITES + ("cauchy",)),
)

TIMED_NAMES = tuple(t.name for t in TARGETS)


def _module(short: str):
    path = short if "." in short else f"collisionless.{short}"
    return importlib.import_module(path)


def _both_change(det):
    s = np.sign(det)
    return (
        (s[:-1, :-1] != s[1:, :-1])
        | (s[:-1, :-1] != s[:-1, 1:])
        | (s[1:, 1:] != s[1:, :-1])
        | (s[1:, 1:] != s[:-1, 1:])
    )


def _count_scan(counts, field):
    """Work done by one scan, recomputed from the returned field."""
    counts["impact.scan_contour.grid_points"] += int(field.det_a.size)
    cells = _both_change(field.det_a) & _both_change(field.det_b)
    counts["impact.scan_contour.seed_cells"] += int(np.count_nonzero(cells))
    counts["impact.scan_contour.seeds"] += int(len(field.seeds))
    counts["impact.scan_contour.curve_vertices"] += int(
        sum(len(p) for p in field.curves_a) + sum(len(p) for p in field.curves_b)
    )


class Tracer:
    """Span recorder; ``install`` rebinds the targets, ``restore`` undoes it."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.absent: list = []
        self.task = -1
        self._stack: list = []
        self._patches: list = []
        self._on_result = {
            "impact.scan_contour": _count_scan,
            "impact.build_solution": _count_solution,
            "trajectory.validate": _count_validation,
        }

    def wrap(self, name: str, site: str, fn):
        spans, stack = self.spans, self._stack
        on_result = self._on_result.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, site, start, end, parent, self.task, error)
            if on_result is not None:
                on_result(self.counts, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_task(self, task_id: int, fn, *args):
        """Run one benchmark task under a root span named ``task``."""
        self.task = task_id
        try:
            return self.wrap("task", "bench", fn)(*args)
        finally:
            self.task = -1

    def install(self):
        self.absent = []
        for target in TARGETS:
            try:
                original = getattr(_module(target.module), target.attr)
            except (ImportError, AttributeError):
                self.absent.append(target.name)
                continue
            for site in target.sites:
                module = _module(site)
                names = [k for k, v in vars(module).items() if v is original]
                if not names:
                    self.absent.append(f"{target.name}@{site}")
                for attr in names:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, self.wrap(target.name, site, original))

    def restore(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches = []

    # ------------------------------------------------------------ reduction

    def self_times(self) -> list:
        """Per-span self time: duration minus the time its children cover.

        Calls are single-threaded and properly nested, so the children of a
        span are disjoint sub-intervals and their durations add up to the
        covered time.
        """
        covered = [0.0] * len(self.spans)
        for _, _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [s[3] - s[2] - c for s, c in zip(self.spans, covered)]

    def layer_metrics(self) -> dict:
        """Aggregate calls, busy and self time per wrapped name plus derived counts."""
        calls: Counter = Counter()
        busy: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        site_calls: Counter = Counter()
        errors: Counter = Counter()
        refine_in_pipeline = 0
        failed_in_pipeline = 0
        spurious = 0
        for span, self_s in zip(self.spans, self.self_times()):
            name, site, start, end, parent, _, error = span
            calls[name] += 1
            busy[name] += end - start
            own[name] += self_s
            site_calls[(name, site)] += 1
            if error is not None:
                errors[name] += 1
            if name == "impact.refine_root" and site == SITE_PIPELINE:
                refine_in_pipeline += 1
                failed_in_pipeline += error is not None
            if name == "impact.build_solution" and error is not None:
                spurious += 1
        certified = self.counts["pipeline.roots_certified"]
        spurious += calls["impact.build_solution"] - errors["impact.build_solution"] - certified
        out = {}
        for name in TIMED_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        for key in (
            "impact.scan_contour.grid_points",
            "impact.scan_contour.seed_cells",
            "impact.scan_contour.seeds",
            "impact.scan_contour.curve_vertices",
            "trajectory.validate.passed",
        ):
            out[key] = self.counts[key]
        out["impact.refine_root.failed"] = errors["impact.refine_root"]
        out["impact.residual_evals_per_refine"] = _ratio(
            calls["impact.impact_residual"], calls["impact.refine_root"]
        )
        out["pipeline.seeds_refined"] = refine_in_pipeline
        out["pipeline.failed_seeds"] = failed_in_pipeline
        out["pipeline.spurious_roots"] = spurious
        out["pipeline.roots_certified"] = certified
        out["pipeline.certified_per_seed"] = _ratio(certified, refine_in_pipeline)
        out["critical.roots_used_per_polish"] = _ratio(
            calls["critical.solve_critical"], calls["critical.brentq"]
        )
        for fn in ("cauchy_matrix", "eta"):
            for site in CAUCHY_SITES:
                out[f"{site}.{fn}.calls"] = site_calls[(f"cauchy.{fn}", site)]
        task_s = busy["task"]
        out["trace.task_s"] = task_s
        out["trace.unwrapped_s"] = own["task"]
        out["trace.tasks"] = calls["task"]
        out["trace.spans"] = len(self.spans) - calls["task"]
        return out

    def self_time_gap(self) -> float:
        """|sum of all self times - traced task time|; zero up to rounding."""
        total = sum(s[3] - s[2] for s in self.spans if s[0] == "task")
        return abs(sum(self.self_times()) - total)

    def write(self, path):
        """Write every span as one JSON document (gzip-compressed)."""
        fields = ["name", "site", "start", "end", "parent", "task", "error"]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": fields, "absent": self.absent, "spans": self.spans}, fh)


def _count_solution(counts, solution):
    counts["pipeline.roots_certified"] += bool(solution.rank_gap < RANK_GAP_MAX)


def _count_validation(counts, report):
    counts["trajectory.validate.passed"] += bool(report.passed)


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_spec() -> list:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for name in TIMED_NAMES:
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.busy_s", "s", "lower"),
                 (f"{name}.self_s", "s", "lower")]
    spec += [
        ("impact.scan_contour.grid_points", "count", "lower"),
        ("impact.scan_contour.seed_cells", "count", "lower"),
        ("impact.scan_contour.seeds", "count", "lower"),
        ("impact.scan_contour.curve_vertices", "count", "lower"),
        ("trajectory.validate.passed", "count", "higher"),
        ("impact.refine_root.failed", "count", "lower"),
        ("impact.residual_evals_per_refine", "ratio", "lower"),
        ("pipeline.seeds_refined", "count", "lower"),
        ("pipeline.failed_seeds", "count", "lower"),
        ("pipeline.spurious_roots", "count", "lower"),
        ("pipeline.roots_certified", "count", "higher"),
        ("pipeline.certified_per_seed", "ratio", "higher"),
        ("critical.roots_used_per_polish", "ratio", "higher"),
    ]
    for fn in ("cauchy_matrix", "eta"):
        spec += [(f"{site}.{fn}.calls", "count", "lower") for site in CAUCHY_SITES]
    spec += [
        ("trace.task_s", "s", "lower"),
        ("trace.unwrapped_s", "s", "lower"),
        ("trace.tasks", "count", "higher"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return spec
