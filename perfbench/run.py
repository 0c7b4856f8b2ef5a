"""Benchmark runner: one workload, one seed, one run.

    python3 perfbench/run.py --workload solve-batch --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times the library untraced and reports the
end-to-end metrics; with ``--trace 1`` it runs the workload's fixed tasks
twice each, untraced and traced, and reports the per-layer metrics.  Every
task's output is checked.  Human-readable lines come first; the last line
of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Spans, fingerprints and
the full result are written under ``perfbench/out/``.

Run from a checkout: the library is imported from ``src/`` next to this
directory, and the run exits with code 2 without it.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the workloads are one caller in one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "setup_s": "s",
    "norm_throughput_per_s": "1/s",
    "norm_task_p50_s": "s",
    "norm_task_tail_s": "s",
    "peak_rss_mb": "MB",
}


def _import_library():
    if not (SRC / "collisionless" / "__init__.py").is_file():
        print(f"run.py: no library source at {SRC / 'collisionless'}; "
              "run the benchmark from a checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))


def environment() -> dict:
    """Interpreter, library and machine versions a result depends on."""
    import numpy
    import scipy

    blas = "unknown"
    try:
        config = numpy.show_config(mode="dicts")
        dep = config["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ------------------------------------------------------------------ tasks

class TaskLog:
    """Outcomes of every task run: failures, first fingerprints, determinism."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.fingerprints: dict = {}

    def run(self, index: int, task, call=None):
        """Run one task, returning (seconds, outcome or None on an undocumented error)."""
        call = call or self.workload.run
        self.attempted += 1
        start = time.perf_counter()
        try:
            outcome = call(task)
        except Exception:  # an undocumented exception fails the task, not the run
            elapsed = time.perf_counter() - start
            self._fail(index, traceback.format_exc(limit=4).strip())
            return elapsed, None
        elapsed = time.perf_counter() - start
        problems = self.workload.check(task, outcome)
        fingerprint = self.workload.fingerprint(task, outcome)
        first = self.fingerprints.setdefault(index, fingerprint)
        if first != fingerprint:
            problems.append(f"task {index}: output differs from its first run")
        if problems:
            self._fail(index, "; ".join(problems))
        return elapsed, outcome

    def _fail(self, index, message):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"task {index}: {message}")

    def fingerprint(self, count: int):
        """SHA-256 digest of the first ``count`` tasks' fingerprints, and the fingerprints."""
        prints = [self.fingerprints.get(i) for i in range(count)]
        blob = json.dumps(prints, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest(), prints


def setup(workload_name: str, seed: int):
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tasks = workload.make_tasks(seed)
    log = TaskLog(workload)
    log.run(0, tasks[0])          # untimed warm-up
    return workload, tasks, log


def probe_setup(workload: str, seed: int) -> tuple:
    """Setup time of a fresh process, interpreter start to warm-up done: raw and normalized.

    The normalized time is scaled to the reference host speed by the mean of
    two calibration kernels this process times just before and just after it.
    """
    from calibrate import kernel, normalize

    before = kernel()
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    raw = float(proc.stdout.split()[-1]) - start
    return raw, normalize([raw], [before, kernel()])[0]


def percentile(values, q):
    """Linear-interpolation percentile of a non-empty sequence."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


# ------------------------------------------------------------------ runs

def timed_run(workload, tasks, log, seconds: float, seed: int) -> dict:
    """Closed loop over the pool for ``seconds`` of wall time, tasks and calibration.

    The calibration kernel runs before the first task and after every task,
    and ``calibrate.normalize`` scales each task's time to the reference
    host speed.  The setup probes run between tasks, spread over the timed
    phase and outside its clock, so they sample the host's speed at
    different times.
    """
    from calibrate import kernel, normalize

    probe_at = [seconds * k / SETUP_PROBES for k in range(SETUP_PROBES)]
    setups = []
    durations = []
    kernels = [kernel()]
    items = 0
    clock = 0.0
    i = 0
    while clock < seconds:
        while len(setups) < SETUP_PROBES and clock >= probe_at[len(setups)]:
            setups.append(probe_setup(workload.name, seed))
        start = time.perf_counter()
        index = i % len(tasks)
        elapsed, outcome = log.run(index, tasks[index])
        kernels.append(kernel())
        clock += time.perf_counter() - start
        durations.append(elapsed)
        if outcome is not None:
            items += workload.items(tasks[index])
        i += 1
    while len(setups) < SETUP_PROBES:
        setups.append(probe_setup(workload.name, seed))
    for index in range(min(i, len(tasks)), workload.fixed_tasks):
        log.run(index, tasks[index])      # complete the fingerprinted set, untimed
    normalized = normalize(durations, kernels)
    tail_q = workload.tail_percentile
    tail = percentile(normalized, tail_q)
    metrics = {
        "setup_s": statistics.median(norm for _, norm in setups),
        "norm_throughput_per_s": items / sum(normalized),
        "norm_task_p50_s": statistics.median(normalized),
        "norm_task_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_samples_s": [raw for raw, _ in setups],
        "timed_tasks": len(durations),
        "timed_items": items,
        "measured_s": sum(durations),
        "wall_throughput_per_s": items / sum(durations),
        "wall_task_p50_s": statistics.median(durations),
        "kernel_p50_s": statistics.median(kernels),
        "tail_percentile": tail_q,
        "tail_beyond": sum(d > tail for d in normalized),
    }
    return {"metrics": metrics, "notes": notes, "durations_s": durations, "kernels_s": kernels}


def traced_run(workload, tasks, log, stem: Path) -> dict:
    """Each fixed task untraced then traced (order alternating); per-layer metrics."""
    from tracing import Tracer

    tracer = Tracer()
    untraced = 0.0
    for index in range(workload.fixed_tasks):
        task = tasks[index]
        for traced in ((False, True) if index % 2 == 0 else (True, False)):
            if not traced:
                untraced += log.run(index, task)[0]
                continue
            tracer.install()
            try:
                log.run(index, task, lambda t, i=index: tracer.run_task(i, workload.run, t))
            finally:
                tracer.restore()
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = metrics["trace.task_s"] - untraced
    gap = tracer.self_time_gap()
    if gap > 1e-6 * max(metrics["trace.task_s"], 1.0):
        log.failed += 1
        log.problems.append(f"self times miss the traced task time by {gap:.3e} s")
    tracer.write(stem.with_suffix(".spans.json.gz"))
    notes = {"absent": tracer.absent, "untraced_s": untraced, "self_time_gap_s": gap}
    return {"metrics": metrics, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload, tasks, log = setup(args.workload, args.seed)
    if args.setup_probe:
        print(f"ready {time.monotonic():.9f}")
        return 0

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        result = traced_run(workload, tasks, log, stem)
        units = per_layer_units()
    else:
        result = timed_run(workload, tasks, log, args.seconds, args.seed)
        units = END_TO_END_UNITS
    digest, prints = log.fingerprint(workload.fixed_tasks)
    result.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        environment=environment(), fingerprint=digest, fingerprints=prints,
        attempted=log.attempted, failed=log.failed, problems=log.problems,
    )
    stem.with_suffix(".json").write_text(json.dumps(result, indent=1, default=float))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("environment " + json.dumps(result["environment"], sort_keys=True))
    for key, value in result["notes"].items():
        print(f"note {key} = {value}")
    print(f"error_rate = {log.failed}/{log.attempted} = {log.failed / log.attempted:.6g}")
    for problem in log.problems:
        print(f"FAILED {problem}")
    print(f"fingerprint {digest} over the first {workload.fixed_tasks} tasks")
    for name, value in result["metrics"].items():
        print(f"metric {name} = {value:.9g} {units[name]}")
    summary = {
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


def per_layer_units() -> dict:
    from tracing import per_layer_spec

    return {name: unit for name, unit, _ in per_layer_spec()}


if __name__ == "__main__":
    sys.exit(main())
