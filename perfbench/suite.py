"""Run every workload over several seeds, print every metric, and write the manifest.

    python3 perfbench/suite.py                       # each workload once, seed 1
    python3 perfbench/suite.py --runs 10             # ten seeds per workload, with spreads
    python3 perfbench/suite.py --runs 10 --write     # ... and write BENCHMARK.json

Each run is ``run.py`` in a fresh process.  The spread of a metric is the
distance between the first and third quartile of its values, as a share of
their median (``statistics.quantiles(values, n=4)``).  ``--write`` sets each
end-to-end bound to three times the largest spread measured on any workload,
in this run or in any run recorded in ``perfbench/baseline.json`` before,
within [BOUND_FLOOR, BOUND_CAP].  It records the figures, the largest spreads
and the environment in ``perfbench/baseline.json``.
The host's speed drifts between runs, so one calm set of runs must not
tighten a bound that a turbulent one showed to be needed.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_SECONDS = 30
BOUND_CAP = 0.25
BOUND_FLOOR = 0.05
WORKLOAD_ORDER = ("solve-batch", "n2-oracle", "c0-study")
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("norm_throughput_per_s", "1/s", "higher"),
    ("norm_task_p50_s", "s", "lower"),
    ("norm_task_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def run_once(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        if line.startswith(("note tail", "FAILED", "fingerprint")):
            print(f"  {line}")
    return json.loads(lines[-1])


def spread(values) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf


def bound_for(worst_spread: float) -> float:
    return min(BOUND_CAP, max(BOUND_FLOOR, math.ceil(300 * worst_spread) / 100))


def manifest(bounds: dict) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from tracing import per_layer_spec
    from workloads import WORKLOADS

    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": WORKLOADS[name].why} for name in WORKLOAD_ORDER],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bounds[name]}
                       for name, unit, better in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in per_layer_spec()],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)

    seeds = list(range(1, args.runs + 1))
    figures = {}
    all_correct = True
    for workload in WORKLOAD_ORDER:
        values: dict = {}
        attempted = failed = 0
        for seed in seeds:
            started = time.monotonic()
            result = run_once(workload, seed)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {time.monotonic() - started:.1f} s", flush=True)
            all_correct &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        rows = {}
        print(f"== {workload}: error_rate = {failed}/{attempted}")
        for name, vals in values.items():
            row = {"median": statistics.median(vals), "values": vals}
            if len(vals) >= 2:
                row["spread"] = spread(vals)
            rows[name] = row
            unit = result["metrics"][name]["unit"]
            extra = f"  spread {row['spread']:.4f}" if "spread" in row else ""
            print(f"   {name} = {row['median']:.6g} {unit}{extra}")
        figures[workload] = {"error_rate": failed / attempted, "metrics": rows}

    if args.write:
        if args.runs < 4:
            raise SystemExit("--write needs at least four seeds per workload")
        baseline_path = HERE / "baseline.json"
        before = (json.loads(baseline_path.read_text())["worst_spread"]
                  if baseline_path.exists() else {})
        worst = {name: max([figures[w]["metrics"][name]["spread"] for w in figures]
                           + [before.get(name, 0.0)])
                 for name, _, _ in END_TO_END}
        bounds = {name: bound_for(worst[name]) for name in worst}
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(bounds), indent=2) + "\n")
        sys.path.insert(0, str(HERE))
        from run import environment

        baseline = {"environment": environment(), "run_seconds": RUN_SECONDS,
                    "seeds": seeds, "worst_spread": worst, "bounds": bounds,
                    "workloads": figures}
        baseline_path.write_text(json.dumps(baseline, indent=1) + "\n")
        print("wrote BENCHMARK.json and perfbench/baseline.json")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
