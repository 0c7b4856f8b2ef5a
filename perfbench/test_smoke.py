"""Schema smoke test of the benchmark on tiny runs; no timing is gated.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and finds the library)

run._import_library()

import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def manifest():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """c0-study shrunk to 10 samples per call and two fixed tasks, one setup probe.

    Returns the result line and the fingerprint digest written to the output file.
    """
    monkeypatch.setattr(workloads, "C0_SAMPLES", 10)
    small = dataclasses.replace(workloads.WORKLOADS["c0-study"], fixed_tasks=2)
    monkeypatch.setitem(workloads.WORKLOADS, "c0-study", small)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "OUT", tmp_path)

    def go(trace, capsys):
        assert run.main(["--workload", "c0-study", "--seed", "3", "--seconds", "0.5",
                         "--trace", str(trace)]) == 0
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        written = json.loads((tmp_path / f"c0-study-seed3-trace{trace}.json").read_text())
        return result, written["fingerprint"]

    return go


def _check_result(result, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    assert set(result["metrics"]) == {s["name"] for s in specs}
    for spec in specs:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {"value", "unit"}
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])


def test_manifest_shape(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert manifest["paths"] == ["perfbench"]
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in manifest["end_to_end"] + manifest["per_layer"]]
    names += [w["name"] for w in manifest["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert all(UNIT.match(m["unit"]) for m in manifest["end_to_end"] + manifest["per_layer"])
    assert [m["name"] for m in manifest["per_layer"]] == [n for n, _, _ in tracing.per_layer_spec()]
    setup = next(m for m in manifest["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in manifest["end_to_end"])


def test_untraced_run_reports_end_to_end(tiny, capsys, manifest):
    _check_result(tiny(0, capsys)[0], manifest["end_to_end"])


def test_traced_run_reports_per_layer(tiny, capsys, manifest):
    result, _ = tiny(1, capsys)
    _check_result(result, manifest["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["critical.c0_sampling_study.calls"] == 2
    assert metrics["critical.solve_critical.calls"] == 20
    assert metrics["impact.scan_contour.calls"] == 0


def test_same_seed_repeats_counts_and_fingerprints(tiny, capsys):
    (first, first_print), (second, second_print) = tiny(1, capsys), tiny(1, capsys)
    counts = [s["name"] for s in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
              if s["unit"] in ("count", "ratio")]
    assert {n: first["metrics"][n]["value"] for n in counts} == \
        {n: second["metrics"][n]["value"] for n in counts}
    assert first_print == second_print
    assert tiny(0, capsys)[1] == first_print


def test_missing_target_is_absent_not_fatal(monkeypatch):
    gone = tracing.Target("impact.gone", "impact", "no_such_function", ("impact",))
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (gone,))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["impact.gone"]


def test_self_times_add_up_to_task_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        task = workloads.c0_study_tasks(5)[0]
        tracer.run_task(0, lambda t: workloads._critical.c0_sampling_study(3, t.n_dof, t.seed),
                        task)
    finally:
        tracer.restore()
    assert len(tracer.spans) > 3
    assert tracer.self_time_gap() < 1e-9


def test_fails_without_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "c0-study", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
