"""The library calls that the benchmark in ``perfbench/`` makes, run as the benchmark runs them.

A library change that breaks a workload's ``run`` or ``check``, or a traced run,
fails here instead of in the benchmark.  The benchmark's files are imported,
never changed.
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

import collisionless as cl

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


def _biped_task():
    """The first task of every solve-batch pool."""
    return workloads.ModelTask("armed-biped", cl.build_armed_biped())


@pytest.mark.parametrize("name, task", [
    ("solve-batch", _biped_task()),
    ("n2-oracle", workloads.n2_oracle_tasks(1)[0]),
    ("c0-study", workloads.c0_study_tasks(1)[0]),
], ids=["solve-batch", "n2-oracle", "c0-study"])
def test_workload_task_runs_and_checks(name, task):
    workload = workloads.WORKLOADS[name]
    outcome = workload.run(task)
    assert workload.check(task, outcome) == []
    workload.fingerprint(task, outcome)


def test_traced_biped_solve():
    task = _biped_task()
    solve_model = cl.pipeline.solve_model
    tracer = tracing.Tracer()
    tracer.install()
    try:
        outcome = tracer.run_task(0, workloads.WORKLOADS["solve-batch"].run, task)
    finally:
        tracer.restore()
    assert cl.pipeline.solve_model is solve_model
    assert workloads.solve_batch_check(task, outcome) == []
    metrics = tracer.layer_metrics()
    assert metrics["pipeline.solve_model.calls"] == 1
    assert metrics["trace.tasks"] == 1


# SHA-256 of the workloads' own fingerprints, JSON-encoded as ``perfbench/run.py`` encodes them
# for its fingerprint digest: the first five seed-1 n2-oracle tasks, the armed biped, and the
# first nine seed-1 c0-study tasks (the benchmark's own nine-task c0-study digest).
PINNED_DIGESTS = {
    "n2-oracle": "eec3a136696d856e71fab0fbd1ee89dbb0c62789634da9d29e8d6dd0d32dc575",
    "solve-batch": "aa6fdb92fa06debae044464bf70d44002462993510f7bffa4443eab4937c8357",
    "c0-study": "abb6a91bcdd8d8cae651a6386c739c7b68e0a2f080141c8639a0fb019f86e468",
}


@pytest.mark.parametrize("name, tasks", [
    ("n2-oracle", workloads.n2_oracle_tasks(1)[:5]),
    ("solve-batch", [_biped_task()]),
    ("c0-study", workloads.c0_study_tasks(1)[:9]),
], ids=["n2-oracle", "solve-batch", "c0-study"])
def test_workload_fingerprints_are_pinned(name, tasks):
    # a library change that moves an outcome the benchmark fingerprints fails here too
    workload = workloads.WORKLOADS[name]
    prints = [workload.fingerprint(task, workload.run(task)) for task in tasks]
    blob = json.dumps(prints, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == PINNED_DIGESTS[name]
