"""Host-speed calibration: a fixed kernel timed between the workload's tasks.

The shared host's speed drifts by up to 1.7x, changing within a second and
in episodes that last up to minutes (see README.md), which swamps any change a later commit
makes to the library.  ``kernel()`` does the same fixed work on every call,
with no library code, in the same mix as the library's hot paths: batched
small determinants over a grid (the contour scan), a Python loop of tiny
NumPy solves (root refinement), scalar ``brentq`` solves (bracket
polishing) and plain Python comparisons (seed clustering).  The runner
times it before the first task and after every task; ``normalize`` scales
each task's wall time by ``REFERENCE_S`` over the mean time of the kernels
just before and after it, giving the task time at the reference host speed.
A change to the library changes the task times and never the kernel.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import brentq

# Median kernel time on the reference host (2-vCPU Xeon at 2.1 GHz, Python
# 3.11, numpy 2.4, OpenBLAS 0.3 with one thread).  It only sets the scale
# of the normalized metrics; it never changes between runs to be compared.
REFERENCE_S = 0.026

_RNG = np.random.default_rng(0)
_GRID = _RNG.standard_normal((40, 60, 4, 4))
_JAC = np.array([[2.0, 0.1], [0.3, 1.5]])
_POINTS = [((i * 0.37) % 1.0, (i * 0.61) % 1.0) for i in range(240)]


def _grid_scan() -> int:
    dets = np.linalg.det(_GRID / np.linalg.norm(_GRID, axis=3, keepdims=True))
    signs = np.sign(dets)
    return int((signs[1:] != signs[:-1]).sum())


def _newton_loop() -> float:
    x = np.array([0.3, 0.7])
    for _ in range(150):
        f = np.sin(x) * np.cos(2.0 * x) - 0.1
        x = x - 0.01 * np.linalg.solve(_JAC, f)
    return float(x[0])


def _cluster() -> int:
    kept: list = []
    for p in _POINTS:
        for q in kept:
            if abs(p[0] - q[0]) + abs(p[1] - q[1]) < 0.05:
                break
        else:
            kept.append(p)
    return len(kept)


def _polish() -> float:
    total = 0.0
    for k in range(40):
        total += brentq(lambda t: np.tanh(t) * (1.0 + 0.1 * k) - 0.5 * np.cos(t),
                        0.0, 2.0, xtol=1e-12)
    return total


def kernel() -> float:
    """Run the fixed kernel once; return its wall time in seconds."""
    start = time.perf_counter()
    for _ in range(3):
        _grid_scan()
        _grid_scan()
        _newton_loop()
        _cluster()
        _polish()
    return time.perf_counter() - start


def normalize(durations, kernels) -> list:
    """Task times at the reference host speed.

    ``kernels[i]`` was timed just before task ``i`` and ``kernels[i + 1]``
    just after it.  The host's speed changes within a second, so the two
    adjacent kernels track it better than a wider window does.
    """
    return [duration * 2.0 * REFERENCE_S / (before + after)
            for duration, before, after in zip(durations, kernels, kernels[1:])]
