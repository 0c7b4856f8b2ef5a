"""Golden regression values for the unit armed biped (all link parameters 1).

These are the published numbers for the lowest-branch rocking solution; the
``reproduce`` command recomputes every quantity from scratch and diffs against
this table.  Mode weights are in units of theta.  Tolerances reflect the
print precision of the source values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["REFERENCE", "TOLERANCES", "ReferenceRow", "compare_reference"]

REFERENCE = {
    "lam": np.array([-5.85028, -0.67319, 1.52348]),
    "lam_prime": np.array([-1.4142, 1.4142]),
    "norm_const": 0.019816,
    "cauchy": np.array(
        [
            [-0.22542, -0.13766],
            [1.34949, -0.47906],
            [0.34040, 9.15225],
        ]
    ),
    "mode_matrix": np.array(
        [
            [-2.3698, 2.2804, 9.4927],
            [-9.3017, 3.0480, 2.2617],
            [6.5268, 2.6199, 1.0],
        ]
    ),
    "mode_matrix_prime": np.array(
        [
            [14.780, 86.146],
            [25.232, 25.232],
            [0.0, 0.0],
        ]
    ),
    "tau": 3.0795,
    "tau_prime": 0.77785,
    "q": np.array([-0.000031265, -0.034423, 1.1687]),
    "q_prime": np.array([-0.0087462, 0.1357027]),
}

# (tolerance, mode): absolute everywhere except the mode weights, whose
# smallest entry is ~3e-5 and is only meaningful relatively.
TOLERANCES = {
    "lam": (1e-4, "abs"),
    "lam_prime": (1e-4, "abs"),
    "norm_const": (1e-5, "abs"),
    "cauchy": (1e-4, "abs"),
    "mode_matrix": (1e-3, "abs"),
    "mode_matrix_prime": (2e-3, "abs"),
    "tau": (5e-4, "abs"),
    "tau_prime": (5e-5, "abs"),
    "q": (1e-4, "rel"),
    "q_prime": (1e-4, "rel"),
}


@dataclass(frozen=True)
class ReferenceRow:
    name: str
    max_diff: float
    tolerance: float
    mode: str
    passed: bool


def compare_reference(computed: dict, reference: dict, tolerances: dict) -> list:
    """Diff computed quantities against a reference table, row per quantity."""
    rows = []
    for name, ref in reference.items():
        tol, mode = tolerances[name]
        value = np.asarray(computed[name], float)
        ref = np.asarray(ref, float)
        diff = np.abs(value - ref)
        if mode == "rel":
            diff = diff / np.maximum(np.abs(ref), 1e-300)
        max_diff = float(diff.max())
        rows.append(
            ReferenceRow(
                name=name,
                max_diff=max_diff,
                tolerance=tol,
                mode=mode,
                passed=bool(max_diff < tol),
            )
        )
    return rows
