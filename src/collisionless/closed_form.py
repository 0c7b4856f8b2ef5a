"""Closed-form impact times for the 2-DOF model families.

All three families reduce to the scalar transcendental equation
tan(y) = a * tanh(b * y); its positive roots, indexed by the interval
[(n-1) pi, n pi) that contains them, express every branch of the hopping,
rolling and rocking solutions.  These serve both as standalone solvers and
as oracles for the generic impact-equation machinery.  The hopper's phase
solves tan y = y, whatever the frequencies, so its root on each branch is
computed once per process (``_alpha``) and the juggler reuses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import InvalidParameterError, NoRootError, _check_positive, _real_number

__all__ = [
    "y_root",
    "N2Solution",
    "solve_hopper",
    "solve_juggler",
    "solve_rimless",
    "solve_rocker",
]

_SCAN_POINTS = 4096


def _branch_root(f, df, n: int):
    """First positive root of f in [(n-1) pi, n pi) from a dense scan, or None.

    The first sign change between neighbouring scan points is located by
    regula falsi and polished with three Newton steps on the derivative df;
    without one, the first scan point where f is exactly zero counts as the
    root.  The scan skips y = 0, which is not a positive root.  Raises
    NoRootError when the polished root leaves the scanned interval.
    """
    lo, hi = (n - 1) * np.pi, n * np.pi
    ys = np.linspace(lo, hi, _SCAN_POINTS)
    if n == 1:
        ys = ys[1:]
    vals = f(ys)
    signs = np.sign(vals)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if crossings.size:
        i = crossings[0]
        root = ys[i] - vals[i] * (ys[i + 1] - ys[i]) / (vals[i + 1] - vals[i])
    elif (vals == 0.0).any():
        root = ys[np.argmax(vals == 0.0)]
    else:
        return None
    for _ in range(3):
        slope = df(root)
        if slope == 0:
            break
        root -= f(root) / slope
    if not ys[0] <= root < hi:
        raise NoRootError(f"root polishing left the interval [{lo:.6g}, {hi:.6g})")
    return float(root)


def y_root(a: float, b: float, n: int) -> float:
    """Root of tan(y) = a * tanh(b * y) inside [(n-1) pi, n pi).

    The search uses the pole-free form sin(y) - a tanh(b y) cos(y): the first
    sign change on a dense scan, regula falsi inside it, then three Newton
    steps.  For a = 0 the root is exactly (n-1) pi.  Raises NoRootError when
    the interval contains no root (e.g. the n = 1 interval of the
    hopper/rocker families, where tan(y) > a tanh(b y) throughout (0, pi)).
    """
    a = _real_number(a, "a", InvalidParameterError)
    b = _real_number(b, "b", InvalidParameterError)
    _real_number(n, "branch index", InvalidParameterError, minimum=1)
    if a == 0.0:
        if n == 1:
            raise NoRootError("tan y = 0 has no positive root in [0, pi)")
        return (n - 1) * np.pi

    def f(y):
        return np.sin(y) - a * np.tanh(b * y) * np.cos(y)

    def df(y):
        t = np.tanh(b * y)
        return np.cos(y) + a * (t * np.sin(y) - b * np.cos(y) * (1.0 - t * t))

    root = _branch_root(f, df, n)
    if root is None:
        raise NoRootError(
            f"no root of tan y = {a} tanh({b} y) in [{(n - 1) * np.pi:.6g}, {n * np.pi:.6g})"
        )
    return root


@cache
def _alpha(n: int) -> float:
    """Positive root of tan y = y on branch n (the a b -> 1, b -> 0 limit family).

    Cached per n, so the hopper and the juggler of one branch scan once; a
    branch without a root raises NoRootError on every call, since an
    exception is not cached.  Callers check n (``_real_number``) first,
    because the cache would take 2.0 for 2.
    """
    root = _branch_root(lambda y: np.sin(y) - y * np.cos(y), lambda y: y * np.sin(y), n)
    if root is None:
        raise NoRootError(
            f"tan y = y has no root in [{(n - 1) * np.pi:.6g}, {n * np.pi:.6g}) "
            "(lowest branch is n = 2)"
        )
    return root


@dataclass(frozen=True)
class N2Solution:
    """One closed-form branch: impact phases, times, and time ratio."""

    family: str
    n: int
    o_2: float
    o_prime_1: float
    tau: float
    tau_prime: float

    @property
    def mu(self) -> float:
        return self.tau / self.tau_prime


def solve_hopper(omega2: float, omega1p: float, n: int) -> N2Solution:
    """Hopping branch n: o2 solves o cot o = 1, contact phase from the time ratio.

    The lowest existing branch is n = 2 (tan y = y has no root below pi).
    """
    _check_positive(omega2=omega2, omega1p=omega1p)
    _real_number(n, "branch index", InvalidParameterError, minimum=1)
    o2 = _alpha(n)
    o1p = np.pi - np.arctan(o2 * omega1p / omega2)
    return N2Solution("hopper", n, o2, o1p, o2 / omega2, o1p / omega1p)


def solve_juggler(omega2: float, omega1p: float, n: int) -> N2Solution:
    """Juggling branch n: identical phases to the hopper at equal frequencies."""
    sol = solve_hopper(omega2, omega1p, n)
    return N2Solution("juggler", n, sol.o_2, sol.o_prime_1, sol.tau, sol.tau_prime)


def solve_rimless(nu1: float, omega2: float, omega1p: float, n: int) -> N2Solution:
    """Rolling (extended rimless wheel) branch n.

    o2 = y_n(-rho, rho) with rho = nu1/omega2; tan(o2) < 0 there, so the
    arctan branch with positive contact time is the principal one negated.
    """
    _check_positive(nu1=nu1, omega2=omega2, omega1p=omega1p)
    rho = nu1 / omega2
    o2 = y_root(-rho, rho, n)
    o1p = -np.arctan((omega2 / omega1p) * np.tan(o2))
    return N2Solution("rimless", n, o2, o1p, o2 / omega2, o1p / omega1p)


def solve_rocker(nu1: float, omega2: float, omega1p: float, n: int) -> N2Solution:
    """Side-to-side rocking branch n.

    o2 = y_n(1/rho, rho); cot(o2) > 0 there, so the principal arctan gives a
    positive contact phase.  The lowest existing branch is n = 2: on (0, pi)
    tan y exceeds (1/rho) tanh(rho y) pointwise (tanh x < x), so no root.
    """
    _check_positive(nu1=nu1, omega2=omega2, omega1p=omega1p)
    rho = nu1 / omega2
    o2 = y_root(1.0 / rho, rho, n)
    o1p = np.arctan((omega2 / omega1p) / np.tan(o2))
    return N2Solution("rocker", n, o2, o1p, o2 / omega2, o1p / omega1p)


SOLVERS = {
    "hopper": solve_hopper,
    "juggler": solve_juggler,
    "rimless": solve_rimless,
    "rocker": solve_rocker,
}
