"""Closed-form impact times for the 2-DOF model families.

All three families reduce to the scalar transcendental equation
tan(y) = a * tanh(b * y); its positive roots, indexed by the interval
[(n-1) pi, n pi) that contains them, express every branch of the hopping,
rolling and rocking solutions.  These serve both as standalone solvers and
as oracles for the generic impact-equation machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidParameterError, NoRootError

__all__ = [
    "y_root",
    "N2Solution",
    "solve_hopper",
    "solve_juggler",
    "solve_rimless",
    "solve_rocker",
]

_SCAN_POINTS = 4096


def _branch_root(f, n: int):
    """First positive root of f in [(n-1) pi, n pi) from a dense scan, or None.

    The first sign change between neighbouring scan points is polished with
    Brent's method; without one, the first scan point where f is exactly zero
    counts as the root.  The scan skips y = 0, which is not a positive root.
    """
    ys = np.linspace((n - 1) * np.pi, n * np.pi, _SCAN_POINTS)
    if n == 1:
        ys = ys[1:]
    vals = f(ys)
    signs = np.sign(vals)
    crossings = np.nonzero(signs[:-1] * signs[1:] < 0)[0]
    if crossings.size:
        i = crossings[0]
        return brentq(f, ys[i], ys[i + 1], xtol=1e-14, rtol=8.9e-16)
    exact = ys[np.nonzero(vals == 0.0)[0]]
    return float(exact[0]) if exact.size else None


def y_root(a: float, b: float, n: int) -> float:
    """Root of tan(y) = a * tanh(b * y) inside [(n-1) pi, n pi).

    The search uses the pole-free form sin(y) - a tanh(b y) cos(y), bracketing
    on a dense scan and polishing with Brent's method and then Newton.  For
    a = 0 the root is exactly (n-1) pi.  Raises NoRootError when the interval
    contains no root (e.g. the n = 1 interval of the hopper/rocker families,
    where tan(y) > a tanh(b y) throughout (0, pi)).
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise InvalidParameterError("a and b must be finite")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"branch index must be a positive integer, got {n!r}")
    if a == 0.0:
        if n == 1:
            raise NoRootError("tan y = 0 has no positive root in [0, pi)")
        return (n - 1) * np.pi

    def f(y):
        return np.sin(y) - a * np.tanh(b * y) * np.cos(y)

    lo = (n - 1) * np.pi
    hi = n * np.pi
    root = _branch_root(f, n)
    if root is None:
        raise NoRootError(f"no root of tan y = {a} tanh({b} y) in [{lo:.6g}, {hi:.6g})")
    # Newton polish on the pole-free form
    for _ in range(3):
        df = np.cos(root) + a * (np.tanh(b * root) * np.sin(root)
                                 - b * np.cos(root) / np.cosh(b * root) ** 2)
        if df == 0:
            break
        root -= f(root) / df
    if not lo <= root < hi:
        raise NoRootError(f"root polishing left the interval [{lo:.6g}, {hi:.6g})")
    return float(root)


def _alpha(n: int) -> float:
    """Positive roots of tan y = y (the a b -> 1, b -> 0 limit family)."""
    root = _branch_root(lambda y: np.sin(y) - y * np.cos(y), n)
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


def _check_freqs(**freqs):
    for label, value in freqs.items():
        if not isinstance(value, (int, float, np.integer, np.floating)) or not (
            np.isfinite(value) and value > 0
        ):
            raise InvalidParameterError(f"{label} must be positive, got {value!r}")


def solve_hopper(omega2: float, omega1p: float, n: int) -> N2Solution:
    """Hopping branch n: o2 solves o cot o = 1, contact phase from the time ratio.

    The lowest existing branch is n = 2 (tan y = y has no root below pi).
    """
    _check_freqs(omega2=omega2, omega1p=omega1p)
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
    _check_freqs(nu1=nu1, omega2=omega2, omega1p=omega1p)
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
    _check_freqs(nu1=nu1, omega2=omega2, omega1p=omega1p)
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
