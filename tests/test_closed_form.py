import numpy as np
import pytest

import collisionless as cl
from helpers import cauchy_inputs, random_rocker_freqs


def _bisect(f, lo, hi, iters=200):
    # independent oracle: plain bisection
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if flo * fm <= 0:
            hi = mid
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


def test_y_root_a_zero():
    assert cl.y_root(0.0, 0.7, 2) == pytest.approx(np.pi, abs=1e-15)
    assert cl.y_root(0.0, 0.7, 5) == pytest.approx(4 * np.pi, abs=1e-15)
    with pytest.raises(cl.NoRootError):
        cl.y_root(0.0, 0.7, 1)


def test_y_root_invalid_args():
    with pytest.raises(cl.InvalidParameterError):
        cl.y_root(np.inf, 1.0, 2)
    with pytest.raises(cl.InvalidParameterError):
        cl.y_root(1.0, 1.0, 0)


def test_y_root_satisfies_equation():
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.uniform(-3, 3)
        b = rng.uniform(0.1, 2.0)
        n = int(rng.integers(2, 7))
        y = cl.y_root(a, b, n)
        assert (n - 1) * np.pi <= y < n * np.pi
        assert np.tan(y) == pytest.approx(a * np.tanh(b * y), abs=1e-10)


def test_hopper_alpha_vs_bisection_oracle():
    # o cot o = 1 on (pi, 3pi/2), bisected independently
    oracle = _bisect(lambda o: o / np.tan(o) - 1.0, np.pi + 1e-9, 1.5 * np.pi - 1e-9)
    sol = cl.solve_hopper(1.0, 0.5, 2)
    assert sol.o_2 == pytest.approx(oracle, abs=1e-12)
    assert sol.o_2 == pytest.approx(4.4934095, abs=1e-6)


def test_hopper_equal_frequencies_branch2():
    sol = cl.solve_hopper(1.0, 1.0, 2)
    assert sol.o_prime_1 == pytest.approx(np.pi - np.arctan(4.4934095), abs=1e-6)


def test_hopper_equations_residual():
    rng = np.random.default_rng(4)
    for _ in range(20):
        om2 = rng.uniform(0.5, 3.0)
        om1p = om2 * rng.uniform(0.2, 0.9)
        n = int(rng.integers(2, 6))
        sol = cl.solve_hopper(om2, om1p, n)
        r1 = sol.o_2 / np.tan(sol.o_2) - 1.0
        r2 = sol.mu * sol.o_prime_1 / np.tan(sol.o_prime_1) + 1.0
        assert abs(r1) < 1e-12 and abs(r2) < 1e-12


def test_hopper_large_branch_asymptote():
    om2, om1p = 2.0, 1.0
    n = 30
    sol = cl.solve_hopper(om2, om1p, n)
    ratio = om2 / om1p
    predicted = np.pi / 2 + ratio / ((n - 0.5) * np.pi - 1.0 / (n * np.pi))
    # next correction is (omega2/omega1p)^3 / (3 (n pi)^3)
    assert abs(sol.o_prime_1 - predicted) < 5 * ratio ** 3 / (3 * (n * np.pi) ** 3)


def test_hopper_lowest_branch_is_two():
    with pytest.raises(cl.NoRootError):
        cl.solve_hopper(1.0, 0.5, 1)


@pytest.mark.parametrize("solver", [cl.solve_hopper, cl.solve_juggler])
@pytest.mark.parametrize("n", [0, -1, 1.5])
def test_hopper_juggler_reject_invalid_branch(solver, n):
    with pytest.raises(cl.InvalidParameterError, match="branch index"):
        solver(1.0, 0.5, n)


def test_juggler_identical_to_hopper():
    a = cl.solve_hopper(1.7, 0.8, 3)
    b = cl.solve_juggler(1.7, 0.8, 3)
    assert (b.o_2, b.o_prime_1) == (a.o_2, a.o_prime_1)


def test_rimless_equations_residual():
    rng = np.random.default_rng(8)
    for _ in range(20):
        nu1, om2, om1p = random_rocker_freqs(rng)
        n = int(rng.integers(1, 6))
        sol = cl.solve_rimless(nu1, om2, om1p, n)
        o1 = nu1 * sol.tau
        r1 = sol.o_2 * np.tan(sol.o_2) + o1 * np.tanh(o1)
        r2 = sol.mu * sol.o_prime_1 * np.tan(sol.o_prime_1) - o1 * np.tanh(o1)
        scale = max(1.0, abs(o1 * np.tanh(o1)))
        assert abs(r1) < 1e-12 * scale and abs(r2) < 1e-12 * scale
        assert sol.tau > 0 and sol.tau_prime > 0


def test_rimless_large_branch_asymptotes():
    nu1, om2, om1p = 1.0, 2.0, 1.2
    rho = nu1 / om2
    sol = cl.solve_rimless(nu1, om2, om1p, 12)
    assert sol.o_2 == pytest.approx(12 * np.pi - np.arctan(rho), abs=1e-5)
    assert sol.o_prime_1 == pytest.approx(np.arctan(nu1 / om1p), abs=1e-5)


def test_rimless_small_nu_limit():
    sol = cl.solve_rimless(1e-4, 2.0, 1.0, 3)
    assert sol.o_2 == pytest.approx(3 * np.pi, abs=1e-3)
    assert 0 < sol.o_prime_1 < 1e-3


def test_rocker_equations_residual():
    rng = np.random.default_rng(9)
    for _ in range(20):
        nu1, om2, om1p = random_rocker_freqs(rng)
        n = int(rng.integers(2, 6))
        sol = cl.solve_rocker(nu1, om2, om1p, n)
        o1 = nu1 * sol.tau
        r1 = sol.o_2 / np.tan(sol.o_2) - o1 / np.tanh(o1)
        r2 = sol.mu * sol.o_prime_1 * np.tan(sol.o_prime_1) - o1 / np.tanh(o1)
        scale = max(1.0, o1 / np.tanh(o1))
        assert abs(r1) < 1e-12 * scale and abs(r2) < 1e-12 * scale


def test_rocker_large_branch_asymptotes():
    nu1, om2, om1p = 1.0, 2.0, 1.0
    rho = nu1 / om2
    sol = cl.solve_rocker(nu1, om2, om1p, 12)
    assert sol.o_2 == pytest.approx(11 * np.pi + np.arctan(1 / rho), abs=1e-5)
    assert sol.o_prime_1 == pytest.approx(np.arctan(nu1 / om1p), abs=1e-5)


def test_rocker_lowest_branch_is_two():
    with pytest.raises(cl.NoRootError):
        cl.solve_rocker(1.0, 2.0, 1.0, 1)
    sol = cl.solve_rocker(1.0, 2.0, 1.0, 2)
    assert np.pi <= sol.o_2 < 2 * np.pi


def test_contact_time_diverges_near_existence_boundary():
    # shrinking the contact eigenvalue by 100x must grow tau' at least 10x
    nu1, om2 = 1.0, 2.0
    base = cl.solve_rocker(nu1, om2, 0.5, 2)
    shrunk = cl.solve_rocker(nu1, om2, 0.05, 2)
    assert shrunk.tau_prime / base.tau_prime >= 10.0
    assert shrunk.o_2 == pytest.approx(base.o_2, rel=1e-12)  # free phase unchanged


def test_generic_solver_agreement_sample():
    rng = np.random.default_rng(10)
    for family, solver in (("rocker", cl.solve_rocker), ("rimless", cl.solve_rimless)):
        for _ in range(5):
            nu1, om2, om1p = random_rocker_freqs(rng)
            pair = cl.n2_spectrum(family, nu1=nu1, omega2=om2, omega1p=om1p)
            M, eta_vec = cauchy_inputs(pair)
            n = 2 if family == "rocker" else 1
            sol = solver(nu1, om2, om1p, n)
            root = cl.refine_root(
                (sol.o_2 + 0.01, sol.o_prime_1 + 0.01), pair, M, eta_vec
            )
            assert abs(root.o_n - sol.o_2) < 1e-8
            assert abs(root.o_prime - sol.o_prime_1) < 1e-8


def test_invalid_frequencies():
    with pytest.raises(cl.InvalidParameterError):
        cl.solve_rocker(-1.0, 2.0, 1.0, 2)
    with pytest.raises(cl.InvalidParameterError):
        cl.solve_hopper(0.0, 1.0, 2)
