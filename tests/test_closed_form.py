import numpy as np
import pytest

import collisionless as cl
from collisionless import closed_form
from collisionless.closed_form import SOLVERS, _branch_root
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
@pytest.mark.parametrize("n", [0, -1, 1.5, True])
def test_hopper_juggler_reject_invalid_branch(solver, n):
    with pytest.raises(cl.InvalidParameterError, match="branch index"):
        solver(1.0, 0.5, n)


@pytest.mark.parametrize("call", [
    lambda: cl.y_root(1.0, 1.0, True),
    lambda: cl.solve_rimless(1.0, 1.0, 1.0, True),
    lambda: cl.large_tau_asymptote(True, cl.SpectrumPair([-0.81, 2.89], [1e-4], [-1, -1], [1])),
], ids=["y_root", "solve_rimless", "large_tau_asymptote"])
def test_branch_index_rejects_bool(call):
    # True is an int subclass, but it is not a branch index
    with pytest.raises(cl.InvalidParameterError, match="branch index"):
        call()


def test_hopper_branch_roots_are_scanned_once_per_branch(monkeypatch):
    # tan y = y does not depend on the frequencies: the hopper and the juggler of a branch
    # share one cached scan, bit for bit the uncached root; a branch without a root scans
    # again on every call, since an exception is not cached
    scans = []

    def counting(f, df, n):
        scans.append(n)
        return _branch_root(f, df, n)

    monkeypatch.setattr(closed_form, "_branch_root", counting)
    closed_form._alpha.cache_clear()
    for n in range(2, 7):
        expected = closed_form._alpha.__wrapped__(n)
        for omega2, omega1p in ((1.3, 0.6), (0.7, 0.2), (2.9, 1.4)):
            assert cl.solve_hopper(omega2, omega1p, n).o_2 == expected
            assert cl.solve_juggler(omega2, omega1p, n).o_2 == expected
    assert scans == [2, 2, 3, 3, 4, 4, 5, 5, 6, 6]
    for attempt in range(1, 4):
        with pytest.raises(cl.NoRootError):
            cl.solve_hopper(1.0, 0.5, 1)
        with pytest.raises(cl.NoRootError):
            cl.solve_juggler(1.0, 0.5, 1)
        assert scans[10:] == [1] * 2 * attempt


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


# Roots recorded when the closed forms were polished by Brent's method; the
# regula-falsi/Newton polish must reproduce them.  None marks NoRootError.
# Keys: (family, (nu1, omega2, omega1p)) or ("hopper", (omega2, omega1p)),
# values for n = 1..6; GOLDEN_Y keys are (a, b) of y_root.
GOLDEN_N2 = {
    ('rocker', (1.0, 2.0, 1.0)): [
        None,
        (4.237081035390633, 0.7998468663846997),
        (7.389839846050267, 0.7860156581587932),
        (10.531905340816365, 0.7854248351544906),
        (13.673518410098547, 0.7853993159650472),
        (16.81511194589752, 0.7853982132043674),
    ],
    ('rocker', (0.3, 1.5, 0.7)): [
        None,
        (4.437885334940192, 0.5429568374283672),
        (7.637641123065361, 0.4401446721819552),
        (10.792985120337656, 0.41463914978378047),
        (13.938308475759774, 0.40764363613941373),
        (17.08094889509147, 0.405673197338755),
    ],
    ('rocker', (2.5, 0.8, 1.9)): [
        None,
        (3.45129559788345, 0.9209258777958592),
        (6.592888251722043, 0.9209258773829492),
        (9.734480905311836, 0.9209258773829494),
        (12.876073558901629, 0.9209258773829495),
        (16.017666212491424, 0.9209258773829468),
    ],
    ('rimless', (1.0, 2.0, 1.0)): [
        (2.7282003368516987, 0.7201541297859504),
        (5.821903060476725, 0.7824362090762824),
        (8.961232974253399, 0.7852698754177468),
        (12.102727440840138, 0.785392619026791),
        (15.24431585062413, 0.7853979238024519),
        (18.385908320821027, 0.7853981530436058),
    ],
    ('rimless', (0.3, 1.5, 0.7)): [
        (3.0336496334650276, 0.228165434922213),
        (6.116616730949504, 0.3457952532097939),
        (9.236727385646919, 0.3871984098155637),
        (12.371685305905185, 0.39978066203182516),
        (15.511343278296762, 0.40343088792381687),
        (18.65238143973579, 0.404475493849094),
    ],
    ('rimless', (2.5, 0.8, 1.9)): [
        (1.8805038371259857, 0.9209182999891724),
        (5.022091924927159, 0.920925877382927),
        (8.16368457851694, 0.9209258773829493),
        (11.305277232106732, 0.9209258773829495),
        (14.446869885696525, 0.9209258773829497),
        (17.58846253928632, 0.9209258773829498),
    ],
    ('hopper', (2.0, 1.0)): [
        None,
        (4.493409457909064, 1.9895648717520715),
        (7.725251836937707, 1.8241255481249994),
        (10.9041216594289, 1.7521969321974098),
        (14.066193912831473, 1.7120344953636706),
        (17.22075527193077, 1.6864172668350972),
    ],
    ('hopper', (1.5, 0.7)): [
        None,
        (4.493409457909064, 2.0157847163920515),
        (7.725251836937707, 1.8413770754890812),
        (10.9041216594289, 1.76484166382608),
        (14.066193912831473, 1.7219749081573121),
        (17.22075527193077, 1.69459454388573),
    ],
    ('hopper', (0.8, 1.9)): [
        None,
        (4.493409457909064, 1.6642279920540735),
        (7.725251836937707, 1.625245871291493),
        (10.9041216594289, 1.6093912326441222),
        (14.066193912831473, 1.600721048721769),
        (17.22075527193077, 1.5952417562113443),
    ],
}
GOLDEN_Y = {
    (-1.3, 0.6): [
        2.289401764544954,
        5.3696227645464685,
        8.509712770946141,
        11.651270732500663,
        14.792862586269901,
        17.934455221420528,
    ],
    (0.5, 0.8): [
        None,
        3.602735102024241,
        6.746816513442215,
        9.888425462146424,
        13.030018222653814,
        16.171610876945138,
    ],
    (2.0, 1.5): [
        1.0745315308095817,
        4.24873904072355,
        7.390334024785595,
        10.531926678563455,
        13.673519332153264,
        16.815111985743055,
    ],
}


@pytest.mark.parametrize("key", sorted(GOLDEN_N2))
def test_closed_form_golden_roots(key):
    family, params = key
    for n, expected in enumerate(GOLDEN_N2[key], start=1):
        if expected is None:
            with pytest.raises(cl.NoRootError):
                SOLVERS[family](*params, n)
            continue
        sol = SOLVERS[family](*params, n)
        assert abs(sol.o_2 - expected[0]) <= 1e-13
        assert abs(sol.o_prime_1 - expected[1]) <= 1e-13


@pytest.mark.parametrize("ab", sorted(GOLDEN_Y))
def test_y_root_golden_roots(ab):
    for n, expected in enumerate(GOLDEN_Y[ab], start=1):
        if expected is None:
            with pytest.raises(cl.NoRootError):
                cl.y_root(*ab, n)
            continue
        assert abs(cl.y_root(*ab, n) - expected) <= 1e-13


def test_branch_root_never_leaves_the_scan_interval():
    def f(y):
        return np.sin(y) - y * np.cos(y)

    # a vanishing derivative sends the first Newton step far out of [pi, 2 pi)
    with pytest.raises(cl.NoRootError):
        _branch_root(f, lambda y: 1e-30, 2)
    for slope in (-1e3, -1.0, -1e-3, 1e-3, 1.0, 1e3):
        try:
            root = _branch_root(f, lambda y: slope, 2)
        except cl.NoRootError:
            continue
        assert np.pi <= root < 2 * np.pi


def test_y_root_large_b_polishes_without_overflow():
    # cosh(b y) overflows for b y > 710; the Newton slope uses 1 - tanh^2 instead
    a, b = 0.02, 50.0
    for n in (2, 3, 6):
        y = cl.y_root(a, b, n)
        assert y == pytest.approx((n - 1) * np.pi + np.arctan(a), abs=1e-14)
