from fractions import Fraction

import numpy as np
import pytest

import collisionless as cl
from helpers import random_interlaced_nodes, random_spd_model


def test_biped_matrix_entries(biped_spectral):
    M = cl.cauchy_matrix(biped_spectral.lam, biped_spectral.lam_prime)
    assert M[0, 0] == pytest.approx(-0.22542, abs=1e-4)
    assert M[2, 1] == pytest.approx(9.15225, abs=1e-4)


def test_spectrum_pair_builds_cauchy_pair_once(biped_spectral):
    pair = biped_spectral.spectra
    assert pair.M is pair.M and pair.eta is pair.eta
    assert np.array_equal(pair.M, cl.cauchy_matrix(pair.lam, pair.lam_prime))
    assert np.array_equal(pair.eta, cl.eta(pair.lam, pair.lam_prime))
    for arr in (pair.M, pair.eta):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_direct_arithmetic():
    M = cl.cauchy_matrix([-1.0, 1.0], [0.5])
    np.testing.assert_allclose(M, [[-2.0 / 3.0], [2.0]], rtol=1e-15)


def test_translation_invariance():
    lam = np.array([-2.0, 0.5, 3.0])
    lamp = np.array([-1.0, 1.5])
    base = cl.cauchy_matrix(lam, lamp)
    shifted = cl.cauchy_matrix(lam + 7.25, lamp + 7.25)
    np.testing.assert_allclose(shifted, base, rtol=1e-12)


def test_near_singular_error():
    with pytest.raises(cl.InterlacingError):
        cl.cauchy_matrix([0.0, 1.0], [1e-16])


def test_near_singular_rtol_is_1e12_not_1e9():
    # nodes 1e-10 of the spread apart are distinct at NEAR_SINGULAR_RTOL = 1e-12
    M = cl.cauchy_matrix([0.0, 1.0], [1e-10])
    assert M[0, 0] == -1e10 and M[1, 0] == pytest.approx(1.0, rel=1e-9)


def test_spread_beyond_the_float_range_does_not_overflow():
    # the spread 2e308 overflows as hi - lo; the nodes are far apart, and 1e293 of it is not
    M = cl.cauchy_matrix([1e308, -1e308], [0.0])
    assert M[0, 0] == 1 / 1e308 and M[1, 0] == -1 / 1e308
    with pytest.raises(cl.InterlacingError):
        cl.cauchy_matrix([1e308, -1e308], [1e308 - 1e293])


def test_stacked_node_sets_match_row_by_row():
    rng = np.random.default_rng(43)
    for n in (2, 3, 6):
        rows = [random_interlaced_nodes(n, rng) for _ in range(12)]
        x, y = (np.stack(nodes) for nodes in zip(*rows))
        scale = rng.uniform(1e-3, 1e3, (12, 1))
        lam, lamp = x * scale, y * scale
        M, eta_vec = cl.cauchy_matrix(lam, lamp), cl.eta(lam, lamp)
        assert M.shape == (12, n, n - 1) and eta_vec.shape == (12, n)
        for k in range(12):
            assert M[k].tobytes() == cl.cauchy_matrix(lam[k], lamp[k]).tobytes()
            assert eta_vec[k].tobytes() == cl.eta(lam[k], lamp[k]).tobytes()
        grid = cl.cauchy_matrix(lam.reshape(3, 4, n), lamp.reshape(3, 4, n - 1))
        assert grid.tobytes() == M.tobytes()


def test_stacked_node_sets_checked_row_by_row():
    # each row against its own spread: a small, well-separated row beside a wide one is fine
    lam = np.array([[-1e6, 1e6], [-1e-6, 1e-6]])
    lamp = np.array([[0.0], [5e-7]])
    cl.cauchy_matrix(lam, lamp)
    cl.eta(lam, lamp)
    near = np.array([[-1.0, 1.0], [0.0, 1.0]]), np.array([[0.0], [1e-16]])
    with pytest.raises(cl.InterlacingError):
        cl.cauchy_matrix(*near)
    with pytest.raises(cl.InterlacingError):
        cl.eta(*near)
    crossed = np.array([[-1.0, 1.0], [-1.0, 1.0]]), np.array([[0.0], [2.0]])
    with pytest.raises(cl.InterlacingError):
        cl.eta(*crossed)
    with pytest.raises(cl.InvalidParameterError):
        cl.cauchy_matrix(np.zeros((2, 3)), np.ones((3, 2)))
    with pytest.raises(cl.InvalidParameterError):
        cl.cauchy_det(np.zeros((2, 3)), np.ones((2, 3)))


@pytest.mark.parametrize("call", [
    lambda: cl.cauchy_matrix([], []),
    lambda: cl.cauchy_inverse([], []),
    lambda: cl.cauchy_det([], []),
    lambda: cl.eta([1.0], []),
], ids=["cauchy_matrix", "cauchy_inverse", "cauchy_det", "eta"])
def test_empty_node_sets_rejected(call):
    # one rule for every entry point, cauchy_det's empty product included
    with pytest.raises(cl.InvalidParameterError, match="at least one node"):
        call()


def test_eta_rejects_mismatched_lengths():
    with pytest.raises(cl.InvalidParameterError, match="one entry fewer"):
        cl.eta([1.0, 2.0, 3.0], [1.5])


def test_inverse_residual_biped(biped_spectral):
    lam_bar = biped_spectral.lam[:-1]
    lamp = biped_spectral.lam_prime
    M_bar = cl.cauchy_matrix(biped_spectral.lam, lamp)[:-1, :]
    inv = cl.cauchy_inverse(lam_bar, lamp)
    assert np.abs(inv @ M_bar - np.eye(2)).max() < 1e-10


def test_inverse_scalar():
    inv = cl.cauchy_inverse([(-1.0)], [1.0])
    np.testing.assert_allclose(inv, [[-2.0]], rtol=1e-15)


def test_inverse_random_vs_dense_oracle():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 13))
        x, y = random_interlaced_nodes(n + 1, rng)
        x = x[:n]
        y = y[:n]
        dense = np.linalg.inv(cl.cauchy_matrix(x, y))
        ours = cl.cauchy_inverse(x, y)
        scale = np.abs(dense).max()
        assert np.abs(ours - dense).max() / scale < 1e-8


def test_det_vs_dense_oracle():
    rng = np.random.default_rng(29)
    for _ in range(25):
        n = int(rng.integers(1, 10))
        x, y = random_interlaced_nodes(n + 1, rng)
        x, y = x[:n], y[:n]
        dense = np.linalg.det(cl.cauchy_matrix(x, y))
        assert cl.cauchy_det(x, y) == pytest.approx(dense, rel=1e-10)


def _exact_inverse_and_det(x, y):
    """Inverse and determinant of 1/(x_i - y_j) in exact rationals, by Gauss-Jordan elimination."""
    n = len(x)
    rows = [[1 / (Fraction(xi) - Fraction(yj)) for yj in y] + [Fraction(k == r) for k in range(n)]
            for r, xi in enumerate(x)]
    det = Fraction(1)
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c] != 0)
        if pivot != c:
            rows[c], rows[pivot] = rows[pivot], rows[c]
            det = -det
        det *= rows[c][c]
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(n):
            if r != c:
                rows[r] = [v - rows[r][c] * w for v, w in zip(rows[r], rows[c])]
    return np.array([[float(v) for v in row[n:]] for row in rows]), float(det)


def test_inverse_and_det_exact_on_near_coincident_nodes():
    # three of the eight nodes within 1e-7 of each other, spread about 6: the product
    # formulas stay componentwise accurate (a dense inverse is off by up to ~1e-7 here)
    rng = np.random.default_rng(28)
    for _ in range(30):
        gaps = rng.uniform(0.8, 1.6, 7)
        k = rng.integers(0, 6)
        gaps[k:k + 2] = rng.uniform(1e-8, 4e-8, 2)
        nodes = np.concatenate([[0.0], np.cumsum(gaps)]) - 3.0
        x, y = nodes[0::2], nodes[1::2]
        exact, det = _exact_inverse_and_det(x, y)
        assert np.abs(cl.cauchy_inverse(x, y) / exact - 1.0).max() <= 1e-14
        assert cl.cauchy_det(x, y) == pytest.approx(det, rel=1e-13)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [0.5, 1.0 + 1e-13]),        # across the two sets
    ([0.0, 1e-13], [0.5, 1.0]),              # within one set
])
def test_inverse_rejects_near_coincident_nodes(x, y):
    with pytest.raises(cl.InterlacingError):
        cl.cauchy_inverse(x, y)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [0.5]),
    (np.zeros((2, 2)), np.ones((2, 2))),
])
def test_inverse_and_det_reject_non_square(x, y):
    for function in (cl.cauchy_inverse, cl.cauchy_det):
        with pytest.raises(cl.InvalidParameterError):
            function(x, y)


def test_eta_biped(biped_spectral):
    eta_vec = cl.eta(biped_spectral.lam, biped_spectral.lam_prime)
    np.testing.assert_allclose(eta_vec, [42.599, 6.864, 1.0], atol=1e-3)
    # cross-module identity: squared contact row of the mode matrix
    np.testing.assert_allclose(
        eta_vec, biped_spectral.mode_matrix[-1, :] ** 2, rtol=1e-8
    )


def test_eta_n2_closed_form():
    lam = np.array([-1.0, 4.0])
    lamp = np.array([1.0])
    eta_vec = cl.eta(lam, lamp)
    # 1x1 closed form (lamp - lam1) / (lam2 - lamp) = 2/3
    assert eta_vec[0] == pytest.approx(2.0 / 3.0, rel=1e-14)
    # dense oracle: solve eta_bar M_bar = -M_N directly
    M = cl.cauchy_matrix(lam, lamp)
    eta_bar = np.linalg.solve(M[:-1, :].T, -M[-1, :])
    assert eta_vec[0] == pytest.approx(eta_bar[0], rel=1e-12)


def test_eta_properties_random():
    rng = np.random.default_rng(31)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        x, y = random_interlaced_nodes(n, rng)
        eta_vec = cl.eta(x, y)
        assert eta_vec[-1] == 1.0
        assert np.all(eta_vec > 0)
        # defining null relation
        M = cl.cauchy_matrix(x, y)
        assert np.abs(eta_vec @ M).max() < 1e-10 * np.abs(M).max() * eta_vec.sum()


def test_weighted_row_identity(biped_spectral):
    # (eta * lam)^T M equals sum(eta) on every column
    rng = np.random.default_rng(37)
    cases = [(biped_spectral.lam, biped_spectral.lam_prime)]
    for _ in range(10):
        cases.append(random_interlaced_nodes(int(rng.integers(2, 8)), rng))
    for lam, lamp in cases:
        lam = np.asarray(lam, float)
        eta_vec = cl.eta(lam, lamp)
        lhs = (eta_vec * lam) @ cl.cauchy_matrix(lam, lamp)
        np.testing.assert_allclose(lhs, np.full(len(lamp), eta_vec.sum()), rtol=1e-8)


def test_eta_matches_mode_row_on_random_models():
    rng = np.random.default_rng(41)
    for n in (2, 3, 5):
        _, spectral = random_spd_model(n, rng)
        eta_vec = cl.eta(spectral.lam, spectral.lam_prime)
        np.testing.assert_allclose(
            eta_vec, spectral.mode_matrix[-1, :] ** 2, rtol=1e-8
        )
