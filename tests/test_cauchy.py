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


def test_dense_fallback_still_accurate():
    # one gap at 1e-7 of the spread triggers the dense path
    x = np.array([0.0, 1.0, 2.0])
    y = np.array([0.5, 2.0 - 1e-7])
    inv = cl.cauchy_inverse(x[:2], y)
    M = cl.cauchy_matrix(x[:2], y)
    assert np.abs(inv @ M - np.eye(2)).max() < 1e-6


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
