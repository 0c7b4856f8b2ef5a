import numpy as np
import pytest

import collisionless as cl
from helpers import random_spd_model

REF_LAM = np.array([-5.85028, -0.67319, 1.52348])
REF_ROW = np.array([6.5268, 2.6199, 1.0])
REF_XP = np.array([[14.780, 86.146], [25.232, 25.232], [0.0, 0.0]])


def test_biped_spectrum(biped_spectral):
    np.testing.assert_allclose(biped_spectral.lam, REF_LAM, atol=1e-4)
    assert biped_spectral.norm_const == pytest.approx(0.019816, abs=1e-5)


def test_biped_contact_row(biped_spectral):
    X = biped_spectral.mode_matrix
    np.testing.assert_allclose(X[-1, :], REF_ROW, atol=1e-3)
    assert X[-1, -1] == 1.0
    assert np.all(X[-1, :] > 0)


def test_biped_constrained_spectrum(biped_spectral):
    np.testing.assert_allclose(
        biped_spectral.lam_prime, [-1.4142, 1.4142], atol=1e-4
    )


def test_diagonal_system_modes():
    model = cl.ModelSpec(
        name="diag", n=3, mass=np.eye(3), stiffness=np.diag([1.0, 2.0, 3.0]),
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=0.0, contact_sign=1,
    )
    lam, X, c = cl.normal_modes(model)
    np.testing.assert_allclose(lam, [1.0, 2.0, 3.0], atol=1e-12)
    np.testing.assert_allclose(np.abs(X), np.eye(3), atol=1e-12)
    assert c == pytest.approx(1.0)


def test_decoupled_constrained_spectrum():
    model = cl.ModelSpec(
        name="dec", n=2, mass=np.eye(2), stiffness=np.diag([0.7, 2.0]),
        sigma=[-1, -1], sigma_prime=[1], static_force=0.0, contact_sign=1,
    )
    np.testing.assert_allclose(cl.constrained_spectrum(model), [0.7], atol=1e-14)


def test_random_models_interlace_and_match_dense_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        model, spectral = random_spd_model(5, rng)
        merged = np.empty(9)
        merged[0::2] = spectral.lam
        merged[1::2] = spectral.lam_prime
        assert np.all(np.diff(merged) > 0)
        dense = np.sort(np.linalg.eigvals(np.linalg.solve(model.mass, model.stiffness)).real)
        np.testing.assert_allclose(spectral.lam, dense, rtol=1e-8, atol=1e-10)


def test_normalization_invariant(biped, biped_spectral):
    X = biped_spectral.mode_matrix
    gram = biped_spectral.norm_const * X.T @ biped.mass @ X
    assert np.abs(gram - np.eye(3)).max() < 1e-10


def test_eigen_relation_invariant(biped, biped_spectral):
    X = biped_spectral.mode_matrix
    resid = np.linalg.solve(biped.mass, biped.stiffness) @ X - X * biped_spectral.lam
    scale = np.abs(biped.stiffness).max() / np.abs(biped.mass).max()
    assert np.abs(resid).max() < 1e-8 * scale


def test_biped_constrained_modes_reference(biped_spectral):
    np.testing.assert_allclose(
        biped_spectral.mode_matrix_prime, REF_XP, atol=2e-3
    )


def test_constrained_modes_row_vanishes(biped_spectral):
    Xp = biped_spectral.mode_matrix_prime
    assert np.abs(Xp[-1, :]).max() < 1e-10 * np.abs(Xp).max()


def test_constrained_modes_match_direct_eigensolve():
    # oracle: eigenvectors of the contact-block problem, compared up to column scale
    rng = np.random.default_rng(11)
    for _ in range(5):
        model, spectral = random_spd_model(3, rng)
        m_c = model.mass[:-1, :-1]
        k_c = model.stiffness[:-1, :-1]
        chol = np.linalg.cholesky(m_c)
        chol_inv = np.linalg.inv(chol)
        vals, vecs = np.linalg.eigh(chol_inv @ k_c @ chol_inv.T)
        vecs = chol_inv.T @ vecs
        for j in range(2):
            col = spectral.mode_matrix_prime[:-1, j]
            ref = vecs[:, j]
            cosine = abs(col @ ref) / (np.linalg.norm(col) * np.linalg.norm(ref))
            assert cosine == pytest.approx(1.0, abs=1e-9)


def test_static_offset_biped(biped):
    np.testing.assert_allclose(
        cl.static_offset(biped), [0.0, 0.0, -5.0 / 3.0], atol=1e-13
    )


def test_static_offset_zero_force(biped):
    config = biped.to_config()
    config["static_force"] = 0.0
    np.testing.assert_array_equal(cl.static_offset(cl.load_model(config)), np.zeros(3))


def test_static_offset_diagonal_stiffness():
    model = cl.ModelSpec(
        name="diag", n=3, mass=np.eye(3), stiffness=np.diag([2.0, 3.0, 4.0]),
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=2.0, contact_sign=1,
    )
    np.testing.assert_allclose(cl.static_offset(model), [0.0, 0.0, 0.5], atol=1e-14)


def test_degenerate_spectrum_error():
    model = cl.ModelSpec(
        name="deg", n=3, mass=np.eye(3), stiffness=np.diag([1.0, 1.0 + 1e-13, 3.0]),
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=0.0, contact_sign=1,
    )
    with pytest.raises(cl.DegenerateSpectrumError):
        cl.normal_modes(model)


def test_zero_mode_error():
    # well-conditioned stiffness, but the mass scale pushes one eigenvalue to ~1e-12
    model = cl.ModelSpec(
        name="zero", n=3, mass=np.diag([1e13, 1.0, 1.0]), stiffness=np.diag([1.0, -2.0, -3.0]),
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=0.0, contact_sign=1,
    )
    with pytest.raises(cl.ZeroModeError):
        cl.normal_modes(model)


def test_analyze_rejects_zero_contact_amplitude():
    # decoupled first mode never moves the contact coordinate
    model = cl.ModelSpec(
        name="dec", n=3, mass=np.eye(3), stiffness=np.diag([1.0, 2.0, 3.0]),
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=0.0, contact_sign=1,
    )
    with pytest.raises(cl.NormalizationError):
        cl.analyze(model)


def test_matrix_reconstruction(biped, biped_spectral):
    np.testing.assert_allclose(biped_spectral.mass_matrix, biped.mass, atol=1e-10)
    np.testing.assert_allclose(biped_spectral.stiffness_matrix, biped.stiffness, atol=1e-10)
    oracle = np.linalg.solve(biped.stiffness, np.eye(3)[:, -1])
    np.testing.assert_allclose(biped_spectral.contact_compliance, oracle, atol=1e-12)


def test_spectra_property(biped_spectral):
    pair = biped_spectral.spectra
    np.testing.assert_array_equal(pair.lam, biped_spectral.lam)
    np.testing.assert_array_equal(pair.sigma, [-1, -1, -1])


def test_spectral_data_is_its_spectrum_pair(biped):
    spectral = cl.analyze(biped)
    assert isinstance(spectral, cl.SpectrumPair)
    assert spectral.spectra is spectral
    Xp = spectral.mode_matrix_prime
    assert Xp is spectral.mode_matrix_prime
    assert np.array_equal(Xp, cl.constrained_modes(spectral.mode_matrix, spectral.M))
    with pytest.raises(ValueError):
        Xp[0, 0] = 0.0


def test_spectral_data_rejects_misshaped_modes(biped_spectral):
    fields = dict(
        lam=biped_spectral.lam, lam_prime=biped_spectral.lam_prime,
        sigma=biped_spectral.sigma, sigma_prime=biped_spectral.sigma_prime,
        mode_matrix=biped_spectral.mode_matrix, norm_const=biped_spectral.norm_const,
        static_offset=biped_spectral.static_offset,
    )
    for name, value in (("mode_matrix", np.eye(2)), ("static_offset", np.zeros(2))):
        with pytest.raises(cl.InvalidParameterError):
            cl.SpectralData(**{**fields, name: value})
