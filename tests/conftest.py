import numpy as np
import pytest

import collisionless as cl


@pytest.fixture(scope="session")
def biped():
    return cl.build_armed_biped()


@pytest.fixture(scope="session")
def biped_spectral(biped):
    return cl.analyze(biped)


@pytest.fixture(scope="session")
def biped_cauchy(biped_spectral):
    M = cl.cauchy_matrix(biped_spectral.lam, biped_spectral.lam_prime)
    eta_vec = cl.eta(biped_spectral.lam, biped_spectral.lam_prime)
    return M, eta_vec


@pytest.fixture(scope="session")
def biped_root(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    return cl.refine_root((3.80, 0.93), biped_spectral.spectra, M, eta_vec)


@pytest.fixture(scope="session")
def biped_solution(biped_spectral, biped_root):
    return cl.build_solution(biped_spectral, biped_root)


@pytest.fixture(scope="session")
def biped_run(biped):
    return cl.solve_model(biped)


@pytest.fixture(scope="session")
def rocker_model():
    pair = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    return cl.model_from_spectra(pair, name="rocker-2dof", static_force=1.0)


@pytest.fixture(scope="session")
def no_existence_model():
    # all contact eigenvalues negative: lam' = [-1], lam = [-2.083, -0.917]
    return cl.ModelSpec(
        name="sunk",
        n=2,
        mass=np.eye(2),
        stiffness=np.array([[-1.0, 0.3], [0.3, -2.0]]),
        sigma=[-1, -1],
        sigma_prime=[1],
        static_force=1.0,
        contact_sign=1,
    )
