"""Shared construction helpers for the test suite."""

import numpy as np

import collisionless as cl


def random_spd_model(n, rng, name="random"):
    """Random well-conditioned model: SPD mass, symmetric stiffness, random signatures.

    Rejects spectra with small gaps, near-zero eigenvalues, or tiny contact-row
    mode amplitudes, so downstream identities hold at tight tolerances.
    """
    while True:
        L = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        mass = L @ L.T
        k = rng.standard_normal((n, n))
        stiffness = 0.5 * (k + k.T)
        try:
            model = cl.ModelSpec(
                name=name,
                n=n,
                mass=mass,
                stiffness=stiffness,
                sigma=rng.choice([-1, 1], n),
                sigma_prime=rng.choice([-1, 1], n - 1),
                static_force=1.0,
                contact_sign=1,
            )
            spectral = cl.analyze(model)
        except cl.CollisionlessError:
            continue
        lam, lamp = spectral.lam, spectral.lam_prime
        spread = lam.max() - lam.min()
        merged = np.sort(np.concatenate([lam, lamp]))
        if np.diff(merged).min() < 0.02 * spread:
            continue
        if np.abs(lam).min() < 1e-3 * np.abs(lam).max():
            continue
        row = np.abs(spectral.mode_matrix[-1, :])
        if row.min() < 1e-2 or row.max() > 1e3:
            continue
        return model, spectral


def hard_model(index, seed=2026):
    """Draw ``index`` of the unfiltered "hard" recipe: ``random_spd_model`` without its redraws.

    Each draw takes n = rng.integers(3, 7), then the mass, stiffness and
    signatures in ``random_spd_model``'s order; static force 1, contact sign +1.
    """
    rng = np.random.default_rng(seed)
    for _ in range(index + 1):
        n = int(rng.integers(3, 7))
        L = np.eye(n) + 0.3 * rng.standard_normal((n, n))
        k = rng.standard_normal((n, n))
        sigma, sigma_prime = rng.choice([-1, 1], n), rng.choice([-1, 1], n - 1)
    return cl.ModelSpec(name=f"hard-{index}", n=n, mass=L @ L.T, stiffness=0.5 * (k + k.T),
                        sigma=sigma, sigma_prime=sigma_prime, static_force=1.0, contact_sign=1)


def stiff_hyperbolic_model():
    # cosh/sinh of the lam ~ -1e4 mode overflow on much of the default grid
    return cl.ModelSpec(
        name="stiff-hyperbolic", n=3, mass=np.eye(3),
        stiffness=[[-1e4, 1, 1], [1, 4, 0.5], [1, 0.5, -1]],
        sigma=(1, -1, -1), sigma_prime=(1, -1), static_force=1, contact_sign=1,
    )


def random_rocker_freqs(rng):
    nu1 = rng.uniform(0.3, 2.0)
    om2 = rng.uniform(1.0, 3.0)
    om1p = om2 * rng.uniform(0.25, 0.9)
    return nu1, om2, om1p


def near_critical_spectra(n, lamp_top, rng):
    """Interlaced spectra with every non-top eigenvalue negative (rocking signatures)."""
    lam = np.empty(n)
    lamp = np.empty(n - 1)
    lamp[-1] = lamp_top
    lam[-1] = lamp_top + rng.uniform(0.5, 1.5)
    downs = -np.cumsum(rng.uniform(0.3, 1.0, 2 * n - 3))
    lam[: n - 1] = downs[0::2][::-1]
    if n > 2:
        lamp[: n - 2] = downs[1::2][::-1]
    return cl.SpectrumPair(lam, lamp, np.full(n, -1), np.full(n - 1, 1))


def cauchy_inputs(spectra):
    M = cl.cauchy_matrix(spectra.lam, spectra.lam_prime)
    eta_vec = cl.eta(spectra.lam, spectra.lam_prime)
    return M, eta_vec


def still_top_mode_model():
    """Identity-mass model whose top mode (lam = 9) leaves the contact coordinate still."""
    return cl.ModelSpec(
        name="still-top", n=3, mass=np.eye(3),
        stiffness=[[2.0, 0.0, 1.0], [0.0, 9.0, 0.0], [1.0, 0.0, 3.0]],
        sigma=[-1, -1, -1], sigma_prime=[1, 1], static_force=1.0, contact_sign=1,
    )


def random_interlaced_nodes(n, rng, min_gap=1e-3):
    """2n-1 strictly increasing nodes split into (x, y) with x_i < y_i < x_{i+1}."""
    gaps = rng.uniform(min_gap, 1.0, 2 * n - 1)
    seq = np.cumsum(gaps) - 2.0
    return seq[0::2], seq[1::2]


def non_pole_times(spectral, rng, lo=0.3, hi=3.0, margin=0.05):
    """Random (tau, tau') at which no kernel factor used by the reduction is tiny."""
    while True:
        tau = rng.uniform(lo, hi)
        tau_prime = rng.uniform(lo, hi)
        g, gd = cl.mode_motion_vec(tau, spectral.lam, spectral.sigma)
        gp, _ = cl.mode_motion_vec(-tau_prime, spectral.lam_prime, spectral.sigma_prime)
        if min(np.abs(g).min(), np.abs(gd).min(), np.abs(gp).min()) > margin:
            return tau, tau_prime


def float_bits(value):
    """``value`` with every float as its hex form, so == compares bits (and the sign of 0)."""
    if isinstance(value, dict):
        return {key: float_bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple, np.ndarray)):
        return [float_bits(v) for v in value]
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value
