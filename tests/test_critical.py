import numpy as np
import pytest
from scipy.optimize import brentq

import collisionless as cl
from collisionless import critical
from helpers import cauchy_inputs, near_critical_spectra


def test_existence_gate(biped_spectral):
    assert cl.existence_gate(biped_spectral.lam_prime) is True
    assert cl.existence_gate([-2.0, -0.1]) is False
    assert cl.existence_gate([-2.0, 0.0]) is False  # boundary excluded


def test_critical_limit_pins_top_eigenvalue(biped_spectral):
    limit = cl.critical_limit(biped_spectral.spectra)
    assert limit.lam_prime[-1] == 0.0
    np.testing.assert_array_equal(limit.lam, biped_spectral.lam)


def test_critical_limit_requires_negative_structure():
    pair = cl.SpectrumPair([-1.0, 0.5, 2.0], [-0.2, 1.0], [-1, -1, -1], [1, 1])
    with pytest.raises(cl.InvalidParameterError):
        cl.critical_limit(pair)


def test_critical_matrices_require_limit(biped_spectral):
    with pytest.raises(cl.InvalidParameterError):
        cl.critical_matrices(1.0, biped_spectral.spectra)


def test_n2_reduction_matches_closed_forms():
    # at the critical root: w1 = w2 and c0 = -w1 = tanh^sigma1(o1) nu1
    rng = np.random.default_rng(14)
    for _ in range(10):
        nu1 = rng.uniform(0.4, 1.6)
        om2 = rng.uniform(0.8, 2.5)
        sig1 = int(rng.choice([-1, 1]))
        sig2 = int(rng.choice([-1, 1]))
        pair = cl.SpectrumPair([-nu1 ** 2, om2 ** 2], [0.0], [sig1, sig2], [1])
        tau_c, c0 = cl.solve_critical(pair)
        w = cl.phase_rate(tau_c, pair.lam, pair.sigma)
        assert w[0] == pytest.approx(w[1], rel=1e-9)
        assert c0 == pytest.approx(-w[0], rel=1e-9)
        assert c0 == pytest.approx(np.tanh(nu1 * tau_c) ** sig1 * nu1, rel=1e-9)


def test_critical_matrices_finite_and_tau_only():
    rng = np.random.default_rng(15)
    spectra = near_critical_spectra(3, 0.0, rng)
    for tau in (0.4, 1.1, 2.3):
        K, K_tilde = cl.critical_matrices(tau, spectra)
        assert np.all(np.isfinite(K)) and np.all(np.isfinite(K_tilde))
        assert K_tilde[1, 0] == 0.0 and K_tilde[1, 1] == 0.0


def test_critical_root_brackets_det_oracle():
    # scan det(K + K~) directly and bisect: must agree with solve_critical
    rng = np.random.default_rng(16)
    spectra = near_critical_spectra(3, 0.0, rng)
    tau_c, _ = cl.solve_critical(spectra)
    taus = np.linspace(tau_c - 0.05, tau_c + 0.05, 41)
    dets = []
    for t in taus:
        K, K_tilde = cl.critical_matrices(t, spectra)
        dets.append(np.linalg.det(K + K_tilde))
    dets = np.array(dets)
    signs = np.sign(dets)
    # an exact zero of det on the grid counts as a crossing: it can fall on tau_c itself
    crossing = np.nonzero(signs[:-1] * signs[1:] <= 0)[0]
    assert crossing.size >= 1
    lo, hi = taus[crossing[0]], taus[crossing[0] + 1]
    for _ in range(80):  # bisection oracle
        mid = 0.5 * (lo + hi)
        K, K_tilde = cl.critical_matrices(mid, spectra)
        val = np.linalg.det(K + K_tilde)
        K, K_tilde = cl.critical_matrices(lo, spectra)
        if np.linalg.det(K + K_tilde) * val <= 0:
            hi = mid
        else:
            lo = mid
    assert tau_c == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_predicted_contact_phase_inversions():
    # exact inversion of w'(tau') = c0 on the principal branch
    c0, lam_p = 1.3, 0.04
    om = np.sqrt(lam_p)
    o_odd = cl.predicted_contact_phase(c0, lam_p, 1)
    assert np.tan(o_odd) * om == pytest.approx(c0, rel=1e-12)
    o_even = cl.predicted_contact_phase(c0, lam_p, -1)
    assert -om / np.tan(o_even) == pytest.approx(c0, rel=1e-12)
    with pytest.raises(cl.InvalidParameterError):
        cl.predicted_contact_phase(-1.0, lam_p, 1)


def test_asymptotic_grid_spacing():
    rng = np.random.default_rng(18)
    spectra = near_critical_spectra(4, 0.01, rng)
    pts = cl.asymptotic_grid(spectra, range(2, 7))
    diffs = np.diff(pts[:, 0])
    np.testing.assert_allclose(diffs, np.pi, atol=1e-12)
    assert np.ptp(pts[:, 1]) == 0.0  # same contact phase on every branch


def test_asymptote_refines_under_newton():
    rng = np.random.default_rng(21)
    spectra = near_critical_spectra(4, 0.01, rng)
    M, eta_vec = cauchy_inputs(spectra)
    for n in (3, 4, 5, 6):
        point = cl.large_tau_asymptote(n, spectra)
        root = cl.refine_root((point.o_n, point.o_prime), spectra, M, eta_vec)
        displacement = max(abs(root.o_n - point.o_n), abs(root.o_prime - point.o_prime))
        assert displacement < 0.2


def test_asymptote_n2_matches_family_formulas():
    # rocking signatures: o_N(n) = (n - 1/2) pi - arctan(rho), w_top -> -nu1
    nu1, om2 = 0.9, 1.7
    rho = nu1 / om2
    spectra = cl.SpectrumPair([-nu1 ** 2, om2 ** 2], [1e-4], [-1, -1], [1])
    for n in (3, 5):
        point = cl.large_tau_asymptote(n, spectra)
        assert point.w_top == pytest.approx(-nu1, rel=1e-12)
        assert point.c0 == pytest.approx(nu1, rel=1e-12)
        assert point.o_n == pytest.approx((n - 0.5) * np.pi - np.arctan(rho), rel=1e-12)
    # rolling signatures: o_N(n) = n pi - arctan(rho)
    rolling = cl.SpectrumPair([-nu1 ** 2, om2 ** 2], [1e-4], [1, 1], [1])
    point = cl.large_tau_asymptote(4, rolling)
    assert point.o_n == pytest.approx(4 * np.pi - np.arctan(rho), rel=1e-12)


def test_asymptote_rejects_wrong_structure(biped_spectral):
    pair = cl.SpectrumPair([-1.0, 0.5, 2.0], [-0.2, 1.0], [-1, -1, -1], [1, 1])
    with pytest.raises(cl.InvalidParameterError):
        cl.large_tau_asymptote(3, pair)


def test_contact_rate_approaches_c0_monotonically():
    rng = np.random.default_rng(22)
    spectra0 = near_critical_spectra(3, 0.0, rng)
    lam, lamp = np.array(spectra0.lam), np.array(spectra0.lam_prime)
    point = cl.large_tau_asymptote(3, spectra0)
    gaps = []
    for eps in (1e-1, 1e-2, 1e-3):
        lamp_eps = lamp.copy()
        lamp_eps[-1] = eps
        spectra = cl.SpectrumPair(lam, lamp_eps, spectra0.sigma, spectra0.sigma_prime)
        M, eta_vec = cauchy_inputs(spectra)
        seed_p = cl.predicted_contact_phase(point.c0, eps, 1)
        root = cl.refine_root((point.o_n, seed_p), spectra, M, eta_vec)
        w_top = cl.phase_rate(root.tau_prime, [eps], [1])[0]
        gaps.append(abs(w_top - point.c0))
    assert gaps[0] > gaps[1] > gaps[2]


def test_predicted_contact_time_within_5pct():
    rng = np.random.default_rng(27)
    spectra0 = near_critical_spectra(3, 0.0, rng)
    tau_c, c0 = cl.solve_critical(spectra0, o_max=4 * np.pi)
    eps = 1e-3
    lamp_eps = np.array(spectra0.lam_prime)
    lamp_eps[-1] = eps
    spectra = cl.SpectrumPair(spectra0.lam, lamp_eps, spectra0.sigma, spectra0.sigma_prime)
    M, eta_vec = cauchy_inputs(spectra)
    o_p_pred = cl.predicted_contact_phase(c0, eps, 1)
    tau_p_pred = o_p_pred / np.sqrt(eps)
    o_n_seed = np.sqrt(spectra.lam[-1]) * tau_c
    root = cl.refine_root((o_n_seed, o_p_pred), spectra, M, eta_vec)
    assert abs(tau_p_pred - root.tau_prime) / root.tau_prime < 0.05


def test_sampling_study_positive_and_deterministic():
    summary = cl.c0_sampling_study(150, 3, seed=7)
    assert summary.samples == 150
    assert summary.failures == 0
    assert summary.nonpositive == 0
    assert summary.min_c0 > 0
    again = cl.c0_sampling_study(150, 3, seed=7)
    assert again == summary
    payload = summary.to_dict()
    assert set(payload) == {"N", "samples", "failures", "nonpositive", "minC0", "seed"}


def test_sampling_study_validates_args():
    with pytest.raises(cl.InvalidParameterError):
        cl.c0_sampling_study(0, 3, seed=1)
    with pytest.raises(cl.InvalidParameterError):
        cl.c0_sampling_study(10, 1, seed=1)


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6])
def test_study_stacked_path_matches_single_sample_solve(monkeypatch, n_dof):
    # every sample's root from the study's chunked stacks, bit for bit against a solve alone
    solved = []
    first_roots = critical._first_roots

    def recording(stack, o_max):
        tau_c, c0 = first_roots(stack, o_max)
        solved.extend(zip(tau_c.tolist(), c0.tolist()))
        return tau_c, c0

    monkeypatch.setattr(critical, "_first_roots", recording)
    n_samples = critical._STUDY_CHUNK + 8
    cl.c0_sampling_study(n_samples, n_dof, seed=3)
    monkeypatch.undo()
    assert len(solved) == n_samples
    rng = np.random.default_rng(3)
    for tau_c, c0 in solved:
        spectra = critical._sample_critical_spectra(n_dof, rng)
        if np.isnan(tau_c):
            with pytest.raises(cl.NoRootError):
                cl.solve_critical(spectra)
        else:
            assert cl.solve_critical(spectra) == (tau_c, c0)


def _reference_root(spectra, o_max=6 * np.pi, points=1200):
    """First root by a full-grid scan and brentq on det(K + K~) times the w_N denominator."""
    om_top = np.sqrt(spectra.lam[-1])
    depole = np.cos if spectra.sigma[-1] == 1 else np.sin

    def residual(tau):
        K, K_tilde = cl.critical_matrices(tau, spectra)
        return np.linalg.det(K + K_tilde) * depole(om_top * tau)

    # the grid scan is the library's own residual, one call over the whole grid
    taus = np.linspace(1e-3 / om_top, o_max / om_top, points)
    vals = critical._depoled_residual(taus[None, :], critical._stack([spectra]))[0]
    finite = np.isfinite(vals)
    signs = np.sign(vals)
    first = np.nonzero((signs[:-1] * signs[1:] < 0) & finite[:-1] & finite[1:])[0][0]
    tau_c = brentq(residual, taus[first], taus[first + 1], xtol=1e-13, rtol=8.9e-16)
    K, _ = cl.critical_matrices(tau_c, spectra)
    return tau_c, -K[1, 1] / K[1, 0]


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6])
def test_first_root_matches_full_scan_and_brentq(n_dof):
    # the early-exit scan never skips to a later bracket, and ITP matches brentq
    rng = np.random.default_rng(40 + n_dof)
    for _ in range(30):
        spectra = critical._sample_critical_spectra(n_dof, rng)
        tau_ref, c0_ref = _reference_root(spectra)
        tau_c, c0 = cl.solve_critical(spectra)
        assert tau_c == pytest.approx(tau_ref, rel=1e-12, abs=0)
        assert c0 == pytest.approx(c0_ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("n_dof, min_c0", [
    (2, 0.16674372418747277),
    (3, 0.025195390533708627),
    (5, 0.011321270128321027),
])
def test_sampling_study_golden_min_c0(n_dof, min_c0):
    # min_c0 of c0_sampling_study(1000, N, 42) as computed by per-sample brentq polishing
    summary = cl.c0_sampling_study(1000, n_dof, seed=42)
    assert (summary.failures, summary.nonpositive) == (0, 0)
    assert summary.min_c0 == pytest.approx(min_c0, rel=1e-12, abs=0)
