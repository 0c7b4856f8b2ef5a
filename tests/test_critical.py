import numpy as np
import pytest
from scipy.optimize import brentq

import collisionless as cl
from collisionless import critical, impact
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


def test_solve_critical_without_a_root_in_the_window(biped_spectral, monkeypatch):
    # the biped's first critical root lies far beyond o_N = 0.01
    monkeypatch.setattr(critical, "_O_MAX", 0.01)
    with pytest.raises(cl.NoRootError, match="o_N < 0.01") as info:
        cl.solve_critical(cl.critical_limit(biped_spectral))
    assert info.value.exit_code == 3


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


def test_asymptotic_grid_of_no_branches_keeps_its_two_columns():
    spectra = near_critical_spectra(4, 0.01, np.random.default_rng(18))
    assert cl.asymptotic_grid(spectra, []).shape == (0, 2)
    assert cl.asymptotic_grid(spectra, [3]).shape == (1, 2)


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


@pytest.mark.parametrize("call, message", [
    (lambda: cl.predicted_contact_phase(0.5, -1.0, 1), "top contact eigenvalue must be positive"),
    (lambda: cl.large_tau_asymptote(2, cl.SpectrumPair([-2.0, -0.5], [-1.0], [1, 1], [1])),
     "top free eigenvalue must be positive"),
], ids=["predicted_contact_phase", "large_tau_asymptote"])
def test_critical_inputs_with_a_nonpositive_top_eigenvalue_rejected(call, message):
    with pytest.raises(cl.InvalidParameterError, match=message):
        call()


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
    tau_c, c0 = cl.solve_critical(spectra0)
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
    for args, name in [
        ((10.5, 3, 1), "n_samples"), ((True, 3, 1), "n_samples"),
        ((100, 3.0, 1), "n_dof"), ((10, True, 1), "n_dof"),
        ((10, 3, -1), "seed"), ((10, 3, 1.0), "seed"), ((10, 3, True), "seed"),
    ]:
        with pytest.raises(cl.InvalidParameterError, match=name):
            cl.c0_sampling_study(*args)


def test_sampling_study_reports_stage_timings():
    summary = cl.c0_sampling_study(critical._STUDY_CHUNK + 8, 3, seed=7)
    assert tuple(summary.timings) == critical.STUDY_STAGES
    assert all(seconds >= 0 for seconds in summary.timings.values())
    assert "timings" not in summary.to_dict()


def test_sampling_study_builds_no_spectrum_pair(monkeypatch):
    # the study draws, checks and stacks each chunk as arrays
    built = []
    post_init = cl.SpectrumPair.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(cl.SpectrumPair, "__post_init__", counting)
    summary = cl.c0_sampling_study(300, 3, seed=5)
    assert summary.samples == 300 and not built


def _sample_pair(n_dof, rng):
    """One study sample drawn as the per-sample sampler drew it: a validated SpectrumPair."""
    lam = np.empty(n_dof)
    lamp = np.empty(n_dof - 1)
    lamp[-1] = 0.0
    lam[-1] = rng.uniform(0.1, 1.0)
    downs = -np.cumsum(rng.uniform(0.1, 1.0, 2 * n_dof - 3))
    lam[: n_dof - 1] = downs[0::2][::-1]
    if n_dof > 2:
        lamp[: n_dof - 2] = downs[1::2][::-1]
    scale = np.abs(lam).max()
    sigma = rng.choice([-1, 1], n_dof)
    sigma_prime = rng.choice([-1, 1], n_dof - 1)
    return cl.SpectrumPair(lam / scale, lamp / scale, sigma, sigma_prime)


def _direct_pieces(pair, w_bar):
    """The direct pieces (P0, P1, S, r) of one pair at rates w_bar, as one (..., 7) array."""
    arrays = (values[None] for values in (pair.lam, pair.lam_prime, pair.M, pair.eta))
    P0, P1, S, r = critical._k_ingredients(w_bar, *arrays)
    return np.concatenate([P0, P1, S, r[..., None]], axis=-1)[0]


def _direct_table(pair):
    """A pair's coefficient table from its direct pieces at the corners w in {0, _NODE}**(N-1).

    The corner pieces are differenced over one bit at a time in a loop over the subsets, and
    row m is divided by _NODE**|m|.  Returns the table and the size of each coefficient: the
    same sum over the subsets of m with the magnitudes of the corner pieces, divided by
    |_NODE|**|m|.
    """
    k = pair.n - 1
    bits = impact._subsets(k)
    table = _direct_pieces(pair, critical._NODE * bits[None])
    size = abs(table)
    for bit in range(k):
        for m in range(2 ** k):
            if m >> bit & 1:
                table[m] -= table[m ^ 1 << bit]
                size[m] += size[m ^ 1 << bit]
    scale = critical._NODE ** bits.sum(axis=1)[:, None]
    return table / scale, size / abs(scale)


# The corner updates against a det and an inv of U-bar per corner, over the chunk tests: at
# most 3.0e-12 of a coefficient's size at N = 4 (one P1 corner piece, which a 50-digit
# evaluation puts 1.2e-12 from the direct value and 4.3e-12 from the updated one), and at
# most 2.1e-13 at every other N.
_TABLE_RTOL = 1e-11


def _assert_stack_matches_pairs(stack, pairs):
    """lam and sigma bit for bit the pairs', coef within _TABLE_RTOL of each coefficient's size."""
    for name in ("lam", "sigma"):
        want = np.stack([getattr(pair, name) for pair in pairs])
        got = getattr(stack, name)
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert stack.coef.shape == (len(pairs), 2 ** (pairs[0].n - 1), 7)
    for got, pair in zip(stack.coef, pairs):
        want, size = _direct_table(pair)
        assert np.all(abs(got - want) <= _TABLE_RTOL * size)


@pytest.mark.parametrize("count", [1, 7, 128])
@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_chunk_stack_matches_per_pair_stack(n_dof, count):
    # same rng stream, same numbers, in two successive chunks: the spectra bit for bit, and the
    # table within _TABLE_RTOL of each pair's direct corners at {0, _NODE}**(N-1)
    chunked, per_pair = np.random.default_rng(n_dof + count), np.random.default_rng(n_dof + count)
    for _ in range(2):
        stack = critical._stack(*critical._sample_chunk(n_dof, count, chunked))
        _assert_stack_matches_pairs(stack, [_sample_pair(n_dof, per_pair) for _ in range(count)])
    assert chunked.bit_generator.state == per_pair.bit_generator.state


@pytest.mark.parametrize("n_dof", [2, 3, 5])
def test_chunk_starting_on_a_spare_half_word_matches_per_pair_draws(n_dof):
    # a one-bit draw leaves the high half of its word waiting; the chunk must hand it out first
    chunked, per_pair = np.random.default_rng(n_dof), np.random.default_rng(n_dof)
    for rng in (chunked, per_pair):
        rng.integers(0, 2, 1)
        rng.uniform()
    assert chunked.bit_generator.state["has_uint32"] == 1
    for count in (5, 4):      # ends on a spare, then on none
        fields = critical._sample_chunk(n_dof, count, chunked)
        pairs = [_sample_pair(n_dof, per_pair) for _ in range(count)]
        _assert_stack_matches_pairs(critical._stack(*fields), pairs)
        assert np.array_equal(fields[1], np.stack([p.lam_prime for p in pairs]))
        assert np.array_equal(fields[3], np.stack([p.sigma_prime for p in pairs]))
        assert chunked.bit_generator.state == per_pair.bit_generator.state


@pytest.mark.parametrize("n_dof", [2, 3, 5])
def test_study_chunk_size_does_not_change_the_samples(monkeypatch, n_dof):
    # the chunks continue one rng stream, so every chunk size gives the same study, min_c0 bits too
    summaries = []
    for chunk in (1, 7, 128, 300):
        monkeypatch.setattr(critical, "_STUDY_CHUNK", chunk)
        summaries.append(cl.c0_sampling_study(300, n_dof, seed=11))
    assert all(summary == summaries[0] for summary in summaries)
    assert len({np.float64(summary.min_c0).tobytes() for summary in summaries}) == 1


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_pair_stack_matches_checked_stack(n_dof):
    # a pair's own arrays and cached M and eta stack to the bits the checked study path builds
    rng = np.random.default_rng(n_dof)
    for _ in range(50):
        pair = _sample_pair(n_dof, rng)
        one = critical._stack_one(pair)
        fields = (pair.lam, pair.lam_prime, pair.sigma, pair.sigma_prime)
        checked = critical._stack(*(values[None] for values in fields))
        for name, got, want in zip(one._fields, one, checked):
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), name


def test_critical_matrices_builds_no_cauchy_matrix(monkeypatch):
    spectra = near_critical_spectra(4, 0.0, np.random.default_rng(2))
    K, K_tilde = cl.critical_matrices(1.3, spectra)   # the pair builds its M and eta once

    def forbidden(*args, **kwargs):
        raise AssertionError("critical_matrices rebuilt or rechecked the pair's arrays")

    for module, name in [(critical, "cauchy_matrix"), (critical, "eta"),
                         (critical, "_check_spectra"), (cl.model, "cauchy_matrix"),
                         (cl.model, "cauchy_eta")]:
        monkeypatch.setattr(module, name, forbidden)
    again, again_tilde = cl.critical_matrices(1.3, spectra)
    assert again.tobytes() == K.tobytes() and again_tilde.tobytes() == K_tilde.tobytes()


def test_stack_checks_every_sample_like_spectrum_pair():
    lam, lam_prime, sigma, sigma_prime = critical._sample_chunk(3, 5, np.random.default_rng(9))
    crossed = lam.copy()
    crossed[3, 0] = lam_prime[3, 0] + 0.01
    with pytest.raises(cl.InterlacingError):
        critical._stack(crossed, lam_prime, sigma, sigma_prime)
    infinite = lam.copy()
    infinite[2, 1] = np.inf
    with pytest.raises(cl.InvalidParameterError, match="finite"):
        critical._stack(infinite, lam_prime, sigma, sigma_prime)
    zero_sign = sigma_prime.copy()
    zero_sign[4, 1] = 0
    with pytest.raises(cl.InvalidModelError, match="sigma_prime"):
        critical._stack(lam, lam_prime, sigma, zero_sign)


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6])
def test_study_stacked_path_matches_single_sample_solve(monkeypatch, n_dof):
    # every sample's root from the study's chunked stacks, bit for bit against a solve alone
    solved = []
    polish = critical._polish

    def recording(stack, bracket):
        tau_c, c0 = polish(stack, bracket)
        solved.extend(zip(tau_c.tolist(), c0.tolist()))
        return tau_c, c0

    monkeypatch.setattr(critical, "_polish", recording)
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
    vals = critical._depoled_residual(taus[None, :], critical._stack_one(spectra))[0]
    finite = np.isfinite(vals)
    signs = np.sign(vals)
    first = np.nonzero((signs[:-1] * signs[1:] < 0) & finite[:-1] & finite[1:])[0][0]
    tau_c = brentq(residual, taus[first], taus[first + 1], xtol=1e-13, rtol=8.9e-16)
    K, _ = cl.critical_matrices(tau_c, spectra)
    return tau_c, -K[1, 1] / K[1, 0]


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6])
def test_first_root_matches_full_scan_and_brentq(n_dof):
    # the early-exit scan never skips to a later bracket, and the Newton polish matches brentq
    rng = np.random.default_rng(40 + n_dof)
    for _ in range(30):
        spectra = critical._sample_critical_spectra(n_dof, rng)
        tau_ref, c0_ref = _reference_root(spectra)
        tau_c, c0 = cl.solve_critical(spectra)
        assert tau_c == pytest.approx(tau_ref, rel=1e-12, abs=0)
        assert c0 == pytest.approx(c0_ref, rel=1e-12, abs=0)


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_residual_slope_matches_central_difference(n_dof):
    # The analytic tau-slope against a four-point central difference of the depoled residual,
    # step 3e-4 tau, to 1e-9 of |F'| + omega_N |F| (the size of the slope's cos/sin terms).
    # Sample s takes its signatures from the bits of s, the top mode's from bit 0, so both
    # top-mode parities and mixed non-top parities occur; the value is the scan's residual to
    # 1e-10 relative.
    lam, lam_prime, _, sigma_prime = critical._sample_chunk(n_dof, 64, np.random.default_rng(n_dof))
    sigma = np.where(np.arange(64)[:, None] >> np.roll(np.arange(n_dof), -1) & 1, 1, -1)
    stack = critical._stack(lam, lam_prime, sigma, sigma_prime)
    assert stack.odd_top.any() and not stack.odd_top.all()
    assert n_dof == 2 or len({tuple(row) for row in stack.odd[:, :, 0].T}) > 2
    om_top = stack.om_top[:, 0]
    for o_top in np.linspace(0.2, critical._O_MAX, 60):
        tau = o_top / om_top
        f, df = critical._residual_slope(tau, stack)

        def residual(step):
            return critical._depoled_residual((tau + step * tau)[:, None], stack)[:, 0]

        h = 3e-4
        central = (8 * (residual(h) - residual(-h)) - (residual(2 * h) - residual(-2 * h))) / (
            12 * h * tau)
        assert np.all(abs(df - central) <= 1e-9 * (abs(df) + om_top * abs(f)))
        np.testing.assert_allclose(f, residual(0.0), rtol=1e-10, atol=0)


# The Newton polish closes every bracket of 1,500 samples per N = 2..8 (seed 42) within 11
# lockstep rounds, and in at most 2.8 rounds a bracket on average at each N; bisection from a
# scan step to the stopping width would take about 38.
_POLISH_MAX_ROUNDS = 12
_POLISH_MEAN_ROUNDS = 3.0


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_polish_worst_case_rounds_and_roots(monkeypatch, n_dof):
    # Every bracket closes within the round bound, and every root is within 1e-12 relative of
    # a 64-round lockstep bisection of the same residual from the same scan bracket.
    stack = critical._stack(*critical._sample_chunk(n_dof, 1500, np.random.default_rng(42)))
    bracket = critical._scan(stack, critical._O_MAX)
    assert not np.isnan(bracket).any()
    evaluated = []
    residual_slope = critical._residual_slope

    def counting(x, sub):
        evaluated.append(x.size)
        return residual_slope(x, sub)

    monkeypatch.setattr(critical, "_residual_slope", counting)
    tau_c, c0 = critical._polish(stack, bracket)
    assert len(evaluated) <= _POLISH_MAX_ROUNDS
    assert sum(evaluated) <= _POLISH_MEAN_ROUNDS * tau_c.size
    lo, hi, f_lo, _ = bracket
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        f = critical._depoled_residual(mid[:, None], stack)[:, 0]
        right = f * f_lo > 0
        lo, f_lo, hi = np.where(right, mid, lo), np.where(right, f, f_lo), np.where(right, hi, mid)
    np.testing.assert_allclose(tau_c, 0.5 * (lo + hi), rtol=1e-12, atol=0)
    assert np.all(c0 > 0)


def test_polish_stops_at_xtol_1e13_plus_rtol_8p9e16_not_1000_times(monkeypatch):
    # A residual x - r reported with slope 1.5 makes each Newton step 2/3 of the error and a
    # third of the step before, so a bracket [a, b] stops at the first step of at most
    # tol = 1e-13 + 8.9e-16 a and returns a point within (tol / 6, tol / 2] of r.  At a = 1e-3
    # the absolute part sets tol, at a = 100 the relative part is nearly half of it; the bounds
    # (tol / 20, tol] leave room for the rounding of tau.
    a = np.array([1e-3, 100.0])
    roots = np.array([1.3e-3, 100.123456789])
    monkeypatch.setattr(critical, "_residual_slope",
                        lambda x, sub: (x - np.where(x < 1.0, *roots), np.full(x.size, 1.5)))
    stack = critical._stack(*critical._sample_chunk(2, 2, np.random.default_rng(0)))
    tau = critical._newton(stack, a, a + 0.5 * a, -np.ones(2), np.ones(2))
    tol = 1e-13 + 8.9e-16 * a
    error = abs(tau - roots)
    assert np.all((tol / 20 < error) & (error <= tol))


def _direct_terms(pair, w_bar):
    """(A, B, S) of ``_det_terms`` from the direct pieces, and the size of the terms of each.

    A's and B's sizes add the magnitudes of their products; S's is the larger of |S_0| and |S_1|.
    """
    pieces = _direct_pieces(pair, w_bar)
    p00, p01, p10, p11, s0, s1, r = np.moveaxis(pieces, -1, 0)
    A = (p00 + r) * s1 - p01 * s0
    B = p10 * s1 - (p11 + r) * s0
    size_a = (abs(p00) + abs(r)) * abs(s1) + abs(p01 * s0)
    size_b = abs(p10 * s1) + (abs(p11) + abs(r)) * abs(s0)
    size_s = abs(pieces[..., 4:6]).max(axis=-1, keepdims=True)
    return (A, B, pieces[..., 4:6]), (size_a, size_b, size_s)


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_coefficient_table_matches_direct_kernel(n_dof):
    # The table's (A, B, S) agree with a det and an inv of U-bar per point to 1e-11 relative,
    # times max(1, max |w_i|) since the table's top monomials grow with the rates; a value counts
    # as away from its zero when it keeps 1e-3 of the size of its terms.  On the full scan grid
    # the depoled residual keeps the direct form's finiteness and signs, so the scan brackets
    # the same first sign change.
    rng = np.random.default_rng(60 + n_dof)
    for _ in range(30):
        pair = critical._sample_critical_spectra(n_dof, rng)
        stack = critical._stack_one(pair)
        om_top = np.sqrt(pair.lam[-1])
        taus = np.linspace(1e-3 / om_top, critical._O_MAX / om_top, critical._SCAN_POINTS)
        grid_rates = critical._hyperbolic_rates(taus[None], stack.nu, stack.odd)[:, 0].T
        for w_bar in (-rng.uniform(0.0, 4.0, (200, n_dof - 1)), grid_rates):
            bound = 1e-11 * np.maximum(1.0, abs(w_bar).max(axis=-1))
            got = (v[0] for v in critical._det_terms(w_bar.T[:, None], stack))   # mode-first
            want, sizes = _direct_terms(pair, w_bar[None])
            for name, g, d, size in zip("ABS", got, want, sizes):
                away = abs(d) > 1e-3 * size
                tol = bound if d.ndim == 1 else bound[:, None]
                assert np.all((abs(g - d) <= tol * abs(d))[away]), name
        (A, B, _), _ = _direct_terms(pair, grid_rates[None])
        o_top = om_top * taus
        if pair.sigma[-1] == 1:
            direct = A * np.cos(o_top) + B * om_top * np.sin(o_top)
        else:
            direct = A * np.sin(o_top) - B * om_top * np.cos(o_top)
        table = critical._depoled_residual(taus[None], stack)[0]
        finite = np.isfinite(direct)
        assert np.array_equal(np.isfinite(table), finite)
        assert np.array_equal(np.sign(table[finite]), np.sign(direct[finite]))
        signs = np.sign(direct)
        first = np.nonzero((signs[:-1] * signs[1:] < 0) & finite[:-1] & finite[1:])[0]
        lo, hi = critical._scan(stack, critical._O_MAX)[:2, 0]
        if first.size:
            assert (lo, hi) == (taus[first[0]], taus[first[0] + 1])
        else:
            assert np.isnan(lo) and np.isnan(hi)


def _seed42_chunk(n_dof):
    """``_sample_chunk(n_dof, 1500, default_rng(42))``, and its (lam, lam_prime, M, eta)."""
    lam, lam_prime, _, _ = fields = critical._sample_chunk(n_dof, 1500, np.random.default_rng(42))
    return fields, (lam, lam_prime, cl.cauchy_matrix(lam, lam_prime), cl.eta(lam, lam_prime))


def _direct_residual(taus, arrays, stack):
    """The depoled residual from the direct pieces, a det and an inv of U-bar per point: (S, T)."""
    w_bar = critical._hyperbolic_rates(taus, stack.nu, stack.odd)
    P0, P1, S, r = critical._k_ingredients(np.moveaxis(w_bar, 0, -1), *arrays)
    pieces = np.moveaxis(np.concatenate([P0, P1, S, r[..., None]], axis=-1), -1, 0)
    A, B = critical._ab(pieces, pieces)
    o_top = stack.om_top * taus
    return critical._depole(A, B, stack, np.cos(o_top), np.sin(o_top))


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_table_roots_within_1e12_of_the_direct_form_at_node_minus4_not_minus1_or_minus64(n_dof):
    # Every first bracket of 1,500 samples per N (seed 42) is a sign change of the direct
    # residual too, and the direct residual changes sign within 1e-12 relative of every
    # polished root, so a root of the direct form lies there.  Measured against a 70-round
    # bisection of the direct form, the worst root is 2.5e-13 away (N = 8).  The mutants fail:
    # nodes at -1 put it 5.6e-12 away (N = 7), nodes at -64 3.4e-12 (N = 8), and corners at
    # {0, 1} without the rank-one updates 1.8e-11 (N = 8).
    fields, arrays = _seed42_chunk(n_dof)
    stack = critical._stack(*fields)
    lo, hi, f_lo, f_hi = bracket = critical._scan(stack, critical._O_MAX)
    assert not np.isnan(bracket).any()
    tau_c, _ = critical._polish(stack, bracket)
    taus = np.stack([lo, hi, tau_c * (1 - 1e-12), tau_c * (1 + 1e-12)], axis=1)
    direct = np.sign(_direct_residual(taus, arrays, stack))
    assert np.array_equal(direct[:, :2], np.sign(np.stack([f_lo, f_hi], axis=1)))
    assert np.all(direct[:, 2] * direct[:, 3] < 0)


@pytest.mark.parametrize("n_dof", [2, 3, 4, 5, 6, 7, 8])
def test_corner_update_factors_are_at_least_1_at_node_minus4_not_plus1_or_plus16(n_dof):
    # Every update factor g = det(corner m + 2**i) / det(corner m) of the corner build is at
    # least 1 on the seed-42 samples: exactly 1 at N = 2, where the one contact mode is the top
    # one and V_1 = 0, and at least 1.085 above.  Positive nodes give g < 1 from N = 3 on.
    _, (lam, lam_prime, M, _) = _seed42_chunk(n_dof)
    det_u, _ = critical._corners(lam, critical._contact_rates(lam_prime), M)
    for i in range(n_dof - 1):
        g = det_u[:, 2 ** i:2 ** (i + 1)] / det_u[:, :2 ** i]
        assert np.all(g >= 1.0)
        assert n_dof > 2 or np.all(g == 1.0)


def test_scan_blocks_are_the_linspace_grid(monkeypatch):
    # the blocks formed on demand are np.linspace's grid bit for bit, its pinned last point included
    stack = critical._stack(*critical._sample_chunk(3, 64, np.random.default_rng(5)))
    # and the top mode's cos and sin are those of the one o_N grid, in slices of the same blocks
    blocks, trigs = [], []

    def flat(taus, sub, trig):
        blocks.append(taus.copy())
        trigs.append(np.stack(trig))
        return np.ones_like(taus)       # no sign change: every sample scans its whole grid

    monkeypatch.setattr(critical, "_depoled_residual", flat)
    assert np.isnan(critical._scan(stack, critical._O_MAX)).all()
    got = np.concatenate([blocks[0]] + [block[:, 1:] for block in blocks[1:]], axis=1)
    om_top = np.sqrt(stack.lam[:, -1])
    want = np.linspace(1e-3 / om_top, critical._O_MAX / om_top, critical._SCAN_POINTS, axis=-1)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    trig = np.concatenate([trigs[0]] + [block[:, 1:] for block in trigs[1:]], axis=1)
    o_top = np.linspace(1e-3, critical._O_MAX, critical._SCAN_POINTS)
    assert trig.tobytes() == np.stack([np.cos(o_top), np.sin(o_top)]).tobytes()


def test_scan_block_moves_no_bracket(monkeypatch):
    # a sample leaves the scan at its first sign change, whatever the block that holds it
    stack = critical._stack(*critical._sample_chunk(3, 64, np.random.default_rng(5)))
    brackets = []
    for block in (1, 32, 64, critical._SCAN_POINTS - 1):
        monkeypatch.setattr(critical, "_SCAN_BLOCK", block)
        brackets.append(critical._scan(stack, critical._O_MAX))
    assert not np.isnan(brackets[0]).all()
    assert all(bracket.tobytes() == brackets[0].tobytes() for bracket in brackets)


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
