import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import collisionless as cl
from collisionless.impact import _component_seeds
from helpers import cauchy_inputs, non_pole_times, random_rocker_freqs, random_spd_model


# ------------------------------------------------------------------- kernels

def test_mode_motion_case_table():
    assert cl.mode_motion(0.0, 4.0, 1) == (1.0, 0.0)
    g, gd = cl.mode_motion(0.7, -1.0, 0)
    assert g == pytest.approx(np.sinh(0.7), rel=1e-15)
    assert gd == pytest.approx(np.cosh(0.7), rel=1e-15)
    g, gd = cl.mode_motion(0.3, 4.0, 0)
    assert g == pytest.approx(np.sin(0.6), rel=1e-15)
    assert gd == pytest.approx(2 * np.cos(0.6), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-5, 5),
    lam=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
    s=st.sampled_from([0, 1]),
)
def test_kernel_time_parity(t, lam, s):
    g_pos, gd_pos = cl.mode_motion(t, lam, s)
    g_neg, gd_neg = cl.mode_motion(-t, lam, s)
    if s == 1:
        assert g_neg == g_pos and gd_neg == -gd_pos
    else:
        assert g_neg == -g_pos and gd_neg == gd_pos


def test_kernel_ode_identity():
    # second finite difference must reproduce gdd = -lam g
    rng = np.random.default_rng(3)
    h = 1e-5
    for _ in range(100):
        lam = rng.uniform(-9, 9)
        if abs(lam) < 1e-2:
            continue
        t = rng.uniform(-3, 3)
        s = int(rng.integers(0, 2))
        g0, _ = cl.mode_motion(t, lam, s)
        gp, _ = cl.mode_motion(t + h, lam, s)
        gm, _ = cl.mode_motion(t - h, lam, s)
        fd = (gp - 2 * g0 + gm) / h ** 2
        assert fd == pytest.approx(-lam * g0, rel=1e-4, abs=1e-4)


def test_mode_motion_zero_eigenvalue_raises():
    with pytest.raises(cl.ZeroModeError):
        cl.mode_motion(1.0, 0.0, 1)


def test_mode_motion_vec_matches_scalar():
    # all four kernels: cosh, sin, cos, sinh
    lam = np.array([-2.0, 1.5, 4.0, -0.5])
    sigma = np.array([-1, 1, -1, 1])
    g, gd = cl.mode_motion_vec(0.8, lam, sigma)
    for i, (lv, sv) in enumerate(zip(lam, sigma)):
        ref = cl.mode_motion(0.8, lv, (1 - sv) // 2)
        assert g[i] == pytest.approx(ref[0], rel=1e-15)
        assert gd[i] == pytest.approx(ref[1], rel=1e-15)
    times = np.array([-1.3, 0.0, 0.8, 2.5])
    g, gd = cl.mode_motion_vec(times, lam, sigma)
    assert g.shape == gd.shape == (times.size, lam.size)
    for k, t in enumerate(times):
        for i, (lv, sv) in enumerate(zip(lam, sigma)):
            ref = cl.mode_motion(t, lv, (1 - sv) // 2)
            assert g[k, i] == pytest.approx(ref[0], rel=1e-15)
            assert gd[k, i] == pytest.approx(ref[1], rel=1e-15)


def test_phase_rate_values():
    # sigma=-1 on an oscillatory mode: -omega*cot(omega*tau)
    w = cl.phase_rate(np.pi / 8, [4.0], [-1])
    assert w[0] == pytest.approx(-2.0, rel=1e-12)
    # hyperbolic sigma=+1 saturates at -nu
    w = cl.phase_rate(40.0, [-1.0], [1])
    assert w[0] == pytest.approx(-1.0, rel=1e-12)
    # hyperbolic sigma=-1 is -nu*coth
    w = cl.phase_rate(0.5, [-4.0], [-1])
    assert w[0] == pytest.approx(-2.0 / np.tanh(1.0), rel=1e-12)


def test_phase_rate_zero_limits():
    tau = 0.7
    # continuity: small eigenvalues of either sign approach the limit
    for lam in (1e-9, -1e-9):
        w = cl.phase_rate(tau, [lam], [-1])
        assert w[0] == pytest.approx(-1.0 / tau, rel=1e-7)


def test_phase_rate_zero_raises_by_default():
    with pytest.raises(cl.ZeroModeError):
        cl.phase_rate(1.0, [0.0], [-1])


def test_phase_rate_pole_error():
    with pytest.raises(cl.PoleError) as info:
        cl.phase_rate(np.pi / 2, [4.0], [-1])  # o = pi, cot pole
    assert info.value.distance is not None and info.value.distance < 1e-9


def _phase_rate_loop(tau, lam, sigma):
    """Per-mode reference for phase_rate: (value, None) or (None, error type)."""
    scale = max(np.abs(lam).max(), 1.0)
    out = np.empty(len(lam))
    for i, (lv, sv) in enumerate(zip(lam, sigma)):
        if abs(lv) <= cl.impact.ZERO_EIGENVALUE_ATOL * scale:
            return None, cl.ZeroModeError
        om = np.sqrt(abs(lv))
        o = om * tau
        if lv > 0:
            shift = 0.0 if sv == -1 else np.pi / 2
            if abs((o - shift + np.pi / 2) % np.pi - np.pi / 2) < cl.impact.POLE_ATOL:
                return None, cl.PoleError
            out[i] = np.tan(o) * om if sv == 1 else -om / np.tan(o)
        else:
            th = np.tanh(o)
            out[i] = -th * om if sv == 1 else -om / th
    return out, None


def test_phase_rate_matches_per_mode_loop():
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(1, 6))
        lam = rng.uniform(-9, 9, n)
        sigma = rng.choice([-1, 1], n)
        tau = float(rng.uniform(0.05, 5))
        if rng.random() < 0.2:
            lam[rng.integers(n)] = 0.0
        if rng.random() < 0.3:   # put one oscillatory mode on a pole
            i = rng.integers(n)
            lam[i] = abs(lam[i]) + 0.5
            tau = (np.pi * int(rng.integers(1, 4)) + (sigma[i] == 1) * np.pi / 2) / np.sqrt(lam[i])
        ref, error = _phase_rate_loop(tau, lam, sigma)
        if error is not None:
            with pytest.raises(error):
                cl.phase_rate(tau, lam, sigma)
        else:
            np.testing.assert_array_equal(cl.phase_rate(tau, lam, sigma), ref)


# ------------------------------------------------------------ kernel ratios

def test_kernel_ratio_n2_at_solution():
    # at any closed-form root the ratio matrix collapses to lam'/lam
    nu1, om2, om1p = 1.0, 2.0, 1.0
    sol = cl.solve_rocker(nu1, om2, om1p, 2)
    pair = cl.n2_spectrum("rocker", nu1=nu1, omega2=om2, omega1p=om1p)
    G = cl.kernel_ratio(sol.tau, sol.tau_prime, pair)
    expected = pair.lam_prime[None, :] / pair.lam[:, None]
    np.testing.assert_allclose(G, expected, rtol=1e-10)


def test_kernel_ratio_factorization():
    pair = cl.n2_spectrum("rocker", nu1=0.8, omega2=2.1, omega1p=1.2)
    tau, taup = 0.9, 0.4
    G = cl.kernel_ratio(tau, taup, pair)
    w = cl.phase_rate(tau, pair.lam, pair.sigma)
    wp = cl.phase_rate(taup, pair.lam_prime, pair.sigma_prime)
    manual = -np.outer(w / pair.lam, pair.lam_prime / wp)
    np.testing.assert_allclose(G, manual, rtol=1e-14)


def test_kernel_ratio_equals_kernel_quotients(biped_spectral):
    # G must coincide with (g/gdot) (g'dot/g')^T from the kernels themselves
    spectra = biped_spectral.spectra
    tau, taup = 0.9, 0.45
    g, gd = cl.mode_motion_vec(tau, spectra.lam, spectra.sigma)
    gp, gpd = cl.mode_motion_vec(-taup, spectra.lam_prime, spectra.sigma_prime)
    direct = np.outer(g / gd, gpd / gp)
    np.testing.assert_allclose(
        cl.kernel_ratio(tau, taup, spectra), direct, rtol=1e-12
    )


def test_kernel_ratio_hyperbolic_column_limit():
    # lam'_j < 0 and large tau': the column saturates at -(w_i/lam_i) nu'_j
    pair = cl.SpectrumPair([-4.0, 2.0], [-1.0], [-1, -1], [1])
    tau = 0.8
    G = cl.kernel_ratio(tau, 30.0, pair)
    w = cl.phase_rate(tau, pair.lam, pair.sigma)
    nu_p = 1.0
    np.testing.assert_allclose(G[:, 0], -(w / pair.lam) * nu_p, rtol=1e-12)


# ----------------------------------------------------------- contact matrix

def test_contact_matrix_finite_across_kernel_zeros(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    # o_N = pi is a pole of the top-mode rate; the matrix must stay finite
    tau = np.pi / spectra.omega_top
    bc = cl.contact_matrix(tau, 0.5, spectra, M, eta_vec)
    assert np.all(np.isfinite(bc))
    d = cl.impact_residual((np.pi, 0.6), spectra, M, eta_vec)
    assert np.all(np.isfinite(d))


def test_contact_matrix_zero_times(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    bc = cl.contact_matrix(0.0, 0.0, spectra, M, eta_vec)
    g, gd = cl.mode_motion_vec(0.0, spectra.lam, spectra.sigma)
    gp, gpd = cl.mode_motion_vec(0.0, spectra.lam_prime, spectra.sigma_prime)
    top = (np.outer(gd, gp) - np.outer(g, gpd)) * M
    np.testing.assert_allclose(bc[:3, :2], top, atol=1e-15)
    np.testing.assert_allclose(bc[:3, 2], gd / spectra.lam, atol=1e-15)
    np.testing.assert_allclose(bc[3, :], [0.0, 0.0, eta_vec.sum()], atol=1e-15)


def test_contact_matrix_rank_matches_unreduced(biped_spectral, biped_cauchy):
    # away from kernel zeros, scaling by the kernels preserves rank
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    rng = np.random.default_rng(17)
    for _ in range(10):
        tau, taup = non_pole_times(biped_spectral, rng)
        bc = cl.contact_matrix(tau, taup, spectra, M, eta_vec)
        U = M * (1.0 - cl.kernel_ratio(tau, taup, spectra))
        B = np.zeros((4, 3))
        B[:3, :2] = U
        B[:3, 2] = 1.0 / spectra.lam
        B[3, :] = eta_vec.sum()
        rank_bc = np.linalg.matrix_rank(bc, tol=1e-9 * np.abs(bc).max())
        rank_b = np.linalg.matrix_rank(B, tol=1e-9 * np.abs(B).max())
        assert rank_bc == rank_b


def test_biped_root_determinants(biped_spectral, biped_cauchy, biped_root):
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    # published 5-digit root: determinants small at print precision
    d = cl.impact_residual(spectra.to_phase(3.0795, 0.77785), spectra, M, eta_vec)
    assert np.abs(d).max() < 1e-3
    # converged root: at solver tolerance
    d = cl.impact_residual((biped_root.o_n, biped_root.o_prime), spectra, M, eta_vec)
    assert np.abs(d).max() < 1e-11


def test_phi_product_and_bracketing(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    val = cl.phi(3.0, 0.9, spectra, M, eta_vec)
    d = cl.impact_residual((3.0, 0.9), spectra, M, eta_vec)
    assert val == pytest.approx(d[0] * d[1], rel=1e-12)
    # a grid line crossing a single zero curve (away from intersections,
    # where phi only touches zero) must change sign
    line = np.array([cl.phi(o, 1.2, spectra, M, eta_vec) for o in np.arange(3.0, 4.6, 0.02)])
    assert np.any(np.sign(line[:-1]) != np.sign(line[1:]))


# -------------------------------------------------------------- contour scan

def test_scan_biped_seeds(biped_spectral):
    field = cl.scan_contour(biped_spectral.spectra)
    assert field.seeds.shape[0] >= 6
    dist = np.abs(field.seeds - np.array([3.8010, 0.9250])).max(axis=1)
    assert dist.min() < 0.05
    # bottom-row intersection count in the default window
    bottom = field.seeds[np.abs(field.seeds[:, 1] - 0.925) < 0.3]
    assert bottom.shape[0] == 3
    assert len(field.curves_a) > 0 and len(field.curves_b) > 0
    assert np.all(np.isfinite(field.det_a)) and np.all(np.isfinite(field.det_b))


@pytest.mark.parametrize("family", ["biped", "rocker"])
def test_scan_grid_is_impact_residual_bit_for_bit(family, biped_spectral):
    if family == "biped":
        spectra = biped_spectral.spectra
    else:
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    M, eta_vec = cauchy_inputs(spectra)
    field = cl.scan_contour(spectra, cl.GridSpec(o_n_max=5.0, o_p_max=1.5, step=0.1))
    for i, o_n in enumerate(field.o_n_axis):
        for j, o_p in enumerate(field.o_p_axis):
            d = cl.impact_residual((o_n, o_p), spectra, M, eta_vec)
            assert field.det_a[i, j] == d[0] and field.det_b[i, j] == d[1]


def _flood_fill_seeds(mask, xa, ya):
    """Reference: centroids of 8-connected components, found by flood fill in raster order."""
    seen = np.zeros_like(mask)
    seeds = []
    for i in range(mask.shape[0]):
        for j in range(mask.shape[1]):
            if not mask[i, j] or seen[i, j]:
                continue
            seen[i, j] = True
            stack, members = [(i, j)], []
            while stack:
                a, b = stack.pop()
                members.append((a, b))
                for p in range(max(a - 1, 0), min(a + 2, mask.shape[0])):
                    for q in range(max(b - 1, 0), min(b + 2, mask.shape[1])):
                        if mask[p, q] and not seen[p, q]:
                            seen[p, q] = True
                            stack.append((p, q))
            seeds.append([np.mean([0.5 * (xa[a] + xa[a + 1]) for a, _ in members]),
                          np.mean([0.5 * (ya[b] + ya[b + 1]) for _, b in members])])
    return np.array(seeds).reshape(-1, 2)


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 14), st.integers(1, 14))))
def test_component_seeds_match_flood_fill(mask):
    xa = 0.3 + 0.05 * np.arange(mask.shape[0] + 1)
    ya = 0.01 + 0.04 * np.arange(mask.shape[1] + 1)
    got = _component_seeds(mask, xa, ya)
    expected = _flood_fill_seeds(mask, xa, ya)
    assert got.shape == expected.shape
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_scan_rejects_zero_modes():
    pair = cl.n2_spectrum("hopper", omega2=1.0, omega1p=0.5)
    with pytest.raises(cl.ZeroModeError):
        cl.scan_contour(pair, cl.GridSpec(o_n_max=3.0, o_p_max=1.0))


def test_scan_refinement_preserves_roots(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    spectra = biped_spectral.spectra
    grid_coarse = cl.GridSpec(o_n_max=8.0, o_p_max=2.0, step=0.08)
    grid_fine = cl.GridSpec(o_n_max=8.0, o_p_max=2.0, step=0.04)

    def roots_from(grid):
        found = []
        for seed in cl.scan_contour(spectra, grid).seeds:
            try:
                t = cl.refine_root(seed, spectra, M, eta_vec)
            except cl.ConvergenceError:
                continue
            pt = (round(t.o_n, 6), round(t.o_prime, 6))
            if pt not in found:
                found.append(pt)
        return set(found)

    coarse = roots_from(grid_coarse)
    fine = roots_from(grid_fine)
    assert coarse and coarse <= fine


def test_scan_empty_window_no_existence():
    # all contact eigenvalues negative: no solutions anywhere
    spectra = cl.SpectrumPair([-4.0, 2.0], [-1.0], [-1, -1], [1])
    field = cl.scan_contour(spectra, cl.GridSpec(o_n_max=2.5, o_p_max=1.5, step=0.05,
                                                 o_n_min=0.5, o_p_min=0.3))
    assert field.seeds.shape[0] == 0


def test_scan_skips_cells_with_non_finite_corners():
    # cosh/sinh of the lam ~ -1e4 mode overflow on much of the default grid;
    # the scan must neither warn nor seed a cell it cannot evaluate
    model = cl.ModelSpec(
        name="stiff-hyperbolic", n=3, mass=np.eye(3),
        stiffness=[[-1e4, 1, 1], [1, 4, 0.5], [1, 0.5, -1]],
        sigma=(1, -1, -1), sigma_prime=(1, -1), static_force=1, contact_sign=1,
    )
    spectral = cl.analyze(model)
    field = cl.scan_contour(spectral)
    assert not np.isfinite(field.det_a).all()
    assert field.seeds.shape == (4, 2)
    with np.errstate(over="ignore"):   # the row norms at a seed may still overflow
        for seed in field.seeds:
            assert np.isfinite(cl.impact_residual(seed, spectral, spectral.M, spectral.eta)).all()


@pytest.mark.parametrize("lamp_top", [0.0, -0.5])
def test_impact_layer_rejects_spectra_without_existence(lamp_top):
    spectra = cl.SpectrumPair([-2.0, 1.0], [lamp_top], [1, 1], [1])
    assert cl.scan_contour(spectra).seeds.shape == (0, 2)
    with pytest.raises(cl.NoExistenceError):
        cl.impact_residual((1.0, 1.0), spectra, spectra.M, spectra.eta)
    with pytest.raises(cl.NoExistenceError):
        cl.refine_root((1.0, 1.0), spectra, spectra.M, spectra.eta)


def test_stiff_hyperbolic_model_refines_without_overflow():
    # the squares of the lam ~ -1e4 kernels overflow the plain row and column norms
    model = cl.ModelSpec(
        name="stiff-hyperbolic", n=3, mass=np.eye(3),
        stiffness=[[-1e4, 1, 1], [1, 4, 0.5], [1, 0.5, -1]],
        sigma=(1, -1, -1), sigma_prime=(1, -1), static_force=1, contact_sign=1,
    )
    spectral = cl.analyze(model)
    for seed in cl.scan_contour(spectral).seeds:
        with pytest.raises(cl.ConvergenceError):
            cl.refine_root(seed, spectral, spectral.M, spectral.eta)
    times = cl.refine_root((7.4, 2.025), spectral, spectral.M, spectral.eta)
    assert max(abs(r) for r in times.residual) < 1e-11
    with pytest.raises(cl.DegenerateSolutionError):
        cl.build_solution(spectral, times)
    with pytest.raises(cl.ConvergenceError):
        cl.solve_model(model)


def test_scan_grid_validation(biped_spectral):
    with pytest.raises(cl.InvalidParameterError):
        cl.scan_contour(biped_spectral.spectra, cl.GridSpec(o_n_max=0.01, o_p_max=0.01))


def test_contour_exports(tmp_path, biped_spectral):
    field = cl.scan_contour(biped_spectral.spectra, cl.GridSpec(o_n_max=5.0, o_p_max=1.5, step=0.1))
    csv_path = tmp_path / "field.csv"
    svg_path = tmp_path / "field.svg"
    field.to_csv(csv_path)
    field.to_svg(svg_path, asymptotes=[(4.0, 0.6)])
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "o_n,o_prime,det_a,det_b,phi"
    assert len(lines) == 1 + field.o_n_axis.size * field.o_p_axis.size
    svg = svg_path.read_text()
    assert "<svg" in svg and "polyline" in svg and "circle" in svg and "path" in svg


# --------------------------------------------------------------- refinement

def test_refine_root_matches_published_values(biped_root):
    assert biped_root.tau == pytest.approx(3.0795, abs=5e-4)
    assert biped_root.tau_prime == pytest.approx(0.77785, abs=5e-5)
    assert max(abs(r) for r in biped_root.residual) < 1e-11
    assert biped_root.mu == pytest.approx(biped_root.tau / biped_root.tau_prime)


def test_mu_is_derived_from_the_times(biped_root):
    assert "mu" not in {f.name for f in dataclasses.fields(cl.ImpactTimes)}
    assert biped_root.mu == biped_root.tau / biped_root.tau_prime


def test_refine_root_idempotent(biped_spectral, biped_cauchy, biped_root):
    M, eta_vec = biped_cauchy
    again = cl.refine_root(
        (biped_root.o_n, biped_root.o_prime), biped_spectral.spectra, M, eta_vec
    )
    assert again.iterations <= 2
    assert again.o_n == pytest.approx(biped_root.o_n, abs=1e-10)
    assert again.o_prime == pytest.approx(biped_root.o_prime, abs=1e-10)


def test_refine_root_rocker_matches_closed_form():
    rng = np.random.default_rng(7)
    for _ in range(5):
        nu1, om2, om1p = random_rocker_freqs(rng)
        pair = cl.n2_spectrum("rocker", nu1=nu1, omega2=om2, omega1p=om1p)
        M, eta_vec = cauchy_inputs(pair)
        sol = cl.solve_rocker(nu1, om2, om1p, 2)
        root = cl.refine_root((sol.o_2 + 0.02, sol.o_prime_1 - 0.02), pair, M, eta_vec)
        assert abs(root.o_n - sol.o_2) < 1e-8
        assert abs(root.o_prime - sol.o_prime_1) < 1e-8


def test_refine_root_bad_seed_errors(biped_spectral, biped_cauchy):
    M, eta_vec = biped_cauchy
    with pytest.raises(cl.InvalidParameterError):
        cl.refine_root((-1.0, 0.5), biped_spectral.spectra, M, eta_vec)
    with pytest.raises(cl.ConvergenceError):
        cl.refine_root((0.3, 0.3), biped_spectral.spectra, M, eta_vec, max_iter=25)


@pytest.mark.parametrize(
    "seed, max_iter",
    [((np.nan, 1.0), 40), ((np.inf, 1.0), 40), ((3.8, np.nan), 40), ((3.8, "x"), 40),
     ((3.8, 0.93), 2.5), ((3.8, 0.93), None), ((3.8, 0.93), 0), ((3.8, 0.93), -3),
     ((3.8, 0.93), True)],
)
def test_refine_root_rejects_bad_input(biped_spectral, biped_cauchy, seed, max_iter):
    M, eta_vec = biped_cauchy
    with pytest.raises(cl.InvalidParameterError):
        cl.refine_root(seed, biped_spectral.spectra, M, eta_vec, max_iter=max_iter)


def test_refine_root_one_residual_call_per_trial_point(biped_spectral, biped_cauchy, monkeypatch):
    # F and the forward-difference Jacobian come from one batched call; the
    # biped seed accepts every full step, so there is one call per iteration
    calls = []
    residual = cl.impact_residual

    def counting(*args):
        calls.append(args)
        return residual(*args)

    monkeypatch.setattr("collisionless.impact.impact_residual", counting)
    M, eta_vec = biped_cauchy
    root = cl.refine_root((3.80, 0.93), biped_spectral.spectra, M, eta_vec)
    assert root.iterations == 5
    assert len(calls) == root.iterations


def test_refine_root_stalls_when_no_halving_helps():
    # this seed creeps toward o_N -> 0 until no halved step lowers max|F|
    pair = cl.n2_spectrum("rocker", nu1=1.5, omega2=2.5, omega1p=1.0)
    M, eta_vec = cauchy_inputs(pair)
    with pytest.raises(cl.ConvergenceError, match="stalled"):
        cl.refine_root((0.9, 1.23), pair, M, eta_vec, max_iter=40)


def _refine_root_loop(seed, spectra, M, eta_vec, *, max_iter=100):
    """Reference for refine_root: one residual call per line-search candidate."""
    h = cl.impact.REFINE_FD_STEP
    o = np.asarray(seed, float).copy()
    probes = np.array([[0.0, h, 0.0], [0.0, 0.0, h]])

    def evaluate(pt):
        R = cl.impact_residual(pt[:, None] + probes, spectra, M, eta_vec)
        return R[:, 0], (R[:, 1:] - R[:, :1]) / h

    F, J = evaluate(o)
    for iteration in range(1, max_iter + 1):
        try:
            step = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError:
            raise cl.ConvergenceError("singular Jacobian during refinement") from None
        if (np.abs(F).max() < cl.impact.REFINE_TOL_RESIDUAL
                and np.abs(step).max() < cl.impact.REFINE_TOL_STEP):
            tau, tau_prime = spectra.from_phase(o[0], o[1])
            return cl.ImpactTimes(
                tau=tau, tau_prime=tau_prime, o_n=float(o[0]), o_prime=float(o[1]),
                residual=(float(F[0]), float(F[1])),
                iterations=iteration,
            )
        damping = 1.0
        for _ in range(40):
            cand = o + damping * step
            if cand.min() > 0:
                F_cand, J_cand = evaluate(cand)
                if np.abs(F_cand).max() <= np.abs(F).max():
                    o, F, J = cand, F_cand, J_cand
                    break
            damping *= 0.5
        else:
            raise cl.ConvergenceError(
                f"refinement stalled at o = {o.tolist()} (residual {np.abs(F).max():.2e})"
            )
    raise cl.ConvergenceError(f"no convergence after {max_iter} iterations from seed {seed!r}")


def _outcome(refine, seed, spectra, M, eta_vec, max_iter):
    try:
        return refine(seed, spectra, M, eta_vec, max_iter=max_iter)
    except cl.ConvergenceError as exc:
        return str(exc)


def _refine_cases():
    """(spectra, seeds, max_iter) of 10 rocker and 10 rimless criterion-2 spectra,
    the armed biped and one random model for each N = 3..6."""
    rng = np.random.default_rng(2024)
    grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    for family in ("rocker", "rimless"):
        for _ in range(10):
            nu1, om2, om1p = random_rocker_freqs(rng)
            pair = cl.n2_spectrum(family, nu1=nu1, omega2=om2, omega1p=om1p)
            yield pair, cl.scan_contour(pair, grid).seeds, 40
    spectral = cl.analyze(cl.build_armed_biped())
    yield spectral, cl.scan_contour(spectral).seeds, 100
    rng = np.random.default_rng(1)
    for n in range(3, 7):
        _, spectral = random_spd_model(n, rng)
        yield spectral, cl.scan_contour(spectral).seeds, 100


def test_refine_root_matches_candidate_loop():
    converged = failed = 0
    for spectra, seeds, max_iter in _refine_cases():
        M, eta_vec = cauchy_inputs(spectra)
        for seed in seeds:
            expected = _outcome(_refine_root_loop, seed, spectra, M, eta_vec, max_iter)
            got = _outcome(cl.refine_root, seed, spectra, M, eta_vec, max_iter)
            assert got == expected, f"seed {seed.tolist()}"
            converged += isinstance(expected, cl.ImpactTimes)
            failed += isinstance(expected, str)
    assert converged > 100 and failed > 20


def test_refine_root_at_most_two_residual_calls_per_iteration(monkeypatch):
    # the stalled rocker seed backtracks deeply; the candidate loop pays one
    # call per halving (173 calls), the library one call for the full step and
    # one for all remaining halvings
    pair = cl.n2_spectrum("rocker", nu1=1.5, omega2=2.5, omega1p=1.0)
    M, eta_vec = cauchy_inputs(pair)
    seed = (0.9, 1.23)
    expected = _outcome(_refine_root_loop, seed, pair, M, eta_vec, 40)
    assert "stalled" in expected
    # the stall happens in iteration 15: with 14 it runs out of iterations first
    stall = 15
    assert "no convergence" in _outcome(cl.refine_root, seed, pair, M, eta_vec, stall - 1)
    calls = []
    residual = cl.impact_residual

    def counting(o, *args):
        calls.append(np.shape(o)[1])
        return residual(o, *args)

    monkeypatch.setattr("collisionless.impact.impact_residual", counting)
    assert _outcome(cl.refine_root, seed, pair, M, eta_vec, 40) == expected
    assert len(calls) <= 1 + 2 * stall
    # calls[i] is the number of points of call i: every batch of halvings
    # follows a call on the full step alone
    assert calls[0] == 1 and all(prev == 1 for prev, n in zip(calls, calls[1:]) if n > 1)


# --------------------------------------------------- matching matrix, weights

def test_rank_gap_drops_at_root(biped_spectral, biped_root):
    _, gap = cl.assemble_impact_matrix(biped_spectral, biped_root.tau, biped_root.tau_prime)
    assert gap < 1e-6


def test_rank_gap_large_off_root(biped_spectral):
    rng = np.random.default_rng(13)
    spectra = biped_spectral.spectra
    for _ in range(30):
        o_n = rng.uniform(0.3, 4 * np.pi)
        o_p = rng.uniform(0.3, 2 * np.pi)
        tau, taup = spectra.from_phase(o_n, o_p)
        _, gap = cl.assemble_impact_matrix(biped_spectral, tau, taup)
        assert gap > 1e-3


def test_rank_gap_rocker_analytic(rocker_model):
    spectral = cl.analyze(rocker_model)
    sol = cl.solve_rocker(1.0, 2.0, 1.0, 2)
    _, gap = cl.assemble_impact_matrix(spectral, sol.tau, sol.tau_prime)
    assert gap < 1e-8


def test_reduction_identity_gap(biped_spectral, biped_root, rocker_model):
    # holds pointwise, not only at roots
    assert cl.reduction_gap(biped_spectral, biped_root.tau, biped_root.tau_prime) < 1e-9
    rng = np.random.default_rng(19)
    for _ in range(20):
        tau, taup = non_pole_times(biped_spectral, rng)
        assert cl.reduction_gap(biped_spectral, tau, taup) < 1e-9
    rocker_spectral = cl.analyze(rocker_model)
    sol = cl.solve_rocker(1.0, 2.0, 1.0, 2)
    assert cl.reduction_gap(rocker_spectral, sol.tau, sol.tau_prime) < 1e-10


def test_alt_impact_residual_at_roots(biped_spectral, biped_root):
    resid = cl.alt_impact_residual(biped_spectral.spectra, biped_root.tau, biped_root.tau_prime)
    assert np.abs(resid).max() < 1e-8
    pair = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    sol = cl.solve_rocker(1.0, 2.0, 1.0, 2)
    resid = cl.alt_impact_residual(pair, sol.tau, sol.tau_prime)
    assert np.abs(resid).max() < 1e-8


def test_solve_weights_published_values(biped_solution):
    np.testing.assert_allclose(
        biped_solution.q, [-0.000031265, -0.034423, 1.1687], rtol=1e-4
    )
    np.testing.assert_allclose(
        biped_solution.q_prime, [-0.0087462, 0.1357027], rtol=1e-4
    )
    x0_norm = np.abs(biped_solution.spectral.static_offset).max()
    assert biped_solution.weight_residual < 1e-10 * x0_norm


def test_solve_weights_zero_static_force(biped, biped_root):
    config = biped.to_config()
    config["static_force"] = 0.0
    spectral = cl.analyze(cl.load_model(config))
    q, qp, _ = cl.solve_weights(spectral, biped_root)
    assert np.abs(q).max() < 1e-12
    assert np.abs(qp).max() < 1e-12


def test_solve_weights_linearity(biped, biped_root, biped_solution):
    config = biped.to_config()
    config["static_force"] = 10.0  # doubled
    spectral = cl.analyze(cl.load_model(config))
    q, qp, _ = cl.solve_weights(spectral, biped_root)
    np.testing.assert_allclose(q, 2 * biped_solution.q, rtol=1e-10)
    np.testing.assert_allclose(qp, 2 * biped_solution.q_prime, rtol=1e-10)


def test_build_solution_evaluates_kernels_once(biped_spectral, biped_root, monkeypatch):
    # one matching-matrix assembly: one kernel call per phase
    calls = []
    kernels = cl.mode_motion_vec

    def counting(*args):
        calls.append(args)
        return kernels(*args)

    monkeypatch.setattr("collisionless.impact.mode_motion_vec", counting)
    cl.build_solution(biped_spectral, biped_root)
    assert len(calls) == 2


def test_build_solution_records_everything(biped_solution, biped_root):
    assert biped_solution.times is biped_root
    assert biped_solution.rank_gap < 1e-6
    payload = biped_solution.to_dict()
    assert payload["tau"] == biped_root.tau
    assert len(payload["q"]) == 3 and len(payload["q_prime"]) == 2
