import dataclasses
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import collisionless as cl
from collisionless.impact import _crossing_seeds, _norms, _segments, _sign_change_cells
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


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1), k=st.integers(1, 8))
def test_impact_residual_on_stacked_points_matches_single_calls(n, seed, k):
    # the batched line search and the scan's grid rely on each point's bits
    # not depending on the points stacked with it
    rng = np.random.default_rng(seed)
    _, spectral = random_spd_model(n, rng)
    assume(cl.existence_gate(spectral.lam_prime))
    pts = rng.uniform(0.05, 2 * np.pi, (2, k))
    with np.errstate(over="ignore"):
        stacked = cl.impact_residual(pts, spectral, spectral.M, spectral.eta)
        single = [cl.impact_residual(p, spectral, spectral.M, spectral.eta) for p in pts.T]
    assert stacked.shape == (2, k)
    assert stacked.tobytes() == np.stack(single, axis=-1).tobytes()


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


@pytest.mark.parametrize("family", ["biped", "rocker", "stiff"])
def test_scan_grid_is_impact_residual_bit_for_bit(family, biped_spectral):
    grid = cl.GridSpec(o_n_max=5.0, o_p_max=1.5, step=0.1)
    if family == "biped":
        spectra = biped_spectral.spectra
    elif family == "rocker":
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    else:
        # rows whose squares overflow on much of the default grid
        spectra, grid = cl.analyze(_stiff_hyperbolic_model()), cl.GridSpec()
    M, eta_vec = cauchy_inputs(spectra)
    field = cl.scan_contour(spectra, grid)
    o = np.stack(np.meshgrid(field.o_n_axis, field.o_p_axis, indexing="ij"))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        stacked = cl.impact_residual(o, spectra, M, eta_vec)
    assert np.array_equal(stacked, [field.det_a, field.det_b], equal_nan=True)
    if family == "stiff":
        return
    for i, o_n in enumerate(field.o_n_axis):
        for j, o_p in enumerate(field.o_p_axis):
            d = cl.impact_residual((o_n, o_p), spectra, M, eta_vec)
            assert field.det_a[i, j] == d[0] and field.det_b[i, j] == d[1]


def _cell_crossings_reference(xa, ya, Z):
    """Reference: zero-crossing segments of Z, built cell by cell in raster order."""
    segments = []
    for i, j in zip(*np.nonzero(_sign_change_cells(Z))):
        x0, x1 = xa[i], xa[i + 1]
        y0, y1 = ya[j], ya[j + 1]
        v00, v10 = Z[i, j], Z[i + 1, j]
        v01, v11 = Z[i, j + 1], Z[i + 1, j + 1]
        pts = []
        if v00 * v10 < 0:
            pts.append((x0 + (x1 - x0) * v00 / (v00 - v10), y0))
        if v01 * v11 < 0:
            pts.append((x0 + (x1 - x0) * v01 / (v01 - v11), y1))
        if v00 * v01 < 0:
            pts.append((x0, y0 + (y1 - y0) * v00 / (v00 - v01)))
        if v10 * v11 < 0:
            pts.append((x1, y0 + (y1 - y0) * v10 / (v10 - v11)))
        if len(pts) == 2:
            segments.append((pts[0], pts[1]))
        elif len(pts) == 4:
            # saddle cell: pair crossings by the sign of the center value
            center = 0.25 * (v00 + v10 + v01 + v11)
            if (v00 > 0) == (center > 0):
                segments.append((pts[0], pts[2]))
                segments.append((pts[1], pts[3]))
            else:
                segments.append((pts[0], pts[3]))
                segments.append((pts[1], pts[2]))
    return segments


def _chain_reference(segments, digits=9):
    """Reference: join shared-endpoint segments into polylines (greedy adjacency walk)."""
    key = lambda p: (round(p[0], digits), round(p[1], digits))
    adjacency: dict = {}
    for idx, (a, b) in enumerate(segments):
        adjacency.setdefault(key(a), []).append(idx)
        adjacency.setdefault(key(b), []).append(idx)
    used = [False] * len(segments)
    polylines = []
    for start, (a, b) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        chain = deque([a, b])
        for grow_tail in (True, False):
            while True:
                tip = chain[-1] if grow_tail else chain[0]
                tip_key = key(tip)
                nxt = next((i for i in adjacency.get(tip_key, ()) if not used[i]), None)
                if nxt is None:
                    break
                used[nxt] = True
                ca, cb = segments[nxt]
                other = cb if key(ca) == tip_key else ca
                if grow_tail:
                    chain.append(other)
                else:
                    chain.appendleft(other)
        polylines.append(np.array(chain))
    return polylines


@settings(max_examples=200, deadline=None)
@given(arrays(float, st.tuples(st.integers(2, 9), st.integers(2, 9)),
              elements=st.integers(-3, 3).map(float) | st.sampled_from([0.5, np.nan, np.inf])))
def test_segments_match_per_cell_loop(Z):
    # zeros, ties, saddles and non-finite corners: same segments, same order, same bits
    xa = 0.3 + 0.05 * np.arange(Z.shape[0])
    ya = 0.01 + 0.04 * np.arange(Z.shape[1])
    segs, kept = _segments(xa, ya, Z, _sign_change_cells(Z))
    expected = np.array(_cell_crossings_reference(xa, ya, Z), float).reshape(-1, 2, 2)
    assert segs[kept].shape == expected.shape
    assert segs[kept].tobytes() == expected.tobytes()


@pytest.mark.parametrize("v11, pairs", [(2.0, [(0, 2), (1, 3)]), (0.5, [(0, 3), (1, 2)])])
def test_saddle_cell_pairs_crossings_by_centre_sign(v11, pairs):
    # Z[i, j] with i along o_N: corners 1, -1 on the bottom edge and -1, v11 on the top
    Z = np.array([[1.0, -1.0], [-1.0, v11]])
    segs, kept = _segments(np.array([0.0, 1.0]), np.array([0.0, 1.0]), Z, np.ones((1, 1), bool))
    cross = 1.0 / (1.0 + v11)
    bottom, top, left, right = (0.5, 0.0), (cross, 1.0), (0.0, 0.5), (1.0, cross)
    crossings = (bottom, top, left, right)
    assert kept.tolist() == [[True, True]]
    np.testing.assert_allclose(segs[0], [[crossings[a], crossings[b]] for a, b in pairs],
                               rtol=0, atol=1e-15)


@settings(max_examples=300, deadline=None)
@given(
    steps_x=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10),
    steps_y=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=10),
    origin=st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
    a=st.tuples(st.floats(-3, 3), st.floats(-1, 1), st.floats(-1, 1)),
    b=st.tuples(st.floats(-3, 3), st.floats(-1, 1), st.floats(-1, 1)),
)
def test_linear_fields_seed_once_at_their_intersection(steps_x, steps_y, origin, a, b):
    xa = origin[0] + np.concatenate([[0.0], np.cumsum(steps_x)])
    ya = origin[1] + np.concatenate([[0.0], np.cumsum(steps_y)])
    X, Y = np.meshgrid(xa, ya, indexing="ij")
    fields = [c[0] + c[1] * X + c[2] * Y for c in (a, b)]
    det = a[1] * b[2] - a[2] * b[1]
    assume(abs(det) > 0.1)
    x_star = (a[2] * b[0] - a[0] * b[2]) / det
    y_star = (a[0] * b[1] - a[1] * b[0]) / det
    # generic position: no corner on a zero line, and the intersection on no grid line
    assume(min(np.abs(Z).min() for Z in fields) > 1e-9)
    assume(np.abs(xa - x_star).min() > 1e-9 and np.abs(ya - y_star).min() > 1e-9)
    for Z, c in zip(fields, (a, b)):
        segs, kept = _segments(xa, ya, Z, _sign_change_cells(Z))
        ends = segs[kept].reshape(-1, 2)
        assert np.abs(c[0] + c[1] * ends[:, 0] + c[2] * ends[:, 1]).max(initial=0.0) <= 1e-12
    both = _sign_change_cells(fields[0]) & _sign_change_cells(fields[1])
    seeds = _crossing_seeds(xa, ya, *fields, both)
    if xa[0] < x_star < xa[-1] and ya[0] < y_star < ya[-1]:
        assert seeds.shape == (1, 2)
        np.testing.assert_allclose(seeds[0], [x_star, y_star], rtol=0, atol=1e-12)
    else:
        assert seeds.shape == (0, 2)


def test_zero_row_plateau_gives_no_seed():
    # both determinants exactly 0 on one grid row: the cells next to it change sign in
    # both, but an exactly zero corner crosses nothing
    xa = 0.1 * np.arange(1, 9)
    ya = 0.1 * np.arange(1, 7)
    X, Y = np.meshgrid(xa, ya, indexing="ij")
    det_a, det_b = 1.0 + X - Y, 2.0 - X + 0.5 * Y
    det_a[3] = det_b[3] = 0.0
    both = _sign_change_cells(det_a) & _sign_change_cells(det_b)
    assert both[2:4].all() and both.sum() == 2 * both.shape[1]
    assert _crossing_seeds(xa, ya, det_a, det_b, both).shape == (0, 2)


@pytest.mark.parametrize("family", ["biped", "rocker"])
def test_curves_match_per_cell_loop(family, biped_spectral):
    if family == "biped":
        spectra, grid = biped_spectral.spectra, cl.GridSpec()
    else:
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
        grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    field = cl.scan_contour(spectra, grid)
    for curves, Z in ((field.curves_a, field.det_a), (field.curves_b, field.det_b)):
        expected = _chain_reference(_cell_crossings_reference(field.o_n_axis, field.o_p_axis, Z))
        assert len(curves) == len(expected) > 0
        for got, want in zip(curves, expected):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _scan_reference(spectra, grid):
    """Reference: both minors on the whole grid, each from its own row deletion, then the
    seeds in the cells where both change sign and the existence gate holds."""
    o_n_axis, o_p_axis = grid.axes()
    n = spectra.n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        taus, taups = spectra.from_phase(o_n_axis[:, None], o_p_axis[None, :])
        bc = cl.contact_matrix(taus, taups, spectra, spectra.M, spectra.eta)
        bc = bc / np.maximum(_norms(bc, -1), 1e-300)   # as impact_residual scales them
        det_a, det_b = (np.linalg.det(np.delete(bc, drop, axis=-2)) for drop in (n - 1, n))
    both = _sign_change_cells(det_a) & _sign_change_cells(det_b)
    both &= cl.existence_gate(spectra.lam_prime)
    return det_a, det_b, _crossing_seeds(o_n_axis, o_p_axis, det_a, det_b, both)


def _assert_scan_matches_reference(spectra, grid):
    det_a, det_b, seeds = _scan_reference(spectra, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = cl.scan_contour(spectra, grid)
        assert "det_a" not in field.__dict__
        assert field.seeds.shape == seeds.shape and field.seeds.tobytes() == seeds.tobytes()
        assert field.det_b.tobytes() == det_b.tobytes()
        assert field.det_a.tobytes() == det_a.tobytes()
    return field


def _stiff_hyperbolic_model():
    # cosh/sinh of the lam ~ -1e4 mode overflow on much of the default grid
    return cl.ModelSpec(
        name="stiff-hyperbolic", n=3, mass=np.eye(3),
        stiffness=[[-1e4, 1, 1], [1, 4, 0.5], [1, 0.5, -1]],
        sigma=(1, -1, -1), sigma_prime=(1, -1), static_force=1, contact_sign=1,
    )


@pytest.mark.parametrize("case", ["biped", "rocker", "stiff", "no-existence"])
def test_scan_matches_full_grid_reference(case, biped_spectral):
    # det_a only at the corners of det_b's sign-change cells: the same seeds and det_b,
    # and the lazy full det_a, bit for bit
    grid = cl.GridSpec()
    if case == "biped":
        spectra = biped_spectral.spectra
    elif case == "rocker":
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
        grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    elif case == "stiff":
        spectra = cl.analyze(_stiff_hyperbolic_model())
    else:
        spectra = cl.SpectrumPair([-2.0, 1.0], [-0.5], [1, 1], [1])
    field = _assert_scan_matches_reference(spectra, grid)
    assert (field.seeds.size > 0) == (case != "no-existence")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_full_grid_reference_on_random_models(n, seed):
    _, spectral = random_spd_model(n, np.random.default_rng(seed))
    _assert_scan_matches_reference(spectral, cl.GridSpec(step=0.1))


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
    # the scan must neither warn nor seed a cell it cannot evaluate
    spectral = cl.analyze(_stiff_hyperbolic_model())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = cl.scan_contour(spectral)
    assert not np.isfinite(field.det_a).all()
    # rows whose squares overflow keep unit norm: no plateau of exact zeros, five crossings
    assert np.all(field.det_b != 0)
    assert field.seeds.shape == (5, 2)
    np.testing.assert_allclose(field.seeds[0], [4.2017, 2.0974], rtol=0, atol=1e-4)
    with np.errstate(over="ignore"):   # the row norms at a seed may still overflow
        residual = cl.impact_residual(field.seeds[0], spectral, spectral.M, spectral.eta)
    assert np.isfinite(residual).all() and np.all(residual != 0)


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
    model = _stiff_hyperbolic_model()
    spectral = cl.analyze(model)
    roots = []
    for seed in cl.scan_contour(spectral).seeds:
        try:
            roots.append(cl.refine_root(seed, spectral, spectral.M, spectral.eta))
        except cl.ConvergenceError:
            continue
    times = min(roots, key=lambda t: abs(t.o_n - 7.3827) + abs(t.o_prime - 2.0446))
    assert abs(times.o_n - 7.3827) < 1e-4 and abs(times.o_prime - 2.0446) < 1e-4
    assert max(abs(r) for r in times.residual) < 1e-11
    # the column-scaled null vector carries the static force although the
    # unscaled columns span more than 40 orders of magnitude
    assert cl.build_solution(spectral, times).rank_gap < cl.impact.RANK_GAP_MAX
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run = cl.solve_model(model)
    accepted = sorted((r.solution.times.o_n, r.solution.times.o_prime)
                      for r in run.records if r.accepted)
    assert len(accepted) >= 2
    np.testing.assert_allclose(accepted[:2], [[7.3827, 2.0446], [10.5247, 2.0442]],
                               rtol=0, atol=1e-4)


def test_scan_grid_validation(biped_spectral):
    with pytest.raises(cl.InvalidParameterError):
        cl.scan_contour(biped_spectral.spectra, cl.GridSpec(o_n_max=0.01, o_p_max=0.01))


@pytest.mark.parametrize("bound", ["o_n_min", "o_p_min"])
def test_grid_rejects_negative_minimum(bound):
    with pytest.raises(cl.InvalidParameterError, match=f"^{bound} must be >= 0"):
        cl.GridSpec(**{bound: -1.0}).axes()
    assert cl.GridSpec(**{bound: 0.0}).axes()[0][0] == 0.05


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


def test_zero_mode_check_runs_once_per_pair(monkeypatch):
    calls = []
    check = cl.model._require_nonzero_spectra

    def counting(spectra):
        calls.append(spectra)
        return check(spectra)

    monkeypatch.setattr("collisionless.model._require_nonzero_spectra", counting)
    spectral = cl.analyze(cl.build_armed_biped())
    root = cl.refine_root((3.80, 0.93), spectral, spectral.M, spectral.eta)
    assert root.iterations == 5 and calls == [spectral]
    hopper = cl.n2_spectrum("hopper", omega2=1.0, omega1p=0.5)
    for _ in range(2):   # a failed check caches nothing
        with pytest.raises(cl.ZeroModeError):
            cl.contact_matrix(0.5, 0.5, hopper, hopper.M, hopper.eta)
    assert calls[1:] == [hopper, hopper]


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
    solution = cl.build_solution(cl.analyze(cl.load_model(config)), biped_root)
    assert np.abs(solution.q).max() < 1e-12
    assert np.abs(solution.q_prime).max() < 1e-12


def test_solve_weights_linearity(biped, biped_root, biped_solution):
    config = biped.to_config()
    config["static_force"] = 10.0  # doubled
    solution = cl.build_solution(cl.analyze(cl.load_model(config)), biped_root)
    np.testing.assert_allclose(solution.q, 2 * biped_solution.q, rtol=1e-10)
    np.testing.assert_allclose(solution.q_prime, 2 * biped_solution.q_prime, rtol=1e-10)


def test_build_solution_refuses_times_off_a_root(biped_spectral, biped_root):
    detuned = dataclasses.replace(
        biped_root, tau=biped_root.tau + 1e-3,
        o_n=biped_root.o_n + 1e-3 * biped_spectral.spectra.omega_top,
    )
    with pytest.raises(cl.DegenerateSolutionError, match="rank gap"):
        cl.build_solution(biped_spectral, detuned)


def test_build_solution_certifies_with_one_svd(biped_spectral, biped_root, monkeypatch):
    # the rank gap and the weights come from the same decomposition
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(args)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    solution = cl.build_solution(biped_spectral, biped_root)
    assert len(calls) == 1
    _, gap = cl.assemble_impact_matrix(biped_spectral, biped_root.tau, biped_root.tau_prime)
    assert gap == solution.rank_gap


def _certified_models():
    """The biped, those of the first 15 seed-1 random draws with existence, the stiff model."""
    yield cl.build_armed_biped()
    rng = np.random.default_rng(1)
    for i in range(15):
        model, spectral = random_spd_model(3 + i % 4, rng, name=f"draw{i}")
        if cl.existence_gate(spectral.lam_prime):
            yield model
    yield _stiff_hyperbolic_model()


@pytest.mark.parametrize("model", _certified_models(), ids=lambda m: m.name)
def test_certified_weights_satisfy_every_matching_row(model):
    # v = [q; q'; static force] is a null vector of the full matching matrix,
    # not only of its square top-left block
    run = cl.solve_model(model)
    assert run.records
    for record in run.records:
        solution = record.solution
        spectral, times = solution.spectral, solution.times
        A, _ = cl.assemble_impact_matrix(spectral, times.tau, times.tau_prime)
        compliance = spectral.contact_compliance
        force = (spectral.static_offset @ compliance) / (compliance @ compliance)
        v = np.concatenate([solution.q, solution.q_prime, [force]])
        assert np.abs(A @ v).max() <= 1e-10 * np.abs(A * v).max()


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
