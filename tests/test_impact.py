import dataclasses
import hashlib
import itertools
import json
import math
import re
import warnings
from collections import deque
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import collisionless as cl
from collisionless import cli, impact, trajectory
from collisionless.impact import (
    _cell_corners,
    _crossing_seeds,
    _segments,
    _sign_change_cells,
    _unit_contact,
)
from collisionless.model import _kernel_constants
from collisionless.svgout import SvgCanvas
from helpers import (
    cauchy_inputs,
    float_bits,
    hard_model,
    non_pole_times,
    random_rocker_freqs,
    random_spd_model,
    stiff_hyperbolic_model,
)


# ------------------------------------------------------------------- kernels

def _kernel_values(t, lam, sigma):
    """(g, gdot) of one mode from explicit np.cos/np.sin/np.cosh/np.sinh values."""
    om = np.sqrt(abs(lam))
    if lam > 0:
        if sigma == -1:
            return np.cos(om * t), -om * np.sin(om * t)
        return np.sin(om * t), om * np.cos(om * t)
    if sigma == -1:
        return np.cosh(om * t), om * np.sinh(om * t)
    return np.sinh(om * t), om * np.cosh(om * t)


def test_mode_motion_case_table():
    g, gd = cl.mode_motion_vec(0.0, [4.0], [-1])
    assert (g[0], gd[0]) == (1.0, 0.0)
    g, gd = cl.mode_motion_vec(0.7, [-1.0], [1])
    assert g[0] == pytest.approx(np.sinh(0.7), rel=1e-15)
    assert gd[0] == pytest.approx(np.cosh(0.7), rel=1e-15)
    g, gd = cl.mode_motion_vec(0.3, [4.0], [1])
    assert g[0] == pytest.approx(np.sin(0.6), rel=1e-15)
    assert gd[0] == pytest.approx(2 * np.cos(0.6), rel=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    t=st.floats(-5, 5),
    lam=st.floats(-10, 10).filter(lambda v: abs(v) > 1e-3),
    sigma=st.sampled_from([-1, 1]),
)
def test_kernel_time_parity(t, lam, sigma):
    (g_pos, g_neg), (gd_pos, gd_neg) = cl.mode_motion_vec([t, -t], [lam], [sigma])
    if sigma == -1:
        assert g_neg == g_pos and gd_neg == -gd_pos
    else:
        assert g_neg == -g_pos and gd_neg == gd_pos


def test_kernel_ode_identity():
    # second finite difference must reproduce gdd = -lam g
    rng = np.random.default_rng(3)
    h = 1e-5
    lam = rng.uniform(-9, 9, 100)
    lam = lam[np.abs(lam) >= 1e-2]
    t = rng.uniform(-3, 3, lam.size)
    sigma = rng.choice([-1, 1], lam.size)
    (gm, g0, gp), _ = cl.mode_motion_vec(np.array([-h, 0.0, h])[:, None] + t, lam, sigma)
    fd = (gp - 2 * g0 + gm) / h ** 2
    assert np.all(np.abs(fd + lam * g0) <= np.maximum(1e-4 * np.abs(lam * g0), 1e-4))


def test_mode_motion_vec_matches_scalar():
    # all four kernels, cosh, sin, cos and sinh, against their numpy values one mode at a time
    lam = np.array([-2.0, 1.5, 4.0, -0.5])
    sigma = np.array([-1, 1, -1, 1])
    g, gd = cl.mode_motion_vec(0.8, lam, sigma)
    for i, (lv, sv) in enumerate(zip(lam, sigma)):
        ref = _kernel_values(0.8, lv, sv)
        assert g[i] == pytest.approx(ref[0], rel=1e-15)
        assert gd[i] == pytest.approx(ref[1], rel=1e-15)
    times = np.array([-1.3, 0.0, 0.8, 2.5])
    g, gd = cl.mode_motion_vec(times, lam, sigma)
    assert g.shape == gd.shape == (times.size, lam.size)
    for k, t in enumerate(times):
        for i, (lv, sv) in enumerate(zip(lam, sigma)):
            ref = _kernel_values(t, lv, sv)
            assert g[k, i] == pytest.approx(ref[0], rel=1e-15)
            assert gd[k, i] == pytest.approx(ref[1], rel=1e-15)


@pytest.mark.parametrize("lam, sigma", [
    ([0.0, 0.0], [1, -1]),           # the odd zero-frequency kernel is (t, 1), not (0, 0)
    ([0.0, 2.0], [-1, 1]),
    ([-3.0, 2e-14], [1, 1]),        # within ZERO_EIGENVALUE_ATOL of the largest |lam|
    (0.0, 1),
])
def test_mode_motion_vec_rejects_zero_modes(lam, sigma):
    with pytest.raises(cl.ZeroModeError):
        cl.mode_motion_vec(1.5, lam, sigma)
    # the threshold is relative to the spectrum's scale: just above it a mode is evaluated
    g, gd = cl.mode_motion_vec(1.5, [-3.0, 4e-14], [1, 1])
    assert (g[1], gd[1]) == pytest.approx(_kernel_values(1.5, 4e-14, 1), rel=1e-15)


def _grid_cases():
    """(label, half, kernel constants) of the biped, the stiff model, random N = 2..6 spectra."""
    pairs = [("biped", cl.analyze(cl.build_armed_biped()), (0.3, 3.0)),
             ("stiff", cl.analyze(stiff_hyperbolic_model()), (0.3, 2.0, 7.0))]
    rng = np.random.default_rng(20)
    pairs += [(f"random{n}", random_spd_model(n, rng)[1], (0.3, 3.0)) for n in range(2, 7)]
    for label, spectra, halves in pairs:
        for phase, constants in enumerate(spectra.kernels):
            for half in halves:
                yield f"{label}-{phase}-{half}", half, constants
    # both kernels of a lam = -1e4 mode at nu * half = 700, where cosh is about 5e303
    stiff = _kernel_constants(np.array([-1e4, -1e4, 2.0, 2.0]), np.array([-1, 1, -1, 1]))
    yield "nu-half-700", 7.0, stiff


@pytest.mark.parametrize("count", [2001, 201, 75])   # blocks of 40, 20 and 1 (m = 37 is prime)
def test_grid_kernels_match_mode_kernels(count):
    m = (count - 1) // 2
    for label, half, constants in _grid_cases():
        times = np.arange(-m, m + 1) * (half / m)
        times[[0, -1]] = -half, half
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coarse = trajectory._coarse_kernels(half, count, *constants)
            grid = trajectory._grid_kernels(half, count, *constants, coarse)
            direct = [k.T for k in impact._mode_kernels(times, *constants)]
        parity = np.where(constants[2], 1.0, -1.0)[:, None]
        block = math.gcd(m, trajectory.GRID_BLOCK)
        for got, want, sign, table in zip(grid, direct, (parity, -parity), coarse):
            # the coarse times -half, ..., -B h, 0, B h, ..., half hold the table (up to the
            # sign of a zero)
            assert np.array_equal(got[:, ::block], table), label
            assert got.shape == want.shape == (constants[0].size, count), label
            assert np.array_equal(np.isfinite(got), np.isfinite(want)), label
            scale = np.abs(want).max(axis=1, keepdims=True)
            assert (np.abs(got - want) <= 1e-13 * scale).all(), label
            # g(-t) = +-g(t) and gdot(-t) = -+gdot(t), bit for bit
            assert got[:, m - 1::-1].tobytes() == (sign * got[:, m + 1:]).tobytes(), label


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


@pytest.mark.parametrize("s", [1e-16, 1e4])
def test_phase_rate_and_kernel_ratio_scale_with_the_spectra(s):
    # one zero-mode rule, relative to the spectrum's largest |lam|: lam -> s lam and
    # tau -> tau / sqrt(s) scale phase_rate by sqrt(s) and leave kernel_ratio unchanged
    pair = cl.SpectrumPair([-2.0, 1.0, 3.0], [0.5, 2.0], [-1, 1, -1], [1, -1])
    scaled = cl.SpectrumPair(pair.lam * s, pair.lam_prime * s, pair.sigma, pair.sigma_prime)
    scaled.kernels   # the pair's own zero-mode check accepts the scaled spectra
    tau, taup, root = 0.9, 0.4, np.sqrt(s)
    np.testing.assert_allclose(cl.phase_rate(tau / root, scaled.lam, scaled.sigma),
                               root * cl.phase_rate(tau, pair.lam, pair.sigma), rtol=1e-13)
    np.testing.assert_allclose(cl.kernel_ratio(tau / root, taup / root, scaled),
                               cl.kernel_ratio(tau, taup, pair), rtol=1e-13)


def test_pole_atol_is_1e9_not_1e7():
    # 1e-8 in phase from the tan pole at pi/2 is no pole at POLE_ATOL = 1e-9
    w = cl.phase_rate(np.pi / 2 - 1e-8, [1.0], [1])
    assert np.isfinite(w[0]) and w[0] == pytest.approx(1e8, rel=1e-6)


def test_phase_rate_pole_error():
    with pytest.raises(cl.PoleError) as info:
        cl.phase_rate(np.pi / 2, [4.0], [-1])  # o = pi, cot pole
    assert info.value.distance is not None and info.value.distance < 1e-9


def _phase_rate_loop(tau, lam, sigma):
    """Per-mode reference for phase_rate: (value, None) or (None, error type)."""
    scale = np.abs(lam).max()
    out = np.empty(len(lam))
    for i, (lv, sv) in enumerate(zip(lam, sigma)):
        if abs(lv) <= cl.model.ZERO_EIGENVALUE_ATOL * scale:
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
    # the product of the two minors vanishes on both curves: a grid line crossing a
    # single zero curve (away from intersections, where it only touches zero) must change sign
    line = np.array([np.prod(cl.impact_residual((o, 1.2), spectra, M, eta_vec))
                     for o in np.arange(3.0, 4.6, 0.02)])
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
def test_scan_grids_match_impact_residual(family, biped_spectral):
    # the export grids are impact_residual on the scan's grid, bit for bit and without a
    # warning; the o_p_max = 3π case runs in test_scan_matches_full_grid_reference
    grid = cl.GridSpec(o_n_max=5.0, o_p_max=1.5, step=0.1)
    if family == "biped":
        spectra = biped_spectral.spectra
    elif family == "rocker":
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    else:
        # free kernels near 1e273 on much of the default grid
        spectra, grid = cl.analyze(stiff_hyperbolic_model()), cl.GridSpec()
    M, eta_vec = cauchy_inputs(spectra)
    field = cl.scan_contour(spectra, grid)
    o = np.stack(np.meshgrid(field.o_n_axis, field.o_p_axis, indexing="ij"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stacked = cl.impact_residual(o, spectra, M, eta_vec)
        grids = np.stack([field.det_a, field.det_b])
    assert grids.tobytes() == stacked.tobytes()


def _grid_segments(xa, ya, Z, cells):
    """``_segments`` in the masked cells of the grid Z."""
    i, j = np.nonzero(cells)
    return _segments(xa, ya, i, j, _cell_corners(Z, i, j))


def _grid_seeds(xa, ya, det_a, det_b, cells):
    """``_crossing_seeds`` in the masked cells of the grids det_a and det_b."""
    i, j = np.nonzero(cells)
    return _crossing_seeds(xa, ya, i, j, _cell_corners(det_a, i, j), _cell_corners(det_b, i, j))


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
    segs, kept = _grid_segments(xa, ya, Z, _sign_change_cells(Z))
    expected = np.array(_cell_crossings_reference(xa, ya, Z), float).reshape(-1, 2, 2)
    assert segs[kept].shape == expected.shape
    assert segs[kept].tobytes() == expected.tobytes()


@pytest.mark.parametrize("v11, pairs", [(2.0, [(0, 2), (1, 3)]), (0.5, [(0, 3), (1, 2)])])
def test_saddle_cell_pairs_crossings_by_centre_sign(v11, pairs):
    # Z[i, j] with i along o_N: corners 1, -1 on the bottom edge and -1, v11 on the top
    Z = np.array([[1.0, -1.0], [-1.0, v11]])
    segs, kept = _grid_segments(np.array([0.0, 1.0]), np.array([0.0, 1.0]), Z,
                                 np.ones((1, 1), bool))
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
        segs, kept = _grid_segments(xa, ya, Z, _sign_change_cells(Z))
        ends = segs[kept].reshape(-1, 2)
        assert np.abs(c[0] + c[1] * ends[:, 0] + c[2] * ends[:, 1]).max(initial=0.0) <= 1e-12
    both = _sign_change_cells(fields[0]) & _sign_change_cells(fields[1])
    seeds = _grid_seeds(xa, ya, *fields, both)
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
    assert _grid_seeds(xa, ya, det_a, det_b, both).shape == (0, 2)


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
    """Reference: both minors on the whole grid, each from its own row deletion of the
    unit-row contact matrices, then the seeds in the cells where both change sign and the
    existence gate holds."""
    o_n_axis, o_p_axis = grid.axes()
    n = spectra.n
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        bc = _unit_contact(o_n_axis[:, None], o_p_axis[None, :], spectra, spectra.M, spectra.eta)
        det_a, det_b = (np.linalg.det(np.delete(bc, drop, axis=-2)) for drop in (n - 1, n))
    both = _sign_change_cells(det_a) & _sign_change_cells(det_b)
    both &= cl.existence_gate(spectra.lam_prime)
    return det_a, det_b, _grid_seeds(o_n_axis, o_p_axis, det_a, det_b, both)


def _assert_scan_matches_reference(spectra, grid):
    det_a, det_b, seeds = _scan_reference(spectra, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = cl.scan_contour(spectra, grid)
        if cl.existence_gate(spectra.lam_prime):
            o = np.stack(np.meshgrid(field.o_n_axis, field.o_p_axis, indexing="ij"))
            residual = cl.impact_residual(o, spectra, spectra.M, spectra.eta)
            assert residual.tobytes() == np.stack([det_a, det_b]).tobytes()
    assert field.det_a.tobytes() == det_a.tobytes() and field.det_b.tobytes() == det_b.tobytes()
    assert field.seeds.shape == seeds.shape and field.seeds.tobytes() == seeds.tobytes()
    return field


@pytest.mark.parametrize("case", ["biped", "rocker", "stiff", "stiff-wide", "no-existence"])
def test_scan_matches_full_grid_reference(case, biped_spectral):
    # the cells from the raw expansion's signs and the corners from the unit-row evaluator:
    # the grids and the seeds of impact_residual on the whole grid, bit for bit
    grid = cl.GridSpec()
    if case == "biped":
        spectra = biped_spectral.spectra
    elif case == "rocker":
        spectra = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
        grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    elif case == "stiff":
        # free kernels near 1e273 on much of the default grid
        spectra = cl.analyze(stiff_hyperbolic_model())
    elif case == "stiff-wide":
        # contact kernels up to about 1e205, whose squares and products overflow
        spectra, grid = cl.analyze(stiff_hyperbolic_model()), cl.GridSpec(o_p_max=3 * np.pi)
    else:
        spectra = cl.SpectrumPair([-2.0, 1.0], [-0.5], [1, 1], [1])
    field = _assert_scan_matches_reference(spectra, grid)
    assert (field.seeds.size > 0) == (case != "no-existence")


@settings(max_examples=30, deadline=None)
@given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
def test_scan_matches_full_grid_reference_on_random_models(n, seed):
    _, spectral = random_spd_model(n, np.random.default_rng(seed))
    _assert_scan_matches_reference(spectral, cl.GridSpec(step=0.1))


def _scan_case(case, biped_spectral):
    """(spectra, grid) of a named scan case; a grid here is anything with ``axes()``."""
    if case == "biped":
        return biped_spectral.spectra, cl.GridSpec()
    if case in ("stiff", "stiff-wide"):
        grid = cl.GridSpec(o_p_max=3 * np.pi) if case == "stiff-wide" else cl.GridSpec()
        return cl.analyze(stiff_hyperbolic_model()), grid
    if case == "floored-row":
        # every mode even: at o_n = 1e-170 the squares of the free velocities underflow, and
        # at o_p = 0 the contact velocities vanish, so row 0's norm is 0 and takes its floor
        o_n = np.concatenate([[1e-170, 1e-160], 0.1 * np.arange(1, 40)])
        o_p = 0.1 * np.arange(30)
        return cl.SpectrumPair([-2.0, 1.0], [0.5], [-1, -1], [-1]), SimpleNamespace(
            axes=lambda: (o_n, o_p))
    top = {"no-existence": -0.5, "zero-top": 0.0}[case]
    return cl.SpectrumPair([-2.0, 1.0], [top], [1, 1], [1]), cl.GridSpec()


@pytest.mark.parametrize("case", ["biped", "stiff", "stiff-wide", "floored-row", "no-existence",
                                  "zero-top"])
def test_scan_cells_and_seeds_from_raw_minors(case, biped_spectral):
    # the cells from the raw minors' signs, the corner values from the unit-row evaluator:
    # the seeds of the whole unit-row grids, bit for bit
    spectra, grid = _scan_case(case, biped_spectral)
    det_a, _, seeds = _scan_reference(spectra, grid)
    field = cl.scan_contour(spectra, grid)
    assert field.seeds.shape == seeds.shape and field.seeds.tobytes() == seeds.tobytes()
    assert (field.seeds.size > 0) == (case not in ("no-existence", "zero-top"))
    if case == "floored-row":
        # a unit-row minor is at most 1 in magnitude unless a row norm takes its floor
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            raw_a, _ = impact._minor_grids(*grid.axes(), spectra)
        assert abs(det_a[0, 0]) > 1e100 and np.isfinite(raw_a[0, 0])


def test_solve_normalises_only_the_seed_cells(biped, biped_spectral, monkeypatch):
    # the solve path keeps no unit-row grid, and the scan evaluates the unit-row minors at
    # the corners of the cells where both raw minors change sign, and nowhere else
    run = cl.solve_model(biped)
    assert "_unit_grids" not in vars(run.contour)
    assert run.contour.det_a.shape == (run.contour.o_n_axis.size, run.contour.o_p_axis.size)
    assert "_unit_grids" in vars(run.contour)   # built on first access
    points = []
    unit_contact = impact._unit_contact

    def counted(o_n, o_prime, *args):
        points.append(np.broadcast(o_n, o_prime).size)
        return unit_contact(o_n, o_prime, *args)

    monkeypatch.setattr(impact, "_unit_contact", counted)
    for case in ("biped", "stiff"):
        spectra, grid = _scan_case(case, biped_spectral)
        points.clear()
        cl.scan_contour(spectra, grid)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            raw_a, raw_b = impact._minor_grids(*grid.axes(), spectra)
        cells = np.count_nonzero(_sign_change_cells(raw_a) & _sign_change_cells(raw_b))
        assert len(points) == 1 and 0 < points[0] <= 4 * cells


def test_scan_evaluates_each_phase_once_and_contour_the_grid_once(biped_spectral, tmp_path,
                                                                  monkeypatch):
    calls = {"_mode_kernels": 0, "_minor_grids": 0}

    def counted(name):
        original = getattr(impact, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(impact, name, wrapper)

    counted("_mode_kernels")
    counted("_minor_grids")
    cl.scan_contour(biped_spectral.spectra, cl.GridSpec(step=0.1))
    # one per axis for the raw grids, and one per phase for the corners
    assert calls == {"_mode_kernels": 4, "_minor_grids": 1}
    calls.update(_mode_kernels=0, _minor_grids=0)
    assert cli.main(["contour", "--out", str(tmp_path / "field"), "--grid-step", "0.1"]) == 0
    # the curves and the CSV share one evaluation of the whole grid
    assert calls == {"_mode_kernels": 6, "_minor_grids": 1}


def test_scan_rejects_zero_modes():
    pair = cl.n2_spectrum("hopper", omega2=1.0, omega1p=0.5)
    with pytest.raises(cl.ZeroModeError):
        cl.scan_contour(pair, cl.GridSpec(o_n_max=3.0, o_p_max=1.0))


@pytest.mark.parametrize("sigma_prime, roots", [([1, 1], 2), ([-1, 1], 6)])
def test_solve_rejects_a_zero_contact_eigenvalue_below_the_top(sigma_prime, roots):
    # neither raw minor changes sign for lam'_0 = 0, so the solve used to end without a seed;
    # a contact eigenvalue 1e-9 from 0 is non-zero and certifies its roots
    def model(lamp_0):
        pair = cl.SpectrumPair([-1.0, 1.0, 3.0], [lamp_0, 2.0], [-1, -1, -1], sigma_prime)
        return cl.model_from_spectra(pair, static_force=1.0)

    with pytest.raises(cl.ZeroModeError, match="contact eigenvalues below the top one"):
        cl.solve_model(model(0.0))
    for lamp_0 in (1e-9, -1e-9):
        assert len(cl.solve_model(model(lamp_0)).records) == roots


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
    # the scan must neither warn nor seed a cell it cannot evaluate; on the stiff model the
    # scaled free rows keep every grid point finite (the rule for non-finite corners is
    # test_segments_match_per_cell_loop's)
    spectral = cl.analyze(stiff_hyperbolic_model())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        field = cl.scan_contour(spectral)
        assert np.isfinite(field.det_a).all() and np.isfinite(field.det_b).all()
        # rows whose squares would overflow keep unit norm: no plateau of exact zeros
        assert np.all(field.det_b != 0)
        assert field.seeds.shape == (6, 2)
        np.testing.assert_allclose(field.seeds[[0, -1]], [[4.2017, 2.0974], [10.514, 5.1999]],
                                   rtol=0, atol=1e-4)
        residual = cl.impact_residual(field.seeds[0], spectral, spectral.M, spectral.eta)
    assert np.isfinite(residual).all() and np.all(residual != 0)


def test_scan_drops_a_cell_with_a_non_finite_unit_corner():
    # an all-even pair at (o_N, o') = (1e-170, 1e-200): the free rows' norms underflow to the
    # 1e-300 floor and the unit det_b there is -inf, while the raw minors are finite and both
    # change sign on the cell; the cell gives no seed and no warning (scanned without the
    # drop, it seeds at (2.349, 1.175))
    pair = cl.SpectrumPair([-2.0, 1.0, 3.0], [0.5, 2.0], [-1, -1, -1], [-1, -1])
    grid = cl.GridSpec(o_n_min=1e-170, o_n_max=5.0, o_p_min=1e-200, o_p_max=5.0, step=2.5)
    o_n, o_p = grid.axes()
    with np.errstate(all="ignore"):
        raw = impact._minor_grids(o_n, o_p, pair)
        corner = cl.impact_residual((o_n[0], o_p[0]), pair, pair.M, pair.eta)
    assert all(np.isfinite(Z).all() and _sign_change_cells(Z)[0, 0] for Z in raw)
    assert np.isfinite(corner[0]) and corner[1] == -np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        seeds = cl.scan_contour(pair, grid).seeds
    assert seeds.shape == (2, 2)
    assert not ((seeds[:, 0] < o_n[1]) & (seeds[:, 1] < o_p[1])).any()


def test_scan_seeds_lie_inside_the_grid():
    # on the pair above, rounding in p + t r put a crossing at o_N = 0.0, below the first
    # grid point 1e-170, and refine_roots rejected the whole batch; clipped into its cell,
    # every seed lies in the window, refines to an outcome of its own, and the solve ends in
    # the documented ConvergenceError
    pair = cl.SpectrumPair([-2.0, 1.0, 3.0], [0.5, 2.0], [-1, -1, -1], [-1, -1])
    grid = cl.GridSpec(o_n_min=1e-170, o_n_max=5.0, o_p_min=1e-200, o_p_max=5.0, step=2.5)
    o_n, o_p = grid.axes()
    seeds = cl.scan_contour(pair, grid).seeds
    assert seeds.shape == (2, 2) and seeds[0, 0] == o_n[0]
    assert ((seeds >= [o_n[0], o_p[0]]) & (seeds <= [o_n[-1], o_p[-1]])).all()
    assert len(cl.refine_roots(seeds, pair, pair.M, pair.eta)) == len(seeds)
    with pytest.raises(cl.ConvergenceError):
        cl.solve_model(cl.model_from_spectra(pair, static_force=1.0), grid)


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
    model = stiff_hyperbolic_model()
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


def _widest_free_scale(tau, spectra):
    """The free kernels scaled by the frexp exponent e of max(|g|, |gdot|, |gdot / lam|), and e."""
    g, gd = impact._mode_kernels(tau, *spectra.kernels[0])
    _, e = np.frexp(np.maximum(np.maximum(np.abs(g), np.abs(gd)), np.abs(gd / spectra.lam)))
    return np.ldexp(g, -e), np.ldexp(gd, -e), e


def test_free_row_scale_changes_no_bit(biped_spectral, monkeypatch):
    # which power of two scales a free row leaves the unit-row minors' bits alone: the
    # exponent of max(|g|, |gdot|) and the wider one that also bounds |gdot / lam| give the
    # same scan grids, residuals at seeds, roots and random points, and refinement outcomes
    rng = np.random.default_rng(5)
    n2_grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    cases = [(biped_spectral.spectra, cl.GridSpec()),
             (cl.analyze(stiff_hyperbolic_model()), cl.GridSpec())]
    for family in ("rocker", "rimless"):
        for _ in range(3):
            nu1, om2, om1p = random_rocker_freqs(rng)
            cases.append((cl.n2_spectrum(family, nu1=nu1, omega2=om2, omega1p=om1p), n2_grid))
    points = rng.uniform([0.05, 0.05], [12.5, 6.0], size=(200, 2))

    def evaluate():
        out = []
        for spectra, grid in cases:
            field = cl.scan_contour(spectra, grid)
            outcomes = cl.refine_roots(field.seeds, spectra, spectra.M, spectra.eta)
            roots = [(t.o_n, t.o_prime) for t in outcomes if isinstance(t, cl.ImpactTimes)]
            fixed = np.vstack([field.seeds, np.reshape(roots, (-1, 2)), points])
            residual = cl.impact_residual(fixed.T, spectra, spectra.M, spectra.eta)
            out += [field.det_a.tobytes(), field.det_b.tobytes(), residual.tobytes(),
                    [str(t) if isinstance(t, cl.ConvergenceError) else t for t in outcomes]]
        return out

    expected = evaluate()
    monkeypatch.setattr(impact, "_scaled_free_kernels", _widest_free_scale)
    assert evaluate() == expected


def test_scan_grid_validation(biped_spectral):
    with pytest.raises(cl.InvalidParameterError):
        cl.scan_contour(biped_spectral.spectra, cl.GridSpec(o_n_max=0.01, o_p_max=0.01))


@pytest.mark.parametrize("bound", ["o_n_min", "o_p_min"])
def test_grid_rejects_negative_minimum(bound):
    with pytest.raises(cl.InvalidParameterError, match=f"^{bound} must be >= 0"):
        cl.GridSpec(**{bound: -1.0}).axes()
    assert cl.GridSpec(**{bound: 0.0}).axes()[0][0] == 0.05


def test_grid_rejects_bool_step():
    with pytest.raises(cl.InvalidParameterError, match="^step must be positive"):
        cl.GridSpec(step=True).axes()


def test_grid_holds_at_most_grid_max_points():
    # a step small enough to exhaust memory is refused before any axis is built; a grid of
    # exactly GRID_MAX_POINTS points is not
    assert cl.impact.GRID_MAX_POINTS == 10 ** 6
    for step in (1.38e-71, 1e-7, 5e-324):
        with pytest.raises(cl.InvalidParameterError, match="^contour grid must hold at most"):
            cl.GridSpec(step=step).axes()
    o_n, o_p = cl.GridSpec(o_n_max=1000.0, o_p_max=1000.0, step=1.0).axes()
    assert o_n.size * o_p.size == 10 ** 6
    with pytest.raises(cl.InvalidParameterError, match="at most 1000000 points, got 1000001$"):
        cl.GridSpec(o_n_max=101.0, o_p_max=9901.0, step=1.0).axes()   # 101 x 9901 points


@pytest.mark.parametrize("bound", ["o_n_min", "o_n_max", "o_p_min", "o_p_max"])
@pytest.mark.parametrize("value", ["3", True, None])
def test_grid_rejects_non_numeric_bound(bound, value):
    with pytest.raises(cl.InvalidParameterError, match="^contour grid bounds must be finite"):
        cl.GridSpec(**{bound: value}).axes()


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


def test_svg_canvas_widens_an_empty_range_and_skips_an_empty_polyline():
    canvas = SvgCanvas((1, 1), (2, 2))
    assert (canvas.x0, canvas.x1, canvas.y0, canvas.y1) == (1.0, 2.0, 2.0, 3.0)
    canvas.polyline([np.nan, 1.5], [2.5, np.nan])
    assert "<polyline" not in canvas.tostring()


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


def _refine_alone(seed, *args, **kwargs):
    """The lockstep engine on a list of one seed."""
    return cl.refine_roots([seed], *args, **kwargs)


_BAD_REFINE_INPUT = [
    ((np.nan, 1.0), 40), ((np.inf, 1.0), 40), ((3.8, np.nan), 40), ((3.8, "x"), 40),
    ((3.8, 0.93), 2.5), ((3.8, 0.93), None), ((3.8, 0.93), 0), ((3.8, 0.93), -3),
    ((3.8, 0.93), True), ((0.0, 0.93), 40), ((3.8, 0.93, 1.0), 40),
]


@pytest.mark.parametrize(
    "refine, seed, max_iter",
    [pytest.param(refine, seed, max_iter, id=f"{name}seed{i}-{max_iter}")
     for name, refine in (("", cl.refine_root), ("roots-", _refine_alone))
     for i, (seed, max_iter) in enumerate(_BAD_REFINE_INPUT)],
)
def test_refine_root_rejects_bad_input(biped_spectral, biped_cauchy, refine, seed, max_iter):
    M, eta_vec = biped_cauchy
    with pytest.raises(cl.InvalidParameterError):
        refine(seed, biped_spectral.spectra, M, eta_vec, max_iter=max_iter)


def _counting_residual(monkeypatch):
    """Route impact_residual through a wrapper; returns the number of points of each call."""
    calls = []
    residual = cl.impact_residual

    def counting(o, *args):
        calls.append(np.shape(o)[1])
        return residual(o, *args)

    monkeypatch.setattr("collisionless.impact.impact_residual", counting)
    return calls


def test_refine_root_one_residual_call_per_trial_point(biped_spectral, biped_cauchy, monkeypatch):
    # F and the forward-difference Jacobian come from one batched call; the
    # biped seed accepts every full step, so there is one call per iteration
    calls = _counting_residual(monkeypatch)
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


def _stall_case():
    """A pair with an odd and an even free kernel, so without phantoms, and a seed of its
    scan that stalls in iteration 6 at o = (1.869, 3.362), far from the line o_N = 0."""
    rng = np.random.default_rng(10)
    for n in (3, 4, 5, 6, 3, 4, 5):   # the seventh model of this stream
        _, spectral = random_spd_model(n, rng)
    seeds = cl.scan_contour(spectral).seeds
    return spectral, seeds[np.abs(seeds - [1.42, 3.68]).max(axis=1).argmin()]


def test_refine_root_stalls_when_no_halving_helps():
    # no halved step cuts max|F| (1.6e-4) by REFINE_MIN_DECREASE of itself
    spectral, seed = _stall_case()
    assert np.isinf(impact._phantom_corners(seed[None], spectral)[0]).all()
    stall = r"stalled in iteration 6 at o = \[1\.869\d*, 3\.361\d*\] \(residual 1\.60e-04\)"
    with pytest.raises(cl.ConvergenceError, match=stall):
        cl.refine_root(seed, spectral, spectral.M, spectral.eta)


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
        gap, corner = impact._phantom_corners(o[None], spectra)
        if gap[0] < impact.CORNER_RADIUS:
            raise cl.ConvergenceError(
                f"refinement reached the phantom corner (0, o'_c = {corner[0]:.6g})"
                f" in iteration {iteration} at o = {o.tolist()}"
                f" (residual {np.abs(F).max():.2e})"
            )
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
        bound = np.abs(F).max()
        limit = bound
        if bound >= cl.impact.REFINE_TOL_RESIDUAL:
            limit = (1 - cl.impact.REFINE_MIN_DECREASE) * bound
        damping = 1.0
        for _ in range(40):
            cand = o + damping * step
            if cand.min() > 0:
                F_cand, J_cand = evaluate(cand)
                if np.abs(F_cand).max() <= limit:
                    o, F, J = cand, F_cand, J_cand
                    break
            damping *= 0.5
        else:
            raise cl.ConvergenceError(
                f"refinement stalled in iteration {iteration} at o = {o.tolist()}"
                f" (residual {bound:.2e})"
            )
    raise cl.ConvergenceError(
        f"no convergence after {max_iter} iterations from seed {seed!r}"
        f" (ended at o = {o.tolist()}, residual {np.abs(F).max():.2e})"
    )


def _outcome(refine, seed, spectra, M, eta_vec, max_iter):
    try:
        return refine(seed, spectra, M, eta_vec, max_iter=max_iter)
    except cl.ConvergenceError as exc:
        return str(exc)


def _refine_cases():
    """(spectra, seeds, max_iter) of 10 rocker and 10 rimless criterion-2 spectra,
    the armed biped, one random model for each N = 3..6, a ring of seeds on a rocker
    pair 0.35 to 0.55 from its phantom corner (0, pi/2), outside CORNER_RADIUS but
    within twice it, and hard draw 335, four of whose seeds converge one iteration
    later than they would at REFINE_TOL_RESIDUAL = 1e-5."""
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
    angle, radius = np.meshgrid([-1.2, -0.6, 0.3, 1.2], [0.35, 0.45, 0.55])
    ring = np.column_stack([(radius * np.cos(angle)).ravel(),
                            (np.pi / 2 + radius * np.sin(angle)).ravel()])
    yield cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0), ring, 40
    spectral = cl.analyze(hard_model(335))
    yield spectral, cl.scan_contour(spectral).seeds, 100


def test_refine_root_matches_candidate_loop():
    # one seed at a time and all of a scan's seeds in lockstep: the same outcome, bit for bit
    converged = failed = 0
    for spectra, seeds, max_iter in _refine_cases():
        M, eta_vec = cauchy_inputs(spectra)
        together = cl.refine_roots(seeds, spectra, M, eta_vec, max_iter=max_iter)
        assert len(together) == len(seeds)
        for seed, outcome in zip(seeds, together):
            expected = _outcome(_refine_root_loop, seed, spectra, M, eta_vec, max_iter)
            got = _outcome(cl.refine_root, seed, spectra, M, eta_vec, max_iter)
            assert got == expected, f"seed {seed.tolist()}"
            if isinstance(outcome, cl.ConvergenceError):
                outcome = str(outcome)
            assert outcome == expected, f"seed {seed.tolist()} in lockstep"
            converged += isinstance(expected, cl.ImpactTimes)
            failed += isinstance(expected, str)
    assert converged > 100 and failed > 20


# SHA-256 of every refinement outcome of _refine_cases(): 164 seeds, of which 132 converge,
# 28 end at a phantom corner and 4 stall.  Unlike the benchmark's n2-oracle fingerprint
# (phases rounded to 8 digits) it holds the iteration counts, the bits of each phase and
# residual, and each failure's text, so it sees refinement changes that keep the roots
REFINE_DIGEST = "ebaa81ee28baaf8d412959c63792a74fd111c37f901bd307f91dd3fcfe4c32d0"


def test_refinement_outcomes_are_pinned():
    def encode(outcome):
        if isinstance(outcome, cl.ConvergenceError):
            return ["error", str(outcome)]
        return ["ok", outcome.iterations, outcome.o_n.hex(), outcome.o_prime.hex(),
                [r.hex() for r in outcome.residual]]

    outcomes = [encode(outcome) for spectra, seeds, max_iter in _refine_cases()
                for outcome in cl.refine_roots(seeds, spectra, spectra.M, spectra.eta,
                                               max_iter=max_iter)]
    assert len(outcomes) == 164
    blob = json.dumps(outcomes, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == REFINE_DIGEST


def test_lockstep_mixes_full_steps_in_and_out_of_the_quadrant(monkeypatch):
    # random points on a rocker pair, whose phantom (0, pi/2) draws many of them to o_N = 0:
    # in one lockstep iteration some seeds' full steps leave the quadrant while others stay,
    # in another every full step stays but one fails, and seeds that start above
    # CORNER_RADIUS end at the corner; each outcome is the candidate loop's and the seed's
    # alone, bit for bit
    nu1, om2, om1p = random_rocker_freqs(np.random.default_rng(2024))
    spectra = cl.n2_spectrum("rocker", nu1=nu1, omega2=om2, omega1p=om1p)
    M, eta_vec = cauchy_inputs(spectra)
    seeds = np.random.default_rng(3).uniform(0.05, 3.0, size=(40, 2))
    full_inside = []   # per table built: which seeds' full step stays in the quadrant
    scaled = impact._scaled_steps

    def spy(o, step):
        cands, inside = scaled(o, step)
        full_inside.append(inside[:, 0])
        return cands, inside

    monkeypatch.setattr(impact, "_scaled_steps", spy)
    together = cl.refine_roots(seeds, spectra, M, eta_vec, max_iter=40)
    monkeypatch.undo()
    assert any(f.any() and not f.all() for f in full_inside)
    assert any(f.all() for f in full_inside)
    crossed = 0
    for seed, outcome in zip(seeds, together):
        expected = _outcome(_refine_root_loop, seed, spectra, M, eta_vec, 40)
        assert _outcome(cl.refine_root, seed, spectra, M, eta_vec, 40) == expected
        if isinstance(outcome, cl.ConvergenceError):
            outcome = str(outcome)
        assert outcome == expected, f"seed {seed.tolist()} in lockstep"
        crossed += seed[0] >= impact.CORNER_RADIUS and "phantom corner" in str(expected)
    assert crossed > 10


def test_phantom_test_runs_only_below_the_corner_radius(monkeypatch):
    # a rocker seed that starts at o_N = 1.46 and ends at the phantom in iteration 5: the
    # corner is tested only in the iterations that start below CORNER_RADIUS
    nu1, om2, om1p = random_rocker_freqs(np.random.default_rng(2024))
    spectra = cl.n2_spectrum("rocker", nu1=nu1, omega2=om2, omega1p=om1p)
    seed = (1.4632, 0.5212)
    expected = _outcome(_refine_root_loop, seed, spectra, spectra.M, spectra.eta, 40)
    assert "phantom corner (0, o'_c = 1.5708) in iteration 5" in expected
    corners = []
    phantom = impact._phantom_corners

    def spy(o, pair):
        corners.append(o[:, 0].min())
        return phantom(o, pair)

    monkeypatch.setattr(impact, "_phantom_corners", spy)
    assert _outcome(cl.refine_root, seed, spectra, spectra.M, spectra.eta, 40) == expected
    assert 0 < len(corners) < 5
    assert max(corners) < impact.CORNER_RADIUS


def _lockstep_outcomes(spectra, seeds, max_iter):
    M, eta_vec = cauchy_inputs(spectra)
    return [o if isinstance(o, cl.ImpactTimes) else str(o)
            for o in cl.refine_roots(seeds, spectra, M, eta_vec, max_iter=max_iter)]


def test_sufficient_decrease_has_margin(monkeypatch):
    # no decrease demanded (the plain "no increase" rule) and 100 times the
    # default: every converging seed converges to the same bits under both
    converged = 0
    for spectra, seeds, max_iter in _refine_cases():
        default = _lockstep_outcomes(spectra, seeds, max_iter)
        for fraction in (0.0, 100 * impact.REFINE_MIN_DECREASE):
            monkeypatch.setattr(impact, "REFINE_MIN_DECREASE", fraction)
            changed = _lockstep_outcomes(spectra, seeds, max_iter)
            monkeypatch.undo()
            for seed, ours, theirs in zip(seeds, default, changed):
                if isinstance(ours, cl.ImpactTimes):
                    assert theirs == ours, f"seed {seed.tolist()} at {fraction}"
                elif fraction == 0.0:
                    assert isinstance(theirs, str), f"seed {seed.tolist()} fails only by default"
        converged += sum(isinstance(o, cl.ImpactTimes) for o in default)
    assert converged > 100


def test_failing_rocker_seeds_stop_early(monkeypatch):
    # seeds creeping toward the phantom (0, pi/2) used to accept halvings that
    # barely lowered max|F| until they ran out of iterations (806 residual calls
    # in all), then stalled (350 calls); now each ends at the corner
    failing = []
    for spectra, seeds, max_iter in itertools.islice(_refine_cases(), 10):   # the rocker cases
        for seed, outcome in zip(seeds, _lockstep_outcomes(spectra, seeds, max_iter)):
            if isinstance(outcome, str):
                assert "phantom corner (0, o'_c = 1.5708) in iteration" in outcome, outcome
                failing.append((spectra, seed))
    assert len(failing) > 10
    calls = _counting_residual(monkeypatch)
    for spectra, seed in failing:
        before = len(calls)
        with pytest.raises(cl.ConvergenceError, match="phantom corner"):
            cl.refine_root(seed, spectra, spectra.M, spectra.eta, max_iter=40)
        assert len(calls) - before <= 3   # the seed's own call and at most one iteration more
    assert len(calls) <= 2 * len(failing)


def _parity_pair(n, rng, free_sigma):
    """Random interlaced pair with free signatures ``free_sigma``, random contact ones, gaps and
    eigenvalues at least 0.1 in magnitude, and a top contact eigenvalue above 0.2."""
    while True:
        nodes = np.sort(rng.uniform(-3.0, 3.0, 2 * n - 1))
        if np.diff(nodes).min() > 0.1 and np.abs(nodes).min() > 0.1 and nodes[-2] > 0.2:
            return cl.SpectrumPair(nodes[0::2], nodes[1::2], free_sigma,
                                   rng.choice([-1, 1], n - 1))


def _phantoms(pair, zero_of, o_max):
    """o'_c in (0, o_max) where a contact kernel's ``zero_of`` ('velocity' or 'position') is 0."""
    phases = []
    for lam, sigma in zip(pair.lam_prime, pair.sigma_prime):
        if lam > 0:   # cos(w t) has its zeros at pi/2 + k pi and sin(w t) at k pi
            cos_like = (sigma == -1) == (zero_of == "position")
            k = np.arange(1, 40)
            zeros = (k - 0.5 if cos_like else k) * np.pi / np.sqrt(lam)
            phases += list(zeros * pair.omega_prime_top)
    return np.array([p for p in phases if p < o_max])


@pytest.mark.parametrize("n", range(2, 7))
def test_phantom_roots_on_the_line_tau_zero(n):
    # at tau = 0 every even free kernel has gdot = 0 and every odd one g = 0:
    # all even, det_b vanishes on the whole line o_N = 0 and F on it where a
    # contact velocity does (for N = 2 the free rows vanish there too, and the
    # unit-row residual has no limit); all odd, F vanishes where a contact
    # position does; mixed, neither
    rng = np.random.default_rng(800 + n)
    o_p = np.linspace(0.05, 3 * np.pi, 61)
    line = lambda pair, eps: cl.impact_residual((np.full(o_p.size, eps), o_p), pair,
                                                pair.M, pair.eta)
    for _ in range(10):
        for parity, zero_of in ((-1, "velocity"), (1, "position")):
            pair = _parity_pair(n, rng, np.full(n, parity))
            phantoms = _phantoms(pair, zero_of, 3 * np.pi + 0.1)
            if parity == -1:   # away from the phantoms, where N = 2's free rows vanish
                away = np.abs(o_p[:, None] - np.r_[0.0, phantoms]).min(axis=1) > 0.05
                np.testing.assert_array_less(np.abs(line(pair, 1e-6)[1])[away],
                                             0.05 * np.abs(line(pair, 1e-4)[1])[away] + 1e-13)
            else:
                assert np.abs(line(pair, 1e-6)[1]).max() > 1e-3
            if parity == -1 and n == 2 or not phantoms.size:
                continue
            at = lambda eps: np.abs(cl.impact_residual(
                (np.full(len(phantoms), eps), phantoms), pair, pair.M, pair.eta)).max(axis=0)
            np.testing.assert_array_less(at(1e-6), 0.05 * at(1e-4) + 1e-13)
            gap, corner = impact._phantom_corners(np.column_stack(
                [np.full(len(phantoms), 0.01), phantoms]), pair)
            np.testing.assert_allclose(gap, 0.01, rtol=1e-9)
            np.testing.assert_allclose(corner, phantoms, rtol=1e-12)
        mixed = _parity_pair(n, rng, rng.permutation(np.r_[1, -1, rng.choice([-1, 1], n - 2)]))
        assert np.isinf(impact._phantom_corners(np.column_stack([np.full(o_p.size, 1e-6), o_p]),
                                                mixed)[0]).all()
        assert np.abs(line(mixed, 1e-6)[1]).max() > 1e-3


def test_refinement_stops_before_a_certifiable_corner():
    # the solve benchmark's n5-ref-0: every free kernel odd and the top contact
    # kernel even, so (0, pi/2) is a phantom.  The rank test certifies it: from
    # this seed refinement used to converge to o_N = 5.2e-13 in 37 iterations
    # and build_solution to accept it with rank gap 7.8e-14
    rng = np.random.default_rng(20240226)
    for n in (3, 4, 5):
        _, spectral = random_spd_model(n, rng)
    assert (spectral.sigma == 1).all() and spectral.sigma_prime[-1] == -1
    tau, tau_prime = spectral.from_phase(5e-13, np.pi / 2)
    phantom = cl.ImpactTimes(tau, tau_prime, 5e-13, np.pi / 2, (0.0, 0.0))
    assert cl.build_solution(spectral, phantom).rank_gap < 1e-12
    with pytest.raises(cl.ConvergenceError, match=re.escape(
            "refinement reached the phantom corner (0, o'_c = 1.5708) in iteration 1"
            " at o = [0.075, 1.525] (residual 5.10e-04)")):
        cl.refine_root((0.075, 1.525), spectral, spectral.M, spectral.eta)
    # the corner test comes before the convergence test: a seed on the phantom ends there too
    with pytest.raises(cl.ConvergenceError, match=r"phantom corner .* in iteration 1 at o = \[5e-13"):
        cl.refine_root((5e-13, np.pi / 2), spectral, spectral.M, spectral.eta)
    # the armed biped (every free kernel even) ran its corner seed for all 100 iterations
    biped = cl.analyze(cl.build_armed_biped())
    outcomes = cl.refine_roots(cl.scan_contour(biped).seeds, biped, biped.M, biped.eta)
    corner = [str(o) for o in outcomes if isinstance(o, cl.ConvergenceError)]
    assert len(corner) == 1 and "phantom corner (0, o'_c = 1.5708)" in corner[0]


def test_refine_roots_shares_residual_calls(biped_spectral, monkeypatch):
    # every iteration serves all active seeds with at most two calls
    spectra = biped_spectral.spectra
    seeds = cl.scan_contour(spectra).seeds
    calls = _counting_residual(monkeypatch)
    assert cl.refine_roots(np.empty((0, 2)), spectra, spectra.M, spectra.eta) == []
    assert calls == []
    outcomes = cl.refine_roots(seeds, spectra, spectra.M, spectra.eta)
    assert len(seeds) == 7 and not any("stalled" in str(o) for o in outcomes)
    # a seed that does not converge runs all max_iter iterations
    largest = max(o.iterations if isinstance(o, cl.ImpactTimes) else 100 for o in outcomes)
    assert calls[0] == 7 and len(calls) <= 1 + 2 * largest
    lockstep = len(calls)
    calls.clear()
    for seed in seeds:
        _outcome(cl.refine_root, seed, spectra, spectra.M, spectra.eta, 100)
    assert lockstep < len(calls)


def test_singular_jacobian_stops_only_its_seed(biped_spectral, monkeypatch):
    # the probe along o_N returns the base residual at one seed, so its J has a zero column
    spectra = biped_spectral.spectra
    seeds = cl.scan_contour(spectra).seeds
    target = seeds[3]
    residual = cl.impact_residual

    def stub(o, *args):
        R = residual(o, *args)
        at = (o[0][..., 0] == target[0]) & (o[1][..., 0] == target[1])
        R[:, at, 1] = R[:, at, 0]
        return R

    monkeypatch.setattr("collisionless.impact.impact_residual", stub)
    together = cl.refine_roots(seeds, spectra, spectra.M, spectra.eta)
    alone = [_outcome(cl.refine_root, s, spectra, spectra.M, spectra.eta, 100) for s in seeds]
    assert str(together[3]) == alone[3] == "singular Jacobian during refinement"
    assert sum(isinstance(o, cl.ImpactTimes) for o in together) == 5
    for outcome, expected in zip(together, alone):
        assert (str(outcome) if isinstance(outcome, cl.ConvergenceError) else outcome) == expected


def test_refine_root_at_most_two_residual_calls_per_iteration(monkeypatch):
    # the stalled seed backtracks deeply; the candidate loop pays one call per
    # halving, the library one call for the full step and one for all
    # remaining halvings
    spectra, seed = _stall_case()
    M, eta_vec = spectra.M, spectra.eta
    expected = _outcome(_refine_root_loop, seed, spectra, M, eta_vec, 40)
    # the stall happens in iteration 6: with 5 it runs out of iterations first
    stall = 6
    assert expected.startswith(f"refinement stalled in iteration {stall} at o = ")
    assert "no convergence" in _outcome(cl.refine_root, seed, spectra, M, eta_vec, stall - 1)
    calls = _counting_residual(monkeypatch)
    assert _outcome(cl.refine_root, seed, spectra, M, eta_vec, 40) == expected
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


def _refined_roots():
    """(label, spectral, refined roots before certification) of the biped, the stiff model
    and seeded random N = 3..6 models; certification refuses some of the roots."""
    models = [cl.build_armed_biped(), stiff_hyperbolic_model()]
    rng = np.random.default_rng(7)
    models += [random_spd_model(n, rng, name=f"random{n}-{i}")[0]
               for i in range(2) for n in (3, 4, 5, 6)]
    for model in models:
        spectral = cl.analyze(model)
        if not cl.existence_gate(spectral.lam_prime):
            continue
        seeds = cl.scan_contour(spectral).seeds
        outcomes = cl.refine_roots(seeds, spectral, spectral.M, spectral.eta)
        yield model.name, spectral, [t for t in outcomes if isinstance(t, cl.ImpactTimes)]


def _certificate(outcome):
    """An ImpactSolution's fields as bits, or a refusal's type and message."""
    if isinstance(outcome, cl.ImpactSolution):
        assert type(outcome.rank_gap) is float and type(outcome.weight_residual) is float
        return float_bits(outcome.to_dict())
    return type(outcome).__name__, str(outcome)


def test_build_solutions_matches_one_root_at_a_time():
    # one SVD call for every refined root of a scan gives each root's certificate or refusal
    # bit for bit as it gets alone, in either order
    certified = refused = 0
    for label, spectral, roots in _refined_roots():
        together = [_certificate(o) for o in cl.build_solutions(spectral, roots)]
        alone = []
        for times in roots:
            try:
                alone.append(_certificate(cl.build_solution(spectral, times)))
            except cl.DegenerateSolutionError as exc:
                alone.append(_certificate(exc))
        assert together == alone, label
        backwards = [_certificate(o) for o in cl.build_solutions(spectral, roots[::-1])]
        assert backwards == together[::-1], label
        refused += sum(isinstance(c, tuple) for c in alone)
        certified += sum(isinstance(c, dict) for c in alone)
    assert certified > 20 and refused > 5
    assert cl.build_solutions(spectral, []) == []


def _certified_models():
    """The biped, those of the first 15 seed-1 random draws with existence, the stiff model."""
    yield cl.build_armed_biped()
    rng = np.random.default_rng(1)
    for i in range(15):
        model, spectral = random_spd_model(3 + i % 4, rng, name=f"draw{i}")
        if cl.existence_gate(spectral.lam_prime):
            yield model
    yield stiff_hyperbolic_model()


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
    kernels = impact._mode_kernels

    def counting(*args):
        calls.append(args)
        return kernels(*args)

    monkeypatch.setattr("collisionless.impact._mode_kernels", counting)
    cl.build_solution(biped_spectral, biped_root)
    assert len(calls) == 2


def test_build_solution_records_everything(biped_solution, biped_root):
    assert biped_solution.times is biped_root
    assert biped_solution.rank_gap < 1e-6
    payload = biped_solution.to_dict()
    assert payload["tau"] == biped_root.tau
    assert len(payload["q"]) == 3 and len(payload["q_prime"]) == 2
