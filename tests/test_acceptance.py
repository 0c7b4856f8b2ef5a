"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
PASS lines as they complete.
"""

import json
import time

import numpy as np
import pytest

import collisionless as cl
from collisionless.cli import main as cli_main
from collisionless.reference import REFERENCE
from helpers import (
    cauchy_inputs,
    near_critical_spectra,
    non_pole_times,
    random_interlaced_nodes,
    random_rocker_freqs,
    random_spd_model,
)


def _report(number, text):
    print(f"\nACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_reference_reproduction():
    started = time.perf_counter()
    model = cl.build_armed_biped()
    spectral = cl.analyze(model)
    run = cl.solve_model(model)
    record = cl.pick_records(run, "lowest-row")[0]
    solution = record.solution

    np.testing.assert_allclose(spectral.lam, REFERENCE["lam"], atol=1e-4)
    np.testing.assert_allclose(spectral.lam_prime, REFERENCE["lam_prime"], atol=1e-4)
    assert spectral.norm_const == pytest.approx(REFERENCE["norm_const"], abs=1e-5)
    M = cl.cauchy_matrix(spectral.lam, spectral.lam_prime)
    np.testing.assert_allclose(M, REFERENCE["cauchy"], atol=1e-4)
    np.testing.assert_allclose(spectral.mode_matrix, REFERENCE["mode_matrix"], atol=1e-3)
    assert solution.times.tau == pytest.approx(REFERENCE["tau"], abs=5e-4)
    assert solution.times.tau_prime == pytest.approx(REFERENCE["tau_prime"], abs=5e-5)
    np.testing.assert_allclose(solution.q, REFERENCE["q"], rtol=1e-4)
    np.testing.assert_allclose(solution.q_prime, REFERENCE["q_prime"], rtol=1e-4)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report(1, f"unit armed-biped reproduction in {elapsed:.1f}s "
               f"(tau={solution.times.tau:.5f}, tau'={solution.times.tau_prime:.6f})")


def test_criterion_2_n2_oracle_agreement():
    rng = np.random.default_rng(2024)
    # low contact-phase floor: shallow rolling branches can sit at o' ~ 0.03
    grid = cl.GridSpec(o_n_max=4 * np.pi, o_p_max=1.75, step=0.04, o_p_min=0.01)
    worst = 0.0
    checked = 0
    for family, solver, branches in (
        ("rocker", cl.solve_rocker, (2, 3, 4)),
        ("rimless", cl.solve_rimless, (1, 2, 3)),
    ):
        for _ in range(50):
            nu1, om2, om1p = random_rocker_freqs(rng)
            pair = cl.n2_spectrum(family, nu1=nu1, omega2=om2, omega1p=om1p)
            M, eta_vec = cauchy_inputs(pair)
            field = cl.scan_contour(pair, grid)
            roots = [(t.o_n, t.o_prime)
                     for t in cl.refine_roots(field.seeds, pair, M, eta_vec, max_iter=40)
                     if not isinstance(t, cl.ConvergenceError)]
            assert roots, f"no generic roots found for {family} {nu1, om2, om1p}"
            roots = np.array(roots)
            for n in branches:
                sol = solver(nu1, om2, om1p, n)
                if sol.o_2 > grid.o_n_max - 0.2 or sol.o_prime_1 < 0.03:
                    continue  # branch outside the scanned window
                gaps = np.abs(roots - [sol.o_2, sol.o_prime_1]).max(axis=1)
                delta = gaps.min()
                assert delta < 1e-8, f"{family} n={n}: |delta o| = {delta:.2e}"
                worst = max(worst, delta)
                checked += 1
    # hopper/juggler closed forms satisfy their impact equations
    worst_resid = 0.0
    for _ in range(50):
        om2 = rng.uniform(0.5, 3.0)
        om1p = om2 * rng.uniform(0.2, 0.9)
        n = int(rng.integers(2, 6))
        for solver in (cl.solve_hopper, cl.solve_juggler):
            sol = solver(om2, om1p, n)
            r1 = sol.o_2 / np.tan(sol.o_2) - 1.0
            r2 = sol.mu * sol.o_prime_1 / np.tan(sol.o_prime_1) + 1.0
            worst_resid = max(worst_resid, abs(r1), abs(r2))
    assert worst_resid < 1e-12
    _report(2, f"{checked} matched branches, worst |delta o| = {worst:.1e}; "
               f"hopper residuals <= {worst_resid:.1e}")


def test_criterion_3_rank_drop(biped_run, rocker_model):
    gaps_at_roots = [r.solution.rank_gap for r in biped_run.records]
    rocker_run = cl.solve_model(rocker_model, cl.GridSpec(o_n_max=8.0, o_p_max=1.2))
    gaps_at_roots += [r.solution.rank_gap for r in rocker_run.records]
    assert max(gaps_at_roots) < 1e-6

    spectral = biped_run.spectral
    spectra = spectral.spectra
    known = np.array(
        [[r.solution.times.o_n, r.solution.times.o_prime] for r in biped_run.records]
    )
    rng = np.random.default_rng(3)
    worst_nonroot = np.inf
    count = 0
    while count < 100:
        o = np.array([rng.uniform(0.3, 4 * np.pi), rng.uniform(0.3, 2 * np.pi)])
        if np.abs(known - o).max(axis=1).min() < 0.05:
            continue
        tau, taup = spectra.from_phase(*o)
        _, gap = cl.assemble_impact_matrix(spectral, tau, taup)
        worst_nonroot = min(worst_nonroot, gap)
        count += 1
    assert worst_nonroot > 1e-3
    _report(3, f"rank gap <= {max(gaps_at_roots):.1e} at {len(gaps_at_roots)} roots; "
               f">= {worst_nonroot:.1e} at 100 non-roots")


def test_criterion_4_reduction_identity(biped_spectral, rocker_model):
    rng = np.random.default_rng(4)
    models = {
        2: cl.analyze(rocker_model),
        3: biped_spectral,
        5: random_spd_model(5, rng)[1],
    }
    worst = 0.0
    for n_dof, spectral in models.items():
        for _ in range(20):
            tau, taup = non_pole_times(spectral, rng)
            worst = max(worst, cl.reduction_gap(spectral, tau, taup))
    assert worst < 1e-9
    _report(4, f"reduction identity deviation <= {worst:.1e} over 20 points x N in (2,3,5)")


def test_criterion_5_cauchy_algebra(biped_spectral, rocker_model):
    rng = np.random.default_rng(5)
    worst_inv = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 13))
        x, y = random_interlaced_nodes(n + 1, rng, min_gap=1e-3)
        x, y = x[:n], y[:n]
        dense = np.linalg.inv(cl.cauchy_matrix(x, y))
        ours = cl.cauchy_inverse(x, y)
        worst_inv = max(worst_inv, np.abs(ours - dense).max() / np.abs(dense).max())
    assert worst_inv < 1e-8

    spectrals = [biped_spectral, cl.analyze(rocker_model)]
    for n_dof in (2, 3, 5):
        spectrals.append(random_spd_model(n_dof, rng)[1])
    worst_eta = 0.0
    for spectral in spectrals:
        eta_vec = cl.eta(spectral.lam, spectral.lam_prime)
        row_sq = spectral.mode_matrix[-1, :] ** 2
        worst_eta = max(worst_eta, np.abs(eta_vec / row_sq - 1.0).max())
    assert worst_eta < 1e-8
    _report(5, f"inverse rel err <= {worst_inv:.1e} over 200 spectra; "
               f"eta vs squared contact row <= {worst_eta:.1e}")


def test_criterion_6_trajectory_physics(biped_run):
    record = cl.pick_records(biped_run, "lowest-row")[0]
    traj = cl.synthesize(record.solution, samples_per_phase=1000)
    assert traj.t.size == 2001
    energy_variation = (traj.energy.max() - traj.energy.min()) / np.abs(traj.energy).max()
    assert energy_variation < 1e-9
    report = cl.validate(record.solution, biped_run.model)
    assert report.passed
    assert report.impact_velocity_residual < 1e-8 * np.abs(traj.xdot).max()
    assert report.impact_accel_residual < 1e-8 * np.abs(traj.xddot).max()
    assert report.continuity_residual < 1e-10
    scale_x = np.abs(traj.x[:, -1] - biped_run.spectral.static_offset[-1]).max()
    assert report.penetration_violation > -1e-8 * scale_x
    force_scale = np.nanmax(np.abs(traj.constraint_force))
    assert report.contact_force_violation > -1e-8 * force_scale

    second_row = [r for r in biped_run.records if r.row == 1]
    assert second_row and all(
        not r.report.passed and r.report.contact_force_violation < 0
        for r in second_row
    )
    _report(6, f"energy variation {energy_variation:.1e}; impact residuals "
               f"({report.impact_velocity_residual:.1e}, {report.impact_accel_residual:.1e}); "
               f"second-row contact-force violation "
               f"{second_row[0].report.contact_force_violation:.3f} < 0")


def test_criterion_7_critical_region():
    started = time.perf_counter()
    rng = np.random.default_rng(7)

    # (a) monotone approach of the contact rate to c0 as the gap closes
    for n_dof in (3, 4):
        spectra0 = near_critical_spectra(n_dof, 0.0, rng)
        anchor = cl.large_tau_asymptote(3, spectra0)
        gaps = []
        for eps in (1e-1, 1e-2, 1e-3):
            lamp = np.array(spectra0.lam_prime)
            lamp[-1] = eps
            spectra = cl.SpectrumPair(spectra0.lam, lamp, spectra0.sigma, spectra0.sigma_prime)
            M, eta_vec = cauchy_inputs(spectra)
            seed = (anchor.o_n, cl.predicted_contact_phase(anchor.c0, eps, 1))
            root = cl.refine_root(seed, spectra, M, eta_vec)
            w_top = cl.phase_rate(root.tau_prime, [eps], [1])[0]
            gaps.append(abs(w_top - anchor.c0))
        assert gaps[0] > gaps[1] > gaps[2], f"N={n_dof}: {gaps}"

    # (b) asymptotic grid points refine with small displacement
    spectra4 = near_critical_spectra(4, 0.01, rng)
    M4, eta4 = cauchy_inputs(spectra4)
    worst_disp = 0.0
    for n in (3, 4, 5, 6):
        point = cl.large_tau_asymptote(n, spectra4)
        root = cl.refine_root((point.o_n, point.o_prime), spectra4, M4, eta4)
        disp = max(abs(root.o_n - point.o_n), abs(root.o_prime - point.o_prime))
        worst_disp = max(worst_disp, disp)
    assert worst_disp < 0.2

    # (c) randomized positivity studies
    min_c0 = np.inf
    for n_dof in (2, 3, 5):
        summary = cl.c0_sampling_study(1000, n_dof, seed=42)
        assert summary.failures == 0
        assert summary.nonpositive == 0
        min_c0 = min(min_c0, summary.min_c0)
    assert min_c0 > 0
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report(7, f"monotone approach holds; asymptote displacement <= {worst_disp:.2f}; "
               f"3000-sample min c0 = {min_c0:.4f}; {elapsed:.1f}s")


def test_criterion_8_existence_gate(tmp_path, no_existence_model):
    config = tmp_path / "sunk.json"
    config.write_text(json.dumps(no_existence_model.to_config()))
    assert cli_main(["solve", "--config", str(config)]) == 2

    # boundary case: top contact eigenvalue exactly zero
    boundary = cl.ModelSpec(
        name="boundary", n=2, mass=np.eye(2), stiffness=[[0.0, 1.0], [1.0, 1.0]],
        sigma=[-1, -1], sigma_prime=[1], static_force=1.0, contact_sign=1,
    )
    config2 = tmp_path / "boundary.json"
    config2.write_text(json.dumps(boundary.to_config()))
    assert cli_main(["solve", "--config", str(config2)]) == 2

    base = cl.solve_rocker(1.0, 2.0, 0.5, 2)
    shrunk = cl.solve_rocker(1.0, 2.0, 0.05, 2)  # contact eigenvalue / 100
    ratio = shrunk.tau_prime / base.tau_prime
    assert ratio >= 10.0
    _report(8, f"gate exit code 2 for negative and zero top contact eigenvalues; "
               f"contact time grew {ratio:.1f}x when the eigenvalue shrank 100x")
