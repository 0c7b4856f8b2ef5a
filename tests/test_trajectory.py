import json

import numpy as np
import pytest

import collisionless as cl
from collisionless import trajectory
from helpers import random_spd_model


@pytest.fixture(scope="module")
def biped_traj(biped_solution):
    return cl.synthesize(biped_solution, samples_per_phase=400)


def test_sample_layout(biped_traj, biped_solution):
    times = biped_solution.times
    assert biped_traj.t.size == 2 * 400 + 1
    assert np.all(np.diff(biped_traj.t) > 0)
    assert biped_traj.t[0] == 0.0
    assert biped_traj.t[-1] == pytest.approx(times.tau + times.tau_prime)
    assert biped_traj.tau_mark == times.tau
    assert np.sum(biped_traj.phase == 0) == 401
    assert np.sum(biped_traj.phase == 1) == 400
    free = biped_traj.phase == 0
    assert np.all(np.isnan(biped_traj.constraint_force[free]))
    assert np.all(np.isfinite(biped_traj.constraint_force[~free]))


def test_contact_coordinate_constant(biped_traj, biped_spectral):
    contact = biped_traj.phase == 1
    level = biped_spectral.static_offset[-1]
    assert np.abs(biped_traj.x[contact, -1] - level).max() < 1e-12


def test_symmetry_point_structure(biped_traj):
    # every free mode is even for the biped: velocities vanish at t = 0
    assert np.abs(biped_traj.xdot[0]).max() < 1e-12
    # every contact mode is odd: positions sit at the static offset at the end
    level_x = biped_traj.meta.spectral.static_offset
    assert np.abs(biped_traj.x[-1] - level_x).max() < 1e-12


def test_odd_free_modes_start_at_zero_position():
    # rolling family: odd free kernels put positions (not velocities) at zero
    pair = cl.n2_spectrum("rimless", nu1=0.8, omega2=2.0, omega1p=1.1)
    model = cl.n2_model(pair, static_force=1.0)
    run = cl.solve_model(model, cl.GridSpec(o_n_max=7.0, o_p_max=1.5))
    record = run.records[0]
    traj = cl.synthesize(record.solution, 100)
    assert np.abs(traj.x[0]).max() < 1e-12 * max(np.abs(traj.x).max(), 1.0)


def test_acceleration_cusp_at_impact(biped_traj, biped_spectral, biped_solution):
    # xdd continuous across the impact, but its slope (jerk) jumps
    times = biped_solution.times
    q, qp = biped_solution.q, biped_solution.q_prime
    g, gd = cl.mode_motion_vec(times.tau, biped_spectral.lam, biped_spectral.sigma)
    jerk_free = biped_spectral.mode_matrix @ (q * (-biped_spectral.lam * gd))
    gp, gpd = cl.mode_motion_vec(-times.tau_prime, biped_spectral.lam_prime,
                                 biped_spectral.sigma_prime)
    jerk_contact = biped_spectral.mode_matrix_prime @ (qp * (-biped_spectral.lam_prime * gpd))
    scale = max(np.abs(jerk_free).max(), np.abs(jerk_contact).max())
    assert np.abs(jerk_free - jerk_contact).max() > 1e-3 * scale
    # while acceleration itself is continuous
    xdd_free = biped_spectral.mode_matrix @ (q * (-biped_spectral.lam * g))
    xdd_contact = biped_spectral.mode_matrix_prime @ (qp * (-biped_spectral.lam_prime * gp))
    assert np.abs(xdd_free - xdd_contact).max() < 1e-8 * scale


def test_energy_constant(biped_spectral, biped_solution):
    traj = cl.synthesize(biped_solution, samples_per_phase=1000)
    variation = (traj.energy.max() - traj.energy.min()) / np.abs(traj.energy).max()
    assert variation < 1e-9


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_energy_constant_within_each_phase_for_any_weights(n):
    # free: a sum of constant modal energies; contact: the constraint force does no work
    rng = np.random.default_rng(60 + n)
    for _ in range(5):
        _, spectral = random_spd_model(n, rng)
        tau, tau_prime = rng.uniform(0.3, 3.0, 2)
        q, q_prime = rng.standard_normal(n), rng.standard_normal(n - 1)
        free = trajectory._free_state(spectral, q, np.linspace(-tau, tau, 2001))
        contact = trajectory._contact_state(
            spectral, q_prime, np.linspace(-tau_prime, tau_prime, 2001)
        )
        for x, xd, _ in (free, contact):
            kinetic = 0.5 * np.einsum("ij,jk,ik->i", xd, spectral.mass_matrix, xd)
            potential = 0.5 * np.einsum("ij,jk,ik->i", x, spectral.stiffness_matrix, x)
            energy = trajectory._energy(spectral, x, xd)
            # relative to the terms, not to |E|: kinetic and potential may nearly cancel
            scale = max(kinetic.max(), np.abs(potential).max())
            assert energy.max() - energy.min() <= 1e-12 * scale


def _sampled_energy_variation(solution):
    """Energy variation over 2 x CHECK_SAMPLES rows sampled on both full phases."""
    spectral, times = solution.spectral, solution.times
    free = trajectory._free_state(
        spectral, solution.q, np.linspace(-times.tau, times.tau, trajectory.CHECK_SAMPLES)
    )
    contact = trajectory._contact_state(
        spectral, solution.q_prime,
        np.linspace(-times.tau_prime, times.tau_prime, trajectory.CHECK_SAMPLES),
    )
    energy = trajectory._energy(spectral, np.vstack([free[0], contact[0]]),
                                np.vstack([free[1], contact[1]]))
    return (energy.max() - energy.min()) / np.abs(energy).max()


def _off_root_solution(spectral, times):
    """An ImpactSolution at times that are no root, which build_solution refuses.

    The weights solve the square top-left (2N-1) block of the matching matrix
    for [x0; 0], so the trajectory meets the positions and the free
    velocities at the impact but not the contact-phase conditions.
    """
    n = spectral.n
    A, rank_gap = cl.assemble_impact_matrix(spectral, times.tau, times.tau_prime)
    W = A[: 2 * n - 1, : 2 * n - 1]
    rhs = np.concatenate([spectral.static_offset, np.zeros(n - 1)])
    weights = np.linalg.solve(W, rhs)
    return cl.ImpactSolution(
        times=times, q=weights[:n], q_prime=weights[n:], spectral=spectral,
        rank_gap=rank_gap, weight_residual=float(np.abs(W @ weights - rhs).max()),
    )


def test_energy_jump_at_impact_matches_sampled_variation(biped_run, biped, biped_spectral):
    assert len(biped_run.records) == 6
    for record in biped_run.records:
        reference = _sampled_energy_variation(record.solution)
        assert abs(cl.validate(record.solution, biped).energy_variation - reference) <= 1e-11
    # off a root the energy jumps at the impact, and the jump is the sampled variation
    times = biped_run.records[0].solution.times
    for shift in (1e-3, 1e-2):
        detuned = _off_root_solution(biped_spectral, cl.ImpactTimes(
            tau=times.tau + shift,
            tau_prime=times.tau_prime,
            o_n=times.o_n + shift * biped_spectral.spectra.omega_top,
            o_prime=times.o_prime,
            residual=(np.nan, np.nan),
        ))
        reference = _sampled_energy_variation(detuned)
        assert reference > 1e-3
        assert cl.validate(detuned, biped).energy_variation == pytest.approx(reference, rel=1e-11)


def test_validation_passes_on_bottom_root(biped_traj, biped_solution, biped):
    report = cl.validate(biped_solution, biped)
    assert report.passed
    assert report.impact_velocity_residual < 1e-8 * np.abs(biped_traj.xdot).max()
    assert report.impact_accel_residual < 1e-8 * np.abs(biped_traj.xddot).max()
    assert report.continuity_residual < 1e-10
    assert report.energy_variation < 1e-9
    assert report.penetration_violation >= -1e-10
    assert report.contact_force_violation >= -1e-10


def test_validation_fails_on_detuned_root(biped_spectral, biped_solution, biped):
    times = biped_solution.times
    detuned = cl.ImpactTimes(
        tau=times.tau + 1e-3,
        tau_prime=times.tau_prime,
        o_n=times.o_n + 1e-3 * biped_spectral.spectra.omega_top,
        o_prime=times.o_prime,
        residual=(np.nan, np.nan),
    )
    solution = _off_root_solution(biped_spectral, detuned)
    traj = cl.synthesize(solution, 200)
    report = cl.validate(solution, biped)
    assert not report.passed
    assert report.impact_velocity_residual > 1e-8 * np.abs(traj.xdot).max()


def test_second_row_root_fails_contact_force(biped_run):
    second_row = [r for r in biped_run.records if r.row == 1]
    assert second_row
    for record in second_row:
        assert not record.report.passed
        assert record.report.contact_force_violation < -0.1
        # the failure is attractive force, not penetration
        assert record.report.penetration_violation > -1e-8


@pytest.mark.parametrize("name", ["velocity", "acceleration", "continuity", "energy", "contact"])
@pytest.mark.parametrize("value", [0.0, -1e-8, np.nan, np.inf, "1e-8"])
def test_tolerances_must_be_positive_and_finite(name, value):
    with pytest.raises(cl.InvalidParameterError, match=name):
        cl.ValidatorTolerances(**{name: value})


def test_validate_rejects_dimension_mismatch(biped_solution, rocker_model):
    with pytest.raises(cl.InvalidParameterError):
        cl.validate(biped_solution, rocker_model)


def test_csv_export(tmp_path, biped_traj):
    path = tmp_path / "traj.csv"
    cl.to_csv(biped_traj, path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + biped_traj.t.size
    header = lines[0].split(",")
    assert header[:2] == ["t", "phase"]
    assert header[-2:] == ["energy", "constraint_force"]
    first = lines[1].split(",")
    assert first[1] == "unconstrained"
    assert first[-1] == ""  # no constraint force in the free phase
    # velocities at t=0 are zero for the all-even biped modes
    assert all(abs(float(v)) < 1e-12 for v in first[5:8])


def test_json_roundtrip_bitwise(tmp_path, biped_traj):
    path = tmp_path / "traj.json"
    cl.to_json(biped_traj, path)
    clone = cl.trajectory_from_json(path)
    for attr in ("t", "phase", "x", "xdot", "xddot", "energy"):
        assert np.array_equal(getattr(clone, attr), getattr(biped_traj, attr))
    assert np.array_equal(
        clone.constraint_force, biped_traj.constraint_force, equal_nan=True
    )
    assert clone.tau_mark == biped_traj.tau_mark
    assert clone.meta.times == biped_traj.meta.times
    assert np.array_equal(clone.meta.q, biped_traj.meta.q)
    assert np.array_equal(clone.meta.spectral.mode_matrix, biped_traj.meta.spectral.mode_matrix)
    # and the clone still validates identically
    report = cl.validate(clone.meta, cl.build_armed_biped())
    assert report.passed


def test_json_derives_tau_mark_and_phase(tmp_path, biped_traj):
    # stored tau_mark and phase keys are ignored: both are derived from the solution
    path = tmp_path / "traj.json"
    cl.to_json(biped_traj, path)
    payload = json.loads(path.read_text())
    payload["tau_mark"] = 123.0
    payload["phase"] = [1] * biped_traj.t.size
    path.write_text(json.dumps(payload))
    clone = cl.trajectory_from_json(path)
    assert clone.tau_mark == biped_traj.meta.times.tau
    assert np.array_equal(clone.phase, biped_traj.phase)


def test_json_rejects_edited_phase_of_non_symmetric_model(tmp_path):
    # draw 0 (N = 3, sigma = [1, -1, 1]): its square weight block stays regular off
    # the root, so only the rank gap tells that the edited phases are no root
    model, spectral = random_spd_model(3, np.random.default_rng(1))
    assert list(spectral.sigma) == [1, -1, 1]
    run = cl.solve_model(model)
    path = tmp_path / "traj.json"
    cl.to_json(cl.synthesize(run.records[0].solution, 20), path)
    payload = json.loads(path.read_text())
    payload["solution"]["o_n"] += 0.5
    path.write_text(json.dumps(payload))
    with pytest.raises(cl.InvalidParameterError,
                       match="stored o_n and o_prime give no solution"):
        cl.trajectory_from_json(path)


def test_svg_export(tmp_path, biped_traj):
    path = tmp_path / "traj.svg"
    cl.to_svg(biped_traj, path)
    svg = path.read_text()
    assert svg.count("<polyline") >= 3 * biped_traj.n
    assert "<line" in svg  # impact marker


@pytest.mark.parametrize("samples", [2.5, True, 0, -1, None])
def test_synthesize_rejects_non_integer_sample_count(biped_solution, samples):
    with pytest.raises(cl.InvalidParameterError, match="samples_per_phase"):
        cl.synthesize(biped_solution, samples_per_phase=samples)
