import json

import numpy as np
import pytest

import collisionless as cl
from collisionless import trajectory
from helpers import float_bits, random_spd_model, stiff_hyperbolic_model


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
    model = cl.model_from_spectra(pair, static_force=1.0)
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
        free = trajectory._phase_state(spectral, 0, q, np.linspace(-tau, tau, 2001))
        contact = trajectory._phase_state(
            spectral, 1, q_prime, np.linspace(-tau_prime, tau_prime, 2001)
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
    free = trajectory._phase_state(
        spectral, 0, solution.q, np.linspace(-times.tau, times.tau, trajectory.CHECK_SAMPLES)
    )
    contact = trajectory._phase_state(
        spectral, 1, solution.q_prime,
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


def _reference_validate(solution, model):
    """``validate`` by direct kernels on np.linspace samples of both full phases.

    Returns the report fields as a dict, with the clearance and force scales.
    """
    tol = cl.ValidatorTolerances()
    spectral, times = solution.spectral, solution.times
    tau, taup = times.tau, times.tau_prime
    x_f, xd_f, xdd_f = trajectory._phase_state(spectral, 0, solution.q, np.array([tau]))
    x_c, xd_c, _ = trajectory._phase_state(spectral, 1, solution.q_prime, np.array([-taup]))
    v_resid, a_resid = abs(xd_f[0, -1]), abs(xdd_f[0, -1])
    continuity = max(np.abs(x_f[0] - x_c[0]).max(), np.abs(xd_f[0] - xd_c[0]).max())
    e_free = trajectory._energy(spectral, x_f, xd_f)
    e_contact = trajectory._energy(spectral, x_c, xd_c)
    energy_var = float(np.abs(e_free - e_contact)[0] / trajectory._scale(e_free, e_contact))
    samples = trajectory.CHECK_SAMPLES
    free = trajectory._phase_state(spectral, 0, solution.q, np.linspace(-tau, tau, samples))
    contact = trajectory._phase_state(spectral, 1, solution.q_prime,
                                      np.linspace(-taup, taup, samples))
    xd_scale = trajectory._scale(free[1], contact[1])
    clearance = model.contact_sign * (free[0][:, -1] - spectral.static_offset[-1])
    force = model.contact_sign * (contact[2] @ model.mass[-1] + contact[0] @ model.stiffness[-1])
    clearance_scale, force_scale = trajectory._scale(clearance), trajectory._scale(force)
    passed = (
        v_resid < tol.velocity * xd_scale
        and a_resid < tol.acceleration * trajectory._scale(free[2], contact[2])
        and continuity < tol.continuity * max(trajectory._scale(free[0], contact[0]), xd_scale)
        and energy_var < tol.energy
        and clearance.min() >= -tol.contact * clearance_scale
        and force.min() >= -tol.contact * force_scale
    )
    report = dict(
        impact_velocity_residual=float(v_resid),
        impact_accel_residual=float(a_resid),
        continuity_residual=float(continuity),
        energy_variation=energy_var,
        penetration_violation=float(clearance.min()),
        contact_force_violation=float(force.min()),
        passed=bool(passed),
    )
    return report, clearance_scale, force_scale


def _reference_runs():
    """The biped on the default grid and at o_p_max = 3 pi, the stiff model, random N = 3..6."""
    biped = cl.build_armed_biped()
    yield "biped", cl.solve_model(biped)
    yield "biped-wide", cl.solve_model(biped, cl.GridSpec(o_p_max=3 * np.pi))
    yield "stiff", cl.solve_model(stiff_hyperbolic_model())
    rng = np.random.default_rng(11)
    for n in (3, 4, 5, 6) * 3:
        model, spectral = random_spd_model(n, rng, name=f"random{n}")
        if cl.existence_gate(spectral.lam_prime):
            try:
                yield model.name, cl.solve_model(model)
            except cl.ConvergenceError:
                continue


def test_validate_matches_direct_linspace_reference():
    # the addition-theorem grid decides as the direct samples do: the same verdict, the
    # impact fields bit for bit, and the two violations within 1e-12 of their scales.  A
    # record the first tier fails carries the minima of the grid's 51 direct samples instead:
    # none is more than 1e-12 of its scale below the direct minimum, and one lies below
    # -tol times its scale
    tol = cl.ValidatorTolerances().contact
    records = first_tier = 0
    for label, run in _reference_runs():
        for record in run.records:
            got = record.report.to_dict()
            want, clearance_scale, force_scale = _reference_validate(record.solution, run.model)
            assert got["passed"] == want["passed"], label
            for key in ("impact_velocity_residual", "impact_accel_residual",
                        "continuity_residual", "energy_variation"):
                assert got[key] == want[key], (label, key)
            keys = ("penetration_violation", "contact_force_violation")
            scales = (clearance_scale, force_scale)
            if got["check_samples"] == trajectory.CHECK_SAMPLES:
                for key, scale in zip(keys, scales):
                    assert abs(got[key] - want[key]) <= 1e-12 * scale, (label, key)
            else:
                assert got["check_samples"] == 51 and not want["passed"], label
                for key, scale in zip(keys, scales):
                    assert got[key] >= want[key] - 1e-12 * scale, (label, key)
                assert any(got[key] < -tol * scale for key, scale in zip(keys, scales)), label
                first_tier += 1
            records += 1
    assert records >= 100 and first_tier > 0


def _tier_cases():
    """(model, solution) pairs: the records of the biped, the stiff model and random N = 2..6
    models, and off-root solutions detuned from each of them."""
    rng = np.random.default_rng(21)
    runs = [cl.solve_model(cl.build_armed_biped()), cl.solve_model(stiff_hyperbolic_model())]
    for n in (2, 3, 4, 5, 6) * 2:
        model, spectral = random_spd_model(n, rng, name=f"random{n}")
        if cl.existence_gate(spectral.lam_prime):
            try:
                runs.append(cl.solve_model(model))
            except cl.ConvergenceError:
                continue
    for run in runs:
        for record in run.records:
            times, spectral = record.solution.times, run.spectral
            yield run.model, record.solution
            for shift in (1e-6, 1e-3, 3e-2):
                yield run.model, _off_root_solution(spectral, cl.ImpactTimes(
                    tau=times.tau + shift,
                    tau_prime=times.tau_prime,
                    o_n=times.o_n + shift * spectral.omega_top,
                    o_prime=times.o_prime,
                    residual=(np.nan, np.nan),
                ))


def test_first_tier_fails_only_what_the_grid_fails(monkeypatch):
    # at the default tolerances, and at contact tolerances under which each negative
    # violation passes the grid by a hair: a record the first tier fails fails the grid too,
    # with the same impact fields and no coarse minimum more than 1e-12 of its scale below
    # the grid's, and a record it leaves to the grid gets the grid's report bit for bit
    def grid_only(solution, model, tolerances):
        with monkeypatch.context() as patch:
            patch.setattr(trajectory, "TIER_RTOL", np.inf)   # no minimum is below -inf
            return cl.validate(solution, model, tolerances)

    decided = borderline = 0
    for model, solution in _tier_cases():
        _, clearance_scale, force_scale = _reference_validate(solution, model)
        scales = {"penetration_violation": clearance_scale, "contact_force_violation": force_scale}
        default = grid_only(solution, model, None)
        tolerances = [None] + [cl.ValidatorTolerances(contact=-violation / scale * (1 + 1e-6))
                               for key, scale in scales.items()
                               if (violation := getattr(default, key)) < 0]
        for tol in tolerances:
            got, want = cl.validate(solution, model, tol), grid_only(solution, model, tol)
            assert want.check_samples == trajectory.CHECK_SAMPLES
            if got.check_samples == trajectory.CHECK_SAMPLES:
                assert got == want
                continue
            assert got.check_samples == 51 and not want.passed
            got, want = got.to_dict(), want.to_dict()
            for key in ("impact_velocity_residual", "impact_accel_residual",
                        "continuity_residual", "energy_variation"):
                assert got[key] == want[key], key
            for key, scale in scales.items():
                assert got[key] >= want[key] - 1e-12 * scale, key
            decided += 1
            borderline += tol is not None
    assert decided >= 100 and borderline > 0


def test_first_tier_failure_builds_no_check_grid(biped_run, biped, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the first tier's failure built the check grid")

    monkeypatch.setattr(trajectory, "_grid_kernels", forbidden)
    record = next(r for r in biped_run.records if r.row == 1)
    report = cl.validate(record.solution, biped)
    assert report.check_samples == 51 and not report.passed
    assert report == record.report


def test_tier_rtol_is_1e12_not_1e9():
    # the first tier fails a coarse clearance minimum c < -t B - TIER_RTOL (1 + t) B, with B the
    # modal bound sum_i |X[-1, i] q_i| max|g_i| + |x0_N|; a tolerance t that puts c a margin
    # m (1 + t) B beyond -t B fails there for m = 3e-12 and leaves the grid to decide for 3e-13
    model = random_spd_model(3, np.random.default_rng(4))[0]
    record = next(r for r in cl.solve_model(model).records if r.row == r.col == 0)
    report, solution = record.report, record.solution
    assert report.check_samples == 51 and report.contact_force_violation >= 0
    spectral = solution.spectral
    g, _ = cl.impact._mode_kernels(solution.times.tau, *spectral.kernels[0])
    peak = np.where(spectral.kernels[0][1], 1.0, np.abs(g))
    bound = np.abs(spectral.mode_matrix[-1] * solution.q) @ peak + abs(spectral.static_offset[-1])
    for margin, samples in ((3e-12, 51), (3e-13, 2001)):
        t = (-report.penetration_violation / bound - margin) / (1 + margin)
        report_t = cl.validate(solution, model, cl.ValidatorTolerances(contact=t))
        assert report_t.check_samples == samples, margin


def _stack_cases():
    """(label, model, solutions sharing one SpectralData): the records of the biped, the stiff
    model and seeded random N = 3..6 models, each followed by off-root solutions detuned
    from it."""
    models = [cl.build_armed_biped(), stiff_hyperbolic_model()]
    rng = np.random.default_rng(5)
    models += [random_spd_model(n, rng, name=f"random{n}-{i}")[0]
               for i in range(2) for n in (3, 4, 5, 6)]
    for model in models:
        try:
            run = cl.solve_model(model)
        except (cl.NoExistenceError, cl.ConvergenceError):
            continue
        solutions = []
        for record in run.records:
            times, spectral = record.solution.times, run.spectral
            solutions.append(record.solution)
            solutions += [_off_root_solution(spectral, cl.ImpactTimes(
                tau=times.tau + shift,
                tau_prime=times.tau_prime,
                o_n=times.o_n + shift * spectral.omega_top,
                o_prime=times.o_prime,
                residual=(np.nan, np.nan),
            )) for shift in (1e-6, 1e-3)]
        yield model.name, model, solutions


def test_validate_solutions_matches_one_solution_at_a_time():
    # a stack's reports are bit for bit those its solutions get alone, in either order, so
    # a report does not depend on what it is stacked with; the stacks reach both tiers
    tiers = {}
    for label, model, solutions in _stack_cases():
        together = [float_bits(r.to_dict()) for r in cl.validate_solutions(solutions, model)]
        alone = [float_bits(cl.validate(s, model).to_dict()) for s in solutions]
        assert together == alone, label
        backwards = cl.validate_solutions(solutions[::-1], model)
        assert [float_bits(r.to_dict()) for r in backwards] == together[::-1], label
        for report in alone:
            key = (report["check_samples"], report["passed"])
            tiers[key] = tiers.get(key, 0) + 1
    assert tiers.get((51, False), 0) > 20
    assert tiers.get((trajectory.CHECK_SAMPLES, True), 0) > 10
    assert tiers.get((trajectory.CHECK_SAMPLES, False), 0) > 10
    assert cl.validate_solutions([], model) == []


def _changed_model(model, key):
    """``model`` with its quantity ``key`` changed: a sign flipped, or a value scaled by
    1 + 1e-6."""
    config = model.to_config()
    value = np.array(config[key], float)
    config[key] = (-value if key.startswith("sigma") else value * (1 + 1e-6)).tolist()
    return cl.load_model(config)


@pytest.mark.parametrize("key, quantity", [
    ("mass", "mass_matrix"), ("stiffness", "stiffness_matrix"), ("sigma", "sigma"),
    ("sigma_prime", "sigma_prime"), ("static_force", "static_offset"),
])
def test_mismatched_model_is_named(biped, biped_run, key, quantity):
    # the model check runs once per stack and still names the quantity that differs
    other = _changed_model(biped, key)
    solutions = [r.solution for r in biped_run.records]
    with pytest.raises(cl.InvalidParameterError, match=f": {quantity} differs"):
        cl.validate(solutions[0], other)
    with pytest.raises(cl.InvalidParameterError, match=f": {quantity} differs"):
        cl.validate_solutions(solutions, other)


def test_validate_solutions_rejects_mixed_spectral_data(biped, biped_run):
    # equal values are not enough: the stack shares one SpectralData or raises
    solution = biped_run.records[0].solution
    twin = cl.build_solution(cl.analyze(biped), solution.times)
    with pytest.raises(cl.InvalidParameterError, match="share one SpectralData"):
        cl.validate_solutions([solution, twin], biped)
    assert cl.validate(twin, biped) == cl.validate(solution, biped)


@pytest.mark.parametrize("name", ["velocity", "acceleration", "continuity", "energy", "contact"])
@pytest.mark.parametrize("value", [0.0, -1e-8, np.nan, np.inf, "1e-8", True])
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
