import time

import pytest

import collisionless as cl


def test_biped_solve_run_structure(biped_run):
    assert len(biped_run.records) == 6
    rows = sorted({r.row for r in biped_run.records})
    assert rows == [0, 1]
    bottom = [r for r in biped_run.records if r.row == 0]
    second = [r for r in biped_run.records if r.row == 1]
    assert len(bottom) == 3 and len(second) == 3
    assert all(r.accepted for r in bottom)
    assert not any(r.accepted for r in second)
    assert biped_run.spurious_roots == 0
    for record in biped_run.records:
        assert record.solution.rank_gap < 1e-6
        assert max(abs(v) for v in record.solution.times.residual) < 1e-11


def test_biped_row_and_column_order(biped_run):
    bottom = sorted(
        (r for r in biped_run.records if r.row == 0), key=lambda r: r.col
    )
    o_ns = [r.solution.times.o_n for r in bottom]
    assert o_ns == sorted(o_ns)
    assert bottom[0].solution.times.o_n == pytest.approx(3.801, abs=1e-2)


def test_pick_lowest_row(biped_run):
    picked = cl.pick_records(biped_run, "lowest-row")
    assert len(picked) == 1
    sol = picked[0].solution
    assert sol.times.tau == pytest.approx(3.0795, abs=5e-4)
    assert sol.times.tau_prime == pytest.approx(0.77785, abs=5e-5)


def test_pick_all_returns_validated(biped_run):
    picked = cl.pick_records(biped_run, "all")
    assert len(picked) == 3
    assert all(r.accepted for r in picked)


def test_pick_nearest(biped_run):
    picked = cl.pick_records(biped_run, ("nearest", (7.0, 1.0)))
    assert len(picked) == 1
    assert picked[0].solution.times.o_n == pytest.approx(6.945, abs=1e-2)


def test_pick_unknown_strategy(biped_run):
    with pytest.raises(cl.InvalidParameterError):
        cl.pick_records(biped_run, "best")


def test_no_existence(no_existence_model):
    with pytest.raises(cl.NoExistenceError):
        cl.solve_model(no_existence_model)


def test_no_roots_in_tiny_window(biped):
    with pytest.raises(cl.ConvergenceError):
        cl.solve_model(biped, cl.GridSpec(o_n_max=1.0, o_p_max=0.5, step=0.05))


def test_rocker_pipeline_matches_closed_form(rocker_model):
    run = cl.solve_model(rocker_model, cl.GridSpec(o_n_max=8.0, o_p_max=1.2))
    expected = [cl.solve_rocker(1.0, 2.0, 1.0, n) for n in (2, 3)]
    found = {
        (round(r.solution.times.o_n, 6), round(r.solution.times.o_prime, 6))
        for r in run.records
    }
    for sol in expected:
        nearest = min(
            run.records,
            key=lambda r: abs(r.solution.times.o_n - sol.o_2),
        )
        assert abs(nearest.solution.times.o_n - sol.o_2) < 1e-8
        assert abs(nearest.solution.times.o_prime - sol.o_prime_1) < 1e-8
    assert found  # at least the two branches in window


def test_solve_model_reports_scan(biped_run):
    assert biped_run.contour.seeds.shape[0] >= len(biped_run.records)
    assert biped_run.spectral.lam[-1] > 0


def test_solve_builds_contour_curves_only_on_access(rocker_model):
    run = cl.solve_model(rocker_model)
    assert "curves_a" not in run.contour.__dict__
    assert "curves_b" not in run.contour.__dict__
    assert "det_a" not in run.contour.__dict__
    for curves in (run.contour.curves_a, run.contour.curves_b):
        assert curves and all(len(poly) >= 2 for poly in curves)


def test_solve_never_synthesizes(rocker_model, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("solve_model synthesized a trajectory")

    monkeypatch.setattr("collisionless.trajectory.synthesize", forbidden)
    monkeypatch.setattr("collisionless.pipeline.synthesize", forbidden, raising=False)
    run = cl.solve_model(rocker_model)
    assert run.records and any(r.accepted for r in run.records)


def test_solve_builds_cauchy_matrix_once(biped, monkeypatch):
    build = cl.model.cauchy_matrix
    calls = []

    def counting(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr("collisionless.model.cauchy_matrix", counting)
    cl.solve_model(cl.build_armed_biped())
    assert len(calls) == 1


def test_solve_model_times_every_stage(biped):
    start = time.perf_counter()
    run = cl.solve_model(biped)
    wall = time.perf_counter() - start
    assert list(run.timings) == list(cl.pipeline.STAGES)
    assert all(t >= 0 for t in run.timings.values())
    assert sum(run.timings.values()) <= wall


def test_rank_gap_bound_is_defined_once():
    assert cl.pipeline.RANK_GAP_MAX is cl.impact.RANK_GAP_MAX
