import dataclasses
import time
from collections import Counter

import numpy as np
import pytest

import collisionless as cl
from collisionless import pipeline, trajectory
from helpers import hard_model, random_spd_model


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


def test_stiff_hard_model_is_certified_without_overflow():
    # hard draw 143 (N = 6, lam_min = -2.0e4): at its roots the unscaled matching matrices
    # overflow, and certification raised a RuntimeWarning, or without warnings a bare
    # LinAlgError from the SVD; the repository's filters make any warning fail this test
    model = hard_model(143)
    assert model.n == 6 and cl.analyze(model).lam[0] == pytest.approx(-2.004e4, rel=1e-3)
    try:
        run = cl.solve_model(model)
    except cl.CollisionlessError:
        return
    assert run.records


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


def test_solve_certifies_and_validates_its_roots_as_stacks(biped, monkeypatch):
    # one SVD call certifies every root, and one validate_solutions call, with one model
    # check, validates every record
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    monkeypatch.setattr(pipeline, "build_solutions",
                        counted("build_solutions", pipeline.build_solutions))
    monkeypatch.setattr(pipeline, "validate_solutions",
                        counted("validate_solutions", pipeline.validate_solutions))
    monkeypatch.setattr(trajectory, "_check_same_model",
                        counted("_check_same_model", trajectory._check_same_model))
    run = cl.solve_model(biped)
    assert len(run.records) == 6
    assert calls == {"svd": 1, "build_solutions": 1, "validate_solutions": 1,
                     "_check_same_model": 1}


def test_solve_model_times_every_stage(biped):
    start = time.perf_counter()
    run = cl.solve_model(biped)
    wall = time.perf_counter() - start
    assert list(run.timings) == list(cl.pipeline.STAGES)
    assert all(t >= 0 for t in run.timings.values())
    assert sum(run.timings.values()) <= wall


def test_rank_gap_bound_is_defined_once():
    assert cl.pipeline.RANK_GAP_MAX is cl.impact.RANK_GAP_MAX


@pytest.mark.parametrize("offset, kept", [(5e-7, 0), (2e-6, 1)])
def test_root_merge_atol_is_1e6_not_1e3(biped, monkeypatch, offset, kept):
    # a converged seed within ROOT_MERGE_ATOL of a kept root merges into it; one 2e-6 away is
    # kept as a root of its own, certified or refused
    base = cl.solve_model(biped)
    refine_roots = pipeline.refine_roots

    def with_neighbour(seeds, spectra, M, eta_vec):
        outcomes = refine_roots(seeds, spectra, M, eta_vec)
        times = next(t for t in outcomes if isinstance(t, cl.ImpactTimes))
        o_n = times.o_n + offset
        return outcomes + [dataclasses.replace(times, o_n=o_n, tau=o_n / spectra.omega_top)]

    monkeypatch.setattr(pipeline, "refine_roots", with_neighbour)
    run = cl.solve_model(biped)
    roots = len(run.records) + run.spurious_roots
    assert roots == len(base.records) + base.spurious_roots + kept


def test_row_cluster_gap_is_pi_over_2_not_pi_over_3():
    # sorted by o', neighbouring roots start a new row exactly where they lie more than pi/2
    # apart; this model has a gap of 1.47 inside a row and one of 1.82 between its two rows
    run = cl.solve_model(random_spd_model(3, np.random.default_rng(4))[0])
    records = sorted(run.records, key=lambda r: r.solution.times.o_prime)
    gaps = np.diff([r.solution.times.o_prime for r in records])
    new_row = [b.row != a.row for a, b in zip(records, records[1:])]
    assert new_row == list(gaps > np.pi / 2)
    assert ((gaps > np.pi / 3) & (gaps <= np.pi / 2)).any() and (gaps > np.pi / 2).any()
    assert sorted({r.row for r in records}) == [0, 1]
