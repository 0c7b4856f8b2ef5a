import itertools
import json
from types import SimpleNamespace

import numpy as np
import pytest

import collisionless as cl
from collisionless import cli
from collisionless.cli import main


def test_list_models(capsys):
    assert main(["list-models"]) == 0
    out = capsys.readouterr().out
    assert "armed-biped" in out


def test_reproduce_passes(capsys):
    assert main(["reproduce"]) == 0
    out = capsys.readouterr().out
    assert "all quantities reproduced" in out
    assert "FAIL" not in out


def test_reproduce_json(capsys):
    assert main(["reproduce", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["passed"] is True
    names = {row["name"] for row in payload["rows"]}
    assert {"lam", "tau", "q_prime"} <= names


def test_reproduce_perturbed_fixtures_exit5(tmp_path, capsys):
    from collisionless.reference import REFERENCE

    perturbed = {
        k: (np.asarray(v) + 1e-2).tolist() if k != "norm_const" else v
        for k, v in REFERENCE.items()
    }
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps(perturbed))
    assert main(["reproduce", "--fixtures", str(path)]) == 5
    captured = capsys.readouterr()
    assert "MISMATCH" in captured.out
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("fault", ["absent", "list", "unknown-key", "non-numeric", "wrong-shape"])
def test_reproduce_rejects_bad_fixtures(tmp_path, capsys, fault):
    path = tmp_path / "fixtures.json"
    contents = {
        "list": [1, 2],
        "unknown-key": {"zzz": 1.0},
        "non-numeric": {"tau": "abc"},
        "wrong-shape": {"lam": [1, 2]},
    }
    if fault != "absent":
        path.write_text(json.dumps(contents[fault]))
    assert main(["reproduce", "--fixtures", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


def test_solve_json_payload(capsys):
    assert main(["solve", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["model"] == "armed-biped"
    sol = payload["solutions"][0]
    assert sol["tau"] == pytest.approx(3.0795, abs=5e-4)
    assert sol["validation"]["passed"] is True


def test_solve_writes_outputs_and_manifest(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["solve", "--out", str(prefix)]) == 0
    payload = json.loads((tmp_path / "run.json").read_text())
    assert payload["solutions"][0]["tau_prime"] == pytest.approx(0.77785, abs=5e-5)
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert str(tmp_path / "run.json") in manifest["outputs"]
    assert "wall_time_s" in manifest and "version" in manifest


def test_solve_no_existence_exit2(tmp_path, capsys, no_existence_model):
    config = tmp_path / "sunk.json"
    config.write_text(json.dumps(no_existence_model.to_config()))
    assert main(["solve", "--config", str(config)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_no_root_exit3(capsys):
    # a window below the first root: seeds exist nowhere
    assert main(["solve", "--o-n-max", "1.0", "--o-p-max", "0.5"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_validation_failed_exit4(capsys):
    # only the second row is inside this window; all of it is attractive
    code = main(
        ["solve", "--o-p-min", "3.2", "--o-p-max", "5.0", "--o-n-max", "8.0"]
    )
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


def test_solve_pick_all(capsys):
    assert main(["solve", "--pick", "all", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["solutions"]) == 3


def test_solve_pick_nearest(capsys):
    assert main(["solve", "--pick", "nearest=7,1", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload["solutions"]) == 1
    assert payload["solutions"][0]["o_n"] == pytest.approx(6.945, abs=1e-2)


def test_solve_tol_scaling(capsys):
    # absurdly tight tolerances make even the true root fail validation
    code = main(["solve", "--tol", "1e-9"])
    assert code == 4
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("tol", ["inf", "0", "-1", "nan"])
def test_bad_tol_rejected_exit1(tmp_path, capsys, tol):
    # --tol inf used to certify roots that fail validation at --tol 1
    assert main(["trajectory", "--out", str(tmp_path / "traj"), "--samples", "50"]) == 0
    capsys.readouterr()
    for argv in (["solve", "--pick", "all", "--json"],
                 ["trajectory", "--out", str(tmp_path / "again")],
                 ["validate", "--trajectory", str(tmp_path / "traj.json")]):
        assert main([*argv, "--tol", tol]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "tol" in captured.err
        assert captured.out == ""


def test_solve_json_reports_stage_timings(tmp_path, capsys):
    prefix = tmp_path / "run"
    assert main(["solve", "--json", "--out", str(prefix)]) == 0
    printed = json.loads(capsys.readouterr().out)["timings"]
    assert sorted(printed) == sorted(cl.pipeline.STAGES)
    manifest = json.loads((tmp_path / "run.manifest.json").read_text())
    assert manifest["timings"] == printed


def test_contour_csv_only(tmp_path, capsys):
    prefix = tmp_path / "field"
    code = main(
        ["contour", "--out", str(prefix), "--format", "csv", "--grid-step", "0.1"]
    )
    assert code == 0
    assert (tmp_path / "field.csv").exists()
    assert not (tmp_path / "field.svg").exists()
    assert (tmp_path / "field.manifest.json").exists()


def test_contour_with_asymptotes(tmp_path):
    prefix = tmp_path / "field"
    code = main(
        ["contour", "--out", str(prefix), "--grid-step", "0.1", "--asymptotes", "2..3"]
    )
    assert code == 0
    svg = (tmp_path / "field.svg").read_text()
    assert "polyline" in svg and "<path" in svg  # curves and cross markers


def test_trajectory_then_validate(tmp_path, capsys):
    prefix = tmp_path / "traj"
    assert main(["trajectory", "--out", str(prefix), "--samples", "150"]) == 0
    for ext in (".csv", ".json", ".svg", ".manifest.json"):
        assert (tmp_path / f"traj{ext}").exists()
    capsys.readouterr()
    assert main(["validate", "--trajectory", str(tmp_path / "traj.json")]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is True


@pytest.mark.parametrize("name", ["x", "energy"])
def test_validate_rejects_edited_sample(tmp_path, capsys, name):
    prefix = tmp_path / "traj"
    assert main(["trajectory", "--out", str(prefix), "--samples", "150", "--format", "json"]) == 0
    path = tmp_path / "traj.json"
    payload = json.loads(path.read_text())
    values = np.array(payload[name])
    index = np.unravel_index(np.argmax(np.abs(values)), values.shape)
    values[index] *= 1 + 1e-6
    payload[name] = values.tolist()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--trajectory", str(path)]) == 4
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["missing-key", "truncated", "absent", "unlaced", "sigma-five"])
def test_validate_reports_unreadable_file(tmp_path, capsys, fault):
    path = tmp_path / "traj.json"
    if fault != "absent":
        assert main(["trajectory", "--out", str(tmp_path / "traj"), "--samples", "20",
                     "--format", "json"]) == 0
        text = path.read_text()
        if fault == "truncated":
            text = text[: len(text) // 2]
        else:
            payload = json.loads(text)
            spectral = payload["solution"]["spectral"]
            if fault == "missing-key":
                del spectral["lam"]
            elif fault == "unlaced":
                spectral["lam"] = spectral["lam"][::-1]
            else:
                spectral["sigma"] = [5] * len(spectral["sigma"])
            text = json.dumps(payload)
        path.write_text(text)
    capsys.readouterr()
    assert main(["validate", "--trajectory", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("stored", ["exact", "edited"])
def test_validate_derives_constrained_modes(tmp_path, capsys, stored):
    # a stored mode_matrix_prime is ignored: X' is derived from the stored modes
    assert main(["trajectory", "--out", str(tmp_path / "traj"), "--samples", "20",
                 "--format", "json"]) == 0
    path = tmp_path / "traj.json"
    payload = json.loads(path.read_text())
    expected = cl.analyze(cl.build_armed_biped()).mode_matrix_prime
    payload["solution"]["spectral"]["mode_matrix_prime"] = (
        expected if stored == "exact" else 2 * expected
    ).tolist()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--trajectory", str(path)]) == 0
    derived = cl.trajectory_from_json(path).meta.spectral.mode_matrix_prime
    assert derived.tobytes() == expected.tobytes()


@pytest.mark.parametrize("key, named", [
    ("tau", "tau"), ("tau_prime", "tau_prime"), ("mu", "mu"), ("o_n", "tau"),
    ("q", "q"), ("q_prime", "q_prime"),
])
def test_validate_rejects_edited_solution(tmp_path, capsys, key, named):
    # the solution is rebuilt from the spectra and impact phases; an edited o_n moves tau
    assert main(["trajectory", "--out", str(tmp_path / "traj"), "--samples", "20",
                 "--format", "json"]) == 0
    path = tmp_path / "traj.json"
    payload = json.loads(path.read_text())
    values = np.array(payload["solution"][key])
    values.flat[np.argmax(np.abs(values))] *= 1 + 1e-9
    payload["solution"][key] = values.tolist()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["validate", "--trajectory", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"stored {named} disagrees" in err


@pytest.mark.parametrize("key", ["rank_gap", "weight_residual"])
def test_validate_derives_certificates(tmp_path, capsys, key):
    assert main(["trajectory", "--out", str(tmp_path / "traj"), "--samples", "20",
                 "--format", "json"]) == 0
    path = tmp_path / "traj.json"
    payload = json.loads(path.read_text())
    stored = payload["solution"][key]
    payload["solution"][key] = 0.5
    path.write_text(json.dumps(payload))
    assert main(["validate", "--trajectory", str(path)]) == 0
    assert getattr(cl.trajectory_from_json(path).meta, key) == stored


@pytest.mark.parametrize("validate_with", ["negated-force", "builtin"])
def test_validate_rejects_solution_of_another_model(tmp_path, capsys, validate_with):
    # exported from the biped with doubled matrices and static force; the spectra are the same
    config = cl.build_armed_biped().to_config()
    doubled = {**config, "mass": (2 * np.array(config["mass"])).tolist(),
               "stiffness": (2 * np.array(config["stiffness"])).tolist(),
               "static_force": 2 * config["static_force"]}
    source = tmp_path / "doubled.json"
    source.write_text(json.dumps(doubled))
    assert main(["trajectory", "--config", str(source), "--out", str(tmp_path / "traj"),
                 "--samples", "20", "--format", "json"]) == 0
    if validate_with == "negated-force":
        other = tmp_path / "negated.json"
        other.write_text(json.dumps({**doubled, "static_force": -doubled["static_force"]}))
        model_args, quantity = ["--config", str(other)], "static_offset"
    else:
        model_args, quantity = ["--model", "armed-biped"], "mass_matrix"
    capsys.readouterr()
    assert main(["validate", *model_args, "--trajectory", str(tmp_path / "traj.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and quantity in err
    assert main(["validate", "--config", str(source),
                 "--trajectory", str(tmp_path / "traj.json")]) == 0


@pytest.mark.parametrize("argv", [
    ["solve"],
    ["contour", "--grid-step", "0.1"],
    ["trajectory", "--samples", "20"],
    ["analytic2", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "1"],
    ["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "0.3"],
], ids=lambda argv: argv[0])
def test_out_in_missing_directory_exit1(tmp_path, capsys, argv):
    missing = tmp_path / "missing"
    assert main([*argv, "--out", str(missing / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err
    assert not missing.exists()


def test_analytic2_rocker_table(capsys):
    code = main(
        ["analytic2", "--family", "rocker", "--nu1", "1", "--omega2", "2",
         "--omega1p", "1", "--n", "1..5"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    branches = payload["branches"]
    assert len(branches) == 5
    assert "error" in branches[0]  # n = 1 has no root
    ref = cl.solve_rocker(1.0, 2.0, 1.0, 2)
    assert branches[1]["o_2"] == pytest.approx(ref.o_2, rel=1e-12)


def test_analytic2_manifest_times_whole_command(tmp_path, monkeypatch, capsys):
    # the clock advances one unit per read and one per branch solve
    ticks = itertools.count()
    monkeypatch.setattr(cli, "time", SimpleNamespace(perf_counter=lambda: float(next(ticks))))
    rocker = cli.SOLVERS["rocker"]

    def ticking_rocker(**kwargs):
        next(ticks)
        return rocker(**kwargs)

    monkeypatch.setitem(cli.SOLVERS, "rocker", ticking_rocker)
    prefix = tmp_path / "a2"
    code = main(["analytic2", "--family", "rocker", "--nu1", "1", "--omega2", "2",
                 "--omega1p", "1", "--n", "2..4", "--out", str(prefix)])
    assert code == 0
    manifest = json.loads((tmp_path / "a2.manifest.json").read_text())
    assert manifest["command"] == "analytic2"
    assert manifest["wall_time_s"] == 4.0   # three solves plus the closing read


def test_critical_study_deterministic(capsys):
    args = ["critical", "--study-c0", "--n", "2", "--samples", "40", "--seed", "11"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["nonpositive"] == 0 and payload["failures"] == 0
    assert payload["minC0"] > 0


def test_critical_study_defaults(tmp_path, capsys):
    assert main(["critical", "--study-c0", "--samples", "3", "--out", str(tmp_path / "s")]) == 0
    assert json.loads((tmp_path / "s.json").read_text())["N"] == 3
    assert json.loads((tmp_path / "s.manifest.json").read_text())["seed"] == 0


def test_critical_family_report(capsys):
    code = main(
        ["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2",
         "--omega1p", "0.3", "--branches", "3..4"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c0"] > 0
    assert len(payload["asymptotic_grid"]) == 2


def test_critical_needs_one_source():
    with pytest.raises(SystemExit) as info:
        main(["critical"])
    assert info.value.code == 64
    with pytest.raises(SystemExit) as info:
        main(["critical", "--model", "armed-biped", "--study-c0"])
    assert info.value.code == 64


def test_critical_no_root_exit3(monkeypatch, capsys):
    def no_root(limit):
        raise cl.NoRootError("no critical root in the window")

    monkeypatch.setattr(cli, "solve_critical", no_root)
    assert main(["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2",
                 "--omega1p", "0.3"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("grid", [["--grid-step", "0"], ["--grid-step", "nan"], ["--o-n-max", "inf"]])
def test_solve_rejects_invalid_grid(capsys, grid):
    assert main(["solve", *grid]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic2", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "1",
         "--n", "abc"],
        ["analytic2", "--family", "hopper", "--omega2", "2", "--omega1p", "1", "--n", "5..3"],
        ["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "0.3",
         "--branches", "x"],
        ["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "0.3",
         "--branches=0..2"],
        ["contour", "--out", "unused", "--asymptotes", "x"],
    ],
)
def test_branch_lists_rejected_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 64
    assert "Traceback" not in capsys.readouterr().err


def test_usage_error_exit64():
    with pytest.raises(SystemExit) as info:
        main(["solve", "--pick", "bogus"])
    assert info.value.code == 64


def test_unknown_builtin_model_reported():
    assert main(["solve", "--model", "teapot"]) == 1


@pytest.mark.parametrize("argv, option", [
    (["analytic2", "--family", "hopper", "--nu1", "1", "--omega2", "2", "--omega1p", "1"], "--nu1"),
    (["analytic2", "--family", "juggler", "--nu1", "1", "--omega2", "2", "--omega1p", "1"], "--nu1"),
    (["critical", "--study-c0", "--samples", "2", "--branches", "3..4"], "--branches"),
    (["critical", "--study-c0", "--samples", "2", "--nu1", "1"], "--nu1"),
    (["critical", "--study-c0", "--samples", "2", "--omega2", "2"], "--omega2"),
    (["critical", "--study-c0", "--samples", "2", "--omega1p", "1"], "--omega1p"),
    (["critical", "--model", "armed-biped", "--nu1", "1"], "--nu1"),
    (["critical", "--model", "armed-biped", "--omega2", "2"], "--omega2"),
    (["critical", "--config", "unread.json", "--omega1p", "1"], "--omega1p"),
    (["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "0.3",
      "--n", "4"], "--n"),
    (["critical", "--family", "rocker", "--nu1", "1", "--omega2", "2", "--omega1p", "0.3",
      "--samples", "5"], "--samples"),
    (["critical", "--config", "unread.json", "--seed", "3"], "--seed"),
])
def test_options_unused_by_the_mode_exit1(capsys, argv, option):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and option in err


@pytest.mark.parametrize("phase", ["nan,nan", "inf,1", "1,-inf"])
def test_pick_nearest_rejects_nonfinite_phases(capsys, phase):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--pick", f"nearest={phase}"])
    assert info.value.code == 64
    assert "Traceback" not in capsys.readouterr().err


def test_solve_config_with_fractional_n_exit1(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**cl.build_armed_biped().to_config(), "n": 3.7}))
    assert main(["solve", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "n must be an integer" in err
