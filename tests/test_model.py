import dataclasses
import json
import re

import numpy as np
import pytest

import collisionless as cl
from helpers import random_spd_model


def test_armed_biped_unit_matrices(biped):
    np.testing.assert_array_equal(
        biped.mass, [[1, -1, -1], [-1, 2, 2], [-1, 2, 3]]
    )
    np.testing.assert_array_equal(biped.stiffness, np.diag([1.0, -2.0, -3.0]))
    assert biped.static_force == 5.0
    np.testing.assert_array_equal(biped.sigma, [-1, -1, -1])
    np.testing.assert_array_equal(biped.sigma_prime, [1, 1])
    assert biped.contact_sign == 1


def test_armed_biped_scaling_leaves_spectra():
    base = cl.build_armed_biped()
    scaled = cl.build_armed_biped(m0=2, m1=2, m2=2, m3=2)
    np.testing.assert_allclose(scaled.mass, 2 * base.mass)
    np.testing.assert_allclose(scaled.stiffness, 2 * base.stiffness)
    eig = lambda m: np.sort(np.linalg.eigvals(np.linalg.solve(m.mass, m.stiffness)).real)
    np.testing.assert_allclose(eig(scaled), eig(base), rtol=1e-12)


def test_armed_biped_geometry_scales():
    m = cl.build_armed_biped(l=2.0, g=3.0)
    np.testing.assert_allclose(m.mass, 4 * cl.build_armed_biped().mass)
    np.testing.assert_allclose(m.stiffness, 6 * cl.build_armed_biped().stiffness)
    assert m.static_force == pytest.approx(5 * 2 * 3)


@pytest.mark.parametrize("bad", [{"m1": 0.0}, {"l": -1.0}, {"g": 0.0}, {"theta": -0.1}])
def test_armed_biped_rejects_nonpositive(bad):
    with pytest.raises(cl.InvalidParameterError):
        cl.build_armed_biped(**bad)


def test_constrained_block_eigenvalues(biped):
    # dense oracle on the 2x2 contact blocks
    sub = np.linalg.solve(biped.mass[:2, :2], biped.stiffness[:2, :2])
    vals = np.sort(np.linalg.eigvals(sub).real)
    np.testing.assert_allclose(vals, [-np.sqrt(2), np.sqrt(2)], atol=1e-12)


def test_config_roundtrip(biped):
    clone = cl.load_model(biped.to_config())
    np.testing.assert_array_equal(clone.mass, biped.mass)
    np.testing.assert_array_equal(clone.stiffness, biped.stiffness)
    np.testing.assert_array_equal(clone.sigma, biped.sigma)
    assert clone.static_force == biped.static_force


def test_load_model_file_roundtrip(tmp_path, biped):
    path = tmp_path / "biped.json"
    path.write_text(json.dumps(biped.to_config()))
    clone = cl.load_model(path)
    np.testing.assert_array_equal(clone.mass, biped.mass)
    assert clone.name == biped.name


def test_load_model_asymmetric_mass(biped):
    config = biped.to_config()
    config["mass"][0][1] += 0.1
    with pytest.raises(cl.InvalidModelError, match="asymmetric mass"):
        cl.load_model(config)


def test_load_model_singular_stiffness(biped):
    config = biped.to_config()
    config["stiffness"][1] = [0.0, 0.0, 0.0]
    with pytest.raises(cl.InvalidModelError, match="singular stiffness"):
        cl.load_model(config)


def test_load_model_bad_sigma(biped):
    config = biped.to_config()
    config["sigma"] = [2, 1, -1]
    with pytest.raises(cl.InvalidModelError, match="sigma"):
        cl.load_model(config)


def test_load_model_missing_key(biped):
    config = biped.to_config()
    del config["contact_sign"]
    with pytest.raises(cl.InvalidModelError, match="missing"):
        cl.load_model(config)


@pytest.mark.parametrize("key, value", [
    ("n", 3.7), ("n", "3"), ("n", None),
    ("contact_sign", 1.9), ("contact_sign", True), ("contact_sign", "1"),
    ("static_force", "5"), ("static_force", True),
])
def test_load_model_rejects_uncoerced_numbers(biped, key, value):
    config = {**biped.to_config(), key: value}
    with pytest.raises(cl.InvalidModelError, match=key):
        cl.load_model(config)


@pytest.mark.parametrize("key, entry", [
    ("mass", "1"), ("mass", True), ("stiffness", "1"), ("stiffness", True),
    ("sigma", "-1"), ("sigma", True), ("sigma_prime", "1"), ("sigma_prime", True),
])
def test_load_model_rejects_string_and_boolean_entries(biped, key, entry):
    # each entry stands for the value it replaces (or a valid signature): only its type is wrong
    config = biped.to_config()
    values = np.array(config[key], dtype=object)
    values.flat[0] = entry
    with pytest.raises(cl.InvalidModelError, match=f"{key} entries must be numbers"):
        cl.load_model({**config, key: values.tolist()})


def test_spectrum_pair_rejects_boolean_signature():
    with pytest.raises(cl.InvalidModelError, match="sigma entries must be numbers"):
        cl.SpectrumPair([-1.0, 2.0], [1.0], [True, -1], [1])


def test_load_model_accepts_integral_floats(biped):
    clone = cl.load_model({**biped.to_config(), "n": 3.0, "contact_sign": 1.0})
    assert (clone.n, clone.contact_sign) == (3, 1)
    assert type(clone.n) is int and type(clone.contact_sign) is int


def test_model_spec_rejects_boolean_contact_sign(biped):
    with pytest.raises(cl.InvalidModelError, match="contact_sign"):
        cl.ModelSpec(**{**biped.to_config(), "contact_sign": True})


@pytest.mark.parametrize("value", ["1", None, [1.0], True, np.nan, np.inf])
def test_model_spec_rejects_a_static_force_that_is_no_finite_number(biped, value):
    with pytest.raises(cl.InvalidModelError, match="static_force must be a finite number"):
        cl.ModelSpec(**{**biped.to_config(), "static_force": value})


@pytest.mark.parametrize("key, value, message", [
    ("n", 1, "n must be an integer >= 2, got 1"),
    ("n", 2.5, "n must be an integer >= 2, got 2.5"),
    ("mass", np.eye(2), "mass must be 3x3, got (2, 2)"),
    ("mass", np.diag([1.0, np.inf, 1.0]), "mass contains non-finite entries"),
    ("stiffness", [[1.0, 0.1, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, -3.0]],
     "asymmetric stiffness matrix"),
    ("sigma", [-1, -1], "sigma must have shape (3,), got shape (2,)"),
])
def test_model_spec_rejects_an_invalid_field(biped, key, value, message):
    with pytest.raises(cl.InvalidModelError, match=f"^{re.escape(message)}$"):
        cl.ModelSpec(**{**biped.to_config(), key: value})


def test_load_model_rejects_a_file_without_an_object(tmp_path, biped):
    path = tmp_path / "models.json"
    path.write_text(json.dumps([biped.to_config()]))
    with pytest.raises(cl.InvalidModelError, match="^model file must contain a JSON object$"):
        cl.load_model(path)


def test_load_model_ragged_mass_is_malformed(biped):
    config = biped.to_config()
    config["mass"][1] = [-1.0, 2.0]
    with pytest.raises(cl.InvalidModelError, match="^mass entries must be numbers$"):
        cl.load_model(config)


def test_load_model_parse_error(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(cl.InvalidModelError, match="parse"):
        cl.load_model(path)


def test_mass_not_positive_definite():
    with pytest.raises(cl.InvalidModelError, match="positive definite"):
        cl.ModelSpec(
            name="bad", n=2, mass=[[1.0, 2.0], [2.0, 1.0]],
            stiffness=np.eye(2), sigma=[1, 1], sigma_prime=[1],
            static_force=0.0, contact_sign=1,
        )


def test_model_arrays_are_readonly(biped):
    with pytest.raises(ValueError):
        biped.mass[0, 0] = 99.0


def test_n2_spectrum_hopper():
    pair = cl.n2_spectrum("hopper", omega2=1.0, omega1p=0.5)
    np.testing.assert_array_equal(pair.lam, [0.0, 1.0])
    np.testing.assert_array_equal(pair.lam_prime, [0.25])
    np.testing.assert_array_equal(pair.sigma, [-1, -1])
    np.testing.assert_array_equal(pair.sigma_prime, [-1])


def test_n2_spectrum_juggler_matches_hopper():
    a = cl.n2_spectrum("hopper", omega2=1.3, omega1p=0.7)
    b = cl.n2_spectrum("juggler", omega2=1.3, omega1p=0.7)
    np.testing.assert_array_equal(a.lam, b.lam)
    np.testing.assert_array_equal(a.sigma, b.sigma)


@pytest.mark.parametrize("name", ["nu1", "omega2", "omega1p"])
def test_n2_spectrum_rejects_bool_parameters(name):
    params = {"nu1": 1.0, "omega2": 2.0, "omega1p": 1.0, name: True}
    with pytest.raises(cl.InvalidParameterError, match=f"^{name} must be positive"):
        cl.n2_spectrum("rocker", **params)


def test_n2_spectrum_rocker():
    pair = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    np.testing.assert_array_equal(pair.lam, [-1.0, 4.0])
    np.testing.assert_array_equal(pair.lam_prime, [1.0])
    np.testing.assert_array_equal(pair.sigma, [-1, -1])
    np.testing.assert_array_equal(pair.sigma_prime, [1])


def test_n2_spectrum_rimless_signatures():
    pair = cl.n2_spectrum("rimless", nu1=0.5, omega2=2.0, omega1p=1.0)
    np.testing.assert_array_equal(pair.sigma, [1, 1])
    np.testing.assert_array_equal(pair.sigma_prime, [1])


def test_n2_spectrum_interlacing_error():
    with pytest.raises(cl.InterlacingError):
        cl.n2_spectrum("rimless", nu1=1.0, omega2=1.0, omega1p=1.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"family": "rocker", "nu1": -1.0, "omega2": 2.0, "omega1p": 1.0},
        {"family": "hopper", "nu1": 1.0, "omega2": 2.0, "omega1p": 1.0},
        {"family": "nosuch", "omega2": 2.0, "omega1p": 1.0},
        {"family": "hopper", "omega2": -2.0, "omega1p": 1.0},
    ],
)
def test_n2_spectrum_invalid(kwargs):
    with pytest.raises(cl.InvalidParameterError):
        cl.n2_spectrum(**kwargs)


def test_spectrum_pair_rejects_mismatched_lengths():
    with pytest.raises(cl.InvalidParameterError, match=re.escape(
            "need ascending spectra of lengths n and n-1, got (3,) and (1,)")):
        cl.SpectrumPair([1, 2, 3], [1.5], [1, 1, 1], [1])


def test_spectrum_pair_requires_interlacing():
    with pytest.raises(cl.InterlacingError):
        cl.SpectrumPair([0.0, 1.0], [2.0], [-1, -1], [1])


def test_spectrum_pair_phase_conversions():
    pair = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    o_n, o_p = pair.to_phase(1.5, 0.5)
    assert o_n == pytest.approx(3.0)
    assert o_p == pytest.approx(0.5)
    assert pair.from_phase(o_n, o_p) == (pytest.approx(1.5), pytest.approx(0.5))


def test_n2_model_realizes_spectra():
    pair = cl.n2_spectrum("rocker", nu1=1.0, omega2=2.0, omega1p=1.0)
    model = cl.model_from_spectra(pair)
    vals = np.sort(np.linalg.eigvals(np.linalg.solve(model.mass, model.stiffness)).real)
    np.testing.assert_allclose(vals, [-1.0, 4.0], atol=1e-12)
    assert model.stiffness[0, 0] == pytest.approx(1.0)  # contact block spectrum


def _in_window_roots(model):
    """The error class of a failed solve, or (o_n, o_prime, accepted) of each in-window root."""
    window = cl.GridSpec()
    try:
        run = cl.solve_model(model, window)
    except cl.CollisionlessError as exc:
        return type(exc)
    return sorted((r.solution.times.o_n, r.solution.times.o_prime, r.accepted)
                  for r in run.records
                  if r.solution.times.o_n <= window.o_n_max
                  and r.solution.times.o_prime <= window.o_p_max)


def test_spectra_decide_the_solution():
    # The paper: in the harmonic approximation the collisionless solution is determined by
    # the spectrum.  A model, its arrowhead realization and that realization rotated by
    # Q (+) 1 (Q orthogonal on the free coordinates) share their spectra, so they share
    # their in-window roots and verdicts, or fail with one error class.  Roots outside the
    # window depend on each seed's Newton path (see GridSpec), so they are not compared.
    rng = np.random.default_rng(11)
    models = [cl.build_armed_biped()]
    models += [random_spd_model(n, rng)[0] for n in range(2, 7) for _ in range(4)]
    solved = roots = accepted = 0
    for model in models:
        spectral = cl.analyze(model)
        arrowhead = cl.model_from_spectra(spectral, static_force=model.static_force)
        n = model.n
        rotation = np.eye(n)
        rotation[:-1, :-1] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        stiffness = rotation @ arrowhead.stiffness @ rotation.T
        rotated = dataclasses.replace(arrowhead, stiffness=0.5 * (stiffness + stiffness.T))
        scale = np.abs(spectral.lam).max()
        for realized in (arrowhead.stiffness, rotated.stiffness):   # identity mass
            assert np.abs(np.linalg.eigvalsh(realized) - spectral.lam).max() <= 1e-14 * scale
            assert (np.abs(np.linalg.eigvalsh(realized[:-1, :-1]) - spectral.lam_prime).max()
                    <= 1e-14 * scale)
        want, *others = map(_in_window_roots, (model, arrowhead, rotated))
        for got in others:
            if isinstance(want, type) or isinstance(got, type):
                assert got is want, (model.n, got, want)
                continue
            assert [root[2] for root in got] == [root[2] for root in want], model.n
            if want:
                assert np.abs(np.array(got)[:, :2] - np.array(want)[:, :2]).max() <= 1e-12
        if not isinstance(want, type):
            solved += 1
            roots += len(want)
            accepted += sum(root[2] for root in want)
    # most models solve, and both verdicts occur
    assert solved >= 15 and 0 < accepted < roots


def test_builtin_model_lookup():
    assert cl.builtin_model("armed-biped").n == 3
    with pytest.raises(cl.InvalidParameterError):
        cl.builtin_model("teapot")
