"""The input contract: every public entry point returns or raises a CollisionlessError.

Each case is one entry point with valid arguments.  The tests replace one of
its array, number or object arguments at a time by a junk value (``JUNK``) or
by a generated one, and the call must then return or raise a
``CollisionlessError`` subclass, never another exception.  The repository's
warning filters turn a RuntimeWarning into a failure too.
"""

import os
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

import collisionless as cl

# None, strings, empty and ragged nestings, a bool, inf, nan, small numbers, a dict, a list of
# strings, a NumPy scalar, a complex matrix, and an int beyond the float range
JUNK = [None, "1", "x", [], [[]], [1.0], [[1.0, 2.0], [3.0]], True, 1e400, np.nan, -1, 0, 2.5,
        {"a": 1.0}, ["1", "2"], np.int64(2), np.array([[1 + 2j, 0], [0, 1]]), 10 ** 400]

_FLOATS = st.floats()
_SHAPES = array_shapes(min_dims=0, max_dims=3)
_VALUES = st.one_of(
    st.sampled_from(JUNK),
    _FLOATS,
    st.integers(),
    st.lists(_FLOATS, max_size=5),
    st.lists(st.lists(_FLOATS, max_size=3), max_size=3),   # rectangular or ragged
    arrays(float, _SHAPES, elements=_FLOATS),
    arrays(int, _SHAPES, elements=st.integers(-2 ** 63, 2 ** 63 - 1)),
    arrays(bool, _SHAPES),
    arrays(complex, _SHAPES, elements=st.complex_numbers()),
)
# Arguments that size the work (grid points, samples, degrees of freedom, iterations) draw
# only small valid values besides the junk, so a valid draw stays a small computation; a
# grid step may come near 0, since GRID_MAX_POINTS bounds the grid.  Valid seeds are drawn
# from the coordinates of a biped root and invalid phases, because Newton from an arbitrary
# phase can leave the scan window and overflow a hyperbolic kernel, which the refinement
# does not bound yet.
_SMALL_INTS = st.one_of(st.sampled_from(JUNK), st.integers(-3, 4))
_GRID_VALUES = st.one_of(st.sampled_from(JUNK), st.floats(-1.0, 20.0))
_STEP_VALUES = st.one_of(st.sampled_from(JUNK), st.floats(-1.0, 5.0))
# Valid phases of ``impact_residual`` stay within |o| <= 20 for the same reason: on the biped
# a phase beyond about 700 overflows a hyperbolic kernel, and the unit-row residual, which is
# finite there, comes out nan with an overflow warning.
_PHASE_VALUES = st.one_of(
    st.sampled_from(JUNK),
    arrays(float, st.tuples(st.just(2), st.integers(0, 3)), elements=st.floats(-20.0, 20.0)),
    st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=3),
)
_SEED_VALUES = st.one_of(
    st.sampled_from(JUNK),
    arrays(float, st.tuples(st.integers(0, 3), st.integers(1, 3)),
           elements=st.sampled_from([3.8, 0.93, 0.0, -1.0])),
)

_BIPED = cl.build_armed_biped()
_SPECTRAL = cl.analyze(_BIPED)
_LIMIT = cl.critical_limit(_SPECTRAL)
_RUN = cl.solve_model(_BIPED)
_SOLUTION = _RUN.records[0].solution
_TRAJECTORY = cl.synthesize(_SOLUTION, samples_per_phase=10)
_KERNEL_INPUTS = {"spectra": _SPECTRAL, "M": _SPECTRAL.M, "eta_vec": _SPECTRAL.eta}
_SPECTRA = {"lam": [-2.0, 1.0, 3.0], "lam_prime": [0.5, 2.0], "sigma": [-1, 1, -1],
            "sigma_prime": [1, -1]}


def _refine_roots(seeds, max_iter):
    return cl.refine_roots(seeds, _SPECTRAL, _SPECTRAL.M, _SPECTRAL.eta, max_iter=max_iter)


@dataclass(frozen=True)
class Case:
    """An entry point, valid keyword arguments for it, and the strategy of each replaced one."""

    name: str
    call: object
    valid: dict
    strategies: dict


def _case(name, call, valid, replaced=None, **strategies):
    replaced = valid if replaced is None else replaced
    return Case(name, call, valid, {arg: strategies.get(arg, _VALUES) for arg in replaced})


CASES = [
    _case("ModelSpec", lambda **kw: cl.ModelSpec(**kw), _BIPED.to_config(),
          replaced=["n", "mass", "stiffness", "sigma", "sigma_prime", "static_force",
                    "contact_sign"]),
    _case("load_model", lambda **kw: cl.load_model(kw), _BIPED.to_config(),
          replaced=["n", "mass", "stiffness", "sigma", "sigma_prime", "static_force",
                    "contact_sign"]),
    _case("SpectrumPair", cl.SpectrumPair, _SPECTRA),
    _case("cauchy_matrix", cl.cauchy_matrix, {"lam": [-2.0, 1.0, 3.0], "lam_prime": [0.5, 2.0]}),
    _case("cauchy_det", cl.cauchy_det, {"x": [1.0, 3.0], "y": [2.0, 4.0]}),
    _case("cauchy_inverse", cl.cauchy_inverse, {"x": [1.0, 3.0], "y": [2.0, 4.0]}),
    _case("eta", cl.eta, {"lam": [-2.0, 1.0, 3.0], "lam_prime": [0.5, 2.0]}),
    _case("mode_motion_vec", cl.mode_motion_vec,
          {"t": 0.7, "lam": [-2.0, 1.0, 3.0], "sigma": [-1, 1, -1]}),
    _case("phase_rate", cl.phase_rate, {"tau": 0.7, "lam": [-2.0, 1.0, 3.0], "sigma": [-1, 1, -1]}),
    _case("existence_gate", cl.existence_gate, {"lam_prime": [0.5, 2.0]}),
    _case("predicted_contact_phase", cl.predicted_contact_phase,
          {"c0": 1.3, "lam_prime_top": 0.04, "sigma_prime_top": 1}),
    _case("n2_spectrum", cl.n2_spectrum,
          {"family": "rocker", "nu1": 1.0, "omega2": 2.0, "omega1p": 1.0}),
    _case("contact_matrix", cl.contact_matrix, {"tau": 0.7, "tau_prime": 0.4, **_KERNEL_INPUTS},
          replaced=["tau", "tau_prime"]),
    _case("impact_residual", cl.impact_residual, {"o": [3.8, 0.93], **_KERNEL_INPUTS},
          replaced=["o"], o=_PHASE_VALUES),
    _case("model_from_spectra", cl.model_from_spectra,
          {"pair": cl.SpectrumPair(**_SPECTRA), "static_force": 1.0}),
    _case("refine_root", cl.refine_root, {"seed": (3.8, 0.93), **_KERNEL_INPUTS},
          replaced=["spectra"]),
    _case("build_solution", cl.build_solution, {"spectral": _SPECTRAL, "times": _SOLUTION.times}),
    _case("build_solutions", cl.build_solutions,
          {"spectral": _SPECTRAL, "times_list": [_SOLUTION.times]}),
    _case("critical_limit", cl.critical_limit, {"spectra": _SPECTRAL}),
    _case("critical_matrices", cl.critical_matrices, {"tau": 0.7, "spectra": _LIMIT}),
    _case("solve_critical", cl.solve_critical, {"spectra": _LIMIT}),
    _case("large_tau_asymptote", cl.large_tau_asymptote, {"n": 2, "spectra": _SPECTRAL},
          n=_SMALL_INTS),
    _case("asymptotic_grid", cl.asymptotic_grid, {"spectra": _SPECTRAL, "branches": [1, 2]}),
    _case("GridSpec.axes", lambda **kw: cl.GridSpec(**kw).axes(),
          {"o_n_max": 4.0, "o_p_max": 2.0, "step": 0.5, "o_n_min": 0.0, "o_p_min": 0.0},
          o_n_max=_GRID_VALUES, o_p_max=_GRID_VALUES, o_n_min=_GRID_VALUES,
          o_p_min=_GRID_VALUES, step=_STEP_VALUES),
    _case("solve_model", cl.solve_model, {"model": _BIPED, "grid": cl.GridSpec()}),
    _case("analyze", cl.analyze, {"model": _BIPED}),
    _case("scan_contour", cl.scan_contour, {"spectra": _SPECTRAL, "grid": cl.GridSpec()}),
    _case("synthesize", cl.synthesize, {"solution": _SOLUTION, "samples_per_phase": 10},
          samples_per_phase=_SMALL_INTS),
    _case("validate", cl.validate,
          {"solution": _SOLUTION, "model": _BIPED, "tolerances": cl.ValidatorTolerances()}),
    _case("validate_solutions", cl.validate_solutions,
          {"solutions": [_SOLUTION], "model": _BIPED}),
    _case("to_csv", lambda traj: cl.to_csv(traj, os.devnull), {"traj": _TRAJECTORY}),
    _case("pick_records run", lambda run: cl.pick_records(run, "all"), {"run": _RUN}),
    _case("pick_records", lambda **kw: cl.pick_records(_RUN, **kw), {"strategy": "lowest-row"}),
    _case("pick_records nearest", lambda target: cl.pick_records(_RUN, ("nearest", target)),
          {"target": (7.0, 1.0)}),
    _case("refine_roots", _refine_roots, {"seeds": [[3.8, 0.93]], "max_iter": 5},
          seeds=_SEED_VALUES, max_iter=_SMALL_INTS),
    _case("c0_sampling_study", cl.c0_sampling_study, {"n_samples": 2, "n_dof": 2, "seed": 1},
          n_samples=_SMALL_INTS, n_dof=_SMALL_INTS, seed=_SMALL_INTS),
]


def _outcome(case, arg, value):
    """Call the case with ``arg`` replaced by ``value``; a CollisionlessError is an outcome too."""
    try:
        return case.call(**{**case.valid, arg: value})
    except cl.CollisionlessError as exc:
        return exc


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_valid_arguments_give_a_result(case):
    assert not isinstance(case.call(**case.valid), Exception)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_junk_arguments_give_a_result_or_a_collisionless_error(case):
    for arg in case.strategies:
        for value in JUNK:
            _outcome(case, arg, value)


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_generated_arguments_give_a_result_or_a_collisionless_error(case, data):
    arg = data.draw(st.sampled_from(sorted(case.strategies)), label="argument")
    _outcome(case, arg, data.draw(case.strategies[arg], label=arg))
