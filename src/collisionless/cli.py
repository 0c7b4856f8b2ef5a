"""Command-line interface: solve, scan, export, and regression-check models."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import fields

import numpy as np

from . import __version__
from .closed_form import SOLVERS
from .critical import (
    asymptotic_grid,
    c0_sampling_study,
    critical_limit,
    solve_critical,
)
from .errors import (
    CollisionlessError,
    InvalidParameterError,
    NoRootError,
    ReferenceMismatchError,
    ValidationFailedError,
)
from .impact import GridSpec, scan_contour
from .model import BUILTIN_MODELS, _check_positive, builtin_model, load_model, n2_spectrum
from .pipeline import pick_records, solve_model
from .reference import REFERENCE, TOLERANCES, compare_reference
from .spectral import analyze
from .trajectory import (
    SAMPLES,
    ValidatorTolerances,
    _agrees,
    synthesize,
    to_csv,
    to_json,
    to_svg,
    trajectory_from_json,
    validate,
)

EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    # keep exit code 2 reserved for the existence gate
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, config, outputs, seed=None, inputs=(), timings=None):
    """Write ``{args.out}.manifest.json``; ``main`` stores argv and the start time on args.

    ``timings``, when given, are the stage wall times of a solve.
    """
    manifest = {
        "command": args.command,
        "argv": args.argv,
        "config": config,
        "version": __version__,
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "outputs": [str(p) for p in outputs],
        "wall_time_s": time.perf_counter() - args.started,
    }
    if timings is not None:
        manifest["timings"] = timings
    path = f"{args.out}.manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return path


def _add_model_args(parser):
    parser.add_argument("--model", default=None, help="built-in model name")
    parser.add_argument("--config", default=None, help="path to a JSON model file")


def _resolve_model(args):
    if args.config:
        return load_model(args.config), [args.config]
    name = args.model or "armed-biped"
    return builtin_model(name), []


def _add_grid_args(parser):
    parser.add_argument("--o-n-max", type=float, default=4 * np.pi)
    parser.add_argument("--o-p-max", type=float, default=2 * np.pi)
    parser.add_argument("--o-n-min", type=float, default=0.0)
    parser.add_argument("--o-p-min", type=float, default=0.0)
    parser.add_argument("--grid-step", type=float, default=0.05)


def _grid_from_args(args):
    return GridSpec(
        o_n_max=args.o_n_max,
        o_p_max=args.o_p_max,
        step=args.grid_step,
        o_n_min=args.o_n_min,
        o_p_min=args.o_p_min,
    )


def _tolerances_from_args(args):
    factor = getattr(args, "tol", 1.0)
    _check_positive(tol=factor)
    if factor == 1.0:
        return None
    base = ValidatorTolerances()
    return ValidatorTolerances(**{f.name: factor * getattr(base, f.name) for f in fields(base)})


def _parse_pick(text):
    if text in ("lowest-row", "all"):
        return text
    if text.startswith("nearest="):
        point = tuple(float(part) for part in text[len("nearest=") :].split(","))
        if len(point) != 2 or not np.all(np.isfinite(point)):
            raise argparse.ArgumentTypeError("nearest expects nearest=O_N,O_PRIME with finite phases")
        return ("nearest", point)
    raise argparse.ArgumentTypeError(f"unknown pick strategy {text!r}")


def _parse_branches(text):
    lo, sep, hi = text.partition("..")
    try:
        branches = list(range(int(lo), int(hi if sep else lo) + 1))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected N or LO..HI, got {text!r}") from None
    if not branches or branches[0] < 1:
        raise argparse.ArgumentTypeError(f"expected a non-empty range of positive branches, got {text!r}")
    return branches


def _reject_options(args, names, mode):
    """Raise InvalidParameterError if any of the named options was given to a mode that ignores it."""
    given = [f"--{name}" for name in names if getattr(args, name) is not None]
    if given:
        raise InvalidParameterError(f"{mode} takes no {', '.join(given)} option")


def _record_to_dict(record):
    return {
        **record.solution.to_dict(),
        "row": record.row,
        "col": record.col,
        "validation": record.report.to_dict(),
    }


def _emit(payload, args, outputs, prefix=None):
    text = json.dumps(payload, indent=2, sort_keys=True)
    if prefix is not None:
        path = f"{prefix}.json"
        with open(path, "w") as fh:
            fh.write(text + "\n")
        outputs.append(path)
    if getattr(args, "json", False) or prefix is None:
        print(text)


# ------------------------------------------------------------------- commands

def _cmd_list_models(args):
    for name in sorted(BUILTIN_MODELS):
        print(name)
    print("n2 families: hopper, juggler, rimless, rocker (see 'analytic2')")


def _solve_and_pick(model, args):
    """(run, picked records) of a solve; raises ValidationFailedError if none is picked."""
    run = solve_model(model, _grid_from_args(args), tolerances=_tolerances_from_args(args))
    picked = pick_records(run, args.pick)
    if not picked:
        raise ValidationFailedError("all converged roots failed physical validation")
    return run, picked


def _cmd_solve(args):
    model, inputs = _resolve_model(args)
    run, picked = _solve_and_pick(model, args)
    payload = {
        "model": model.name,
        "pick": str(args.pick),
        "solutions": [_record_to_dict(r) for r in picked],
        "spurious_roots": run.spurious_roots,
        "failed_seeds": run.failed_seeds,
        "timings": run.timings,
    }
    outputs = []
    _emit(payload, args, outputs, args.out)
    if args.out:
        outputs.append(
            _write_manifest(args, model.to_config(), outputs, inputs=inputs, timings=run.timings)
        )


def _cmd_contour(args):
    model, inputs = _resolve_model(args)
    spectral = analyze(model)
    field = scan_contour(spectral, _grid_from_args(args))
    crosses = None
    if args.asymptotes:
        try:
            crosses = asymptotic_grid(spectral, args.asymptotes)
        except CollisionlessError as exc:
            print(f"asymptote overlay skipped: {exc}", file=sys.stderr)
    outputs = []
    if args.format in ("all", "csv"):
        path = f"{args.out}.csv"
        field.to_csv(path)
        outputs.append(path)
    if args.format in ("all", "svg"):
        path = f"{args.out}.svg"
        field.to_svg(path, asymptotes=crosses)
        outputs.append(path)
    outputs.append(_write_manifest(args, model.to_config(), outputs, inputs=inputs))
    print(f"{field.seeds.shape[0]} seed cells; wrote {', '.join(outputs)}")


def _cmd_trajectory(args):
    model, inputs = _resolve_model(args)
    _, picked = _solve_and_pick(model, args)
    record = picked[0]
    traj = synthesize(record.solution, args.samples)
    outputs = []
    if args.format in ("all", "csv"):
        to_csv(traj, f"{args.out}.csv")
        outputs.append(f"{args.out}.csv")
    if args.format in ("all", "json"):
        to_json(traj, f"{args.out}.json")
        outputs.append(f"{args.out}.json")
    if args.format in ("all", "svg"):
        to_svg(traj, f"{args.out}.svg")
        outputs.append(f"{args.out}.svg")
    outputs.append(_write_manifest(args, model.to_config(), outputs, inputs=inputs))
    print(f"tau={record.solution.times.tau:.6g} tau'={record.solution.times.tau_prime:.6g}; wrote {', '.join(outputs)}")


def _cmd_validate(args):
    model, _ = _resolve_model(args)
    traj = trajectory_from_json(args.trajectory)
    # the samples must be those of the stored solution
    fresh = synthesize(traj.meta, (traj.t.size - 1) // 2)
    for name in SAMPLES:
        if not _agrees(getattr(traj, name), getattr(fresh, name)):
            raise ValidationFailedError(f"trajectory samples disagree with their solution: {name}")
    report = validate(traj.meta, model, tolerances=_tolerances_from_args(args))
    print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    if not report.passed:
        raise ValidationFailedError("the stored solution failed physical validation")


def _cmd_analytic2(args):
    kwargs = {"omega2": args.omega2, "omega1p": args.omega1p}
    if args.family in ("rimless", "rocker"):
        kwargs["nu1"] = args.nu1
    else:
        _reject_options(args, ("nu1",), args.family)
    rows = []
    for n in args.n:
        try:
            sol = SOLVERS[args.family](**kwargs, n=n)
        except NoRootError as exc:
            rows.append({"n": n, "error": str(exc)})
            continue
        rows.append({"n": n, **{k: getattr(sol, k) for k in ("o_2", "o_prime_1", "tau", "tau_prime", "mu")}})
    payload = {"family": args.family, "branches": rows}
    outputs = []
    _emit(payload, args, outputs, args.out)
    if args.out:
        config = {k: v for k, v in vars(args).items() if k not in ("func", "argv", "started")}
        _write_manifest(args, config, outputs)


def _cmd_critical(args):
    inputs, seed = [], None
    if args.study_c0:
        _reject_options(args, ("nu1", "omega2", "omega1p", "branches"), "--study-c0")
        n_dof = 3 if args.n is None else args.n
        samples = 1000 if args.samples is None else args.samples
        seed = 0 if args.seed is None else args.seed
        payload = c0_sampling_study(samples, n_dof, seed).to_dict()
    else:
        mode = "--family" if args.family else "--model/--config"
        _reject_options(args, ("n", "samples", "seed"), mode)
        if args.family:
            spectra = n2_spectrum(args.family, nu1=args.nu1, omega2=args.omega2, omega1p=args.omega1p)
        else:
            _reject_options(args, ("nu1", "omega2", "omega1p"), mode)
            model, inputs = _resolve_model(args)
            spectra = analyze(model)
        tau_c, c0 = solve_critical(critical_limit(spectra))
        payload = {"tau_critical": tau_c, "c0": c0}
        if args.branches:
            pts = asymptotic_grid(spectra, args.branches)
            payload["asymptotic_grid"] = [
                {"n": n, "o_n": float(p[0]), "o_prime": float(p[1])}
                for n, p in zip(args.branches, pts)
            ]
    outputs = []
    _emit(payload, args, outputs, args.out)
    if args.out:
        _write_manifest(args, payload, outputs, seed=seed, inputs=inputs)


def _load_fixtures(path, computed):
    """Reference table from a JSON object of reproduced quantities, each shaped as computed."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        if not isinstance(raw, dict):
            raise TypeError("expected a JSON object")
        reference = {name: np.asarray(value, dtype=float) for name, value in raw.items()}
    except (OSError, ValueError, TypeError) as exc:
        raise InvalidParameterError(
            f"cannot read fixtures file {path}: {type(exc).__name__}: {exc}"
        ) from exc
    shapes = {name: np.shape(value) for name, value in computed.items()}
    for name, value in reference.items():
        if shapes.get(name) != value.shape:
            raise InvalidParameterError(
                f"fixtures file {path}: {name!r} of shape {value.shape} is not one of {shapes}"
            )
    return reference


def _cmd_reproduce(args):
    run = solve_model(builtin_model("armed-biped"))
    spectral = run.spectral
    solution = pick_records(run, "lowest-row")[0].solution
    computed = {
        "lam": spectral.lam,
        "lam_prime": spectral.lam_prime,
        "norm_const": spectral.norm_const,
        "cauchy": spectral.M,
        "mode_matrix": spectral.mode_matrix,
        "mode_matrix_prime": spectral.mode_matrix_prime,
        "tau": solution.times.tau,
        "tau_prime": solution.times.tau_prime,
        "q": solution.q,
        "q_prime": solution.q_prime,
    }
    reference = _load_fixtures(args.fixtures, computed) if args.fixtures else REFERENCE
    rows = compare_reference(computed, reference, TOLERANCES)
    if args.json:
        payload = {
            "rows": [vars(r) for r in rows],
            "passed": all(r.passed for r in rows),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        width = max(len(r.name) for r in rows)
        for r in rows:
            status = "pass" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  max diff {r.max_diff:11.4e}  tol {r.tolerance:8.1e} ({r.mode})  {status}")
        print("all quantities reproduced" if all(r.passed for r in rows) else "MISMATCH")
    if not all(r.passed for r in rows):
        raise ReferenceMismatchError("reproduced values differ from the reference table")


def build_parser():
    parser = _Parser(prog="collisionless", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-models", help="list built-in models").set_defaults(func=_cmd_list_models)

    p = sub.add_parser("solve", help="find and validate impact-time roots")
    _add_model_args(p)
    _add_grid_args(p)
    p.add_argument("--pick", type=_parse_pick, default="lowest-row")
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale factor on the physical-validation tolerances")
    p.add_argument("--out", default=None, help="output prefix (writes PREFIX.json + manifest)")
    p.add_argument("--json", action="store_true", help="print the JSON payload")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("contour", help="export the determinant zero contours")
    _add_model_args(p)
    _add_grid_args(p)
    p.add_argument("--out", required=True, help="output prefix")
    p.add_argument("--format", choices=("all", "csv", "svg"), default="all")
    p.add_argument("--asymptotes", type=_parse_branches, default=None, help="overlay branches, e.g. 3..6")
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("trajectory", help="solve and export a trajectory")
    _add_model_args(p)
    _add_grid_args(p)
    p.add_argument("--pick", type=_parse_pick, default="lowest-row")
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale factor on the physical-validation tolerances")
    p.add_argument("--samples", type=int, default=500)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("all", "csv", "json", "svg"), default="all")
    p.set_defaults(func=_cmd_trajectory)

    p = sub.add_parser("validate", help="validate an exported trajectory JSON")
    _add_model_args(p)
    p.add_argument("--trajectory", required=True)
    p.add_argument("--tol", type=float, default=1.0,
                   help="scale factor on the physical-validation tolerances")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analytic2", help="closed-form branches of the 2-DOF families")
    p.add_argument("--family", choices=sorted(SOLVERS), required=True)
    p.add_argument("--nu1", type=float, default=None)
    p.add_argument("--omega2", type=float, required=True)
    p.add_argument("--omega1p", type=float, required=True)
    p.add_argument("--n", type=_parse_branches, default="1..5", help="branch or range, e.g. 2 or 1..5")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_analytic2)

    p = sub.add_parser("critical", help="critical-region report or c0 sampling study")
    source = p.add_mutually_exclusive_group(required=True)
    _add_model_args(source)
    source.add_argument("--family", choices=sorted(SOLVERS), default=None)
    source.add_argument("--study-c0", action="store_true")
    p.add_argument("--nu1", type=float, default=None)
    p.add_argument("--omega2", type=float, default=None)
    p.add_argument("--omega1p", type=float, default=None)
    p.add_argument("--branches", type=_parse_branches, default=None, help="asymptotic branches, e.g. 3..6")
    p.add_argument("--n", type=int, default=None, help="study dimension (default 3)")
    p.add_argument("--samples", type=int, default=None, help="study samples (default 1000)")
    p.add_argument("--seed", type=int, default=None, help="study seed (default 0)")
    p.add_argument("--out", default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("reproduce", help="recompute the golden armed-biped values")
    p.add_argument("--json", action="store_true")
    p.add_argument("--fixtures", default=None, help="override the golden table (JSON)")
    p.set_defaults(func=_cmd_reproduce)

    return parser


def _check_out_dir(prefix):
    """Reject an output prefix whose directory does not exist, before any work is done."""
    if prefix is None:
        return
    directory = os.path.dirname(prefix) or "."
    if not os.path.isdir(directory):
        raise InvalidParameterError(f"output directory does not exist: {directory}")


def main(argv=None) -> int:
    """Run one command; a CollisionlessError exits with its class's ``exit_code``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    args.argv = argv
    args.started = time.perf_counter()
    try:
        _check_out_dir(getattr(args, "out", None))
        args.func(args)
    except CollisionlessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
