"""Mechanical model definitions: matrices, symmetry signatures, contact metadata.

A model is an N-DOF linear (small-oscillation) system whose last coordinate is
intermittently held fixed by a one-dimensional ground contact.  Besides the mass
and stiffness matrices it carries the per-mode time-reversal signatures of the
periodic solution sought (``sigma``/``sigma_prime``, one entry of +1 or -1 per
mode of the free/contact phase), the static contact force, and the sign of the
direction in which the contact coordinate is free to separate.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .cauchy import cauchy_matrix, eta as cauchy_eta
from .errors import InterlacingError, InvalidModelError, InvalidParameterError

__all__ = [
    "ModelSpec",
    "SpectrumPair",
    "build_armed_biped",
    "n2_model",
    "n2_spectrum",
    "load_model",
    "builtin_model",
    "BUILTIN_MODELS",
]


def _check_positive(**values):
    """Raise InvalidParameterError unless every value is a positive finite number."""
    for label, value in values.items():
        if not isinstance(value, (int, float, np.integer, np.floating)) or not (
            np.isfinite(value) and value > 0
        ):
            raise InvalidParameterError(f"{label} must be positive, got {value!r}")


def _check_branch_index(n):
    """Raise InvalidParameterError unless n is a positive integer branch index."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise InvalidParameterError(f"branch index must be a positive integer, got {n!r}")


def _frozen(values, dtype=float):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _as_dict(record, skip=()) -> dict:
    """The fields of a dataclass record, except ``skip``, with arrays and tuples as lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}
    return {
        name: v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v
        for name, v in values.items()
    }


def _numeric(values, label, dtype=None):
    """``values`` as an array of ``dtype``; bool and string entries raise InvalidModelError."""
    if not isinstance(values, np.ndarray) or values.dtype.kind not in "iuf":
        if any(isinstance(v, (bool, np.bool_, str, bytes)) for v in np.asarray(values, object).flat):
            raise InvalidModelError(f"{label} entries must be numbers")
    return np.asarray(values, dtype)


def _check_signature(sig, length, label):
    arr = _numeric(sig, label)
    if arr.shape != (length,):
        raise InvalidModelError(f"{label} must have length {length}, got shape {arr.shape}")
    if not np.all((arr == 1) | (arr == -1)):
        raise InvalidModelError(f"{label} entries must be +1 or -1")
    return _frozen(arr, int)


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """Validated N-DOF model.

    Fields
    ------
    name : identifier used in output files.
    n : number of degrees of freedom in the free phase.
    mass : (n, n) symmetric positive-definite mass matrix.
    stiffness : (n, n) symmetric non-singular stiffness matrix.
    sigma, sigma_prime : per-mode symmetry signatures (+1 odd, -1 even kernel)
        for the free and contact phases.
    static_force : static generalized contact force on coordinate n.
    contact_sign : +1 or -1, the direction in which coordinate n may leave
        the contact level.

    All invariants are checked eagerly; arrays are stored read-only.
    """

    name: str
    n: int
    mass: np.ndarray
    stiffness: np.ndarray
    sigma: np.ndarray
    sigma_prime: np.ndarray
    static_force: float
    contact_sign: int

    def __post_init__(self):
        n = self.n
        if not isinstance(n, (int, np.integer)) or n < 2:
            raise InvalidModelError(f"n must be an integer >= 2, got {self.n!r}")
        mass = _numeric(self.mass, "mass", float)
        stiffness = _numeric(self.stiffness, "stiffness", float)
        for label, mat in (("mass", mass), ("stiffness", stiffness)):
            if mat.shape != (n, n):
                raise InvalidModelError(f"{label} must be {n}x{n}, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise InvalidModelError(f"{label} contains non-finite entries")
        scale_m = np.abs(mass).max()
        if np.abs(mass - mass.T).max() > 1e-12 * max(scale_m, 1e-300):
            raise InvalidModelError("asymmetric mass matrix")
        if np.linalg.eigvalsh(mass).min() <= 0:
            raise InvalidModelError("mass matrix is not positive definite")
        scale_k = np.abs(stiffness).max()
        if np.abs(stiffness - stiffness.T).max() > 1e-12 * max(scale_k, 1e-300):
            raise InvalidModelError("asymmetric stiffness matrix")
        svals = np.linalg.svd(stiffness, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise InvalidModelError("singular stiffness matrix")
        if isinstance(self.contact_sign, (bool, np.bool_)) or self.contact_sign not in (-1, 1):
            raise InvalidModelError("contact_sign must be +1 or -1")
        if not np.isfinite(self.static_force):
            raise InvalidModelError("static_force must be finite")
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "mass", _frozen(mass))
        object.__setattr__(self, "stiffness", _frozen(stiffness))
        object.__setattr__(self, "sigma", _check_signature(self.sigma, n, "sigma"))
        object.__setattr__(self, "sigma_prime", _check_signature(self.sigma_prime, n - 1, "sigma_prime"))
        object.__setattr__(self, "static_force", float(self.static_force))
        object.__setattr__(self, "contact_sign", int(self.contact_sign))

    def to_config(self) -> dict:
        """Plain-dict form matching the JSON model-file schema."""
        return _as_dict(self)


@dataclass(frozen=True, eq=False)
class SpectrumPair:
    """Eigenvalue pair (free phase ``lam``, contact phase ``lam_prime``) with signatures.

    The impact-time equations depend on the model only through this object.
    Entries must strictly interlace: lam[0] < lam_prime[0] < lam[1] < ... < lam[-1].
    """

    lam: np.ndarray
    lam_prime: np.ndarray
    sigma: np.ndarray
    sigma_prime: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lam, float)
        lamp = np.asarray(self.lam_prime, float)
        n = lam.shape[0] if lam.ndim == 1 else 0
        if n < 2 or lamp.shape != (n - 1,):
            raise InvalidParameterError(
                f"need ascending spectra of lengths n and n-1, got {lam.shape} and {lamp.shape}"
            )
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(lamp))):
            raise InvalidParameterError("spectra must be finite")
        merged = np.empty(2 * n - 1)
        merged[0::2] = lam
        merged[1::2] = lamp
        if not np.all(np.diff(merged) > 0):
            raise InterlacingError(
                f"spectra do not strictly interlace: lam={lam.tolist()}, lam_prime={lamp.tolist()}"
            )
        object.__setattr__(self, "lam", _frozen(lam))
        object.__setattr__(self, "lam_prime", _frozen(lamp))
        object.__setattr__(self, "sigma", _check_signature(self.sigma, n, "sigma"))
        object.__setattr__(self, "sigma_prime", _check_signature(self.sigma_prime, n - 1, "sigma_prime"))

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @property
    def omega_top(self) -> float:
        """|omega_N|, the frequency scale of the free-phase impact phase."""
        return float(np.sqrt(abs(self.lam[-1])))

    @property
    def omega_prime_top(self) -> float:
        """|omega'_{N-1}|, the frequency scale of the contact-phase impact phase."""
        return float(np.sqrt(abs(self.lam_prime[-1])))

    @cached_property
    def M(self) -> np.ndarray:
        """Read-only Cauchy matrix M[i, j] = 1/(lam_i - lam'_j), built once per pair."""
        return _frozen(cauchy_matrix(self.lam, self.lam_prime))

    @cached_property
    def eta(self) -> np.ndarray:
        """Read-only squared contact-row amplitudes (``cauchy.eta``), built once per pair."""
        return _frozen(cauchy_eta(self.lam, self.lam_prime))

    def to_phase(self, tau: float, tau_prime: float) -> tuple[float, float]:
        """Convert impact times to dimensionless impact phases (o_N, o'_{N-1})."""
        return self.omega_top * tau, self.omega_prime_top * tau_prime

    def from_phase(self, o_n: float, o_prime: float) -> tuple[float, float]:
        """Convert impact phases back to impact times."""
        return o_n / self.omega_top, o_prime / self.omega_prime_top


def build_armed_biped(theta: float = 1.0, m0: float = 1.0, m1: float = 1.0,
                      m2: float = 1.0, m3: float = 1.0, l: float = 1.0,
                      g: float = 1.0) -> ModelSpec:
    """Planar 3-DOF rocking biped: rigid leg pair, standing torso, hanging arm.

    Coordinates are the arm, torso and stance-leg angles measured from the
    static equilibrium; the leg pair is splayed at half-angle ``theta``.  The
    harmonic approximation is exact in the limit theta -> 0, and theta enters
    only as the scale of the static contact force (and hence of the trajectory
    amplitudes), so results computed with theta=1 are "per unit of theta".

    m0 is the mass of each of the two feet; m1..m3 are the arm, torso and leg
    masses; all links share length ``l``.
    """
    _check_positive(theta=theta, m0=m0, m1=m1, m2=m2, m3=m3, l=l, g=g)
    total = 2 * m0 + m1 + m2 + m3
    mass = l ** 2 * np.array(
        [
            [m1, -m1, -m1],
            [-m1, m1 + m2, m1 + m2],
            [-m1, m1 + m2, m1 + m2 + m3],
        ]
    )
    stiffness = g * l * np.diag([m1, -(m1 + m2), -(m1 + m2 + m3)])
    return ModelSpec(
        name="armed-biped",
        n=3,
        mass=mass,
        stiffness=stiffness,
        sigma=np.array([-1, -1, -1]),
        sigma_prime=np.array([1, 1]),
        static_force=theta * total * g * l,
        contact_sign=1,
    )


def n2_model(pair: SpectrumPair, name: str = "n2", static_force: float = 0.0) -> ModelSpec:
    """Minimal 2-DOF realization of a spectrum pair (identity mass matrix).

    The stiffness is chosen so that the free spectrum is ``pair.lam`` and the
    contact (1x1) spectrum is ``pair.lam_prime``.  Useful for exercising the
    full matrix pipeline on the closed-form 2-DOF families.
    """
    if pair.n != 2:
        raise InvalidParameterError("n2_model requires a 2-DOF spectrum pair")
    lam1, lam2 = pair.lam
    lp1 = pair.lam_prime[0]
    # k11 fixes the contact spectrum; trace and determinant fix the rest.
    k11 = lp1
    k22 = lam1 + lam2 - lp1
    off_sq = k11 * k22 - lam1 * lam2
    if off_sq < 0:
        raise InterlacingError("no symmetric stiffness realizes these spectra")
    k12 = np.sqrt(off_sq)
    stiffness = np.array([[k11, k12], [k12, k22]])
    return ModelSpec(
        name=name,
        n=2,
        mass=np.eye(2),
        stiffness=stiffness,
        sigma=pair.sigma,
        sigma_prime=pair.sigma_prime,
        static_force=static_force,
        contact_sign=1,
    )


def n2_spectrum(family: str, *, nu1: float | None = None, omega2: float,
                omega1p: float) -> SpectrumPair:
    """Spectrum pair of one of the named 2-DOF families.

    hopper / juggler : lam = [0, omega2^2], even/even free modes, odd contact mode.
    rimless          : rolling wheel-with-pendulum; lam1 = -nu1^2 < 0, odd modes.
    rocker           : side-to-side rocking; same spectra as rimless, even free modes.
    """
    _check_positive(omega2=omega2, omega1p=omega1p)
    family = family.lower()
    if family in ("hopper", "juggler"):
        if nu1 is not None:
            raise InvalidParameterError(f"{family} takes no nu1 parameter")
        return SpectrumPair(
            lam=[0.0, omega2 ** 2],
            lam_prime=[omega1p ** 2],
            sigma=[-1, -1],
            sigma_prime=[-1],
        )
    if family in ("rimless", "rocker"):
        _check_positive(nu1=nu1)
        sig = [1, 1] if family == "rimless" else [-1, -1]
        return SpectrumPair(
            lam=[-nu1 ** 2, omega2 ** 2],
            lam_prime=[omega1p ** 2],
            sigma=sig,
            sigma_prime=[1],
        )
    raise InvalidParameterError(f"unknown family {family!r}")


def _config_number(config, key, integral=False):
    """config[key] as a float, or an int if ``integral``; bools, strings and fractions raise."""
    value = config[key]
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or (
        integral and not isinstance(value, numbers.Integral) and not float(value).is_integer()
    ):
        raise InvalidModelError(f"{key} must be {'an integer' if integral else 'a number'}, got {value!r}")
    return int(value) if integral else float(value)


def load_model(source) -> ModelSpec:
    """Load and validate a model from a JSON file path or a dict."""
    if isinstance(source, dict):
        config = source
    else:
        try:
            config = json.loads(Path(source).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidModelError(f"cannot parse model file: {exc}") from exc
    if not isinstance(config, dict):
        raise InvalidModelError("model file must contain a JSON object")
    missing = {f.name for f in fields(ModelSpec)} - config.keys()
    if missing:
        raise InvalidModelError(f"model file missing keys: {sorted(missing)}")
    try:
        return ModelSpec(**{
            **{f.name: config[f.name] for f in fields(ModelSpec)},
            "name": str(config["name"]),
            "n": _config_number(config, "n", integral=True),
            "static_force": _config_number(config, "static_force"),
            "contact_sign": _config_number(config, "contact_sign", integral=True),
        })
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, InvalidModelError):
            raise
        raise InvalidModelError(f"malformed model file: {exc}") from exc


BUILTIN_MODELS = {
    "armed-biped": build_armed_biped,
}


def builtin_model(name: str) -> ModelSpec:
    """Construct a built-in model by name (see ``BUILTIN_MODELS``)."""
    try:
        factory = BUILTIN_MODELS[name]
    except KeyError:
        raise InvalidParameterError(
            f"unknown model {name!r}; available: {sorted(BUILTIN_MODELS)}"
        ) from None
    return factory()
