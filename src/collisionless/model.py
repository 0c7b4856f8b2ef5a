"""Mechanical model definitions: matrices, symmetry signatures, contact metadata.

A model is an N-DOF linear (small-oscillation) system whose last coordinate is
intermittently held fixed by a one-dimensional ground contact.  Besides the mass
and stiffness matrices it carries the per-mode time-reversal signatures of the
periodic solution sought (``sigma``/``sigma_prime``, one entry of +1 or -1 per
mode of the free/contact phase), the static contact force, and the sign of the
direction in which the contact coordinate is free to separate.
``model_from_spectra`` realizes any strictly interlaced spectrum pair as such
a model, for every N >= 2.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .cauchy import _weights, cauchy_matrix, eta as cauchy_eta
from .errors import InterlacingError, InvalidModelError, InvalidParameterError, ZeroModeError
from .errors import _check_positive, _is_real, _real_array, _real_number, _require_instance

__all__ = [
    "ModelSpec",
    "SpectrumPair",
    "build_armed_biped",
    "model_from_spectra",
    "n2_spectrum",
    "load_model",
    "builtin_model",
    "BUILTIN_MODELS",
]

ZERO_EIGENVALUE_ATOL = 1e-14


def _frozen(values, dtype=float):
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def _kernel_constants(lam, sigma):
    """(omega, oscillatory, even, rate): the constants of one phase's mode kernels.

    omega = sqrt|lam|; a mode is oscillatory where lam > 0 and has the even
    kernel where sigma = -1.  The even kernel's velocity is rate times the odd
    function: d/dt cos = -omega sin and d/dt cosh = omega sinh.
    """
    om = np.sqrt(np.abs(lam))
    osc = lam > 0
    return om, osc, sigma == -1, np.where(osc, -om, om)


def _zero_modes(lam):
    """Mask of the eigenvalues within ZERO_EIGENVALUE_ATOL of the spectrum's largest |lam|."""
    return np.abs(lam) <= ZERO_EIGENVALUE_ATOL * np.abs(lam).max(initial=0.0)


def _require_nonzero_spectra(spectra):
    # max |lam| is the pair's by interlacing; the existence gate refuses a zero top lam'
    if _zero_modes(np.concatenate([spectra.lam, spectra.lam_prime[:-1]])).any():
        raise ZeroModeError(
            "the generic solver requires non-zero free eigenvalues and contact eigenvalues "
            "below the top one (zero-frequency families are handled by the closed forms)"
        )


def _as_dict(record, skip=()) -> dict:
    """The fields of a dataclass record, except ``skip``, with arrays and tuples as lists."""
    values = {f.name: getattr(record, f.name) for f in fields(record) if f.name not in skip}
    return {
        name: v.tolist() if isinstance(v, np.ndarray) else list(v) if isinstance(v, tuple) else v
        for name, v in values.items()
    }


def _check_signature(sig, shape, label):
    arr = _real_array(sig, label, InvalidModelError)
    if arr.shape != shape:
        raise InvalidModelError(f"{label} must have shape {shape}, got shape {arr.shape}")
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
        n = _real_number(self.n, "n", InvalidModelError, minimum=2)
        mass = _real_array(self.mass, "mass", InvalidModelError)
        stiffness = _real_array(self.stiffness, "stiffness", InvalidModelError)
        for label, mat in (("mass", mass), ("stiffness", stiffness)):
            if mat.shape != (n, n):
                raise InvalidModelError(f"{label} must be {n}x{n}, got {mat.shape}")
            if not np.all(np.isfinite(mat)):
                raise InvalidModelError(f"{label} contains non-finite entries")
            with np.errstate(over="ignore"):   # a difference that overflows is an asymmetry
                if np.abs(mat - mat.T).max() > 1e-12 * max(np.abs(mat).max(), 1e-300):
                    raise InvalidModelError(f"asymmetric {label} matrix")
        if np.linalg.eigvalsh(mass).min() <= 0:
            raise InvalidModelError("mass matrix is not positive definite")
        svals = np.linalg.svd(stiffness, compute_uv=False)
        if svals[-1] <= 1e-12 * svals[0]:
            raise InvalidModelError("singular stiffness matrix")
        if not (_is_real(self.contact_sign) and self.contact_sign in (-1, 1)):
            raise InvalidModelError("contact_sign must be +1 or -1")
        static_force = _real_number(self.static_force, "static_force", InvalidModelError)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "mass", _frozen(mass))
        object.__setattr__(self, "stiffness", _frozen(stiffness))
        object.__setattr__(self, "sigma", _check_signature(self.sigma, (n,), "sigma"))
        object.__setattr__(self, "sigma_prime", _check_signature(self.sigma_prime, (n - 1,), "sigma_prime"))
        object.__setattr__(self, "static_force", static_force)
        object.__setattr__(self, "contact_sign", int(self.contact_sign))

    def to_config(self) -> dict:
        """Plain-dict form matching the JSON model-file schema."""
        return _as_dict(self)

    @cached_property
    def static_offset(self) -> np.ndarray:
        """Read-only static equilibrium offset x0, k^-1 times the static force on coordinate n.

        Solved once per model: ``analyze`` and every ``validate`` of the
        model's solutions share it.
        """
        rhs = np.zeros(self.n)
        rhs[-1] = self.static_force
        return _frozen(np.linalg.solve(self.stiffness, rhs))


def _check_spectra(lam, lam_prime, sigma, sigma_prime, ndim=1):
    """Read-only (lam, lam_prime, sigma, sigma_prime) after ``SpectrumPair``'s checks.

    ``lam`` has ``ndim`` axes, the last of length n >= 2; the others stack
    spectra, which are checked row by row.  ``lam_prime`` has one entry fewer
    per row, the signatures match the spectra's shapes, every row is finite
    and strictly interlaced, and every signature is +1 or -1.
    """
    lam = _real_array(lam, "lam", InvalidParameterError)
    lamp = _real_array(lam_prime, "lam_prime", InvalidParameterError)
    n = lam.shape[-1] if lam.ndim == ndim else 0
    if n < 2 or lamp.shape != lam.shape[:-1] + (n - 1,):
        raise InvalidParameterError(
            f"need ascending spectra of lengths n and n-1, got {lam.shape} and {lamp.shape}"
        )
    if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(lamp))):
        raise InvalidParameterError("spectra must be finite")
    merged = np.empty(lam.shape[:-1] + (2 * n - 1,))
    merged[..., 0::2] = lam
    merged[..., 1::2] = lamp
    crossed = ~np.all(np.diff(merged, axis=-1) > 0, axis=-1)
    if np.any(crossed):
        row = tuple(np.argwhere(crossed)[0])
        raise InterlacingError(
            "spectra do not strictly interlace: "
            f"lam={lam[row].tolist()}, lam_prime={lamp[row].tolist()}"
        )
    return (
        _frozen(lam),
        _frozen(lamp),
        _check_signature(sigma, lam.shape, "sigma"),
        _check_signature(sigma_prime, lamp.shape, "sigma_prime"),
    )


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
        checked = _check_spectra(self.lam, self.lam_prime, self.sigma, self.sigma_prime)
        for name, value in zip(("lam", "lam_prime", "sigma", "sigma_prime"), checked):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @cached_property
    def omega_top(self) -> float:
        """|omega_N|, the frequency scale of the free-phase impact phase."""
        return float(np.sqrt(abs(self.lam[-1])))

    @cached_property
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

    @cached_property
    def kernels(self) -> tuple:
        """Read-only ``_kernel_constants`` of the free and the contact phase, built once per pair.

        The generic solver's kernels need every free eigenvalue and contact
        eigenvalue below the top one non-zero (zero frequencies have closed
        forms), else ZeroModeError here; the check runs once per pair.
        """
        _require_nonzero_spectra(self)
        constants = (_kernel_constants(self.lam, self.sigma),
                     _kernel_constants(self.lam_prime, self.sigma_prime))
        for array in (*constants[0], *constants[1]):
            array.setflags(write=False)
        return constants

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


def model_from_spectra(pair: SpectrumPair, name: str = "spectral",
                       static_force: float = 0.0) -> ModelSpec:
    """Arrowhead realization of a spectrum pair: identity mass, contact coordinate last.

    The stiffness [[diag(lam'), b], [b^T, a]] has contact spectrum
    ``pair.lam_prime`` and free spectrum ``pair.lam`` when
    b_j^2 = -prod_i (lam'_j - lam_i) / prod_{k != j} (lam'_j - lam'_k) (``cauchy._weights``)
    and a = sum(lam) - sum(lam'); strict interlacing makes every b_j^2 positive
    (Hochstadt, 1967; Boley & Golub, Inverse Problems 3, 1987).
    """
    _require_instance(pair, SpectrumPair, "pair")
    lam, lamp = pair.lam, pair.lam_prime
    stiffness = np.diag(np.append(lamp, lam.sum() - lamp.sum()))
    stiffness[-1, :-1] = stiffness[:-1, -1] = np.sqrt(-_weights(lamp, lamp[:, None] - lam))
    return ModelSpec(
        name=name,
        n=pair.n,
        mass=np.eye(pair.n),
        stiffness=stiffness,
        sigma=pair.sigma,
        sigma_prime=pair.sigma_prime,
        static_force=static_force,
        contact_sign=1,
    )


@np.errstate(over="ignore")
def n2_spectrum(family: str, *, nu1: float | None = None, omega2: float,
                omega1p: float) -> SpectrumPair:
    """Spectrum pair of one of the named 2-DOF families.

    hopper / juggler : lam = [0, omega2^2], even/even free modes, odd contact mode.
    rimless          : rolling wheel-with-pendulum; lam1 = -nu1^2 < 0, odd modes.
    rocker           : side-to-side rocking; same spectra as rimless, even free modes.
    NumPy's squares are Python's, bit for bit, but inf (no OverflowError) out of range.
    """
    if not isinstance(family, str):
        raise InvalidParameterError(f"family must be a str, got {family!r}")
    _check_positive(omega2=omega2, omega1p=omega1p)
    top, contact = np.float64(omega2) ** 2, np.float64(omega1p) ** 2
    family = family.lower()
    if family in ("hopper", "juggler"):
        if nu1 is not None:
            raise InvalidParameterError(f"{family} takes no nu1 parameter")
        return SpectrumPair(lam=[0.0, top], lam_prime=[contact], sigma=[-1, -1], sigma_prime=[-1])
    if family in ("rimless", "rocker"):
        _check_positive(nu1=nu1)
        sig = [1, 1] if family == "rimless" else [-1, -1]
        return SpectrumPair(lam=[-np.float64(nu1) ** 2, top], lam_prime=[contact], sigma=sig,
                            sigma_prime=[1])
    raise InvalidParameterError(f"unknown family {family!r}")


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
    values = {f.name: config[f.name] for f in fields(ModelSpec)}
    for key in ("n", "contact_sign"):   # JSON may write the integer 3 as 3.0
        if isinstance(values[key], float) and values[key].is_integer():
            values[key] = int(values[key])
    return ModelSpec(**{**values, "name": str(config["name"])})


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
