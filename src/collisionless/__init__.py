"""Energy-conserving periodic contact trajectories of linear mechanical systems.

Given an N-degree-of-freedom small-oscillation model whose last coordinate is
intermittently held by a one-dimensional ground contact, this package finds
the periodic trajectories along which every touchdown happens with vanishing
contact velocity and acceleration, so no energy is ever lost.  The impact
times solve two scalar equations built from the free and contact spectra
alone; the package scans their zero contours, refines the crossings, checks
physical realizability, and exports the resulting trajectories.
"""

__version__ = "0.1.0"

from .cauchy import cauchy_det, cauchy_inverse, cauchy_matrix, eta
from .closed_form import (
    N2Solution,
    solve_hopper,
    solve_juggler,
    solve_rimless,
    solve_rocker,
    y_root,
)
from .critical import (
    AsymptoticPoint,
    StudySummary,
    asymptotic_grid,
    c0_sampling_study,
    critical_limit,
    critical_matrices,
    existence_gate,
    large_tau_asymptote,
    predicted_contact_phase,
    solve_critical,
)
from .errors import (
    CollisionlessError,
    ConvergenceError,
    DegenerateSolutionError,
    DegenerateSpectrumError,
    InterlacingError,
    InvalidModelError,
    InvalidParameterError,
    NoExistenceError,
    NoRootError,
    NormalizationError,
    PoleError,
    ZeroModeError,
)
from .impact import (
    ContourField,
    GridSpec,
    ImpactSolution,
    ImpactTimes,
    alt_impact_residual,
    assemble_impact_matrix,
    build_solution,
    build_solutions,
    contact_matrix,
    impact_residual,
    kernel_ratio,
    mode_motion_vec,
    phase_rate,
    reduction_gap,
    refine_root,
    refine_roots,
    scan_contour,
)
from .model import (
    ModelSpec,
    SpectrumPair,
    build_armed_biped,
    builtin_model,
    load_model,
    model_from_spectra,
    n2_spectrum,
)
from .pipeline import RootRecord, SolveRun, pick_records, solve_model
from .spectral import (
    SpectralData,
    analyze,
    constrained_modes,
    constrained_spectrum,
    normal_modes,
)
from .trajectory import (
    Trajectory,
    ValidationReport,
    ValidatorTolerances,
    synthesize,
    to_csv,
    to_json,
    to_svg,
    trajectory_from_json,
    validate,
    validate_solutions,
)
