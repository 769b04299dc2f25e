"""Variable-order time-fractional diffusion in one space dimension.

The package solves u_t + k(t) D^{alpha(t)} u - K u_xx = 0 on [0, L] with
homogeneous Dirichlet ends by sine-mode decoupling and an implicit L1
scheme, diagnoses how the value alpha(0) controls the solution's
smoothness at the initial time, and recovers a polynomial alpha(t) from
interior observations by projected Gauss-Newton.
"""

from .diagnostics import (
    RegularityReport,
    fit_singularity_exponent,
    regularity_report,
    second_derivative_norms,
    weighted_cm_norm,
)
from .errors import (
    ConfigError,
    DomainError,
    IllPosedExtractionError,
    NumericalError,
    VordiffError,
)
from .forward import (
    ModelSpec,
    SolutionField,
    default_grading,
    solve_forward,
    solve_mode,
    stability_ratio,
    step_modes,
)
from .fracops import (
    OrderFunction,
    SampledFunction,
    TimeMesh,
    caputo_order_sensitivity,
    caputo_vo,
    l1_weights,
)
from .inverse import (
    InversionConfig,
    InversionResult,
    ModeExtraction,
    ObservationSet,
    ScanResult,
    extract_modes,
    jacobian,
    recover_order,
    residual,
    synthesize_observations,
    uniqueness_scan,
)
from .spectral import (
    SpectralBasis,
    analyze,
    analyze_function,
    sobolev_norm,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DomainError",
    "IllPosedExtractionError",
    "InversionConfig",
    "InversionResult",
    "ModeExtraction",
    "ModelSpec",
    "NumericalError",
    "ObservationSet",
    "OrderFunction",
    "RegularityReport",
    "SampledFunction",
    "ScanResult",
    "SolutionField",
    "SpectralBasis",
    "TimeMesh",
    "VordiffError",
    "analyze",
    "analyze_function",
    "caputo_order_sensitivity",
    "caputo_vo",
    "default_grading",
    "extract_modes",
    "jacobian",
    "l1_weights",
    "recover_order",
    "regularity_report",
    "residual",
    "second_derivative_norms",
    "sobolev_norm",
    "solve_forward",
    "solve_mode",
    "stability_ratio",
    "step_modes",
    "synthesize_observations",
    "uniqueness_scan",
    "fit_singularity_exponent",
    "weighted_cm_norm",
]
