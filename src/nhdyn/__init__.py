"""Heisenberg-picture dynamics for non-self-adjoint Hamiltonians.

The package builds biorthogonal eigensystems with their metric
operators, evolves observables under the conjugation dynamics
exp(iH^†t) X exp(-iHt) and states under the normalized nonlinear flow,
enumerates conserved quantities at three strictness levels, and ships a
three-mode fermionic transfer model where the total occupation is
conserved in the mean despite a manifestly non-Hermitian generator.
"""

from .biortho import BiorthogonalSystem, build_biorthogonal, verify_intertwining
from .eigenstate import (
    EigenstateContext,
    WeakIdentityReport,
    eigenstate_context,
    weak_identity_report,
)
from .errors import (
    BiorthogonalityError,
    CertificationError,
    ConfigError,
    DegenerateSpectrumError,
    DimensionError,
    EigensolverError,
    InstabilityError,
    NhdynError,
    NumericalError,
    NumericRangeError,
    TruncationError,
)
from .fermions import (
    CarAlgebra,
    DmModel,
    OccupationTrajectory,
    build_car,
    build_dm_model,
    closed_form_occupations,
    closed_form_scalar,
    delta_gamma_number_check,
    occupations,
    simulate_occupations,
)
from .flow import (
    ClassificationReport,
    NecessaryConditionResult,
    StateTrajectory,
    classify,
    classify_ensemble,
    delta_psi_hat,
    exact_trajectory,
    gamma_symmetry_decay_check,
    h_nl,
    integrate_nonlinear,
    mean_derivative,
    mean_value,
    necessary_condition_residual,
    nonhermiticity_scalar,
)
from .gamma import (
    GammaContext,
    SimilarHamiltonian,
    SymmetryBasis,
    delta_gamma,
    gamma_context,
    gamma_series,
    gamma_symmetry_basis,
    gamma_t,
    identity_norm_evolution,
    similar_norm_preserving,
)
from .linalg import (
    Spectrum,
    eig_general,
    expm,
    nullspace,
    op_norm,
)

__version__ = "0.1.0"

__all__ = [
    "BiorthogonalSystem",
    "BiorthogonalityError",
    "CarAlgebra",
    "CertificationError",
    "ClassificationReport",
    "ConfigError",
    "DegenerateSpectrumError",
    "DimensionError",
    "DmModel",
    "EigensolverError",
    "EigenstateContext",
    "GammaContext",
    "InstabilityError",
    "NecessaryConditionResult",
    "NhdynError",
    "NumericalError",
    "NumericRangeError",
    "OccupationTrajectory",
    "SimilarHamiltonian",
    "Spectrum",
    "StateTrajectory",
    "SymmetryBasis",
    "TruncationError",
    "WeakIdentityReport",
    "build_biorthogonal",
    "build_car",
    "build_dm_model",
    "classify",
    "classify_ensemble",
    "closed_form_occupations",
    "closed_form_scalar",
    "delta_gamma",
    "delta_gamma_number_check",
    "delta_psi_hat",
    "eig_general",
    "eigenstate_context",
    "exact_trajectory",
    "expm",
    "gamma_context",
    "gamma_series",
    "gamma_symmetry_basis",
    "gamma_symmetry_decay_check",
    "gamma_t",
    "h_nl",
    "identity_norm_evolution",
    "integrate_nonlinear",
    "mean_derivative",
    "mean_value",
    "necessary_condition_residual",
    "nonhermiticity_scalar",
    "nullspace",
    "occupations",
    "op_norm",
    "similar_norm_preserving",
    "simulate_occupations",
    "verify_intertwining",
    "weak_identity_report",
]
