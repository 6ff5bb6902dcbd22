"""Compacton solutions of the K(m,n) and KP(m,n) equations.

Construction of the fourteen explicit symmetric compacton families,
weak/strong existence classification, numerical computation by shooting,
and rigorous weak-form verification.
"""

from .catalog import (
    ClosedFormProfile,
    FamilyId,
    SampledProfile,
    admissible_interval,
    construct,
    evaluate,
    family_m,
    first_zero,
    printed_half_width,
    profile_metadata,
    sample,
    sign_condition,
)
from .elliptic import DomainError, Modulus, agm, complete_K, inverse_cn, jacobi
from .existence import (
    CASE6_FAMILIES,
    ExistenceReport,
    Interval,
    classify_family,
    raw_theorem_intervals,
    region_grid,
    region_grid_csv,
    strong_ok,
    table1_intervals,
    weak_K_ok,
    weak_KP_case,
)
from .params import EquationParams, InvalidParameters, ProcedureRejection, WaveSpec
from .shooting import (
    BetaProfile,
    NumericCompacton,
    ReducedCoefficients,
    ShootTolerances,
    center_amplitude,
    coefficients,
    concavity_check,
    half_width_quadrature,
    inverse_beta_profile,
    shoot,
)
from .weakform import (
    ResidualReport,
    TestFunction,
    boundary_quantities,
    bump_battery,
    endpoint_power_fit,
    evaluate_testfn,
    residual_K,
    residual_KP,
    verify_weak,
)

__version__ = "0.1.0"
