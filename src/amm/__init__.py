"""Matrix means and matrix-monotone functional calculus for accretive matrices.

The package certifies sectorial data (alpha, m, M), evaluates Kubo-Ando-style
means and f(A) for accretive complex matrices through harmonic-mean measure
integrals, cross-checks them across the inversion and by contour integrals,
and ships a named catalog of numerically verified inequalities.
"""

from .errors import (
    AmmError,
    InvalidInputError,
    NumericFailureError,
    ParameterError,
    PreconditionError,
    SingularMatrixError,
)
from .funcalc import (
    DunfordContour,
    MeasureSpec,
    MonotoneFunction,
    QuadratureRule,
    apply_function,
    catalog,
    choose_contour,
    dunford_apply,
    gauss_jacobi_rule,
    measure_mass,
    measure_mean,
    scalar_eval,
    standard_catalog,
)
from .linalg import (
    FROBENIUS,
    OPERATOR,
    TRACE,
    LoewnerVerdict,
    NormKind,
    TAU_EQ,
    TAU_LOEWNER,
    hermitian_part,
    imaginary_part,
    inverse,
    kyfan,
    loewner_leq,
    lu_solve,
    principal_sqrt,
    singular_values,
    uinorm,
)
from .maps import PositiveLinearMap, apply_map, is_unital, random_map
from .means import (
    arithmetic_mean,
    congruence_sigma,
    drury_half,
    geometric_mean,
    geometric_neg,
    geometric_paths,
    harmonic_mean,
    scalar_sigma,
    sigma_mean,
)
from .sector import (
    EnsembleSpec,
    SectorCertificate,
    certify,
    is_accretive,
    random_pd,
    random_sectorial,
    sectorial_angle,
)
from .verify import (
    CHECK_IDS,
    CheckReport,
    SuiteItem,
    default_suite,
    kantorovich_constant,
    run_check,
    run_suite,
)

__version__ = "0.1.0"
