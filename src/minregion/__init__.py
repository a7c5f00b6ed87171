"""Candidate-minimizer region tools for partially known convex objectives.

The objective is f = f_known + f_unknown where f_known is a weighted sum of
convex quadratics (optionally with declared nonsmooth points) and f_unknown
is known only through a strong-convexity constant sigma and a compact set
that contains its minimizer.  This package decides, for query points, whether
the point can be a minimizer of such a sum, and scans grids to produce the
region of all candidate minimizers.
"""

from .errors import (
    CoincidentPointsError,
    ConfigError,
    ConvergenceError,
    DimensionMismatchError,
    GridMismatchError,
    InsideBallError,
    KinkPointError,
    NegativeDiscriminantError,
    NotOnBoundaryError,
    ZeroVectorError,
)
from .geometry import (
    Ball,
    angle_between,
    chord_length,
    nearest_boundary_point,
    unit_vector,
    visible_cap_contains,
)
from .funcmodel import (
    Kink,
    KnownFunction,
    QuadraticTerm,
    SubdifferentialSet,
    finite_difference_check,
    gradient,
    subdifferential,
)
from .membership import (
    DEFAULT_SLACK,
    DEFAULT_THETA_STEPS,
    FinitePointSet,
    MembershipVerdict,
    UncertaintySet,
    Witness,
    classify_point,
    evaluate_general,
    pair_score,
)
from .scanner import (
    GridSpec,
    MaskMetadata,
    RegionMask,
    build_grid,
    mask_subset,
    read_mask_csv,
    scan_region,
    write_mask_csv,
    write_mask_pgm,
)
from .oracle import (
    OracleSample,
    UnknownQuadratic,
    ValidationReport,
    minimize_sum,
    minimize_sum_iterative,
    sample_unknown,
    validate_necessity,
)

__version__ = "0.1.0"

__all__ = [
    "Ball",
    "CoincidentPointsError",
    "ConfigError",
    "ConvergenceError",
    "DEFAULT_SLACK",
    "DEFAULT_THETA_STEPS",
    "DimensionMismatchError",
    "FinitePointSet",
    "GridMismatchError",
    "GridSpec",
    "InsideBallError",
    "Kink",
    "KinkPointError",
    "KnownFunction",
    "MaskMetadata",
    "MembershipVerdict",
    "NegativeDiscriminantError",
    "NotOnBoundaryError",
    "OracleSample",
    "QuadraticTerm",
    "RegionMask",
    "SubdifferentialSet",
    "UncertaintySet",
    "UnknownQuadratic",
    "ValidationReport",
    "Witness",
    "ZeroVectorError",
    "angle_between",
    "build_grid",
    "chord_length",
    "classify_point",
    "evaluate_general",
    "finite_difference_check",
    "gradient",
    "mask_subset",
    "minimize_sum",
    "minimize_sum_iterative",
    "nearest_boundary_point",
    "pair_score",
    "read_mask_csv",
    "sample_unknown",
    "scan_region",
    "subdifferential",
    "unit_vector",
    "validate_necessity",
    "visible_cap_contains",
    "write_mask_csv",
    "write_mask_pgm",
]
