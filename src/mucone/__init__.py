"""Exact local cone coefficients for lattice-point counting.

The package computes, over the rationals with no floating point anywhere,
the local coefficients attached to the faces of an integral polytope by a
pluggable complement map, and uses them two ways: counting lattice points
as a weighted sum of normalized face volumes, and checking the full
sum = weighted-integrals identity as truncated series in a generic
direction.
"""

from .complement import (
    ComplementMap,
    FlagMap,
    InnerProductMap,
    PsiSubspace,
    RayTableMap,
    consecutive_mod,
    diaconis_fulton_map,
    map_from_json,
    projective_fan_cones,
    projective_fan_rays,
    standard_inner_product,
)
from .errors import (
    DimensionTooLargeError,
    DirectionDegenerateError,
    InconsistentExplicitFormulaError,
    InternalInconsistencyError,
    MuconeError,
    NonIntegerResultError,
    NotExtremeError,
    NotFullDimError,
    NotGenericError,
    NotIntegralError,
    NotPointedError,
    ParseError,
    TooLargeError,
    UnknownRayError,
)
from .geometry import (
    Cone,
    Face,
    Polytope,
    Subdivision,
    normal_cone,
    normalized_volume,
    subdivide_to_basic,
    zero_cone,
)
from .interp import (
    DEFAULT_ORDER,
    MuTable,
    MuValue,
    SquarefreeReducer,
    clear_mu_cache,
    mu,
    mu_basic,
    mu_explicit,
    mu_on_line,
    mu_table,
)
from .linalg import Matrix, Vector, format_rational, parse_rational, primitive
from .series import (
    LaurentSeries,
    MultiSeries,
    compose_linear,
    compose_multivariate,
    restrict_to_direction,
    t2_series,
    t_series,
    todd_univariate,
)
from .valuations import (
    DEFAULT_SEED,
    Direction,
    IdentityReport,
    brion_vertex_decomposition_check,
    certify_direction,
    count_breakdown,
    count_via_local_formula,
    i_face_series,
    s_series,
    sample_direction,
    verify_interpolator,
)

__version__ = "0.1.0"

__all__ = [
    "ComplementMap", "FlagMap", "InnerProductMap", "PsiSubspace",
    "RayTableMap", "consecutive_mod", "diaconis_fulton_map", "map_from_json",
    "projective_fan_cones", "projective_fan_rays", "standard_inner_product",
    "DimensionTooLargeError", "DirectionDegenerateError",
    "InconsistentExplicitFormulaError", "InternalInconsistencyError",
    "MuconeError", "NonIntegerResultError", "NotExtremeError",
    "NotFullDimError", "NotGenericError", "NotIntegralError",
    "NotPointedError", "ParseError", "TooLargeError", "UnknownRayError",
    "Cone", "Face", "Polytope", "Subdivision", "normal_cone",
    "normalized_volume", "subdivide_to_basic", "zero_cone",
    "DEFAULT_ORDER", "MuTable", "MuValue", "SquarefreeReducer",
    "clear_mu_cache", "mu", "mu_basic", "mu_explicit", "mu_on_line", "mu_table",
    "Matrix", "Vector", "format_rational", "parse_rational", "primitive",
    "LaurentSeries", "MultiSeries", "compose_linear", "compose_multivariate",
    "restrict_to_direction", "t2_series", "t_series", "todd_univariate",
    "DEFAULT_SEED", "Direction", "IdentityReport",
    "brion_vertex_decomposition_check", "certify_direction",
    "count_breakdown", "count_via_local_formula", "i_face_series",
    "s_series", "sample_direction", "verify_interpolator",
    "__version__",
]
