"""Exception hierarchy for mucone.

Two families matter to callers: domain errors (bad or unsupported input,
subclasses of MuconeError) and internal-consistency errors (two routes that
must agree did not; these signal a bug, never bad input).
"""


class MuconeError(Exception):
    """Base class for all mucone domain errors."""


class ParseError(MuconeError):
    """Malformed JSON input or malformed rational string."""


class ZeroVectorError(MuconeError):
    """A nonzero vector was required (e.g. primitive() of 0)."""


class DependentGeneratorsError(MuconeError):
    """Generators were required to be linearly independent."""


class NotSimplicialError(MuconeError):
    """Operation defined only for simplicial cones."""


class NotPointedError(MuconeError):
    """Operation defined only for pointed cones."""


class DimensionTooLargeError(MuconeError):
    """Ambient dimension above the configured cap."""


class TooLargeError(MuconeError):
    """Enumeration above the configured cap (lattice points, boxes)."""


class NotIntegralError(MuconeError):
    """Polytope vertices must be lattice points."""


class NotExtremeError(MuconeError):
    """Polytope input points must all be extreme (vertices)."""


class NotFullDimError(MuconeError):
    """Operation requires a full-dimensional polytope."""


class NotGenericError(MuconeError):
    """Cone outside the complement map's domain (complementarity fails)."""


class UnknownRayError(MuconeError):
    """Ray-table complement map queried on a ray it has no entry for."""


class ZeroDenominatorFormError(MuconeError):
    """Zero linear form used as a denominator."""


class DirectionDegenerateError(MuconeError):
    """Sampled direction pairs to zero with a vector that must stay nonzero."""


class InternalInconsistencyError(MuconeError):
    """Two independent pipelines disagreed; indicates a bug, not bad input."""


class InconsistentExplicitFormulaError(InternalInconsistencyError):
    """Explicit-formula numerator not divisible by its denominator forms."""


class NonIntegerResultError(InternalInconsistencyError):
    """A quantity that must be an integer (lattice-point count) was not."""
