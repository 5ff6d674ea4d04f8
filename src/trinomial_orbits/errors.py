"""Error taxonomy.

ShapeError subclasses are malformed-input errors (CLI exit 1).
MathDomainError subclasses are well-formed requests the mathematics or the
chosen field refuses (CLI exit 2): missing roots, small characteristic,
unsupported family, and so on.
"""


class ShapeError(ValueError):
    """Invalid shape data."""


class EmptyGroup12(ShapeError):
    """Groups 1 and 2 must be nonempty (only group 0 may be the free term)."""


class NonPositiveExponent(ShapeError):
    """Every exponent must be a positive integer."""


class MathDomainError(Exception):
    code = "math_domain"


class DegenerateShape(MathDomainError):
    """The hypersurface is isomorphic to an affine space; excluded from
    rigidity and orbit analysis."""

    code = "degenerate_shape"


class PointNotOnVariety(MathDomainError):
    code = "point_not_on_variety"


class RootUnavailable(MathDomainError):
    """The field lacks a required root (non-closedness surfacing)."""

    code = "root_unavailable"


class CharacteristicTooSmall(MathDomainError):
    """Exact divided powers are not computable over this prime field."""

    code = "characteristic_too_small"


class Diverged(MathDomainError):
    """No nilpotency within the iteration cap: not locally nilpotent."""

    code = "diverged"


class InadmissibleGrading(MathDomainError):
    """The weight vector does not make the equation homogeneous."""

    code = "inadmissible_grading"


class EmptyStratum(MathDomainError):
    """U(S) has no point over this field (structural or field obstruction)."""

    code = "empty_stratum"

    def __init__(self, message, structural: bool = False):
        super().__init__(message)
        self.structural = structural


class DifferentOrbits(MathDomainError):
    code = "different_orbits"


class DlogUnsolvable(MathDomainError):
    """No torus element over F_p matches the coordinate ratios."""

    code = "dlog_unsolvable"


class UnsupportedFamily(MathDomainError):
    code = "unsupported_family"


class ConjectureNotAssumed(MathDomainError):
    """Orbit classification for the several-power-one family is conditional;
    pass assume_conjecture to proceed."""

    code = "conjecture_not_assumed"


class TooLarge(MathDomainError):
    code = "too_large"
