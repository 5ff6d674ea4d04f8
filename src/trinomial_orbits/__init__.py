"""Exact-arithmetic classification and automorphism-orbit stratification of
trinomial hypersurfaces, with brute-force finite-field verification."""

from .derivations import (
    Derivation,
    GradingWeight,
    catalog_derivation,
    delta_obstruction,
    eta_grading,
    homogeneous_split,
    lnd_catalog,
)
from .errors import (
    CharacteristicTooSmall,
    ConjectureNotAssumed,
    DegenerateShape,
    DifferentOrbits,
    Diverged,
    DlogUnsolvable,
    EmptyGroup12,
    EmptyStratum,
    InadmissibleGrading,
    MathDomainError,
    NonPositiveExponent,
    PointNotOnVariety,
    RootUnavailable,
    ShapeError,
    TooLarge,
    UnsupportedFamily,
)
from .families import FamilyTag, family_of
from .fields import PrimeField, QQ, Rationals, field_designator, parse_field
from .oracle import (
    Census,
    VerifyReport,
    build_census,
    enumerate_points,
    partition_selftest,
    verify_all,
    verify_invariance,
    verify_partition,
    verify_transport,
)
from .orbits import (
    AutWord,
    BigO,
    FlowStep,
    OMeps,
    O1,
    O2,
    OrbitCount,
    TorusStep,
    classify_point,
    descriptor_dim,
    descriptor_from_json,
    descriptor_to_json,
    ml_generators,
    orbit_count,
    saut_descriptor,
    transport,
)
from .polynomials import MissingCoordinate, PolyRing, Polynomial
from .shapes import (
    Factoriality,
    LatticeBasis,
    RigidityVerdict,
    SymmetryGroup,
    TrinomialShape,
    factoriality,
    rigidity_classify,
    symmetry_group,
    torus_lattice,
    validate_shape,
)
from .strata import (
    SingComponent,
    containing_components,
    is_singular,
    linked,
    singular_components,
    stratum_point,
    support_zero_set,
)

__version__ = "0.1.0"
