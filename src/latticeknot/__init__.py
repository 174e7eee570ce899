"""Lattice stick realizations of knots from arc presentations.

Turn a combinatorial arc presentation into an explicit self-avoiding
polygon of axis-parallel sticks in the cubic lattice, pick the cheapest
construction branch automatically, and certify the achieved stick count
together with an Alexander-polynomial check that the knot type survived.
"""

from .arc import (
    ArcPresentation,
    NonStarWitness,
    NormalizedNonStar,
    NotStarShapedError,
    PresentationError,
    TorusClassification,
    dual,
    find_nonstar_witness,
    is_star_shaped,
    mod_star,
    normalize_for_nonstar,
    random_presentation,
    rotate,
    torus_order_check,
    validate,
)
from .certify import (
    ArcCountOutOfRangeError,
    BoundCheck,
    ConstructionCertificate,
    check_bounds,
    construct_auto,
)
from .diagram import (
    CrossingCapExceededError,
    NoGenericDirectionError,
    PlanarDiagram,
    alexander,
    arc_to_planar,
    jones_kauffman,
    project_polygon,
    simplify_diagram,
)
from .errors import InternalInvariantError
from .lattice import (
    LatticePolygon,
    LatticeStick,
    SelfIntersectionError,
    Violation,
    construct_basic,
    construct_nonstar,
    reduce_ends,
    stick_count,
    validate_polygon,
)
from .laurent import LaurentPolynomial, ZeroPolynomialError, canonicalize

__all__ = [
    "ArcCountOutOfRangeError",
    "ArcPresentation",
    "BoundCheck",
    "ConstructionCertificate",
    "CrossingCapExceededError",
    "InternalInvariantError",
    "LatticePolygon",
    "LatticeStick",
    "LaurentPolynomial",
    "NoGenericDirectionError",
    "NonStarWitness",
    "NormalizedNonStar",
    "NotStarShapedError",
    "PlanarDiagram",
    "PresentationError",
    "SelfIntersectionError",
    "TorusClassification",
    "Violation",
    "ZeroPolynomialError",
    "alexander",
    "arc_to_planar",
    "canonicalize",
    "check_bounds",
    "construct_auto",
    "construct_basic",
    "construct_nonstar",
    "dual",
    "find_nonstar_witness",
    "is_star_shaped",
    "jones_kauffman",
    "mod_star",
    "normalize_for_nonstar",
    "project_polygon",
    "random_presentation",
    "reduce_ends",
    "rotate",
    "simplify_diagram",
    "stick_count",
    "torus_order_check",
    "validate",
    "validate_polygon",
]
