"""Branch selection, construction, and machine-readable certificates.

build_branch picks the construction for a presentation: non-star input
goes through the flip-and-lift build (3a-4 sticks); a star-shaped input in
torus order gets the reduced basic build (3a-2); any other star-shaped
input is dualized, which provably yields a non-star presentation of the
same knot.  construct_auto certifies the result, and check_bounds then
scores it against crossing-number bounds for a user-supplied crossing
number.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arc import (
    ArcPresentation,
    dual,
    find_nonstar_witness,
    is_star_shaped,
    normalize_for_nonstar,
    torus_order_check,
)
from .diagram import PlanarDiagram, _top_view, alexander, arc_to_planar, simplify_diagram
from .errors import InternalInvariantError
from .lattice import (
    LatticePolygon,
    construct_basic,
    construct_nonstar,
    reduce_ends,
    stick_count,
)

# the pipeline's range is 5 <= a <= MAX_ARC_COUNT.  The bound caps the
# polygon size (about 3a sticks) for the geometry stages and the crossing
# count for certify's Alexander check; the README gives the costs at
# a = 64: milliseconds for the geometry, up to about 0.2 s for either
# Alexander side in certify's views.  It is not a time bound, and on a
# polygon that the user supplies, `invariant` has no Alexander bound at all.
MAX_ARC_COUNT = 64


class ArcCountOutOfRangeError(ValueError):
    """Pipeline accepts 5 <= a <= 64 only."""


@dataclass(frozen=True)
class BoundCheck:
    """One recorded inequality lhs <= rhs (stick count vs. bound)."""

    name: str
    lhs: int
    rhs: int
    holds: bool

    def to_json_obj(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "holds": self.holds}


@dataclass(frozen=True)
class InvariantMatch:
    status: str  # "matched" | "mismatched" | "skipped"
    input_alexander: tuple[int, ...] | None
    output_alexander: tuple[int, ...] | None

    def to_json_obj(self) -> dict:
        return {
            "status": self.status,
            "input_alexander": list(self.input_alexander) if self.input_alexander else None,
            "output_alexander": list(self.output_alexander) if self.output_alexander else None,
        }


@dataclass(frozen=True)
class TorusCCheck:
    """Consistency of a supplied crossing number with c = n^2 - 1."""

    expected: int
    supplied: int
    holds: bool

    def to_json_obj(self) -> dict:
        return {"expected": self.expected, "supplied": self.supplied, "holds": self.holds}


@dataclass(frozen=True)
class ConstructionCertificate:
    a: int
    branch: str  # "nonstar" | "dual-nonstar" | "torus-star"
    stick_count: int
    torus_params: tuple[int, int] | None
    crossing_number: int | None
    bound_checks: tuple[BoundCheck, ...]
    invariant_match: InvariantMatch
    torus_c_check: TorusCCheck | None = None

    def all_hold(self) -> bool:
        ok = all(b.holds for b in self.bound_checks)
        if self.torus_c_check is not None:
            ok = ok and self.torus_c_check.holds
        return ok

    def to_json_obj(self) -> dict:
        return {
            "a": self.a,
            "branch": self.branch,
            "stick_count": self.stick_count,
            "torus_params": list(self.torus_params) if self.torus_params else None,
            "crossing_number": self.crossing_number,
            "bound_checks": [b.to_json_obj() for b in self.bound_checks],
            "invariant_match": self.invariant_match.to_json_obj(),
            "torus_c_check": self.torus_c_check.to_json_obj() if self.torus_c_check else None,
        }


def build_branch(P: ArcPresentation, branch: str) -> tuple[str, LatticePolygon]:
    """Build the polygon of one construction branch; return (branch, polygon).

    Every branch requires 5 <= a <= 64.  "auto" picks the branch the paper
    prescribes: "nonstar" for non-star input, "torus-star" (the reduced
    build) for a star-shaped input in torus order, "dual-nonstar"
    otherwise.  "basic", "reduced" and "nonstar" may also be asked for
    directly; "nonstar" then rejects star-shaped input.  Each constructor
    validates its polygon and checks its stick count.
    """
    if not 5 <= P.a <= MAX_ARC_COUNT:
        raise ArcCountOutOfRangeError(f"pipeline needs 5 <= a <= {MAX_ARC_COUNT}, got a={P.a}")
    if branch == "auto":
        if not is_star_shaped(P):
            branch = "nonstar"
        elif torus_order_check(P) is not None:
            branch = "torus-star"
        else:
            branch = "dual-nonstar"
    if branch == "basic":
        return branch, construct_basic(P)
    if branch in ("reduced", "torus-star"):
        return branch, reduce_ends(P)
    if branch == "dual-nonstar":
        P = dual(P)
        if is_star_shaped(P):
            raise InternalInvariantError(
                "dual of a star-shaped, non-torus-order presentation must be non-star"
            )
    elif branch != "nonstar":
        raise ValueError(f"unknown branch {branch!r}")
    witness = find_nonstar_witness(P)
    if witness is None:
        raise ValueError("presentation is star shaped; the nonstar branch needs a witness")
    return branch, construct_nonstar(normalize_for_nonstar(P, witness))


def _output_diagram(poly: LatticePolygon) -> PlanarDiagram:
    """The top view of the vertices cycled (x, y, z) -> (z, x, y): y is up."""
    return _top_view([(z, x, y) for x, y, z in poly.vertices()])


def construct_auto(
    P: ArcPresentation, *, check_invariant: bool = True
) -> tuple[LatticePolygon, ConstructionCertificate]:
    """Run the full pipeline on a presentation and certify the result.

    Exactly one branch fires (see build_branch), and its constructor
    validates the polygon.  Unless check_invariant is off, the canonical
    Alexander polynomial of the projected polygon is compared with the
    input presentation's.

    The output side looks along y, a binding axis (_output_diagram),
    not along z as project_polygon does: the constructions put page k at
    z = k, so a view along z stacks every page's arc on every other's, and
    the Alexander cost follows the over-runs that adds.  The view is a
    cyclic permutation of the axes, a rotation, because a swap would mirror
    the diagram.  `invariant` keeps project_polygon's view, because the
    benchmark digests pin its PD output.
    """
    a = P.a
    branch, poly = build_branch(P, "auto")
    count = stick_count(poly)
    if branch == "torus-star":
        n = (a - 1) // 2  # the (n+1, n)-torus knot, a = 2n+1
        torus_params = (n + 1, n)
        bound_name, expected = "3a-2", 3 * a - 2
    else:
        torus_params = None
        bound_name, expected = "3a-4", 3 * a - 4

    if check_invariant:
        p_in = alexander(simplify_diagram(arc_to_planar(P)))
        p_out = alexander(simplify_diagram(_output_diagram(poly)))
        match = InvariantMatch(
            status="matched" if p_in == p_out else "mismatched",
            input_alexander=tuple(p_in.coeff_list()),
            output_alexander=tuple(p_out.coeff_list()),
        )
    else:
        match = InvariantMatch(status="skipped", input_alexander=None, output_alexander=None)

    cert = ConstructionCertificate(
        a=a,
        branch=branch,
        stick_count=count,
        torus_params=torus_params,
        crossing_number=None,
        bound_checks=(BoundCheck(bound_name, count, expected, count <= expected),),
        invariant_match=match,
    )
    return poly, cert


def require_crossing_number(c: int) -> None:
    """Raise ValueError unless c can be a crossing number (c >= 1)."""
    if c < 1:
        raise ValueError(f"crossing number must be positive, got {c}")


def check_bounds(
    cert: ConstructionCertificate,
    c: int,
    *,
    non_alternating_prime: bool = False,
) -> ConstructionCertificate:
    """Append crossing-number bound checks for a user-supplied c.

    Always records stick_count <= 3c+2; non-alternating prime knots also
    get stick_count <= 3c-4; a torus-star branch with n >= 3 additionally
    gets stick_count <= 3c-5 plus the consistency check c = n^2-1, which
    is reported rather than raised when it fails.
    """
    require_crossing_number(c)
    checks = list(cert.bound_checks)
    s = cert.stick_count
    checks.append(BoundCheck("3c+2", s, 3 * c + 2, s <= 3 * c + 2))
    if non_alternating_prime:
        checks.append(BoundCheck("3c-4", s, 3 * c - 4, s <= 3 * c - 4))
    torus_c = cert.torus_c_check
    if cert.branch == "torus-star" and cert.torus_params is not None:
        n = cert.torus_params[1]
        if n >= 3:
            torus_c = TorusCCheck(expected=n * n - 1, supplied=c, holds=c == n * n - 1)
            checks.append(BoundCheck("3c-5", s, 3 * c - 5, s <= 3 * c - 5))
    return replace(
        cert,
        crossing_number=c,
        bound_checks=tuple(checks),
        torus_c_check=torus_c,
    )
