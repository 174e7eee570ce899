"""JSON input of presentations and polygons, and canonical JSON output.

Canonical output uses sorted keys and no insignificant whitespace, so
byte-level comparisons of round-tripped values are meaningful.
"""

from __future__ import annotations

import json

from .arc import ArcPresentation, validate
from .certify import MAX_ARC_COUNT
from .lattice import FIXED_COORDS, LatticePolygon, LatticeStick

# the basic construction's size at a = MAX_ARC_COUNT, the largest polygon
# built here; bounds the validation of polygons read from JSON, which
# compares every pair of sticks that share a coordinate plane and so is
# quadratic when many sticks share one plane
MAX_STICKS = 3 * MAX_ARC_COUNT
# constructions use coordinates 1..64; this bound keeps isometric screen
# coordinates below 2**46, where a double still resolves the SVG's hundredths
MAX_COORD = 2**40


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def presentation_from_obj(obj) -> ArcPresentation:
    if not isinstance(obj, dict) or "arcs" not in obj:
        raise ValueError('expected an object with an "arcs" key')
    return validate(obj["arcs"])


def polygon_from_obj(obj) -> LatticePolygon:
    if not isinstance(obj, dict) or not isinstance(obj.get("sticks"), list):
        raise ValueError('expected an object with a "sticks" list')
    if len(obj["sticks"]) > MAX_STICKS:
        raise ValueError(f"a polygon may have at most {MAX_STICKS} sticks, got {len(obj['sticks'])}")
    sticks = []
    for k, raw in enumerate(obj["sticks"]):
        try:
            axis = raw["axis"]
            lo, hi = raw["range"]
            n1, n2 = FIXED_COORDS[axis]
            fixed = raw["fixed"]
            if not isinstance(fixed, dict) or fixed.keys() != {n1, n2}:
                raise ValueError(f'"fixed" must hold exactly "{n1}" and "{n2}"')
            coords = (lo, hi, fixed[n1], fixed[n2])
            if not all(type(v) is int for v in coords):
                raise ValueError("coordinates must be integers")
            if any(abs(v) > MAX_COORD for v in coords):
                raise ValueError(f"coordinates must have magnitude at most {MAX_COORD}")
            sticks.append(LatticeStick(axis, *coords))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"stick {k} is malformed: {exc}") from exc
    return LatticePolygon(tuple(sticks))


def detect_input(obj):
    """Parse a JSON object as a presentation or a polygon, whichever fits.

    A presentation may have at most MAX_ARC_COUNT arcs, the pipeline's
    range, since its diagram goes on to the Alexander stage.
    """
    if isinstance(obj, dict) and "arcs" in obj:
        arcs = obj["arcs"]
        if isinstance(arcs, list) and len(arcs) > MAX_ARC_COUNT:
            raise ValueError(f"a presentation may have at most {MAX_ARC_COUNT} arcs, got {len(arcs)}")
        return presentation_from_obj(obj)
    if isinstance(obj, dict) and "sticks" in obj:
        return polygon_from_obj(obj)
    raise ValueError('expected an object with an "arcs" or "sticks" key')
