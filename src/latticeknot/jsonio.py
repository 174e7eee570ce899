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
# the exact key set of each object kind; any other key is invalid input
PRESENTATION_KEYS = ("arcs",)
POLYGON_KEYS = ("sticks",)
STICK_KEYS = ("axis", "range", "fixed")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _is_object_with(obj, keys: tuple[str, ...]) -> bool:
    return isinstance(obj, dict) and obj.keys() == set(keys)


def _fields(obj, keys: tuple[str, ...], what: str) -> list:
    """The values of keys in obj, which must be an object with exactly those keys."""
    if not _is_object_with(obj, keys):
        names = ", ".join(map(json.dumps, keys))
        raise ValueError(f"{what} must be an object with exactly the keys {names}")
    return [obj[k] for k in keys]


def presentation_from_obj(obj) -> ArcPresentation:
    (arcs,) = _fields(obj, PRESENTATION_KEYS, "a presentation")
    return validate(arcs)


def polygon_from_obj(obj) -> LatticePolygon:
    """Read a polygon; the LatticePolygon validates itself, once, as it is made."""
    (raw_sticks,) = _fields(obj, POLYGON_KEYS, "a polygon")
    if not isinstance(raw_sticks, list):
        raise ValueError('"sticks" must be a list')
    if len(raw_sticks) > MAX_STICKS:
        raise ValueError(f"a polygon may have at most {MAX_STICKS} sticks, got {len(raw_sticks)}")
    sticks = []
    for k, raw in enumerate(raw_sticks):
        try:
            axis, (lo, hi), fixed = _fields(raw, STICK_KEYS, "a stick")
            coords = (lo, hi, *_fields(fixed, FIXED_COORDS[axis], '"fixed"'))
            if not all(type(v) is int for v in coords):
                raise ValueError("coordinates must be integers")
            if any(abs(v) > MAX_COORD for v in coords):
                raise ValueError(f"coordinates must have magnitude at most {MAX_COORD}")
            sticks.append(LatticeStick(axis, *coords))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"stick {k} is malformed: {exc}") from exc
    return LatticePolygon(tuple(sticks))


def detect_input(obj):
    """Parse a JSON object as a presentation or a polygon, by its exact key set.

    A presentation may have at most MAX_ARC_COUNT arcs, the pipeline's
    range, since its diagram goes on to the Alexander stage.
    """
    if _is_object_with(obj, PRESENTATION_KEYS):
        arcs = obj["arcs"]
        if isinstance(arcs, list) and len(arcs) > MAX_ARC_COUNT:
            raise ValueError(f"a presentation may have at most {MAX_ARC_COUNT} arcs, got {len(arcs)}")
        return presentation_from_obj(obj)
    if _is_object_with(obj, POLYGON_KEYS):
        return polygon_from_obj(obj)
    raise ValueError('expected an object with exactly one key, "arcs" or "sticks"')
