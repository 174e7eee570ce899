"""Bundled arc presentations of small knots.

Every entry is re-verified by the test suite: the presentation must
validate and its grid diagram's canonical Alexander polynomial must equal
expected_alexander.  The identification field records how the knot label
was established; reproduce any searched entry with
scripts/find_dataset_presentations.py.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arc import ArcPresentation


@dataclass(frozen=True)
class DatasetEntry:
    name: str
    arcs: ArcPresentation
    crossing_number: int
    non_alternating_prime: bool
    expected_alexander: tuple[int, ...]
    identification: str


def _entry(name, pairs, c, alternating, expected, identification):
    return DatasetEntry(
        name=name,
        arcs=ArcPresentation(tuple(tuple(p) for p in pairs)),
        crossing_number=c,
        non_alternating_prime=not alternating,
        expected_alexander=tuple(expected),
        identification=identification,
    )


_STRUCTURAL = (
    "star-shaped torus-order presentation, hence the (n+1,n)-torus knot by "
    "construction; Alexander cross-checked against the torus-knot formula"
)
_SEARCHED = (
    "seeded search at the knot's arc count; Alexander match identifies the "
    "knot among those presentable with this many arcs (up to mirror)"
)
_EXHAUSTIVE = (
    "first hit of a deterministic exhaustive scan of all a=6 presentations; "
    "at a=6 only the trivial knot, the trefoil and this knot can occur, so "
    "the Alexander match is conclusive"
)

ENTRIES: dict[str, DatasetEntry] = {
    e.name: e
    for e in [
        _entry("3_1", [[1, 4], [2, 5], [1, 3], [2, 4], [3, 5]], 3, True,
               [1, -1, 1], _STRUCTURAL),
        _entry("4_1", [[1, 3], [2, 5], [4, 6], [3, 5], [1, 4], [2, 6]], 4, True,
               [1, -3, 1], _EXHAUSTIVE),
        _entry("5_1", [[1, 5], [4, 7], [2, 6], [3, 5], [1, 4], [3, 6], [2, 7]], 5, True,
               [1, -1, 1, -1, 1], _SEARCHED),
        _entry("5_2", [[2, 6], [4, 7], [1, 5], [3, 7], [4, 6], [2, 5], [1, 3]], 5, True,
               [2, -3, 2], _SEARCHED),
        _entry("6_1", [[4, 7], [1, 6], [2, 5], [3, 8], [1, 7], [2, 4], [3, 6], [5, 8]], 6, True,
               [2, -5, 2], _SEARCHED),
        _entry("6_2", [[4, 7], [1, 5], [2, 6], [5, 8], [1, 7], [3, 8], [2, 4], [3, 6]], 6, True,
               [1, -3, 3, -3, 1], _SEARCHED),
        _entry("6_3", [[4, 7], [3, 5], [1, 6], [4, 8], [2, 7], [5, 8], [1, 3], [2, 6]], 6, True,
               [1, -3, 5, -3, 1], _SEARCHED),
        _entry("7_1", [[3, 7], [1, 5], [2, 6], [4, 9], [2, 8], [1, 6], [7, 9], [3, 5], [4, 8]], 7, True,
               [1, -1, 1, -1, 1, -1, 1], _SEARCHED),
        _entry("7_2", [[1, 4], [2, 6], [5, 9], [4, 8], [1, 7], [3, 6], [5, 8], [3, 7], [2, 9]], 7, True,
               [3, -5, 3], _SEARCHED),
        _entry("7_3", [[1, 7], [6, 9], [3, 8], [1, 4], [3, 5], [7, 9], [2, 6], [4, 8], [2, 5]], 7, True,
               [2, -3, 3, -3, 2], _SEARCHED),
        _entry("7_4", [[4, 9], [3, 7], [1, 8], [6, 9], [5, 8], [2, 6], [1, 4], [3, 5], [2, 7]], 7, True,
               [4, -7, 4], _SEARCHED),
        _entry("7_5", [[4, 9], [6, 8], [1, 3], [2, 7], [6, 9], [3, 8], [1, 5], [4, 7], [2, 5]], 7, True,
               [2, -4, 5, -4, 2], _SEARCHED),
        _entry("7_6", [[2, 6], [1, 8], [3, 9], [2, 7], [1, 4], [3, 8], [5, 9], [4, 6], [5, 7]], 7, True,
               [1, -5, 7, -5, 1], _SEARCHED),
        _entry("7_7", [[4, 8], [1, 6], [7, 9], [3, 8], [1, 5], [2, 7], [4, 9], [3, 5], [2, 6]], 7, True,
               [1, -5, 9, -5, 1], _SEARCHED),
        _entry("8_19", [[1, 4], [2, 5], [3, 6], [4, 7], [1, 5], [2, 6], [3, 7]], 8, False,
               [1, -1, 0, 1, 0, -1, 1], _STRUCTURAL),
        _entry("8_20", [[2, 8], [1, 3], [2, 5], [3, 8], [4, 7], [1, 6], [5, 7], [4, 6]], 8, False,
               [1, -2, 3, -2, 1], _SEARCHED),
        _entry("8_21", [[2, 7], [1, 5], [3, 8], [2, 6], [4, 7], [5, 8], [3, 6], [1, 4]], 8, False,
               [1, -4, 5, -4, 1], _SEARCHED),
    ]
}


def names() -> list[str]:
    return list(ENTRIES)


def get(name: str) -> DatasetEntry:
    try:
        return ENTRIES[name]
    except KeyError:
        raise KeyError(f"no bundled knot named {name!r}; see names()") from None
