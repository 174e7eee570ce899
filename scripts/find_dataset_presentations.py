#!/usr/bin/env python3
"""Search for the bundled arc presentations and print them frozen.

The figure-8 entry comes from a deterministic exhaustive scan of all a=6
presentations (first hit in canonical order).  The rest come from a seeded
random search at the knot's arc index, accepting the first presentation
whose canonical Alexander polynomial matches the target.  Identification
rests on the match plus the classification of knots presentable at that
arc count; reruns reproduce the same output.
"""

from __future__ import annotations

import itertools
import random

import latticeknot as lk
from latticeknot import LaurentPolynomial as LP

TARGETS = {
    7: {
        "5_1": [1, -1, 1, -1, 1],
        "5_2": [2, -3, 2],
    },
    8: {
        "6_1": [2, -5, 2],
        "6_2": [1, -3, 3, -3, 1],
        "6_3": [1, -3, 5, -3, 1],
        "8_20": [1, -2, 3, -2, 1],
        "8_21": [1, -4, 5, -4, 1],
    },
    9: {
        "7_1": [1, -1, 1, -1, 1, -1, 1],
        "7_2": [3, -5, 3],
        "7_3": [2, -3, 3, -3, 2],
        "7_4": [4, -7, 4],
        "7_5": [2, -4, 5, -4, 2],
        "7_6": [1, -5, 7, -5, 1],
        "7_7": [1, -5, 9, -5, 1],
    },
}


def exhaustive_a6(target: LP) -> lk.ArcPresentation:
    for perm in itertools.permutations(range(2, 7)):
        if perm[0] > perm[-1]:
            continue
        cycle = (1,) + perm
        edges = sorted(
            (min(cycle[k], cycle[(k + 1) % 6]), max(cycle[k], cycle[(k + 1) % 6]))
            for k in range(6)
        )
        for pages in itertools.permutations(edges):
            P = lk.ArcPresentation(tuple(pages))
            if lk.alexander(lk.simplify_diagram(lk.arc_to_planar(P))) == target:
                return P
    raise SystemExit("no a=6 presentation matches the figure-8 polynomial")


def main() -> None:
    fig8 = exhaustive_a6(LP.from_coeffs([1, -3, 1]))
    print('"4_1":', list(map(list, fig8.arcs)))

    rng = random.Random(414243)
    for a, wanted in sorted(TARGETS.items()):
        remaining = {name: LP.from_coeffs(c) for name, c in wanted.items()}
        tries = 0
        while remaining and tries < 2_000_000:
            tries += 1
            P = lk.random_presentation(a, rng)
            poly = lk.alexander(lk.simplify_diagram(lk.arc_to_planar(P)))
            for name, target in list(remaining.items()):
                if poly == target:
                    print(f'"{name}":', list(map(list, P.arcs)), f"# a={a}, tries={tries}")
                    del remaining[name]
        for name in remaining:
            print(f"NOT FOUND after {tries} tries: {name}")


if __name__ == "__main__":
    main()
