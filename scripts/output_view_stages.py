#!/usr/bin/env python3
"""Time certify's output side stage by stage, in both projection views.

    PYTHONPATH=src python3 scripts/output_view_stages.py [--repeats 5]
    PYTHONPATH=src python3 scripts/output_view_stages.py --large

The default run takes the distinct items of the benchmark's
random-invariant corpus (read from bench/workloads.py), builds each
polygon once, and times project, simplify and Alexander (each on the
previous stage's result, best of --repeats) for two views: the page-axis
view of project_polygon, which invariant --pd prints, and the cycled
view certify uses.  It prints the mean time per item of each stage, the
summed simplified crossings and over-runs b (the overpass minor has b-1
rows), the five items slowest in the page-axis view, and how many items'
b grew in the cycled view.

--large times the cycled view's output side, and the input side, on
random_presentation(a, Random(1000*a + s)), s = 0..2, at a = 32, 48, 56
and 64, and counts b of the page-axis view without taking its
determinant, which runs for seconds to minutes at a = 64.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

import latticeknot as lk
from latticeknot.certify import _output_diagram, build_branch

ROOT = Path(__file__).resolve().parent.parent
VIEWS = {"page-axis": lk.project_polygon, "cycled": _output_diagram}


def over_runs(d: lk.PlanarDiagram) -> int:
    """Maximal cyclic runs of over passages in the Gauss word."""
    g = d.gauss
    return sum(1 for j, (_, over) in enumerate(g) if over and not g[j - 1][1])


def best(f, arg, repeats: int):
    """(result, best wall time in ms) of `repeats` calls f(arg)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = f(arg)
        times.append(time.perf_counter() - t0)
    return out, 1e3 * min(times)


def stages(project, poly, repeats: int) -> dict:
    d, t_proj = best(project, poly, repeats)
    s, t_simp = best(lk.simplify_diagram, d, repeats)
    _, t_alex = best(lk.alexander, s, repeats)
    return {"project": t_proj, "simplify": t_simp, "alexander": t_alex,
            "crossings": s.n, "b": over_runs(s)}


def corpus_run(repeats: int) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    items = {it.label: it for it in workloads.RandomInvariant().build(1)}
    rows = []
    for label in sorted(items):
        _, poly = build_branch(items[label].payload, "auto")
        rows.append((label, {v: stages(f, poly, repeats) for v, f in VIEWS.items()}))
    n = len(rows)
    print(f"{n} distinct random-invariant items, best of {repeats} per stage")
    print(f"{'view':10} {'project':>9} {'simplify':>9} {'alexander':>9} {'total':>9}"
          f" {'crossings':>10} {'b':>6}   (ms per item; sums)")
    for v in VIEWS:
        m = {k: sum(r[v][k] for _, r in rows) for k in ("project", "simplify", "alexander",
                                                        "crossings", "b")}
        total = m["project"] + m["simplify"] + m["alexander"]
        print(f"{v:10} {m['project'] / n:9.3f} {m['simplify'] / n:9.3f} {m['alexander'] / n:9.3f}"
              f" {total / n:9.3f} {m['crossings']:10d} {m['b']:6d}")

    def total(r, v):
        return r[v]["project"] + r[v]["simplify"] + r[v]["alexander"]

    rows.sort(key=lambda lr: total(lr[1], "page-axis"), reverse=True)
    print("slowest five in the page-axis view (ms; b):")
    for label, r in rows[:5]:
        print(f"  {label:24} {total(r, 'page-axis'):7.3f} -> {total(r, 'cycled'):7.3f}"
              f"   b {r['page-axis']['b']} -> {r['cycled']['b']}")
    worse = sum(1 for _, r in rows if r["cycled"]["b"] > r["page-axis"]["b"])
    print(f"items whose b grew in the cycled view: {worse} of {n}")


def large_run(repeats: int) -> None:
    print("a  s  sticks | input b, ms | page-axis b | cycled b, crossings, project/simplify/alexander ms")
    for a in (32, 48, 56, 64):
        for s in range(3):
            P = lk.random_presentation(a, random.Random(1000 * a + s))
            _, poly = build_branch(P, "auto")
            g = lk.simplify_diagram(lk.arc_to_planar(P))
            _, t_in = best(lk.alexander, g, repeats)
            page_b = over_runs(lk.simplify_diagram(lk.project_polygon(poly)))
            r = stages(_output_diagram, poly, repeats)
            print(f"{a:2d} {s}  {len(poly.sticks):4d}   | {over_runs(g):3d} {t_in:8.1f} | {page_b:4d}"
                  f"        | {r['b']:3d} {r['crossings']:4d}"
                  f" {r['project']:6.1f} {r['simplify']:6.1f} {r['alexander']:8.1f}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--large", action="store_true", help="the a = 32..64 table instead")
    args = ap.parse_args()
    (large_run if args.large else corpus_run)(args.repeats)


if __name__ == "__main__":
    main()
