"""Benchmark of latticeknot: one workload per process, closed loop, one client.

    python3 bench/run.py --workload dataset-certify --seed 1 --seconds 30 --trace 0

Run from a source checkout; the package is imported from its src/.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it runs
every item both untraced and traced and reports the per-layer metrics.
The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import harness

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
TRACE_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
SETUP_REPEATS = 41  # split before and after the timed loop, to sample two moments of a noisy host
HARD_CAP_S = 120.0  # a run still short of its minimum item count by then fails

# timed in a fresh interpreter: import the CLI and build the workload's inputs
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import latticeknot.cli
import workloads
workloads.WORKLOADS[sys.argv[3]]().build(int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


class BenchError(Exception):
    """The benchmark could not produce a result."""


def measure_setup(workload: str, seed: int, repeats: int) -> list[float]:
    times = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(SRC), str(BENCH), workload, str(seed)],
            capture_output=True, text=True, timeout=10, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def load_package():
    """Import latticeknot from this checkout's src/ and nowhere else."""
    if not (SRC / "latticeknot" / "__init__.py").is_file():
        raise BenchError(f"no latticeknot sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticeknot

    if Path(latticeknot.__file__).resolve().parent != SRC / "latticeknot":
        raise BenchError(f"imported latticeknot from {latticeknot.__file__}, not from {SRC}")


class Evaluator:
    """Turns item results into output bytes and oracle verdicts.

    `stored` maps item labels to output digests; each item's output must
    match its digest.  None skips that gate, for recording the digests.
    """

    def __init__(self, wl, stored: dict[str, str] | None):
        self.wl = wl
        self.stored = stored
        self.digests_checked = self.digests_matched = 0
        self.problems: list[str] = []

    def __call__(self, item, res) -> tuple[bytes, bool]:
        """(canonical output bytes, whether the item failed)."""
        if res.status != "ok":
            self.note(item, f"{res.status}: {res.error}")
            return res.status.encode(), True
        out = self.wl.outputs(item, res.value)
        try:
            problems = self.wl.check(item, out)
        except (KeyError, TypeError, ValueError) as exc:
            problems = [f"output check could not read the output: {exc!r}"]
        blob = harness.canonical(out).encode()
        if self.stored is not None:
            self.digests_checked += 1
            if harness.digest_gate(self.stored, item.label, blob):
                self.digests_matched += 1
            else:
                problems.append(f"output sha256:{harness.item_digest(blob)} differs from the stored digest")
        for p in problems:
            self.note(item, p)
        return blob, bool(problems)

    def note(self, item, problem: str) -> None:
        self.problems.append(f"{item.label}: {problem}")


def measure(wl, items, seconds: float, min_items: int, ev: Evaluator):
    """Closed loop over the item list until the deadline and min_items are both reached."""
    latencies, elapsed = [], 0.0
    ok = failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n < min_items or time.perf_counter() < deadline:
        if time.perf_counter() - start > HARD_CAP_S:
            raise BenchError(f"only {n} items in {HARD_CAP_S:g} s; need {min_items}")
        item = items[n % len(items)]
        res = harness.run_item(lambda: wl.run(item), wl.budget_s)
        _, bad = ev(item, res)
        elapsed += res.seconds
        # a failed item counts as missing any latency limit
        latencies.append(max(res.seconds, wl.budget_s) if bad else res.seconds)
        failed += bad
        ok += not bad
        n += 1
    return latencies, elapsed, ok, failed


def measure_traced(wl, items, seconds: float, min_items: int, ev: Evaluator):
    """Each item untraced and traced, alternating which goes first."""
    tracer = harness.Tracer()
    lc = workloads.LayerCounts()
    patch = tracer.patch("latticeknot", workloads.layer_table(lc))
    secs = {False: 0.0, True: 0.0}
    failed = 0
    start = time.perf_counter()
    deadline = start + seconds
    n = 0
    while n < min_items or time.perf_counter() < deadline:
        if time.perf_counter() - start > HARD_CAP_S:
            raise BenchError(f"only {n} traced items in {HARD_CAP_S:g} s; need {min_items}")
        item = items[n % len(items)]
        blobs, bad = {}, False
        for traced in ((False, True) if n % 2 == 0 else (True, False)):
            if traced:
                tracer.item = n
                lc.new_item()
                patch.apply()
                try:
                    res = harness.run_item(lambda: wl.run(item), wl.budget_s)
                finally:
                    patch.restore()
            else:
                res = harness.run_item(lambda: wl.run(item), wl.budget_s)
            secs[traced] += res.seconds
            blobs[traced], item_bad = ev(item, res)
            bad = bad or item_bad
        if blobs[False] != blobs[True]:
            ev.note(item, "traced output differs from untraced output")
            bad = True
        failed += bad
        n += 1
    metrics = layer_metrics(tracer.spans, n, lc.counts, secs[True], secs[False])
    return n, failed, metrics, tracer.spans


def layer_metrics(spans, n: int, counts: Counter, traced_s: float, untraced_s: float) -> dict:
    self_s, calls = Counter(), Counter()
    for span, s in zip(spans, harness.self_times(spans)):
        self_s[span[harness.NAME]] += s
        calls[span[harness.NAME]] += 1
    m = {name: 1000.0 * self_s[name] / n for name in workloads.LAYER_MS}
    for name in workloads.LAYER_COUNTS:
        m[name] = counts[name] / n
    m["lattice.validate_calls"] = calls["lattice.validate_ms"] / n
    before = counts["simplify_before"]
    kept = counts["diagram.simplified_in"] + counts["diagram.simplified_out"]
    m["diagram.simplify_kept_frac"] = kept / before if before else 0.0
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.covered_frac"] = harness.top_level_seconds(spans) / traced_s
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["dataset-certify", "random-invariant", "large-build"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    global workloads  # it imports latticeknot, so only after load_package() has checked src/
    try:
        load_package()
        import workloads

        setup = [] if args.trace else measure_setup(args.workload, args.seed, SETUP_REPEATS // 2 + 1)
        wl = workloads.WORKLOADS[args.workload]()
        items = wl.build(args.seed)
        ev = Evaluator(wl, json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload])
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT) as workdir:
            wl.prepare(items, Path(workdir))
            if args.trace:
                n, failed, metrics, spans = measure_traced(wl, items, args.seconds, 1, ev)
            else:
                latencies, elapsed, ok, failed = measure(wl, items, args.seconds, harness.MIN_P90_SAMPLES, ev)
                n = len(latencies)
                p50, p90 = statistics.median(latencies), harness.p90(latencies)
                setup += measure_setup(args.workload, args.seed, SETUP_REPEATS // 2)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}"
          f"  (closed loop, one client, {n} items)")
    correct = not ev.problems
    print(f"  output digests: {ev.digests_matched} of {ev.digests_checked} item outputs match"
          f" {DIGESTS.relative_to(ROOT)}" + ("; traced outputs equal untraced ones" if args.trace and correct else ""))
    for p in ev.problems[:20]:
        print(f"  FAILED {p}", file=sys.stderr)

    if args.trace:
        TRACE_DIR.mkdir(exist_ok=True)
        path = TRACE_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "items": n,
                                    "span_fields": ["name", "start", "end", "parent", "item"],
                                    "spans": spans, "per_layer": metrics}), encoding="utf-8")
        result = {name: {"value": metrics[name], "unit": unit} for name, unit in workloads.LAYER_UNITS.items()}
        for name, v in result.items():
            print(f"  {name:28s} {v['value']:12.5f} {v['unit']}")
        print(f"  spans written to {path.relative_to(ROOT)}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result = {
            "setup_s": {"value": statistics.quantiles(setup, n=10)[0], "unit": "s"},
            "items_per_s": {"value": ok / elapsed, "unit": "1/s"},
            "item_ms_p50": {"value": 1000.0 * p50, "unit": "ms"},
            "item_ms_p90": {"value": 1000.0 * p90, "unit": "ms"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        notes = {"setup_s": f"10th percentile of {SETUP_REPEATS} fresh interpreters",
                 "items_per_s": f"{ok} ok items / {elapsed:.3f} s of item wall time",
                 "item_ms_p50": f"n={n}",
                 "item_ms_p90": f"n={n}, slowest {1000.0 * max(latencies):.1f} ms",
                 "peak_rss_mb": "ru_maxrss"}
        for name, v in result.items():
            print(f"  {name:14s} {v['value']:12.5f} {v['unit']:4s}  {notes[name]}")
        print(f"  {'failed_frac':14s} {failed / n:12.5f}       {failed} of {n} attempted")
    print(json.dumps({"correct": correct, "attempted": n, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
