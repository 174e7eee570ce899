"""Tests of the benchmark's own logic.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def test_self_time_of_a_synthetic_nested_trace():
    #  a [0, 10] contains b [1, 4] and d [5, 9]; b contains c [2, 3]
    spans = [["a", 0.0, 10.0, -1, 0], ["b", 1.0, 4.0, 0, 0], ["c", 2.0, 3.0, 1, 0], ["d", 5.0, 9.0, 0, 0],
             ["e", 11.0, 12.0, -1, 1]]
    assert harness.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert harness.top_level_seconds(spans) == 11.0


def test_tracer_links_nested_calls_and_patches_every_binding(monkeypatch):
    def inner(x):
        return x + 1

    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.mod")
    mod.inner = inner
    mod.outer = lambda x: mod.inner(x) * 2
    pkg.inner = inner  # re-exported, as a package __init__ does
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.mod", mod)

    tracer = harness.Tracer()
    tracer.item = 7
    patch = tracer.patch("fakepkg", {("fakepkg.mod", "outer"): ("outer", None),
                                     ("fakepkg.mod", "inner"): (lambda args: f"inner{args[0]}", None)})
    patch.apply()
    assert pkg.inner is not inner and mod.inner is not inner
    assert mod.outer(1) == 4
    patch.restore()
    assert pkg.inner is inner and mod.inner is inner
    assert [(s[harness.NAME], s[harness.PARENT], s[harness.ITEM]) for s in tracer.spans] == [
        ("outer", -1, 7), ("inner1", 0, 7)]


def test_p90_needs_at_least_100_samples():
    with pytest.raises(ValueError):
        harness.p90([1.0] * (harness.MIN_P90_SAMPLES - 1))
    assert harness.p90([float(k) for k in range(1, 101)]) == pytest.approx(90.9)


def test_tampered_output_fails_the_digest_gate(tmp_path):
    wl = workloads.WORKLOADS["dataset-certify"]()
    items = wl.build(seed=5)[:17]  # one pass: every knot, in an order that is not the default seed's
    wl.prepare(items, tmp_path)
    stored = json.loads(run.DIGESTS.read_text(encoding="utf-8"))[wl.name]
    ev = run.Evaluator(wl, stored)
    for item in items:
        blob, bad = ev(item, harness.run_item(lambda: wl.run(item), wl.budget_s))
        assert not bad and harness.digest_gate(stored, item.label, blob)
    assert ev.digests_matched == ev.digests_checked == 17

    tampered = blob.replace(b'\\"holds\\":true', b'\\"holds\\":false', 1)  # inside escaped stdout
    assert tampered != blob
    assert not harness.digest_gate(stored, item.label, tampered)
    assert not harness.digest_gate(stored, "no such item", blob)

    tampered_ev = run.Evaluator(wl, {**stored, item.label: harness.item_digest(tampered)})
    _, bad = tampered_ev(item, harness.run_item(lambda: wl.run(item), wl.budget_s))
    assert bad and "differs from the stored digest" in tampered_ev.problems[0]


class _SlowWorkload:
    name = "slow"
    budget_s = 0.05

    def run(self, item):
        if item.label == "slow":
            end = time.perf_counter() + 2.0
            while time.perf_counter() < end:
                pass
        return item.label

    def outputs(self, item, raw):
        return {"label": raw}

    def check(self, item, out):
        return []


def test_over_budget_item_counts_as_failed():
    res = harness.run_item(lambda: _SlowWorkload().run(types.SimpleNamespace(label="slow")), 0.05)
    assert res.status == "dnf" and res.seconds < 1.0

    items = [types.SimpleNamespace(label=label) for label in ("fast", "slow", "fast")]
    ev = run.Evaluator(_SlowWorkload(), None)
    latencies, elapsed, ok, failed = run.measure(_SlowWorkload(), items, 0.0, 3, ev)
    assert (ok, failed, len(latencies)) == (2, 1, 3)
    assert latencies[1] >= _SlowWorkload.budget_s
    assert ev.problems == ["slow: dnf: over the 0.05 s budget"]


def test_item_that_raises_counts_as_failed():
    res = harness.run_item(lambda: 1 // 0, 1.0)
    assert res.status == "error" and "ZeroDivisionError" in res.error


def test_benchmark_json_declares_what_the_runs_report():
    doc = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == workloads.LAYER_UNITS
    assert [m["name"] for m in doc["end_to_end"]] == [
        "setup_s", "items_per_s", "item_ms_p50", "item_ms_p90", "peak_rss_mb"]
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_stored_digests_cover_every_corpus_item_and_nothing_else():
    stored = json.loads(run.DIGESTS.read_text(encoding="utf-8"))
    assert set(stored) == set(workloads.WORKLOADS)
    for name, cls in workloads.WORKLOADS.items():
        assert {item.label for item in cls().build(run.DEFAULT_SEED)} == set(stored[name])
