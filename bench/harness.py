"""Workload-independent parts of the benchmark.

Per-item wall-clock budgets, the percentile rule, in-memory span tracing
with self-time arithmetic, and the output-digest gate.  Nothing here knows
about latticeknot; workloads.py supplies the package-specific pieces.
"""

from __future__ import annotations

import functools
import hashlib
import json
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable

MIN_P90_SAMPLES = 100  # p90 is reported only with at least ten samples beyond it


class OverBudget(BaseException):
    """Raised into a running item by SIGALRM.

    A BaseException, so the program's own `except Exception` and
    `except ValueError` handlers cannot swallow it.
    """


def _on_alarm(signum, frame):
    raise OverBudget


@dataclass
class ItemResult:
    status: str  # "ok" | "dnf" | "error"
    seconds: float
    value: Any = None
    error: str = ""


def run_item(fn: Callable[[], Any], budget_s: float) -> ItemResult:
    """Call fn() under a wall-clock budget, in this thread, with no helper thread.

    The budget is an ITIMER_REAL alarm whose handler raises OverBudget into
    the running item.  An item that finishes but took longer than the
    budget (the alarm cannot interrupt one long native call) is a "dnf" too.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, budget_s)
        try:
            value = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
    except OverBudget:
        return ItemResult("dnf", time.perf_counter() - start, error=f"over the {budget_s:g} s budget")
    except Exception as exc:  # an item that raises is recorded as failed, never dropped
        return ItemResult("error", time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}")
    finally:
        signal.signal(signal.SIGALRM, previous)
    if elapsed > budget_s:
        return ItemResult("dnf", elapsed, error=f"over the {budget_s:g} s budget")
    return ItemResult("ok", elapsed, value)


def p90(samples: list[float]) -> float:
    """90th percentile; refuses fewer than MIN_P90_SAMPLES samples."""
    if len(samples) < MIN_P90_SAMPLES:
        raise ValueError(f"p90 needs at least {MIN_P90_SAMPLES} samples, got {len(samples)}")
    return statistics.quantiles(samples, n=10)[-1]


# ---------------------------------------------------------------------------
# tracing

# span fields, kept as small lists while recording
NAME, START, END, PARENT, ITEM = range(5)


class Tracer:
    """In-memory spans: [name, start, end, parent index or -1, item id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.item: int | None = None
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str | Callable[[tuple], str],
             observe: Callable[[tuple, Any], None] | None = None) -> Callable:
        """Return fn wrapped in a span; `name` may be a function of the call's args."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span_name = name(args) if callable(name) else name
            self.spans.append([span_name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.item])
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx][START] = start
                self.spans[idx][END] = end
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def patch(self, package: str, table: dict[tuple[str, str], tuple]) -> "Patch":
        """Plan wrappers for every binding of each listed function in `package`.

        table maps (module, function) to (span name, observer or None).  A
        function is rebound on every module of the package whose namespace
        holds it, so calls made inside the package are traced as well.
        """
        modules = [m for key, m in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        sites = []
        for (modname, attr), (name, observe) in table.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self.wrap(original, name, observe)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        sites.append((mod, key, original, wrapper))
        return Patch(sites)


class Patch:
    """Bindings to swap between original functions and their traced wrappers."""

    def __init__(self, sites: list[tuple]):
        self.sites = sites

    def apply(self) -> None:
        for mod, key, _, wrapper in self.sites:
            setattr(mod, key, wrapper)

    def restore(self) -> None:
        for mod, key, original, _ in self.sites:
            setattr(mod, key, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its direct children.

    Spans come from one thread, so children of a span never overlap and
    their covered time is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - child[k] for k, span in enumerate(spans)]


def top_level_seconds(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


# ---------------------------------------------------------------------------
# output digest


def canonical(obj) -> str:
    """Sorted keys, no insignificant whitespace: equal values give equal bytes."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def item_digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


def digest_gate(stored: dict[str, str], label: str, out: bytes) -> bool:
    """Whether an item's canonical output bytes hash to the digest stored for its label.

    An item with no stored digest fails: the stored set must cover the corpus.
    """
    return stored.get(label) == item_digest(out)
