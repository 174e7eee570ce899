"""Record the output digest of every corpus item into bench/digests.json.

    python3 bench/record_digests.py

Runs each distinct item of every workload once, refuses to record if any
output fails its oracle checks, and writes one sha256 per item label.  Run
it only in a change meant to alter outputs; the benchmark then checks every
item of every run against these digests.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import harness
import run


def main() -> int:
    run.load_package()
    import workloads

    stored = {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls()
        items = list({item.label: item for item in wl.build(run.DEFAULT_SEED)}.values())
        ev = run.Evaluator(wl, None)
        digests = {}
        with tempfile.TemporaryDirectory(prefix=".bench_work-", dir=run.ROOT) as workdir:
            wl.prepare(items, Path(workdir))
            for item in items:
                blob, _ = ev(item, harness.run_item(lambda: wl.run(item), wl.budget_s))
                digests[item.label] = harness.item_digest(blob)
        if ev.problems:
            print("\n".join(f"{name}: {p}" for p in ev.problems), file=sys.stderr)
            return 1
        stored[name] = dict(sorted(digests.items()))
        print(f"{name}: {len(digests)} items")
    run.DIGESTS.write_text(json.dumps(stored, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
