"""Self-test of the benchmark harness at tiny sizes (about a minute).

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload, at tiny instance sizes and a few counts: the plain and
the traced run each emit exactly the metrics ``BENCHMARK.json`` names, with
its units; every output check passes; and a rerun under the same seed gives
identical counts and the same ``decision_calls_p50``.  Exits 1 on any
failure.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import load_library

SEED = 3
COUNTS = 3


def main() -> int:
    load_library()
    import bench

    spec = json.loads(Path("BENCHMARK.json").read_text())
    expected = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in bench.WORKLOADS:
        runs = {}
        for label, trace in (("plain", False), ("rerun", False), ("traced", True)):
            run = bench.measure(name, SEED, 60.0, trace, scale="tiny", max_counts=COUNTS)
            runs[label] = run
            units = {k: unit for k, (_, unit) in run.metrics.items()}
            if units != expected[trace]:
                failures.append(f"{name} {label}: metrics {units} != {expected[trace]}")
            failures.extend(f"{name} {label}: {p}" for p in run.problems)
        counts = {label: [a.result and a.result.signature() for a in run.attempts]
                  for label, run in runs.items()}
        if counts["plain"] != counts["rerun"]:
            failures.append(f"{name}: rerun under seed {SEED} gave different counts")
        calls = [runs[label].metrics["decision_calls_p50"][0] for label in ("plain", "rerun")]
        if calls[0] != calls[1]:
            failures.append(f"{name}: decision_calls_p50 {calls[0]} != {calls[1]} on rerun")
        print(f"{name}: {COUNTS} counts x 3 runs, estimates "
              f"{[a.result and a.result.estimate for a in runs['plain'].attempts]}")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
