"""Record a baseline: every workload over several seeds, plus traced runs.

Usage, from the repository root:

    python3 perfbench/baseline.py --seeds 1-10 --sets 2 --traced-seeds 1-3 \
        --out perfbench/BASELINE.json

Runs ``perfbench/run.py`` plainly once per set, workload and seed, and
traced once per workload and traced seed, one run at a time, with
``run_seconds`` from ``BENCHMARK.json``.  Within a set the seeds are
interleaved across workloads (seed 1 of every workload, then seed 2, ...),
so that a change in machine speed is spread over all workloads instead of
landing on one.  For every end-to-end metric and set it reports every value,
the median, the quartiles and the spread (quartile distance over median),
and whether the spread stays within the metric's bound; across sets, how far
each later median moved in the worse direction from the first set's, and
whether that stays within the bound.  It exits 1 if anything is over its
bound.  For the per-layer metrics it reports medians and each layer's share
of a traced count.  The output also records the environment: git commit,
CPU count and model, Python and numpy versions, seeds and run length.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = str(Path(__file__).with_name("run.py"))

# Shares of a traced count, each from the per-layer medians.
SPLIT = {
    "independence": "oracles.independence_s",
    "adjacency": "oracles.adjacency_s",
    "edgecount_self": "edgecount.self_s",
    "satcount_oracle": "satcount.oracle_s",
    "satcount_selfreduce_self": "satcount.selfreduce_self_s",
    "satcount_sample_hash": "satcount.sample_hash_s",
    "satcount_conjoin": "satcount.conjoin_s",
    "rng_generator": "rng.generator_s",
}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    print(f"{workload} seed {seed} trace {trace}: correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result


def _environment(seeds: list[int], traced: list[int], seconds: int) -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown (not a git checkout)"
    model = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "seeds": seeds,
        "traced_seeds": traced,
        "run_seconds": seconds,
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def _summary(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread,
            "within_bound": spread <= bound, "values": values}


def _worsening(first: float, later: float, better: str) -> float:
    """How far ``later`` is worse than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="plain-run seeds, as LO-HI")
    parser.add_argument("--sets", default=2, type=int, help="plain-run sets of all seeds")
    parser.add_argument("--traced-seeds", default="1-3", help="traced-run seeds, as LO-HI")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    seeds, traced = _seeds(args.seeds), _seeds(args.traced_seeds)
    sets = []
    for _ in range(args.sets):
        runs = {name: [] for name in names}
        for seed in seeds:
            for name in names:
                runs[name].append(_run(name, seed, seconds, 0))
        sets.append(runs)
    layers = {name: [_run(name, s, seconds, 1) for s in traced] for name in names}

    report = {"environment": _environment(seeds, traced, seconds), "workloads": {}}
    report["environment"]["sets"] = args.sets
    over = []
    for workload in spec["workloads"]:
        name = workload["name"]
        everything = [r for runs in sets for r in runs[name]] + layers[name]
        entry = {"why": workload["why"], "correct": all(r["correct"] for r in everything),
                 "failed": sum(r["failed"] for r in everything), "end_to_end": {},
                 "per_layer": {}, "layer_split": {}}
        if not entry["correct"]:
            over.append(f"{name}: a run was not correct")
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            per_set = [_summary([r["metrics"][key]["value"] for r in runs[name]], bound)
                       for runs in sets]
            changes = []
            for i, summary in enumerate(per_set, 1):
                if not summary["within_bound"]:
                    over.append(f"{name} {key}: set {i} spread {summary['spread']:.3f} > {bound}")
                worse = _worsening(per_set[0]["median"], summary["median"], metric["better"])
                changes.append(worse)
                if worse > bound:
                    over.append(f"{name} {key}: set {i} median {worse:+.3f} worse than set 1")
            entry["end_to_end"][key] = {"unit": metric["unit"], "better": metric["better"],
                                        "bound": bound, "sets": per_set,
                                        "median_worse_than_set_1": changes}
            print(f"{name:14s} {key:20s} medians "
                  + " ".join(f"{s['median']:.6g}" for s in per_set)
                  + " spreads " + " ".join(f"{s['spread']:.3f}" for s in per_set)
                  + f" (bound {bound})", flush=True)
        for metric in spec["per_layer"]:
            values = [r["metrics"][metric["name"]]["value"] for r in layers[name]]
            entry["per_layer"][metric["name"]] = {
                "unit": metric["unit"], "median": statistics.median(values)}
        count_s = entry["per_layer"]["trace.count_s_p50"]["median"]
        for share, metric in SPLIT.items():
            entry["layer_split"][share] = entry["per_layer"][metric]["median"] / count_s
        report["workloads"][name] = entry
    report["over_bound"] = over
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    for line in over:
        print(f"OVER BOUND: {line}")
    print(f"wrote {args.out}; everything within its bound: {not over}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
