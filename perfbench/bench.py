"""Closed-loop measurement of one workload, and its metrics.

One process, one count at a time, no worker threads.  Set-up (instance plus
exact reference) runs once, then the loop starts counts until ``seconds``
have passed; count ``i`` draws its randomness from the stream
``(seed, "counts/count-i")``, so a seed fixes every input.  Between counts
the set-up is repeated while repeats have taken less than ``SETUP_SHARE``
of the loop, and at least ``SETUP_REPEATS`` times in all; ``setup_s`` is
their median.  The machine's speed changes in phases of several seconds, so
repeats spread over the run see the same phases as the counts, where
back-to-back repeats would all land in one.  With
``trace`` on, each count runs twice on the same stream, plain and traced;
the two must agree exactly, and the per-layer metrics are medians per count
over the traced runs.
"""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

from fgcount.rng import RngStream, derive_stream

from tracing import Tracer
from workloads import EPS, WORKLOADS, Count, Workload

SETUP_REPEATS = 3  # set up at least this often ...
SETUP_SHARE = 0.1  # ... and between counts while repeats take less of the loop
TAIL_BEYOND = 10  # the tail percentile keeps this many counts above it ...
TAIL_FLOOR = 0.75  # ... but is never below this quantile
GUARANTEE_ALPHA = 1e-3  # binomial test level for the (1 ± eps) guarantee

END_TO_END = {
    "setup_s": "s",
    "count_s_p50": "s",
    "count_s_tail": "s",
    "counts_per_s": "1/s",
    "within_eps_frac": "frac",
    "completed_frac": "frac",
    "decision_calls_p50": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "oracles.independence.calls": "count",
    "oracles.independence_s": "s",
    "oracles.adjacency.calls": "count",
    "oracles.adjacency_s": "s",
    "reductions.decide.calls": "count",
    "reductions.decide_s": "s",
    "reductions.subinstance_s": "s",
    "edgecount.find_core.calls": "count",
    "edgecount.find_core_s": "s",
    "edgecount.halve.calls": "count",
    "edgecount.halve_s": "s",
    "edgecount.self_s": "s",
    "edgecount.iterations": "count",
    "edgecount.halvings": "count",
    "edgecount.removals": "count",
    "edgecount.exit_first_pass_frac": "frac",
    "edgecount.budget_used": "frac",
    "satcount.oracle.calls": "count",
    "satcount.oracle_s": "s",
    "satcount.selfreduce_self_s": "s",
    "satcount.sparse_count.calls": "count",
    "satcount.sample_hash.calls": "count",
    "satcount.sample_hash_s": "s",
    "satcount.conjoin_s": "s",
    "satcount.level_m": "level",
    "satcount.copies": "count",
    "rng.generator.calls": "count",
    "rng.generator_s": "s",
    "setup.generate_s": "s",
    "setup.exact_s": "s",
    "trace.count_s_p50": "s",
    "trace.overhead_frac": "frac",
}


@dataclass
class Attempt:
    """One count: its result (None if it raised) and its wall time."""

    index: int
    result: Optional[Count]
    seconds: float
    traced: Optional[Count] = None
    traced_seconds: float = 0.0
    layers: dict = field(default_factory=dict)

    @property
    def completed(self) -> bool:
        return self.result is not None and self.result.estimate is not None


@dataclass
class Run:
    workload: str
    seed: int
    attempts: list[Attempt]
    setups: list[tuple[float, float]]
    elapsed: float
    problems: list[str]
    metrics: dict  # name -> (value, unit)
    tail_percentile: float = 0.0

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed(self) -> int:
        return sum(not a.completed for a in self.attempts)


def _timed(fn, *args) -> tuple[Optional[Count], float]:
    """Run one count; a raised exception is reported and becomes None."""
    start = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # a failed count is recorded, and the run goes on
        traceback.print_exc(file=sys.stderr)
        result = None
    return result, time.perf_counter() - start


def _layer_metrics(tracer: Tracer, count: Count, wl: Workload) -> dict:
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s
    edge = count.edge
    decide_calls = calls["reductions.decide"]
    budget = 0.0
    if count.n:
        budget = count.decision_calls / (2000 * EPS**-2 * math.log(count.n) ** 6)
    level = 0
    if tracer.hash_rows:
        level = max(tracer.hash_rows) - wl.params.t
    return {
        "oracles.independence.calls": calls["oracles.independence"],
        "oracles.independence_s": total["oracles.independence"],
        "oracles.adjacency.calls": count.adjacency_calls,
        "oracles.adjacency_s": total["oracles.adjacency"],
        "reductions.decide.calls": decide_calls,
        "reductions.decide_s": total["reductions.decide"],
        "reductions.subinstance_s": (
            total["oracles.independence"] - total["reductions.decide"] if decide_calls else 0.0
        ),
        "edgecount.find_core.calls": calls["edgecount.find_core"],
        "edgecount.find_core_s": total["edgecount.find_core"],
        "edgecount.halve.calls": calls["edgecount.halve"],
        "edgecount.halve_s": total["edgecount.halve"],
        "edgecount.self_s": (
            own["edgecount.edge_count"] + own["edgecount.find_core"] + own["edgecount.halve"]
        ),
        "edgecount.iterations": edge.iterations if edge else 0,
        "edgecount.halvings": edge.halvings if edge else 0,
        "edgecount.removals": edge.removals if edge else 0,
        "edgecount.exit_first_pass_frac": float(bool(edge) and edge.exit_branch == "first-pass"),
        "edgecount.budget_used": budget,
        "satcount.oracle.calls": calls["satcount.oracle"],
        "satcount.oracle_s": total["satcount.oracle"],
        "satcount.selfreduce_self_s": own["satcount.sparse_count"],
        "satcount.sparse_count.calls": calls["satcount.sparse_count"],
        "satcount.sample_hash.calls": calls["satcount.sample_hash"],
        "satcount.sample_hash_s": total["satcount.sample_hash"],
        "satcount.conjoin_s": total["satcount.conjoin"],
        "satcount.level_m": level,
        "satcount.copies": calls["satcount.conjoin"],
        "rng.generator.calls": calls["rng.generator"],
        "rng.generator_s": total["rng.generator"],
    }


def _below_guarantee(successes: int, trials: int, p: float) -> bool:
    """True if so few successes are implausible (level GUARANTEE_ALPHA) for
    a per-count success probability of at least ``p``."""
    tail = sum(math.comb(trials, k) * p**k * (1 - p) ** (trials - k)
               for k in range(successes + 1))
    return tail < GUARANTEE_ALPHA


def _tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND counts above it, or
    the TAIL_FLOOR quantile if that is higher (runs of fewer than 40 counts).

    Returns (value, percentile).
    """
    ordered = sorted(times)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, math.ceil(TAIL_FLOOR * n))  # 1-based
    return ordered[rank - 1], 100.0 * rank / n


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    scale: str = "full",
    max_counts: Optional[int] = None,
) -> Run:
    """Set up ``name`` and count it in a closed loop for ``seconds``."""
    wl = WORKLOADS[name](seed, scale)
    setups = [wl.setup()]
    repeat_s = 0.0  # time spent repeating set-up inside the loop
    counts = derive_stream(RngStream(seed), "counts")

    attempts: list[Attempt] = []
    start = time.perf_counter()
    deadline = start + seconds
    while not attempts or (
        time.perf_counter() < deadline and (max_counts is None or len(attempts) < max_counts)
    ):
        i = len(attempts)
        rng = derive_stream(counts, f"count-{i}")
        attempt = Attempt(i, *_timed(wl.count, i, rng))
        if trace:
            tracer = Tracer()
            attempt.traced, attempt.traced_seconds = _timed(wl.traced_count, i, rng, tracer)
            if attempt.traced is not None:
                attempt.layers = _layer_metrics(tracer, attempt.traced, wl)
        attempts.append(attempt)
        if repeat_s < SETUP_SHARE * (time.perf_counter() - start):
            setups.append(wl.setup())
            repeat_s += sum(setups[-1])
    elapsed = time.perf_counter() - start
    while len(setups) < SETUP_REPEATS:
        setups.append(wl.setup())

    run = Run(name, seed, attempts, setups, elapsed, [], {})
    within = _check(wl, run, trace)
    if trace:
        run.metrics = _per_layer(run)
    else:
        run.metrics = _end_to_end(run, within)
    return run


def _check(wl: Workload, run: Run, trace: bool) -> int:
    """Check every count against the exact reference, the workload's path
    and, when traced, the plain run.  Records problems on ``run`` and
    returns the number of counts within (1 ± eps)."""
    done = [a for a in run.attempts if a.completed]
    problems = run.problems
    problems.extend(wl.path_problems([a.result for a in done]))
    within = 0
    for a in done:
        estimate, exact = a.result.estimate, wl.reference(a.index)
        edge = a.result.edge
        if estimate < 0:
            problems.append(f"count {a.index}: negative estimate {estimate}")
        if abs(estimate - exact) <= EPS * exact:
            within += 1
        if edge and edge.exit_branch == "first-pass" and edge.halvings == 0 and estimate != exact:
            problems.append(f"count {a.index}: exact-path estimate {estimate} != {exact}")
        if trace and (a.traced is None or a.traced.signature() != a.result.signature()):
            problems.append(f"count {a.index}: traced run disagrees with the plain run")
    if _below_guarantee(within, len(run.attempts), wl.success_prob):
        problems.append(
            f"only {within} of {len(run.attempts)} counts within (1 ± {EPS}) of the exact count")
    return within


def _end_to_end(run: Run, within: int) -> dict:
    times = [a.seconds for a in run.attempts]
    done = [a for a in run.attempts if a.completed]
    tail, run.tail_percentile = _tail(times)
    values = {
        "setup_s": statistics.median(g + e for g, e in run.setups),
        "count_s_p50": statistics.median(times),
        "count_s_tail": tail,
        "counts_per_s": len(times) / math.fsum(times),
        "within_eps_frac": within / len(times),
        "completed_frac": len(done) / len(times),
        "decision_calls_p50": (
            statistics.median(a.result.decision_calls for a in done) if done else 0
        ),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def _per_layer(run: Run) -> dict:
    traced = [a for a in run.attempts if a.layers]
    values = {k: 0.0 for k in PER_LAYER}
    if traced:
        for k in traced[0].layers:
            values[k] = statistics.median(a.layers[k] for a in traced)
        # A share of counts, not a per-count median.
        values["edgecount.exit_first_pass_frac"] = statistics.fmean(
            a.layers["edgecount.exit_first_pass_frac"] for a in traced)
        plain = statistics.median(a.seconds for a in traced)
        values["trace.count_s_p50"] = statistics.median(a.traced_seconds for a in traced)
        values["trace.overhead_frac"] = values["trace.count_s_p50"] / plain - 1.0
    values["setup.generate_s"] = statistics.median(g for g, _ in run.setups)
    values["setup.exact_s"] = statistics.median(e for _, e in run.setups)
    return {k: (v, PER_LAYER[k]) for k, v in values.items()}


def report(run: Run) -> dict:
    """Print every metric by name and unit; return the result object."""
    n = len(run.attempts)
    print(f"workload {run.workload} seed {run.seed}: {n} counts in {run.elapsed:.2f} s, "
          f"{run.failed} failed, {len(run.setups)} set-ups")
    for name, (value, unit) in run.metrics.items():
        note = ""
        if name == "count_s_tail":
            note = f"  (p{run.tail_percentile:.1f} of {n} counts)"
        print(f"  {name:34s} {value:14.6g} {unit}{note}")
    for problem in run.problems:
        print(f"  CHECK FAILED: {problem}")
    return {
        "correct": run.correct,
        "attempted": n,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run.metrics.items()},
    }
