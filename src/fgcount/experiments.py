"""Trial runner: approximation quality and oracle-call budgets, as CSV.

A trial = one estimator run with its own derived random stream and its own
oracle counters.  The runner computes the exact count once per experiment,
derives per-trial streams from the master seed, and emits an append-only
CSV whose only nondeterministic column is wall_time_ns (determinism checks
strip it).
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field, fields, replace
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .edgecount import DEFAULT_CONFIG, EdgeCountConfig, IterationBudgetExceeded
from .exact import exact_count
from .generators import GeneratorSpec, generate
from .instances import Problem, ProblemInstance, load_instance, problem_kind
from .oracles import matrix_oracles
from .reductions import CountStats, _run_edge_count, count_3sum, count_nwt, count_ov
from .rng import RngStream, derive_stream
from .satcount import CapExceeded, CnfFormula, approx_count_cnf

__all__ = [
    "Outcome",
    "TrialRecord",
    "ExperimentConfig",
    "CSV_TAG",
    "records_to_csv",
    "strip_timing",
    "run_trials",
    "instance_counter",
    "bipartite_counter",
    "run_experiment",
    "success_fraction",
    "summary_line",
    "scaling_probe",
    "probe_to_csv",
]

CSV_TAG = "# fgcount-csv v1"


class Outcome(Enum):
    OK = "OK"
    NO_ESTIMATE = "NO_ESTIMATE"
    BUDGET_EXCEEDED = "BUDGET_EXCEEDED"
    CAP_EXCEEDED = "CAP_EXCEEDED"


@dataclass(frozen=True)
class TrialRecord:
    """One trial; its fields, in order, are the CSV columns."""

    trial_id: int
    seed: int
    outcome: Outcome
    estimate: Optional[int]
    exact: Optional[int]
    rel_error: Optional[float]
    independence_calls: int
    adjacency_calls: int
    wall_time_ns: int


def _rel_error(estimate: Optional[int], exact: Optional[int]) -> Optional[float]:
    if estimate is None or exact is None:
        return None
    return abs(float(estimate) - float(exact)) / max(float(exact), 1.0)


def _cell(value) -> str:
    if value is None:
        return ""
    return value.value if isinstance(value, Outcome) else str(value)


def records_to_csv(records: Sequence[TrialRecord]) -> str:
    """One row per record; the header is ``TrialRecord``'s field names."""
    names = [f.name for f in fields(TrialRecord)]
    lines = [CSV_TAG, ",".join(names)]
    lines += [",".join(_cell(getattr(r, name)) for name in names) for r in records]
    return "\n".join(lines) + "\n"


def strip_timing(csv_text: str) -> str:
    """Drop the wall_time_ns column (the one legitimately varying field)."""
    out = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            out.append(line)
            continue
        cells = line.split(",")
        out.append(",".join(cells[:-1]))
    return "\n".join(out) + "\n"


# A counter callback runs one estimate: (trial_rng, stats) -> value or None.
Counter = Callable[[RngStream, CountStats], Optional[int]]

_REDUCTION_COUNTERS = {Problem.THREESUM: count_3sum, Problem.OV: count_ov, Problem.NWT: count_nwt}


def instance_counter(
    inst: ProblemInstance,
    eps: float,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    cnf_delta: float = 0.3,
) -> Counter:
    """Counting callback for a problem instance, its counter picked once here.

    Raises ``ValueError`` at once for a CNF with x-lines (an
    ``AugmentedFormula``): only a plain CNF has an approximate counter.
    """
    kind = problem_kind(inst)
    if kind is Problem.CNF and not isinstance(inst, CnfFormula):
        raise ValueError(
            "approximate counting takes a plain CNF; files with "
            "x-lines encode decision-oracle instances"
        )
    if kind is Problem.CNF:
        return lambda rng, stats: approx_count_cnf(inst, eps, cnf_delta, rng)
    count = _REDUCTION_COUNTERS[kind]
    return lambda rng, stats: count(inst, eps, rng, config=config, stats=stats)


def bipartite_counter(adjacency: np.ndarray, eps: float) -> Counter:
    """Counting callback for an explicit synthetic bipartite graph (default constants)."""

    def run(rng: RngStream, stats: CountStats) -> Optional[int]:
        return _run_edge_count(matrix_oracles(adjacency), eps, rng, DEFAULT_CONFIG, 0.0, stats)

    return run


def _attempt(
    counter: Counter, rng: RngStream, stats: CountStats
) -> tuple[Outcome, Optional[int], Optional[str]]:
    """Run one count: its outcome, estimate (``None`` unless OK) and cap reason."""
    try:
        estimate = counter(rng, stats)
    except IterationBudgetExceeded:
        return Outcome.BUDGET_EXCEEDED, None, None
    except CapExceeded as exc:
        return Outcome.CAP_EXCEEDED, None, str(exc)
    return (Outcome.NO_ESTIMATE if estimate is None else Outcome.OK), estimate, None


def run_trials(
    counter: Counter,
    trials: int,
    master: RngStream,
    *,
    exact: Optional[int] = None,
) -> list[TrialRecord]:
    """Run seeded trials; per-trial failures become outcomes, not aborts."""
    records = []
    for trial_id in range(trials):
        trial_rng = derive_stream(master, f"trial-{trial_id}")
        stats = CountStats()
        start = time.perf_counter_ns()
        outcome, estimate, _ = _attempt(counter, trial_rng, stats)
        elapsed = time.perf_counter_ns() - start
        records.append(TrialRecord(
            trial_id=trial_id,
            seed=trial_rng.fingerprint(),
            outcome=outcome,
            estimate=estimate,
            exact=exact,
            rel_error=_rel_error(estimate, exact),
            independence_calls=stats.independence_calls,
            adjacency_calls=stats.adjacency_calls,
            wall_time_ns=elapsed,
        ))
    return records


# Each bench config key with the JSON type it takes.
_CONFIG_TYPES = {
    "eps": ((int, float), "a number"),
    "trials": (int, "an integer"),
    "master_seed": (int, "an integer"),
    "instance_path": (str, "a string"),
    "generator": (dict, "an object"),
    "compute_exact": (bool, "true or false"),
    "cnf_delta": ((int, float), "a number"),
    "overrides": (dict, "an object"),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One batch: an instance source, a tolerance, and a trial budget."""

    eps: float
    trials: int
    master_seed: int = 0
    instance_path: Optional[str] = None
    generator: Optional[GeneratorSpec] = None
    compute_exact: bool = True
    cnf_delta: float = 0.3
    edgecount: EdgeCountConfig = field(default_factory=lambda: DEFAULT_CONFIG)

    def __post_init__(self) -> None:
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0.0 < self.eps < 1.0:
            raise ValueError("eps must lie in (0,1)")
        if (self.instance_path is None) == (self.generator is None):
            raise ValueError("exactly one of instance_path / generator must be given")

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        """Parse a bench config; a malformed one raises ``ValueError``.

        The top level is an object whose keys are those of ``_CONFIG_TYPES``;
        an unknown key is an error, so a misspelt one cannot silently fall
        back to its default.  ``eps`` and ``trials`` are required; a key left
        out takes its field's default.
        """
        payload = json.loads(text)
        if not isinstance(payload, dict):
            raise ValueError("a bench config is a JSON object")
        unknown = sorted(set(payload) - set(_CONFIG_TYPES))
        if unknown:
            raise ValueError(f"unknown bench config keys: {', '.join(unknown)}")
        for key in ("eps", "trials"):
            if key not in payload:
                raise ValueError(f"bench config lacks the key {key!r}")
        for key, value in payload.items():
            kinds, what = _CONFIG_TYPES[key]
            # bool is an int subclass: only compute_exact takes one
            if isinstance(value, bool) != (kinds is bool) or not isinstance(value, kinds):
                raise ValueError(f"bench config {key} must be {what}, got {value!r}")
        generator = payload.pop("generator", None)
        overrides = payload.pop("overrides", {})
        try:
            if generator is not None:
                generator["problem"] = Problem(generator["problem"])
                if generator.get("parts") is not None:
                    generator["parts"] = tuple(generator["parts"])
                generator = GeneratorSpec(**generator)
            if any(isinstance(v, bool) or not isinstance(v, (int, float))
                   for v in overrides.values()):
                raise ValueError(f"overrides must be numbers, got {overrides!r}")
            ec = replace(DEFAULT_CONFIG, **overrides) if overrides else DEFAULT_CONFIG
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed generator or overrides: {exc}") from exc
        return cls(**payload, generator=generator, edgecount=ec)


def run_experiment(cfg: ExperimentConfig) -> list[TrialRecord]:
    if cfg.instance_path is not None:
        inst = load_instance(cfg.instance_path)
    else:
        inst = generate(cfg.generator)
    counter = instance_counter(inst, cfg.eps, config=cfg.edgecount, cnf_delta=cfg.cnf_delta)
    exact = exact_count(inst) if cfg.compute_exact else None
    master = RngStream(cfg.master_seed)
    return run_trials(counter, cfg.trials, master, exact=exact)


def success_fraction(records: Sequence[TrialRecord], eps: float) -> float:
    hits = sum(r.outcome is Outcome.OK and r.rel_error is not None and r.rel_error <= eps
               for r in records)
    return hits / len(records) if records else 0.0


def summary_line(records: Sequence[TrialRecord], eps: float) -> str:
    frac = success_fraction(records, eps)
    return f"# summary: trials={len(records)} success_fraction_at_eps={frac:.4f}"


def scaling_probe(
    template: GeneratorSpec,
    sizes: Sequence[int],
    eps: float,
    trials: int,
    master: RngStream,
) -> list[tuple[int, int]]:
    """Median independence-query count per instance size (default constants).

    One random instance per size, every size generated from the template's
    own seed (so a smaller OV instance's A rows are a prefix of a larger
    one's), ``trials`` estimator runs each; the median is what the polylog
    growth assertion is made against.  A CNF count makes no independence
    queries, so a CNF template raises ``ValueError``.
    """
    if template.problem is Problem.CNF:
        raise ValueError("a CNF count makes no independence queries; probe 3sum, ov or nwt")
    results = []
    for size in sizes:
        counter = instance_counter(generate(replace(template, n=size)), eps)
        records = run_trials(counter, trials, derive_stream(master, f"probe-{size}"))
        median = int(statistics.median(r.independence_calls for r in records))
        results.append((size, median))
    return results


def probe_to_csv(results: Sequence[tuple[int, int]]) -> str:
    lines = [CSV_TAG, "size,median_independence_calls"]
    for size, median in results:
        lines.append(f"{size},{median}")
    return "\n".join(lines) + "\n"
