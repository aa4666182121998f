"""Golden edge-layer records: fixed-seed estimator runs and what each did.

Each entry of ``RUNS`` builds one instance from fixed seeds and runs the
edge estimator on it once.  Its record is everything the run decided: the
estimate, both oracle-call counters, and for each estimator pass the exit
branch, iterations, halvings, removals, ``final_t`` and
``final_accumulator``.  ``golden/edge_runs.json`` holds the records and
``test_golden.py`` replays them, so a change that alters any query, branch
or count fails there.

The runs cover the ``bip-loop-16k`` benchmark configuration (count 0 of
seeds 1-3), a star-skewed graph, and the OV, 3SUM (duplicate C) and NWT
counters with and without a ``decision=`` procedure.  The small instances
run under a zeta override and a reduced ``core_factor`` so that removal and
halving run at desk scale.

A change that is meant to alter what the estimator does (its RNG
consumption, a constant) regenerates the records and says why:

    PYTHONPATH=src python tests/golden_runs.py --force

Without ``--force`` the script refuses to overwrite an existing file.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from fgcount.edgecount import EdgeCountConfig, EdgeCountStats, edge_count
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem
from fgcount.oracles import matrix_oracles
from fgcount.reductions import (
    CountStats,
    ThreeSumInstance,
    count_3sum,
    count_nwt,
    count_ov,
    decide_nwt,
    decide_ov,
)
from fgcount.rng import RngStream, derive_stream
from fgcount.synthetic import random_bipartite, star_skewed_bipartite

PATH = Path(__file__).with_name("golden") / "edge_runs.json"
EPS = 0.25


def _loop_config(n: int, zeta: float, **kwargs) -> EdgeCountConfig:
    """The config under which the estimator runs at zeta = ``zeta``."""
    return EdgeCountConfig(zeta_constant=EPS**2 / (zeta * math.log(n) ** 3), **kwargs)


def _pass(stats: EdgeCountStats) -> dict:
    return {
        "exit_branch": stats.exit_branch,
        "iterations": stats.iterations,
        "halvings": stats.halvings,
        "removals": stats.removals,
        "final_t": stats.final_t,
        "final_accumulator": stats.final_accumulator,
    }


def _graph_run(adj: np.ndarray, rng: RngStream, config: EdgeCountConfig) -> dict:
    oracles = matrix_oracles(adj)
    stats = EdgeCountStats()
    value = edge_count(oracles, EPS, rng, config=config, stats=stats)
    return {
        "estimate": value,
        "independence_calls": oracles.independence_calls,
        "adjacency_calls": oracles.adjacency_calls,
        "passes": [_pass(stats)],
    }


def _bip_loop(seed: int) -> dict:
    root = RngStream(seed)
    adj = random_bipartite(16_000, 4_000, 0.01, derive_stream(root, "graph"))
    rng = derive_stream(derive_stream(root, "counts"), "count-0")
    return _graph_run(adj, rng, _loop_config(20_000, 0.9))


def _star() -> dict:
    adj = star_skewed_bipartite(2_000, 500, RngStream(5))
    config = _loop_config(2_500, 0.9, exact_cutoff=0, core_factor=0.25)
    return _graph_run(adj, RngStream(6), config)


def _counter_run(count, inst, n: int, core_factor: float, **kwargs) -> dict:
    stats = CountStats()
    config = _loop_config(n, 0.9, exact_cutoff=0, core_factor=core_factor)
    value = count(inst, EPS, RngStream(9), config=config, stats=stats, **kwargs)
    return {
        "estimate": value,
        "independence_calls": stats.independence_calls,
        "adjacency_calls": stats.adjacency_calls,
        "passes": [_pass(e) for e in stats.edgecount],
    }


def _ov(**kwargs) -> dict:
    inst = generate(GeneratorSpec(problem=Problem.OV, n=300, d=16, density=0.3, seed=3))
    return _counter_run(count_ov, inst, 300, 0.1, **kwargs)


def _three_sum() -> dict:
    gen = np.random.default_rng(14)  # C in steps of 3: three multiplicity layers
    inst = ThreeSumInstance(
        gen.integers(-300, 301, 400), gen.integers(-300, 301, 400),
        gen.integers(-100, 101, 60) // 3 * 3,
    )
    return _counter_run(count_3sum, inst, 800, 0.25)


def _nwt(**kwargs) -> dict:
    inst = generate(GeneratorSpec(
        problem=Problem.NWT, n=160, parts=(100, 30, 30), density=0.5, weight_bound=50, seed=31,
    ))
    return _counter_run(count_nwt, inst, 544, 0.1, **kwargs)


RUNS = {
    "bip-loop-16k/seed-1": lambda: _bip_loop(1),
    "bip-loop-16k/seed-2": lambda: _bip_loop(2),
    "bip-loop-16k/seed-3": lambda: _bip_loop(3),
    "star-skewed": _star,
    "ov": _ov,
    "ov/decide_ov": lambda: _ov(decision=decide_ov),
    "ov/amplified": lambda: _ov(decision=decide_ov, decision_failure_prob=0.2),
    "3sum/duplicate-c": _three_sum,
    "nwt": _nwt,
    "nwt/decide_nwt": lambda: _nwt(decision=decide_nwt),
}


def load() -> dict:
    return json.loads(PATH.read_text())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Regenerate " + PATH.name)
    parser.add_argument("--force", action="store_true", help="overwrite the existing records")
    args = parser.parse_args(argv)
    if PATH.exists() and not args.force:
        print(f"error: {PATH} exists; pass --force to overwrite it", file=sys.stderr)
        return 1
    records = {name: run() for name, run in RUNS.items()}
    PATH.write_text(json.dumps(records, indent=1) + "\n")
    print(f"wrote {len(records)} records to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
