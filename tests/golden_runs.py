"""Golden records: fixed-seed runs of the edge estimator and the #CNF counter.

Each entry of ``EDGE_RUNS`` builds one instance from fixed seeds and runs the
edge estimator on it once.  Its record is everything the run decided: the
estimate, both oracle-call counters, and for each estimator pass the exit
branch, iterations, halvings, removals, ``final_t`` and
``final_accumulator``.  ``golden/edge_runs.json`` holds these records.

The edge runs cover the ``bip-loop-16k`` benchmark configuration (count 0 of
seeds 1-3), a star-skewed graph, and the OV, 3SUM (duplicate C) and NWT
counters, each with and without a ``decision=`` procedure.  The small instances
run under a zeta override and a reduced ``core_factor`` so that removal and
halving run at desk scale.

Each entry of ``SAT_RUNS`` is one ``sat_solve`` run with the brute-force
branch off, or one budgeted ``sparse_count``; ``golden/sat_runs.json`` holds
these records.  A ``sat_solve`` record is the value, the oracle calls, the
level m of the last hashed copy (null when no copy was hashed) and the
number of hashed copies counted; level and copies are read by wrapping
``satcount.sample_hash`` for the run.  The runs cover the first counts of
the ``cnf-hash-16`` benchmark at seed 1, formulas that stop at levels 0, 1
and 3, and an unsound always-true oracle that exhausts every level.  A
``sparse_count`` record is the count (null over budget) and the oracle
calls, for budgets at, below and far above the count.

``test_golden.py`` replays both files, so a change that alters any query,
branch or count fails there.  A change that is meant to alter what a counter
does (its RNG consumption, a constant) regenerates the records and says why:

    PYTHONPATH=src python tests/golden_runs.py --force

Without ``--force`` the script refuses to overwrite an existing file.  With
it, the script prints every record whose content changed, as
``file name: old -> new`` (``(absent)`` for a record added or dropped), and
then how many records of each file changed and how many did not, so the
regeneration lists itself.
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
    decide_3sum,
    decide_nwt,
    decide_ov,
)
from fgcount import satcount
from fgcount.rng import RngStream, derive_stream
from fgcount.satcount import (
    EnumerationDecider,
    SatSolveConfig,
    SatSolveParams,
    augment,
    brute_force_count,
    conjoin,
    sample_hash,
    sat_solve,
    sparse_count,
)
from fgcount.synthetic import random_bipartite, star_skewed_bipartite

EDGE_PATH = Path(__file__).with_name("golden") / "edge_runs.json"
SAT_PATH = EDGE_PATH.with_name("sat_runs.json")
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


def _three_sum(**kwargs) -> dict:
    gen = np.random.default_rng(14)  # C in steps of 3: three multiplicity layers
    inst = ThreeSumInstance(
        gen.integers(-300, 301, 400), gen.integers(-300, 301, 400),
        gen.integers(-100, 101, 60) // 3 * 3,
    )
    return _counter_run(count_3sum, inst, 800, 0.25, **kwargs)


def _nwt(**kwargs) -> dict:
    inst = generate(GeneratorSpec(
        problem=Problem.NWT, n=160, parts=(100, 30, 30), density=0.5, weight_bound=50, seed=31,
    ))
    return _counter_run(count_nwt, inst, 544, 0.1, **kwargs)


EDGE_RUNS = {
    "bip-loop-16k/seed-1": lambda: _bip_loop(1),
    "bip-loop-16k/seed-2": lambda: _bip_loop(2),
    "bip-loop-16k/seed-3": lambda: _bip_loop(3),
    "star-skewed": _star,
    "ov": _ov,
    "ov/decide_ov": lambda: _ov(decision=decide_ov),
    "ov/amplified": lambda: _ov(decision=decide_ov, decision_failure_prob=0.2),
    "3sum/duplicate-c": _three_sum,
    "3sum/decide_3sum": lambda: _three_sum(decision=decide_3sum),
    "nwt": _nwt,
    "nwt/decide_nwt": lambda: _nwt(decision=decide_nwt),
}


class _CountingOracle:
    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0

    def __call__(self, f) -> bool:
        self.calls += 1
        return self.fn(f)


def _cnf(n: int, clauses: int, seed: int):
    return generate(GeneratorSpec(problem=Problem.CNF, n=n, clause_count=clauses, seed=seed))


# cnf-hash-16's counting run: 16 variables, delta = eps = 0.3, no brute force
SAT_PARAMS = SatSolveParams.for_instance(16, 0.3, 0.3)
SAT_CONFIG = SatSolveConfig(brute_force_constant=0.0)


def _sat_run(formula, oracle, rng: RngStream) -> dict:
    rows: list[int] = []  # the row count m + t of every sampled hash
    sample = satcount.sample_hash

    def recording(s, m, n, stream):
        rows.append(m)
        return sample(s, m, n, stream)

    satcount.sample_hash = recording
    try:
        value = sat_solve(formula, SAT_PARAMS, oracle, rng, config=SAT_CONFIG)
    finally:
        satcount.sample_hash = sample
    return {
        "value": value,
        "oracle_calls": oracle.calls,
        "level": max(rows) - SAT_PARAMS.t if rows else None,
        "copies": len(rows),
    }


def _cnf_hash_16(count: int) -> dict:
    """Count ``count`` of the ``cnf-hash-16`` benchmark at seed 1.

    The workload's pool holds, in drawing order, the candidate formulas with
    700-1000 solutions, and count i counts pool formula i; so drawing stops
    once formula ``count`` is found.
    """
    pool, attempt = [], 0
    while len(pool) <= count:
        formula = _cnf(16, 28, derive_stream(RngStream(1), f"cnf-{attempt}").fingerprint())
        attempt += 1
        if 700 <= brute_force_count(augment(formula)) <= 1000:
            pool.append(formula)
    rng = derive_stream(derive_stream(RngStream(1), "counts"), f"count-{count}")
    return _sat_run(pool[count], EnumerationDecider(pool[count]), rng)


def _sat_solve(clauses: int, spec_seed: int, seed: int) -> dict:
    formula = _cnf(16, clauses, spec_seed)
    return _sat_run(formula, EnumerationDecider(formula), RngStream(seed))


def _no_estimate() -> dict:
    # an always-true oracle makes every hashed copy exceed its budget
    return _sat_run(_cnf(16, 28, 1), _CountingOracle(lambda f: True), RngStream(1))


def _hashed(rows: int):
    """A 16-variable benchmark-shaped formula under ``rows`` dense XOR rows."""
    root = RngStream(21)
    system = sample_hash(16, rows, 16, derive_stream(root, "hash"))
    return conjoin(_cnf(16, 28, 1), system, derive_stream(root, "rhs"))


def _sparse(formula, budget: int) -> dict:
    oracle = EnumerationDecider(formula.cnf)
    return {"result": sparse_count(formula, budget, oracle), "oracle_calls": oracle.calls}


_SMALL = augment(_cnf(12, 20, 4))
_SMALL_COUNT = brute_force_count(_SMALL)

SAT_RUNS = {
    "cnf-hash-16/seed-1/count-0": lambda: _cnf_hash_16(0),
    "cnf-hash-16/seed-1/count-1": lambda: _cnf_hash_16(1),
    "cnf-hash-16/seed-1/count-2": lambda: _cnf_hash_16(2),
    "sat_solve/level-0": lambda: _sat_solve(28, 1, 2),
    # one formula that two hash seeds stop at different levels
    "sat_solve/level-1": lambda: _sat_solve(28, 5, 18),
    "sat_solve/level-0-same-formula": lambda: _sat_solve(28, 5, 2),
    "sat_solve/level-3": lambda: _sat_solve(16, 1, 1),
    "sat_solve/no-estimate": _no_estimate,
    "sparse_count/budget-at-count": lambda: _sparse(_SMALL, _SMALL_COUNT),
    "sparse_count/budget-below-count": lambda: _sparse(_SMALL, _SMALL_COUNT - 1),
    "sparse_count/budget-0": lambda: _sparse(_SMALL, 0),
    "sparse_count/partial-assignment": lambda: _sparse(_SMALL.assign(3, 1).assign(7, 0), 4096),
    "sparse_count/hashed": lambda: _sparse(_hashed(3), 1 << 16),
    "sparse_count/hashed-over-budget": lambda: _sparse(_hashed(3), 50),
    "sparse_count/hashed-no-solution": lambda: _sparse(_hashed(13), 1 << 16),
}

RECORDS = {EDGE_PATH: EDGE_RUNS, SAT_PATH: SAT_RUNS}


def load(path: Path) -> dict:
    return json.loads(path.read_text())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden records")
    parser.add_argument("--force", action="store_true", help="overwrite the existing records")
    args = parser.parse_args(argv)
    existing = [str(path) for path in RECORDS if path.exists()]
    if existing and not args.force:
        print(f"error: {', '.join(existing)} exists; pass --force to overwrite", file=sys.stderr)
        return 1
    for path, runs in RECORDS.items():
        old = load(path) if path.exists() else {}
        records = {name: run() for name, run in runs.items()}
        changed = [name for name in {**old, **records} if old.get(name) != records.get(name)]
        for name in changed:
            print(f"{path.name} {name}: {_shown(old, name)} -> {_shown(records, name)}")
        path.write_text(json.dumps(records, indent=1) + "\n")
        print(f"wrote {len(records)} records to {path}: "
              f"{len(changed)} changed, {len(records.keys() - changed)} unchanged")
    return 0


def _shown(records: dict, name: str) -> str:
    return json.dumps(records[name]) if name in records else "(absent)"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
