"""The benchmark's three counting workloads.

Each workload builds its instance from the run's seed (set-up), then counts
it repeatedly through the library's public functions, one count at a time.
``count`` is the plain call a user makes; ``traced_count`` makes the same
computation through seams whose default is the same code, with a
``tracing.Tracer`` recording spans at the layer boundaries.  The two must
agree exactly on the estimate and on every call counter.

Why these three (each stresses a different layer; see README.md):

* ``ov-4096``: independence queries dominate (sub-instance build plus the
  packed-bit decider); the workload for decision-backend changes.  A pool
  of instances, like ``cnf-hash-16``'s pool of formulas.
* ``bip-loop-16k``: the only desk-scale path where removal and halving run,
  so estimator bookkeeping and ``find_core``/``halve`` show; no
  ``reductions`` code, and the only truly approximate edge answer.
* ``cnf-hash-16``: the XOR-hash level loop of ``sat_solve``; self-reduction
  in ``satcount`` dominates and no ``edgecount`` code runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import partial
from typing import Optional

from fgcount.edgecount import (
    EdgeCountConfig,
    EdgeCountStats,
    edge_count,
    find_core,
    halve,
)
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem
from fgcount.oracles import matrix_oracles
from fgcount.reductions import (
    CountStats,
    count_ov,
    count_ov_exact,
    decide_ov,
    ov_oracles,
)
from fgcount.rng import RngStream, derive_stream
from fgcount.satcount import (
    EnumerationDecider,
    SatSolveConfig,
    SatSolveParams,
    augment,
    brute_force_count,
    sat_solve,
)
from fgcount.synthetic import random_bipartite

EPS = 0.25


@dataclass
class Count:
    """What one count returned, with the call counters it spent."""

    estimate: Optional[int]
    decision_calls: int  # independence queries, or SAT-oracle calls
    adjacency_calls: int = 0
    edge: Optional[EdgeCountStats] = None
    n: int = 0  # vertices of the estimator's graph (set by traced counts)

    def signature(self) -> tuple:
        """Everything the traced and untraced runs must agree on."""
        edge = self.edge
        path = None if edge is None else (
            edge.iterations, edge.halvings, edge.removals, edge.exit_branch,
            edge.final_t, edge.final_accumulator,
        )
        return (self.estimate, self.decision_calls, self.adjacency_calls, path)


class Workload:
    """Set-up, reference answers and the count loop body of one workload."""

    name: str
    success_prob: float  # the paper's per-count guarantee of (1 ± eps)
    sizes: dict  # scale ("full" or "tiny") -> size parameters

    def __init__(self, seed: int, scale: str = "full") -> None:
        self.seed = seed
        self.size = self.sizes[scale]

    def setup(self) -> tuple[float, float]:
        """Build the instance and its exact reference; (generate_s, exact_s)."""
        start = time.perf_counter()
        self.generate()
        mid = time.perf_counter()
        self.exact = self.exact_count()
        return mid - start, time.perf_counter() - mid

    def reference(self, i: int) -> int:
        """Exact answer for count ``i``."""
        return self.exact

    def path_problems(self, counts: list[Count]) -> list[str]:
        """Reasons why the counts did not take the path this workload measures."""
        return []


class EdgeWorkload(Workload):
    """A workload counted by ``edge_count`` (success probability 2/3)."""

    success_prob = 2.0 / 3.0
    config = EdgeCountConfig()

    def traced_count(self, i: int, rng: RngStream, tracer) -> Count:
        oracles = self.traced_oracles(i, tracer)
        tracer.wrap_oracles(oracles)
        stats = EdgeCountStats()
        cfg = self.config
        with tracer.patched():
            value = tracer.wrap("edgecount.edge_count", edge_count)(
                oracles, EPS, rng, config=cfg, stats=stats,
                find_core_impl=partial(
                    tracer.wrap("edgecount.find_core", find_core), factor=cfg.core_factor
                ),
                halve_impl=tracer.wrap("edgecount.halve", halve),
            )
        return Count(value, oracles.independence_calls, oracles.adjacency_calls,
                     stats, oracles.total_vertices)


class OvWorkload(EdgeWorkload):
    """A pool of OV instances, each drawn from the run's seed; counts cycle
    through the pool.  The cost of a count differs from instance to instance
    by up to a fifth, so a run over one instance would carry that into its
    timing; a pool averages it out.  At default constants these counts exit
    ``first-pass`` without halving, so every estimate must equal the exact
    count.  The tiny scale lowers the exact-enumeration cutoff (3000 vertices
    by default) so that it takes the same path."""

    name = "ov-4096"
    sizes = {
        "full": dict(n=4096, exact_cutoff=3000, pool=16),
        "tiny": dict(n=600, exact_cutoff=300, pool=2),
    }

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.config = EdgeCountConfig(exact_cutoff=self.size["exact_cutoff"])

    def generate(self) -> None:
        root = RngStream(self.seed)
        self.insts = [
            generate(GeneratorSpec(
                problem=Problem.OV, n=self.size["n"], d=64, density=0.25,
                seed=derive_stream(root, f"ov-{k}").fingerprint()))
            for k in range(self.size["pool"])
        ]

    def exact_count(self) -> list[int]:
        # count_ov_exact also fills each instance's packed-bit cache.
        return [count_ov_exact(inst) for inst in self.insts]

    def reference(self, i: int) -> int:
        return self.exact[i % len(self.exact)]

    def count(self, i: int, rng: RngStream) -> Count:
        stats = CountStats()
        value = count_ov(self.insts[i % len(self.insts)], EPS, rng, config=self.config,
                         stats=stats)
        return Count(value, stats.independence_calls, stats.adjacency_calls,
                     stats.edgecount[0])

    def traced_oracles(self, i: int, tracer):
        inst = self.insts[i % len(self.insts)]
        return ov_oracles(inst, decision=tracer.wrap("reductions.decide", decide_ov))

    def path_problems(self, counts: list[Count]) -> list[str]:
        exits = {(c.edge.exit_branch, c.edge.halvings) for c in counts if c.edge}
        if exits - {("first-pass", 0)}:
            return [f"expected every count to exit first-pass unhalved, saw {sorted(exits)}"]
        return []


class BipLoopWorkload(EdgeWorkload):
    """Random bipartite graph under the zeta override the loop tests use
    (``test_real_loop_removal_regime``), so removal and halving run."""

    name = "bip-loop-16k"
    sizes = {"full": dict(left=16000, right=4000), "tiny": dict(left=16000, right=1500)}

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        n = self.size["left"] + self.size["right"]
        self.config = EdgeCountConfig(zeta_constant=EPS**2 / (0.9 * math.log(n) ** 3))

    def generate(self) -> None:
        self.adj = random_bipartite(self.size["left"], self.size["right"], 0.01,
                                    derive_stream(RngStream(self.seed), "graph"))

    def exact_count(self) -> int:
        return int(self.adj.sum())

    def count(self, i: int, rng: RngStream) -> Count:
        oracles = matrix_oracles(self.adj)
        stats = EdgeCountStats()
        value = edge_count(oracles, EPS, rng, config=self.config, stats=stats)
        return Count(value, oracles.independence_calls, oracles.adjacency_calls, stats)

    def traced_oracles(self, i: int, tracer):
        return matrix_oracles(self.adj)

    def path_problems(self, counts: list[Count]) -> list[str]:
        edges = [c.edge for c in counts if c.edge]
        problems = []
        if not any(e.removals for e in edges):
            problems.append("no count removed a core: the removal path did not run")
        if not any(e.halvings for e in edges):
            problems.append("no count halved: the halving path did not run")
        return problems


class CnfHashWorkload(Workload):
    """``sat_solve`` with the brute-force cutoff off, over a pool of random
    3-CNFs whose solution counts lie in a fixed band.

    The band keeps every formula above the base self-reduction budget, so
    every count enters the level loop, and keeps the cost of a count (which
    grows with the solution count) comparable from seed to seed; the pool
    spreads a run over several formulas for the same reason.

    Set-up draws a fixed number of candidate formulas, whether or not the
    pool fills early, so that every seed does the same set-up work.  Only
    if fewer than ``pool`` candidates fall in the band (about 1 seed in 200
    at full size) are more drawn.
    """

    name = "cnf-hash-16"
    success_prob = 0.75
    sizes = {
        "full": dict(n_vars=16, clauses=28, band=(700, 1000), pool=16, candidates=256),
        "tiny": dict(n_vars=12, clauses=20, band=(230, 400), pool=2, candidates=16),
    }
    config = SatSolveConfig(brute_force_constant=0.0)

    def __init__(self, seed: int, scale: str = "full") -> None:
        super().__init__(seed, scale)
        self.params = SatSolveParams.for_instance(self.size["n_vars"], 0.3, 0.3)

    def setup(self) -> tuple[float, float]:
        lo, hi = self.size["band"]
        self.formulas: list = []
        self.exacts: list[int] = []
        generate_s = exact_s = 0.0
        attempt = 0
        pool = self.size["pool"]
        while attempt < self.size["candidates"] or len(self.formulas) < pool:
            start = time.perf_counter()
            spec_seed = derive_stream(RngStream(self.seed), f"cnf-{attempt}").fingerprint()
            formula = generate(GeneratorSpec(
                problem=Problem.CNF, n=self.size["n_vars"],
                clause_count=self.size["clauses"], seed=spec_seed))
            mid = time.perf_counter()
            exact = brute_force_count(augment(formula))
            exact_s += time.perf_counter() - mid
            generate_s += mid - start
            attempt += 1
            if lo <= exact <= hi and len(self.formulas) < pool:
                self.formulas.append(formula)
                self.exacts.append(exact)
        return generate_s, exact_s

    def reference(self, i: int) -> int:
        return self.exacts[i % len(self.exacts)]

    def count(self, i: int, rng: RngStream) -> Count:
        formula = self.formulas[i % len(self.formulas)]
        oracle = EnumerationDecider(formula)
        value = sat_solve(formula, self.params, oracle, rng, config=self.config)
        return Count(value, oracle.calls)

    def traced_count(self, i: int, rng: RngStream, tracer) -> Count:
        formula = self.formulas[i % len(self.formulas)]
        oracle = EnumerationDecider(formula)
        with tracer.patched():
            value = tracer.wrap("satcount.sat_solve", sat_solve)(
                formula, self.params, tracer.wrap("satcount.oracle", oracle), rng,
                config=self.config)
        return Count(value, oracle.calls)

    def path_problems(self, counts: list[Count]) -> list[str]:
        # With an exact oracle the first self-reduction, budgeted at
        # floor(2^(t + delta n / 2)), fails exactly when the formula has more
        # solutions than that; only then does sat_solve go on to the level loop.
        p = self.params
        budget = math.floor(2.0 ** (p.t + p.delta * self.size["n_vars"] / 2.0))
        return [f"formula with {e} solutions fits the base budget {budget}: "
                "the level loop would not run" for e in self.exacts if e <= budget]


WORKLOADS = {w.name: w for w in (OvWorkload, BipLoopWorkload, CnfHashWorkload)}
