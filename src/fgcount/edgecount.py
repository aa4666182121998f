"""Approximate edge counting for a hidden bipartite graph.

The estimator repeatedly (approximately) halves the number of edges incident
to a surviving right-side set X by deleting half of X at random, then counts
the remainder exactly once few non-isolated vertices are left.  Random
halving only concentrates when no single vertex carries a large fraction of
the incident edges, so each round first locates an approximate set of
high-degree vertices (a "core") and, when that set is small but non-empty
(an "unbalancer"), removes it and accounts for its edges exactly.

Throughout, for a right subset X we write eb(X) for the number of edges
incident to X and U_X for the set of left vertices with a neighbour in X.
The accumulator N collects exact edge masses 2^t * eb(S) of removed sets S,
where t is the number of halvings performed so far; at every loop head the
quantity 2^t * eb(X) + N tracks e(G) up to the halving noise.  All integer
bookkeeping is arbitrary precision.

Independence queries are spent only on locating non-isolated left vertices,
one binary search per vertex found; everything else is adjacency probing.
Each binary search runs over the window of the random left ordering after
the last vertex found, so no query repeats a vertex an earlier search has
located or certified isolated.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np

from .oracles import BipartiteOracles, amplified_independence
from .rng import RngStream, derive_stream

__all__ = [
    "CoreParams",
    "ExactCount",
    "Core",
    "FindCoreOutcome",
    "DegreeSketch",
    "CoreClass",
    "classify_core",
    "find_core",
    "halve",
    "EdgeCountConfig",
    "EdgeCountStats",
    "IterationBudgetExceeded",
    "edge_count",
]


class IterationBudgetExceeded(RuntimeError):
    """Raised when the main loop outlives its O(log n) iteration budget.

    This is a probability <= 1/3 event on a well-formed oracle; callers
    treat it as a failed trial rather than silently returning garbage.
    """


@dataclass(frozen=True)
class CoreParams:
    """Derived quantities shared by the core-finding steps.

    ``fcc`` is the size of the left-vertex sample used to estimate degrees:
    ceil(24 ln(n) / xi).  Note it can vastly exceed the actual left side for
    small xi, in which case core finding degenerates to exact counting.
    """

    xi: float
    n: int
    fcc: int

    @classmethod
    def compute(cls, xi: float, n: int, factor: float = 24.0) -> "CoreParams":
        if not 0.0 < xi < 1.0:
            raise ValueError(f"xi must lie in (0,1), got {xi}")
        if n < 2:
            raise ValueError(f"need at least two vertices, got n={n}")
        fcc = math.ceil(factor * math.log(n) / xi)
        return cls(xi=xi, n=n, fcc=fcc)


@dataclass(frozen=True)
class DegreeSketch:
    """Left-vertex sample Y plus, for each surviving right vertex, its
    number of neighbours inside Y (the degree proxy the core is cut from)."""

    sample: np.ndarray  # left indices, |Y| <= fcc, all non-isolated w.r.t. X
    right_vertices: np.ndarray  # the X the sketch was taken against
    neighbor_counts: np.ndarray  # aligned with right_vertices, values <= |Y|


@dataclass(frozen=True)
class ExactCount:
    """Core finding short-circuited: the exact incident edge count eb(X)."""

    count: int


@dataclass(frozen=True)
class Core:
    """Candidate high-degree set S of X (a xi-core with probability 1-3/n)."""

    vertices: np.ndarray
    sketch: Optional[DegreeSketch] = None


FindCoreOutcome = Union[ExactCount, Core]


class CoreClass(Enum):
    WITNESS = "witness"
    UNBALANCER = "unbalancer"


def classify_core(core_vertices, xi: float, *, factor: float = 24.0) -> CoreClass:
    """Classify a core: small-but-nonempty sets force vertex removal.

    A set S is an unbalancer iff 1 <= |S| < 24/xi^2; the empty set and any
    set of size >= 24/xi^2 are witnesses (the boundary is a witness).
    """
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0,1), got {xi}")
    size = len(core_vertices)
    if 1 <= size < factor / (xi * xi):
        return CoreClass.UNBALANCER
    return CoreClass.WITNESS


def halve(X, rng: RngStream) -> np.ndarray:
    """Keep each element of X independently with probability 1/2.

    Deterministic in (X, rng): the same stream always halves the same way.
    """
    X = np.asarray(X, dtype=np.int64)
    if X.size == 0:
        return X.copy()
    keep = rng.generator().integers(0, 2, size=X.size).astype(bool)
    return X[keep]


def _gallop_max_true(
    predicate: Callable[[int], bool], lo: int, hi: int
) -> int:
    """Largest k in [lo, hi] with predicate(k) true.

    Requires predicate monotone non-increasing and predicate(lo) known true
    (lo itself is never probed).  Galloping doubles a step from lo and then
    binary-refines, so a result near lo costs O(1) probes; this is what
    keeps the total independence-query bill near one probe per located
    vertex when non-isolated vertices are dense in the random order.
    """
    k = lo
    step = 1
    while k + step <= hi and predicate(k + step):
        k += step
        step <<= 1
    upper = min(k + step, hi + 1)  # predicate(upper) false, or upper == hi+1
    while upper - k > 1:
        mid = (k + upper) // 2
        if predicate(mid):
            k = mid
        else:
            upper = mid
    return k


def find_core(
    oracles: BipartiteOracles,
    X,
    xi: float,
    rng: RngStream,
    *,
    factor: float = 24.0,
) -> FindCoreOutcome:
    """Exact count for thin instances, else a candidate high-degree set.

    If |X| < 24 ln n the incident edges are enumerated outright.  Otherwise
    a uniformly random ordering of the left side is scanned with binary
    search over the independence oracle, peeling off non-isolated vertices
    one at a time until either fcc = ceil(24 ln n / xi) of them are found
    (they form a uniform sample Y of U_X) or the ordering is exhausted
    (U_X itself was smaller than fcc, so again count exactly).  Each binary
    search runs over the window after the last vertex found: everything
    before it is located or certified isolated from X, so its queries are
    order[lo:k] against X for the window start lo.  In the
    sampled case, the returned set S collects the right vertices adjacent
    to at least xi*fcc/2 members of Y; with probability >= 1 - 3/n it
    contains every vertex of degree >= xi |U_X| and nothing of degree
    below xi |U_X| / 24.
    """
    X = np.asarray(X, dtype=np.int64)
    if X.size == 0:
        raise ValueError("find_core requires a nonempty right-side set")
    params = CoreParams.compute(xi, oracles.total_vertices, factor)
    n = params.n

    all_left = np.arange(oracles.left_size, dtype=np.int64)

    # Thin right side: enumerate edges incident to X directly.
    if X.size < factor * math.log(n):
        return ExactCount(oracles.count_edges_incident(all_left, X))

    gen = rng.generator()
    order = gen.permutation(oracles.left_size).astype(np.int64)
    t = order.size

    # Every vertex before ``lo`` is located or certified isolated from X, so
    # each search only queries the window order[lo:k]; order[lo:lo] is empty.
    hit_positions: list[int] = []
    lo = 0
    while len(hit_positions) < params.fcc and lo < t:
        k = _gallop_max_true(
            lambda k: oracles.independence_query(order[lo:k], X), lo, t
        )
        if k == t:
            break
        hit_positions.append(k)
        lo = k + 1
    exhausted = len(hit_positions) < params.fcc

    Y = order[np.asarray(hit_positions, dtype=np.int64)] if hit_positions else np.empty(0, dtype=np.int64)

    if exhausted:
        # Y is all of U_X; every edge incident to X has its left endpoint in Y.
        return ExactCount(oracles.count_edges_incident(Y, X))

    counts = oracles.neighbor_counts(Y, X)
    threshold = xi * params.fcc / 2.0
    S = X[counts >= threshold]
    sketch = DegreeSketch(sample=Y, right_vertices=X, neighbor_counts=counts)
    return Core(vertices=S, sketch=sketch)


@dataclass(frozen=True)
class EdgeCountConfig:
    """Tunable constants of the estimator.

    Defaults are the analysis constants; overrides exist only for sensitivity
    experiments and for tests that need to force the removal/halving loop at
    desk scale.  ``noisy_failure_constant`` divides the per-call failure
    budget granted to a randomized independence decider so that a union
    bound over the query budget costs at most a small constant of success
    probability.
    """

    zeta_constant: float = 36.0**2  # zeta = eps^2 / (zeta_constant * ln(n)^3)
    exact_cutoff: int = 3000  # below this many vertices, enumerate outright
    core_factor: float = 24.0  # the "24" in thresholds, fcc, and witness sizes
    core_xi_divisor: float = 48.0  # first core pass runs at zeta / this
    iteration_factor: float = 7.0  # loop budget ceil(7 ln n) + 1
    noisy_failure_constant: float = 2000.0


DEFAULT_CONFIG = EdgeCountConfig()


@dataclass
class EdgeCountStats:
    """Mutable trace of one estimator run (tests and the bench harness)."""

    iterations: int = 0
    halvings: int = 0
    removals: int = 0
    exit_branch: Optional[str] = None  # "small-n" | "first-pass" | "second-pass" | "empty"
    events: list = field(default_factory=list)
    final_t: int = 0
    final_accumulator: int = 0

    def record(self, event: str) -> None:
        self.events.append(event)


def edge_count(
    oracles: BipartiteOracles,
    eps: float,
    rng: RngStream,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    oracle_failure_prob: float = 0.0,
    stats: Optional[EdgeCountStats] = None,
    find_core_impl: Optional[Callable[..., FindCoreOutcome]] = None,
    halve_impl: Optional[Callable[[np.ndarray, RngStream], np.ndarray]] = None,
):
    """Estimate e(G) within a factor (1 ± eps) with probability >= 2/3.

    Small instances (fewer than ``config.exact_cutoff`` vertices) are
    enumerated exactly.  Otherwise each loop iteration asks for a core of
    the surviving set X at accuracy zeta/48 with zeta = eps^2/(36^2 ln(n)^3):

    * an exact answer ends the run with 2^t * eb(X) + N;
    * a witness certifies X balanced, so X is halved and t incremented;
    * an unbalancer S is priced exactly (eb(S) by adjacency probing) and a
      second core pass at accuracy zeta decides whether X\\S may be halved
      as well (fold 2^t * eb(S) into N either way).

    The loop keeps three values: the surviving right set X, the number t
    of halvings so far and the accumulator N, the exact mass of retired
    sets (a sum of terms 2^(t at removal) * eb(S)).  At every loop head
    2^t * eb(X) + N tracks e(G) up to the halving noise, and the run
    returns that quantity once eb(X) is known exactly.

    The loop is cut off after ceil(7 ln n) + 1 iterations with
    ``IterationBudgetExceeded``; on a correct oracle that happens with
    probability at most 1/3.

    ``oracle_failure_prob`` > 0 declares the independence oracle to be a
    randomized decider with that per-call failure rate; it is then wrapped
    in a majority vote sized for a per-call failure of
    eps^2 / (noisy_failure_constant * ln(n)^6), which a union bound over
    the query budget turns into a small additive loss.  Deterministic
    oracles (the default) are used as-is.

    ``find_core_impl`` / ``halve_impl`` are test seams for instrumented
    runs (e.g. replacing halving with a no-op to check the bookkeeping
    identity); production callers leave them unset.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")
    st = stats if stats is not None else EdgeCountStats()
    n = oracles.total_vertices
    all_left = np.arange(oracles.left_size, dtype=np.int64)
    all_right = np.arange(oracles.right_size, dtype=np.int64)

    if n < config.exact_cutoff:
        st.exit_branch = "small-n"
        return oracles.count_edges_incident(all_left, all_right)

    if oracle_failure_prob > 0.0:
        if oracle_failure_prob > 1.0 / 3.0:
            raise ValueError("independence decider must fail with probability <= 1/3")
        target = eps**2 / (config.noisy_failure_constant * math.log(n) ** 6)
        oracles = amplified_independence(oracles, target)

    if find_core_impl is not None:
        fc = find_core_impl
    else:
        fc = functools.partial(find_core, factor=config.core_factor)
    hv = halve_impl if halve_impl is not None else halve

    zeta = eps**2 / (config.zeta_constant * math.log(n) ** 3)
    xi_first = zeta / config.core_xi_divisor

    X, t, N = all_right, 0, 0
    budget = math.ceil(config.iteration_factor * math.log(n)) + 1

    def finish(branch: str, event: str, exact_mass: int) -> int:
        st.exit_branch = branch
        st.record(event)
        st.final_t, st.final_accumulator = t, N
        return (1 << t) * exact_mass + N

    for iteration in itertools.count(1):
        if iteration > budget:
            raise IterationBudgetExceeded(
                f"no exact outcome within {budget} iterations (n={n}, eps={eps})"
            )
        st.iterations = iteration

        if X.size == 0:
            return finish("empty", f"empty:{iteration}", 0)

        outcome = fc(oracles, X, xi_first, derive_stream(rng, f"core-a-{iteration}"))
        if isinstance(outcome, ExactCount):
            return finish("first-pass", f"exact-a:{iteration}", outcome.count)

        S = outcome.vertices
        if classify_core(S, xi_first, factor=config.core_factor) is CoreClass.WITNESS:
            X = hv(X, derive_stream(rng, f"halve-a-{iteration}"))
            t += 1
            st.halvings += 1
            st.record(f"halve-a:{iteration}")
            continue

        # Unbalancer: price its edges exactly and retire it from X.
        eb_S = oracles.count_edges_incident(all_left, S)
        remaining = np.setdiff1d(X, S, assume_unique=True)

        if remaining.size == 0:
            # eb(X) = eb(S) exactly; nothing left to estimate.
            return finish("second-pass", f"exact-b-empty:{iteration}", eb_S)

        outcome2 = fc(oracles, remaining, zeta, derive_stream(rng, f"core-b-{iteration}"))
        if isinstance(outcome2, ExactCount):
            # eb(X) = eb(X \ S) + eb(S); S's mass rejoins before scaling.
            return finish("second-pass", f"exact-b:{iteration}", outcome2.count + eb_S)

        S2 = outcome2.vertices
        N += (1 << t) * eb_S
        st.removals += 1
        if classify_core(S2, zeta, factor=config.core_factor) is CoreClass.WITNESS:
            X = hv(remaining, derive_stream(rng, f"halve-b-{iteration}"))
            t += 1
            st.halvings += 1
            st.record(f"remove-halve:{iteration}")
        else:
            X = remaining
            st.record(f"remove:{iteration}")
