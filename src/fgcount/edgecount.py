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
one galloping search per vertex found; everything else is adjacency probing.
Each search runs over the window of the random left ordering after the last
vertex found, so no query repeats a vertex an earlier search has located or
certified isolated, and a vertex right after the last one found costs a
single query.  A run of such hits at the window starts is asked by one
``BipartiteOracles.first_isolated`` call and counted one query per vertex.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .oracles import BipartiteOracles, _as_index_array, amplified_independence
from .rng import RngStream, derive_stream

__all__ = [
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


def _is_unbalancer(S, xi: float, factor: float) -> bool:
    """True iff 1 <= |S| < factor/xi^2; any other core (the boundary
    included) is a witness, certifying X balanced."""
    return 1 <= len(S) < factor / (xi * xi)


def halve(X, rng: RngStream) -> np.ndarray:
    """Keep each element of X independently with probability 1/2.

    Deterministic in (X, rng): the same stream always halves the same way.
    X must be a 1-D integer index sequence (``TypeError`` / ``ValueError``
    otherwise, as for the oracle object's own index checks).
    """
    X = _as_index_array(X)
    if X.size == 0:
        return X.copy()
    keep = rng.generator().integers(0, 2, size=X.size).astype(bool)
    return X[keep]


def find_core(
    oracles: BipartiteOracles,
    X,
    xi: float,
    rng: RngStream,
    *,
    factor: float = 24.0,
) -> Union[int, np.ndarray]:
    """Exact count eb(X) as an ``int`` for thin instances, else a candidate core.

    If |X| < 24 ln n the incident edges are enumerated outright.  Otherwise
    a uniformly random ordering of the left side is scanned with galloping
    search over the independence oracle, peeling off non-isolated vertices
    one at a time until either fcc = ceil(24 ln n / xi) of them are found
    (they form a uniform sample Y of U_X) or the ordering is exhausted
    (U_X itself was smaller than fcc, so again count exactly).  For small
    xi, fcc can vastly exceed the left side, and then core finding always
    degenerates to exact counting.  Each search runs over the window after
    the last vertex found: everything before it is located or certified
    isolated from X, so its queries are order[lo:k] against X for the
    window start lo.  Its first query asks about order[lo] alone, so a hit
    right after the last vertex found costs one query; past an isolated
    order[lo] it gallops k = lo+1, lo+3, lo+7, ... and bisects the last
    step, O(log d) queries for a hit d positions past lo.  The first
    queries of consecutive searches are asked by one
    ``BipartiteOracles.first_isolated`` call, which runs through the hits
    up to the first isolated order[lo] and counts one query for each
    vertex it asked about (``matrix_oracles`` answers such a run from its
    touch mask in bulk).  X is bound once before the scan
    (``BipartiteOracles.bind_right``): the backend prepares it once, and
    each query sorts and checks only its window.  In the
    sampled case, the returned int64 index array S (a xi-core with
    probability >= 1 - 3/n) collects the right vertices adjacent to at
    least xi*fcc/2 members of Y: every vertex of degree >= xi |U_X| and
    nothing of degree below xi |U_X| / 24.  X is checked as ``halve``
    checks it.
    """
    X = _as_index_array(X)
    if X.size == 0:
        raise ValueError("find_core requires a nonempty right-side set")
    if not 0.0 < xi < 1.0:
        raise ValueError(f"xi must lie in (0,1), got {xi}")
    n = oracles.total_vertices
    if n < 2:
        raise ValueError(f"need at least two vertices, got n={n}")
    fcc = math.ceil(factor * math.log(n) / xi)

    all_left = np.arange(oracles.left_size, dtype=np.int64)

    # Thin right side: enumerate edges incident to X directly.
    if X.size < factor * math.log(n):
        return oracles.count_edges_incident(all_left, X)

    gen = rng.generator()
    order = gen.permutation(oracles.left_size)
    t = order.size

    # Every vertex before ``lo`` is located or certified isolated from X, so
    # each search asks only about windows order[lo:k], for the largest k with
    # order[lo:k] isolated.  The first query of each search, order[lo]
    # alone, comes from one ``first_isolated`` call per run of hits, whose
    # window stops where the sample would be full.
    bound_X = oracles.bind_right(X)
    query = oracles.independence_query
    first_isolated = oracles.first_isolated

    hit_positions: list[int] = []
    lo = 0
    while len(hit_positions) < fcc and lo < t:
        window = order[lo : lo + fcc - len(hit_positions)]
        j = first_isolated(window, bound_X)
        hit_positions.extend(range(lo, lo + j))
        lo += j
        if j == window.size:
            continue
        k, step = lo + 1, 2  # order[lo] is isolated, its query counted
        while k + step <= t and query(order[lo : k + step], bound_X):
            k += step
            step <<= 1
        upper = min(k + step, t + 1)  # order[lo:upper] touches X, or upper == t+1
        while upper - k > 1:
            mid = (k + upper) // 2
            if query(order[lo:mid], bound_X):
                k = mid
            else:
                upper = mid
        if k == t:
            break
        hit_positions.append(k)
        lo = k + 1
    exhausted = len(hit_positions) < fcc

    Y = order[np.asarray(hit_positions, dtype=np.int64)] if hit_positions else np.empty(0, dtype=np.int64)

    if exhausted:
        # Y is all of U_X; every edge incident to X has its left endpoint in Y.
        return oracles.count_edges_incident(Y, X)

    counts = oracles.neighbor_counts(Y, X)
    return X[counts >= xi * fcc / 2.0]


# Analysis constants of ``edge_count`` that no caller varies.
CORE_XI_DIVISOR = 48.0  # the first core pass runs at xi = zeta / 48
ITERATION_FACTOR = 7.0  # loop budget ceil(7 ln n) + 1
NOISY_FAILURE_CONSTANT = 2000.0  # noisy-decider failure budget eps^2 / (2000 ln(n)^6)


@dataclass(frozen=True)
class EdgeCountConfig:
    """The constants of the estimator that callers set.

    Defaults are the analysis constants; overrides exist only for sensitivity
    experiments and for tests that need to force the removal/halving loop at
    desk scale.  ``zeta_constant`` and ``core_factor`` must be positive and
    finite, ``exact_cutoff`` non-negative.  The first-pass divisor, the
    iteration budget and the noisy-decider failure budget are the module
    constants ``CORE_XI_DIVISOR``, ``ITERATION_FACTOR`` and
    ``NOISY_FAILURE_CONSTANT``.
    """

    zeta_constant: float = 36.0**2  # zeta = eps^2 / (zeta_constant * ln(n)^3)
    exact_cutoff: int = 3000  # below this many vertices, enumerate outright
    core_factor: float = 24.0  # the "24" in thresholds, fcc, and witness sizes

    def __post_init__(self) -> None:
        for name in ("zeta_constant", "core_factor"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if not self.exact_cutoff >= 0:
            raise ValueError(f"exact_cutoff must be >= 0, got {self.exact_cutoff}")


DEFAULT_CONFIG = EdgeCountConfig()


@dataclass
class EdgeCountStats:
    """What one estimator run did: the counters are its whole record.

    ``iterations``: loop iterations entered.  ``halvings``: times X was
    halved.  ``removals``: unbalancers priced and folded into N.
    ``exit_branch``: "small-n" (enumerated below ``exact_cutoff``),
    "first-pass" (the first core pass counted X exactly), "second-pass"
    (after a removal the second pass counted X \\ S exactly, or S was all
    of X) or "empty" (X had no vertices left).  ``final_t`` and
    ``final_accumulator``: t and N at a loop exit, so the estimate is
    2^final_t * eb(X) + final_accumulator.
    """

    iterations: int = 0
    halvings: int = 0
    removals: int = 0
    exit_branch: Optional[str] = None
    final_t: int = 0
    final_accumulator: int = 0


def edge_count(
    oracles: BipartiteOracles,
    eps: float,
    rng: RngStream,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    oracle_failure_prob: float = 0.0,
    stats: Optional[EdgeCountStats] = None,
    find_core_impl: Optional[Callable[..., Union[int, np.ndarray]]] = None,
    halve_impl: Optional[Callable[[np.ndarray, RngStream], np.ndarray]] = None,
):
    """Estimate e(G) within a factor (1 ± eps) with probability >= 2/3.

    Small instances (fewer than ``config.exact_cutoff`` vertices) are
    enumerated exactly.  Otherwise each loop iteration asks for a core of
    the surviving set X at accuracy zeta/``CORE_XI_DIVISOR`` (48) with
    zeta = eps^2/(``zeta_constant`` ln(n)^3), ``zeta_constant`` = 36^2:

    * an exact count (anything but an index array) ends the run with
      2^t * eb(X) + N;
    * a witness certifies X balanced, so X is halved and t incremented;
    * an unbalancer S is priced exactly (eb(S) by adjacency probing) and a
      second core pass at accuracy zeta decides whether X\\S may be halved
      as well (fold 2^t * eb(S) into N either way).

    The loop keeps three values: the surviving right set X, the number t
    of halvings so far and the accumulator N, the exact mass of retired
    sets (a sum of terms 2^(t at removal) * eb(S)).  At every loop head
    2^t * eb(X) + N tracks e(G) up to the halving noise, and the run
    returns that quantity once eb(X) is known exactly.

    The loop is cut off after ceil(``ITERATION_FACTOR`` ln n) + 1 iterations
    with ``IterationBudgetExceeded``; on a correct oracle that happens with
    probability at most 1/3.

    ``oracle_failure_prob`` > 0 declares the independence oracle to be a
    randomized decider with that per-call failure rate; it is then wrapped
    in a majority vote sized for a per-call failure of
    eps^2 / (``NOISY_FAILURE_CONSTANT`` ln(n)^6), which a union bound over
    the query budget turns into a small additive loss.  Deterministic
    oracles (the default) are used as-is.

    ``find_core_impl`` / ``halve_impl`` are test seams for instrumented
    runs (e.g. replacing halving with a no-op to check the bookkeeping
    identity); production callers leave them unset.  A ``find_core_impl``
    returns what ``find_core`` does: an ``np.ndarray`` is a core, any other
    value (a numpy integer too) is eb of the set it was given.
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
        target = eps**2 / (NOISY_FAILURE_CONSTANT * math.log(n) ** 6)
        oracles = amplified_independence(oracles, target)

    if find_core_impl is not None:
        fc = find_core_impl
    else:
        fc = functools.partial(find_core, factor=config.core_factor)
    hv = halve_impl if halve_impl is not None else halve

    zeta = eps**2 / (config.zeta_constant * math.log(n) ** 3)
    xi_first = zeta / CORE_XI_DIVISOR

    X, t, N = all_right, 0, 0
    budget = math.ceil(ITERATION_FACTOR * math.log(n)) + 1

    def finish(branch: str, exact_mass: int) -> int:
        st.exit_branch = branch
        st.final_t, st.final_accumulator = t, N
        return (1 << t) * exact_mass + N

    for iteration in itertools.count(1):
        if iteration > budget:
            raise IterationBudgetExceeded(
                f"no exact outcome within {budget} iterations (n={n}, eps={eps})"
            )
        st.iterations = iteration

        if X.size == 0:
            return finish("empty", 0)

        S = fc(oracles, X, xi_first, derive_stream(rng, f"core-a-{iteration}"))
        if not isinstance(S, np.ndarray):
            return finish("first-pass", S)

        if not _is_unbalancer(S, xi_first, config.core_factor):
            X = hv(X, derive_stream(rng, f"halve-a-{iteration}"))
            t += 1
            st.halvings += 1
            continue

        # Unbalancer: price its edges exactly and retire it from X.
        eb_S = oracles.count_edges_incident(all_left, S)
        remaining = np.setdiff1d(X, S, assume_unique=True)

        if remaining.size == 0:
            # eb(X) = eb(S) exactly; nothing left to estimate.
            return finish("second-pass", eb_S)

        S2 = fc(oracles, remaining, zeta, derive_stream(rng, f"core-b-{iteration}"))
        if not isinstance(S2, np.ndarray):
            # eb(X) = eb(X \ S) + eb(S); S's mass rejoins before scaling.
            return finish("second-pass", S2 + eb_S)

        N += (1 << t) * eb_S
        st.removals += 1
        if _is_unbalancer(S2, zeta, config.core_factor):
            X = remaining
        else:
            X = hv(remaining, derive_stream(rng, f"halve-b-{iteration}"))
            t += 1
            st.halvings += 1
