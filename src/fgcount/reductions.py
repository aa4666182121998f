"""Concrete counters for #3SUM, #OV and #NWT on top of the edge estimator.

Each problem is cast as a hidden bipartite graph whose edges are the
witnesses being counted:

* 3SUM: left = entries of A, right = entries of B, edge iff a + b occurs
  in C.
* OV:   left = vectors of A, right = vectors of B, edge iff orthogonal.
* NWT:  left = vertices of part A, right = edges inside B ∪ C, edge iff
  the vertex and edge close a negative-weight triangle.

Each problem's witness test is written once, as a block kernel over data
the instance already holds: the packed bit words for OV, a sorted copy of
C for 3SUM, the adjacency and weight matrices plus the B–C edge list for
NWT.  The baseline decider (is there a witness?), the exact counter (how
many?), the adjacency queries and the built-in independence query all
evaluate that kernel, in blocks sized by the one block rule in
``oracles``.  With the built-in decider an independence query is therefore
answered on the parent's data, without building a sub-instance.  A
caller-supplied ``decision=`` procedure keeps the paper's contract: it
receives the materialized sub-instance and decides whether it has a
witness.  The built-in deciders are deterministic, so the
failure-amplification wrapper is engaged only when a caller declares an
injected decision procedure to be randomized.

Counting conventions: duplicate values count with multiplicity everywhere.
For 3SUM that means tuples, not distinct sums: the exact counter weighs
each pair by the multiplicity of a + b in C, and the estimator counts the
pair graph once per multiplicity layer (C restricted to values occurring at
least j times), which sums exactly to the tuple count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .edgecount import (
    DEFAULT_CONFIG,
    EdgeCountConfig,
    EdgeCountStats,
    edge_count,
)
from .oracles import BipartiteOracles, _block_rows, _pack_rows
from .rng import RngStream, derive_stream

__all__ = [
    "ThreeSumInstance",
    "OvInstance",
    "NwtInstance",
    "ApspMatrix",
    "LayeredDigraph",
    "CountStats",
    "decide_3sum",
    "three_sum_oracles",
    "count_3sum",
    "count_3sum_exact",
    "decide_ov",
    "ov_oracles",
    "count_ov",
    "count_ov_exact",
    "decide_nwt",
    "nwt_oracles",
    "count_nwt",
    "count_nwt_exact",
    "sub_nwt_instance",
    "nwt_to_apsp",
    "floyd_warshall",
    "decide_nwt_via_apsp",
]


# --------------------------------------------------------------------------
# Instances.
# --------------------------------------------------------------------------


@dataclass
class ThreeSumInstance:
    """Lists A, B, C of integers; witnesses are tuples with a + b = c."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    n_bound: Optional[int] = None

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=np.int64)
        self.b = np.asarray(self.b, dtype=np.int64)
        self.c = np.asarray(self.c, dtype=np.int64)
        largest = max(
            (int(np.abs(arr).max()) for arr in (self.a, self.b, self.c) if arr.size),
            default=0,
        )
        if self.n_bound is None:
            self.n_bound = max(largest, 1)
        elif largest > self.n_bound:
            raise ValueError("entries exceed the stated value bound")
        if self.n_bound > 2**62:
            raise ValueError("value bound too large for int64 sums")

    @property
    def n(self) -> int:
        return int(self.a.size + self.b.size + self.c.size)


@dataclass
class OvInstance:
    """Lists A, B of 0/1 vectors of a common dimension d."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        self.a = _as_bit_matrix(self.a)
        self.b = _as_bit_matrix(self.b)
        if self.a.size and self.b.size and self.a.shape[1] != self.b.shape[1]:
            raise ValueError("vector dimensions disagree")
        if ((self.a > 1).any()) or ((self.b > 1).any()):
            raise ValueError("vectors must be 0/1")

    @property
    def d(self) -> int:
        return int(self.a.shape[1] if self.a.size else self.b.shape[1])

    @property
    def n(self) -> int:
        return int(self.a.shape[0] + self.b.shape[0])

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        return _pack_rows(self.a), _pack_rows(self.b)


def _as_bit_matrix(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.uint8)
    if arr.ndim == 1 and arr.size == 0:
        return arr.reshape(0, 0)
    if arr.ndim != 2:
        raise ValueError("vector lists must be two-dimensional 0/1 arrays")
    return arr


@dataclass
class NwtInstance:
    """Tripartite weighted graph; witnesses are negative-weight triangles.

    ``parts`` are disjoint vertex-id arrays (A, B, C); edges run only
    between different parts.  Weights live on present edges only — a
    missing edge is absent, not weight zero.
    """

    n_vertices: int
    part_a: np.ndarray
    part_b: np.ndarray
    part_c: np.ndarray
    adjacency: np.ndarray  # (n, n) bool, symmetric
    weights: np.ndarray  # (n, n) int64, meaningful where adjacency holds

    def __post_init__(self) -> None:
        self.part_a = np.asarray(self.part_a, dtype=np.int64)
        self.part_b = np.asarray(self.part_b, dtype=np.int64)
        self.part_c = np.asarray(self.part_c, dtype=np.int64)
        self.adjacency = np.asarray(self.adjacency, dtype=bool)
        self.weights = np.asarray(self.weights, dtype=np.int64)
        n = self.n_vertices
        if self.adjacency.shape != (n, n) or self.weights.shape != (n, n):
            raise ValueError("matrix shapes disagree with n_vertices")
        if not (self.adjacency == self.adjacency.T).all():
            raise ValueError("adjacency must be symmetric")
        ids = np.concatenate([self.part_a, self.part_b, self.part_c])
        if ids.size != np.unique(ids).size:
            raise ValueError("parts must be disjoint")
        part_of = np.full(n, -1, dtype=np.int64)
        for tag, part in enumerate((self.part_a, self.part_b, self.part_c)):
            part_of[part] = tag
        us, vs = np.nonzero(self.adjacency)
        if us.size:
            if (part_of[us] < 0).any() or (part_of[vs] < 0).any():
                raise ValueError("edges must join part members")
            if (part_of[us] == part_of[vs]).any():
                raise ValueError("graph must be tripartite (no intra-part edges)")

    @classmethod
    def from_edges(
        cls,
        parts: tuple[np.ndarray, np.ndarray, np.ndarray],
        edges: list[tuple[int, int, int]],
        n_vertices: Optional[int] = None,
    ) -> "NwtInstance":
        pa, pb, pc = (np.asarray(p, dtype=np.int64) for p in parts)
        if n_vertices is None:
            n_vertices = int(max((int(p.max()) for p in (pa, pb, pc) if p.size), default=-1)) + 1
        adjacency = np.zeros((n_vertices, n_vertices), dtype=bool)
        weights = np.zeros((n_vertices, n_vertices), dtype=np.int64)
        for u, v, w in edges:
            adjacency[u, v] = adjacency[v, u] = True
            weights[u, v] = weights[v, u] = w
        return cls(n_vertices, pa, pb, pc, adjacency, weights)

    def edge_list(self) -> list[tuple[int, int, int]]:
        us, vs = np.nonzero(np.triu(self.adjacency))
        return [(int(u), int(v), int(self.weights[u, v])) for u, v in zip(us, vs)]

    @property
    def n(self) -> int:
        return int(self.part_a.size + self.part_b.size + self.part_c.size)

    @property
    def weight_bound(self) -> int:
        if not self.adjacency.any():
            return 1
        return max(1, int(np.abs(self.weights[self.adjacency]).max()))

    def bc_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Endpoints (b, c) of every edge inside B ∪ C, in deterministic order."""
        sub = self.adjacency[np.ix_(self.part_b, self.part_c)]
        bi, ci = np.nonzero(sub)
        return self.part_b[bi], self.part_c[ci]


# --------------------------------------------------------------------------
# Shared instrumentation.
# --------------------------------------------------------------------------


@dataclass
class CountStats:
    """Oracle-call accounting for one counting run (all layers combined)."""

    independence_calls: int = 0
    adjacency_calls: int = 0
    layers: int = 0
    edgecount: list[EdgeCountStats] = field(default_factory=list)
    exact_path: bool = False


# --------------------------------------------------------------------------
# Witness kernels.
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class _Witnesses:
    """One problem's hidden bipartite graph, evaluated block by block.

    ``kernel(left, right)`` maps left and right index arrays to the
    block of witness counts of those pairs: 0/1 for OV and NWT, the
    multiplicity of a + b in C for 3SUM.  It runs on data the instance
    already holds, so the decider, the exact counter, adjacency and the
    built-in independence query are all this one test, run on blocks of
    left rows sized by ``oracles._block_rows``.
    """

    kernel: Callable[[np.ndarray, np.ndarray], np.ndarray]
    left_size: int
    right_size: int

    def _blocks(self, left: np.ndarray, right: np.ndarray):
        step = _block_rows(right.size)
        for start in range(0, left.size, step):
            yield self.kernel(left[start : start + step], right)

    def _all(self) -> tuple[np.ndarray, np.ndarray]:
        return np.arange(self.left_size), np.arange(self.right_size)

    def has_witness(self, left: np.ndarray, right: np.ndarray) -> bool:
        """True iff some pair in left x right is a witness (first hit exits)."""
        return any(block.any() for block in self._blocks(left, right))

    def decide(self) -> bool:
        return self.has_witness(*self._all())

    def count(self) -> int:
        return sum(int(block.sum()) for block in self._blocks(*self._all()))

    def oracles(
        self, independence: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None
    ) -> BipartiteOracles:
        """Oracle pair whose block callable is the kernel (nonzero = edge);
        independence defaults to the kernel too."""
        if independence is None:
            def independence(left: np.ndarray, right: np.ndarray) -> bool:
                return not self.has_witness(left, right)

        return BipartiteOracles(self.left_size, self.right_size, independence, self.kernel)


# --------------------------------------------------------------------------
# 3SUM.
# --------------------------------------------------------------------------


def _three_sum_witnesses(inst: ThreeSumInstance) -> _Witnesses:
    """Left = A, right = B; a pair's count is the multiplicity of a + b in C."""
    values, mult = np.unique(inst.c, return_counts=True)

    def multiplicity(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        sums = inst.a[left][:, None] + inst.b[right][None, :]
        if values.size == 0:
            return np.zeros(sums.shape, dtype=np.int64)
        idx = np.minimum(np.searchsorted(values, sums), values.size - 1)
        return np.where(values[idx] == sums, mult[idx], 0)

    return _Witnesses(multiplicity, int(inst.a.size), int(inst.b.size))


def decide_3sum(inst: ThreeSumInstance) -> bool:
    """True iff some (a, b, c) in A x B x C has a + b = c (sorted-C search)."""
    return _three_sum_witnesses(inst).decide()


def count_3sum_exact(inst: ThreeSumInstance) -> int:
    """Exact tuple count via the sorted-C search (multiplicity included)."""
    return _three_sum_witnesses(inst).count()


def three_sum_oracles(
    inst: ThreeSumInstance,
    decision: Optional[Callable[[ThreeSumInstance], bool]] = None,
) -> BipartiteOracles:
    """Oracle pair for the pair graph (left = A, right = B, edge iff a+b ∈ C).

    A custom ``decision`` receives the sub-instance (A[left], B[right], C).
    """
    independence = None
    if decision is not None:
        def independence(left: np.ndarray, right: np.ndarray) -> bool:
            sub = ThreeSumInstance(inst.a[left], inst.b[right], inst.c, inst.n_bound)
            return not decision(sub)

    return _three_sum_witnesses(inst).oracles(independence)


def count_3sum(
    inst: ThreeSumInstance,
    eps: float,
    rng: RngStream,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    decision: Optional[Callable[[ThreeSumInstance], bool]] = None,
    decision_failure_prob: float = 0.0,
    stats: Optional[CountStats] = None,
) -> int:
    """Approximate the number of tuples (a, b, c) with a + b = c.

    Within (1 ± eps) of the exact tuple count with probability >= 2/3.  At
    eps <= n^-3 estimating is pointless and the exact count is returned.
    Duplicates in C are handled by one estimator pass per multiplicity
    layer; with distinct C there is a single pass.
    """
    _check_eps(eps)
    n = inst.n
    if n == 0 or eps <= n**-3.0:
        if stats is not None:
            stats.exact_path = True
        return count_3sum_exact(inst)

    values, mult = np.unique(inst.c, return_counts=True)
    total = 0
    max_mult = int(mult.max()) if mult.size else 0
    for layer in range(1, max_mult + 1):
        layer_inst = ThreeSumInstance(
            inst.a, inst.b, values[mult >= layer], inst.n_bound
        )
        oracles = three_sum_oracles(layer_inst, decision)
        total += _run_edge_count(
            oracles, eps, derive_stream(rng, f"layer-{layer}"),
            config, decision_failure_prob, stats,
        )
    return total


# --------------------------------------------------------------------------
# Orthogonal vectors.
# --------------------------------------------------------------------------


def _ov_witnesses(inst: OvInstance) -> _Witnesses:
    """Left = A, right = B; a pair is a witness iff its packed words share no bit."""
    pa, pb = inst.packed

    def orthogonal(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return ((pa[left][:, None, :] & pb[right][None, :, :]) == 0).all(axis=2)

    return _Witnesses(orthogonal, int(pa.shape[0]), int(pb.shape[0]))


def decide_ov(inst: OvInstance) -> bool:
    """True iff some pair (a, b) in A x B is orthogonal (packed bit tests)."""
    return _ov_witnesses(inst).decide()


def count_ov_exact(inst: OvInstance) -> int:
    """Exact orthogonal-pair count (packed, row-chunked)."""
    return _ov_witnesses(inst).count()


def ov_oracles(
    inst: OvInstance,
    decision: Optional[Callable[[OvInstance], bool]] = None,
) -> BipartiteOracles:
    """Oracle pair for the orthogonality graph (left = A, right = B).

    A custom ``decision`` receives the sub-instance (A[left], B[right]).
    """
    independence = None
    if decision is not None:
        def independence(left: np.ndarray, right: np.ndarray) -> bool:
            return not decision(OvInstance(inst.a[left], inst.b[right]))

    return _ov_witnesses(inst).oracles(independence)


def count_ov(
    inst: OvInstance,
    eps: float,
    rng: RngStream,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    decision: Optional[Callable[[OvInstance], bool]] = None,
    decision_failure_prob: float = 0.0,
    stats: Optional[CountStats] = None,
) -> int:
    """Approximate the number of orthogonal pairs, (1 ± eps) w.p. >= 2/3."""
    _check_eps(eps)
    n = inst.n
    if n == 0 or eps <= n**-2.0:
        if stats is not None:
            stats.exact_path = True
        return count_ov_exact(inst)
    oracles = ov_oracles(inst, decision)
    return _run_edge_count(oracles, eps, rng, config, decision_failure_prob, stats)


# --------------------------------------------------------------------------
# Negative-weight triangles.
# --------------------------------------------------------------------------


def _nwt_witnesses(inst: NwtInstance) -> _Witnesses:
    """Left = part A, right = edges inside B ∪ C (in ``bc_edges`` order).

    A vertex and an edge are a witness iff they close a negative triangle.
    """
    vb, vc = inst.bc_edges()
    adj, w = inst.adjacency, inst.weights

    def negative_triangle(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        a = inst.part_a[left][:, None]
        b, c = vb[right], vc[right]
        return adj[a, b] & adj[a, c] & (w[a, b] + w[b, c] + w[c, a] < 0)

    return _Witnesses(negative_triangle, int(inst.part_a.size), int(vb.size))


def decide_nwt(inst: NwtInstance) -> bool:
    """True iff some triangle (a, b, c) across the parts has negative weight."""
    return _nwt_witnesses(inst).decide()


def count_nwt_exact(inst: NwtInstance) -> int:
    """Exact negative-triangle count (full scan over A x BC-edges)."""
    return _nwt_witnesses(inst).count()


def sub_nwt_instance(
    inst: NwtInstance, left: np.ndarray, right: np.ndarray
) -> NwtInstance:
    """Materialized sub-instance for an independence query.

    Keeps every edge meeting a selected A-vertex plus the selected BC
    edges; its negative triangles are exactly the bipartite edges inside
    the queried subset.
    """
    vb, vc = inst.bc_edges()
    keep_a = inst.part_a[left]
    adjacency = np.zeros_like(inst.adjacency)
    adjacency[keep_a, :] = inst.adjacency[keep_a, :]
    adjacency[:, keep_a] = inst.adjacency[:, keep_a]
    bsel, csel = vb[right], vc[right]
    adjacency[bsel, csel] = True
    adjacency[csel, bsel] = True
    return NwtInstance(
        inst.n_vertices,
        keep_a,
        inst.part_b,
        inst.part_c,
        adjacency,
        inst.weights,
    )


def nwt_oracles(
    inst: NwtInstance,
    decision: Optional[Callable[[NwtInstance], bool]] = None,
) -> BipartiteOracles:
    """Oracle pair: left = part A, right = edges inside B ∪ C.

    A custom ``decision`` receives the sub-instance ``sub_nwt_instance``
    materializes.
    """
    independence = None
    if decision is not None:
        def independence(left: np.ndarray, right: np.ndarray) -> bool:
            return not decision(sub_nwt_instance(inst, left, right))

    return _nwt_witnesses(inst).oracles(independence)


def count_nwt(
    inst: NwtInstance,
    eps: float,
    rng: RngStream,
    *,
    config: EdgeCountConfig = DEFAULT_CONFIG,
    decision: Optional[Callable[[NwtInstance], bool]] = None,
    decision_failure_prob: float = 0.0,
    stats: Optional[CountStats] = None,
) -> int:
    """Approximate the number of negative triangles, (1 ± eps) w.p. >= 2/3.

    The estimator's vertex count is |A| plus the number of edges inside
    B ∪ C (the right side is that edge list), which can be quadratic in
    the graph's own vertex count — this is what the exact-enumeration
    cutoff is measured against.
    """
    _check_eps(eps)
    n = inst.n
    if n == 0 or eps < n**-3.0:
        if stats is not None:
            stats.exact_path = True
        return count_nwt_exact(inst)
    oracles = nwt_oracles(inst, decision)
    return _run_edge_count(oracles, eps, rng, config, decision_failure_prob, stats)


# --------------------------------------------------------------------------
# NWT -> APSP reduction.
# --------------------------------------------------------------------------


@dataclass
class LayeredDigraph:
    """Three stacked copies of a graph's vertices with layer i -> i+1 edges."""

    base_vertices: int
    weights: np.ndarray  # (3n, 3n) float64 (+inf where no edge)

    def vertex(self, v: int, layer: int) -> int:
        if not 1 <= layer <= 3:
            raise ValueError("layers are numbered 1..3")
        return (layer - 1) * self.base_vertices + v

    @property
    def n_vertices(self) -> int:
        return 3 * self.base_vertices


@dataclass
class ApspMatrix:
    """All-pairs shortest path distances (float with +inf for unreachable)."""

    dist: np.ndarray


def floyd_warshall(g: LayeredDigraph, *, max_vertices: int = 2048) -> ApspMatrix:
    """Exact APSP on the layered digraph (cubic relaxation)."""
    n = g.n_vertices
    if n > max_vertices:
        raise ValueError(f"{n} vertices exceed the Floyd-Warshall cap {max_vertices}")
    dist = g.weights.astype(np.float64, copy=True)
    np.fill_diagonal(dist, np.minimum(np.diag(dist), 0.0))
    for k in range(n):
        np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :], out=dist)
    return ApspMatrix(dist=dist)


def nwt_to_apsp(inst: NwtInstance) -> tuple[LayeredDigraph, Callable[[ApspMatrix], bool]]:
    """Layered-graph reduction: negative triangle detection from an APSP matrix.

    Every undirected edge {u, v} spawns (u, i) -> (v, i+1) and
    (v, i) -> (u, i+1) for i in {1, 2} with the original weight, so paths
    from (u, 1) to (v, 3) are exactly the two-edge walks u - x - v; the
    returned check reports a negative triangle iff for some edge {u, v}
    the (u,1)-to-(v,3) distance plus w(u, v) is negative.
    """
    n = inst.n_vertices
    g = LayeredDigraph(n, np.full((3 * n, 3 * n), np.inf, dtype=np.float64))
    us, vs = np.nonzero(np.triu(inst.adjacency))
    for layer in (1, 2):
        off_lo, off_hi = (layer - 1) * n, layer * n
        for u, v in zip(us, vs):
            w = float(inst.weights[u, v])
            g.weights[off_lo + u, off_hi + v] = min(g.weights[off_lo + u, off_hi + v], w)
            g.weights[off_lo + v, off_hi + u] = min(g.weights[off_lo + v, off_hi + u], w)

    edge_u = us.copy()
    edge_v = vs.copy()

    def check(apsp: ApspMatrix) -> bool:
        if edge_u.size == 0:
            return False
        d = apsp.dist[edge_u, 2 * n + edge_v]
        w = inst.weights[edge_u, edge_v].astype(np.float64)
        return bool((d + w < 0).any())

    return g, check


def decide_nwt_via_apsp(inst: NwtInstance, *, max_vertices: int = 2048) -> bool:
    """Cross-validation decider: run the layered reduction through APSP."""
    g, check = nwt_to_apsp(inst)
    return check(floyd_warshall(g, max_vertices=max_vertices))


# --------------------------------------------------------------------------
# Shared driver.
# --------------------------------------------------------------------------


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0,1), got {eps}")


def _run_edge_count(
    oracles: BipartiteOracles,
    eps: float,
    rng: RngStream,
    config: EdgeCountConfig,
    decision_failure_prob: float,
    stats: Optional[CountStats],
) -> int:
    ec_stats = EdgeCountStats()
    value = edge_count(
        oracles,
        eps,
        rng,
        config=config,
        oracle_failure_prob=decision_failure_prob,
        stats=ec_stats,
    )
    if stats is not None:
        stats.layers += 1
        stats.independence_calls += oracles.independence_calls
        stats.adjacency_calls += oracles.adjacency_calls
        stats.edgecount.append(ec_stats)
    return value
