"""Concrete counters for #3SUM, #OV and #NWT on top of the edge estimator.

Each problem is cast as a hidden bipartite graph whose edges are the
witnesses being counted:

* 3SUM: left = entries of A, right = entries of B, edge iff a + b occurs
  in C (adjacency = binary search in a pre-sorted copy of C; independence
  = running a 3SUM decider on the sub-lists).
* OV:   left = vectors of A, right = vectors of B, edge iff orthogonal.
* NWT:  left = vertices of part A, right = edges inside B ∪ C, edge iff
  the vertex and edge close a negative-weight triangle.

The baseline deciders here are the textbook ones (sorted-list scan,
pairwise bit tests, full triangle scan); they stand in for whatever
decision backend a deployment would plug in.  All deciders are
deterministic, so the failure-amplification wrapper is engaged only when a
caller declares an injected decision procedure to be randomized.

Counting conventions: duplicate values count with multiplicity everywhere.
For 3SUM that means tuples, not distinct sums; duplicates in C are handled
by counting the pair graph once per multiplicity layer (C restricted to
values occurring at least j times), which sums exactly to the tuple count.
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
from .oracles import BipartiteOracles, _pack_rows
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
# 3SUM.
# --------------------------------------------------------------------------


def decide_3sum(inst: ThreeSumInstance) -> bool:
    """True iff some (a, b, c) in A x B x C has a + b = c.

    Sorts C once and scans A, binary-searching each a + B row; rows are
    processed one at a time so a hit exits early.
    """
    if inst.a.size == 0 or inst.b.size == 0 or inst.c.size == 0:
        return False
    c_sorted = np.sort(inst.c)
    for a in inst.a:
        sums = a + inst.b
        idx = np.searchsorted(c_sorted, sums)
        idx[idx == c_sorted.size] = c_sorted.size - 1
        if (c_sorted[idx] == sums).any():
            return True
    return False


def count_3sum_exact(inst: ThreeSumInstance) -> int:
    """Exact tuple count via the sorted-C scan (multiplicity included)."""
    if inst.a.size == 0 or inst.b.size == 0 or inst.c.size == 0:
        return 0
    c_sorted = np.sort(inst.c)
    total = 0
    for a in inst.a:
        sums = a + inst.b
        lo = np.searchsorted(c_sorted, sums, side="left")
        hi = np.searchsorted(c_sorted, sums, side="right")
        total += int((hi - lo).sum())
    return total


def three_sum_oracles(
    inst: ThreeSumInstance,
    decision: Optional[Callable[[ThreeSumInstance], bool]] = None,
) -> BipartiteOracles:
    """Oracle pair for the pair graph (left = A, right = B, edge iff a+b ∈ C)."""
    decide = decision if decision is not None else decide_3sum
    c_sorted = np.sort(inst.c)

    def member(sums: np.ndarray) -> np.ndarray:
        if c_sorted.size == 0:
            return np.zeros(sums.shape, dtype=bool)
        idx = np.searchsorted(c_sorted, sums)
        idx[idx == c_sorted.size] = c_sorted.size - 1
        return c_sorted[idx] == sums

    def independence(left: np.ndarray, right: np.ndarray) -> bool:
        sub = ThreeSumInstance(inst.a[left], inst.b[right], inst.c, inst.n_bound)
        return not decide(sub)

    def adjacency(u: int, v: int) -> bool:
        return bool(member(np.asarray([inst.a[u] + inst.b[v]]))[0])

    def adjacency_row(u: int, right: np.ndarray) -> np.ndarray:
        return member(inst.a[u] + inst.b[right])

    def adjacency_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        out = np.empty((left.size, right.size), dtype=bool)
        bsel = inst.b[right]
        for i, u in enumerate(left):
            out[i] = member(inst.a[u] + bsel)
        return out

    return BipartiteOracles(
        int(inst.a.size),
        int(inst.b.size),
        independence,
        adjacency,
        adjacency_row=adjacency_row,
        adjacency_block=adjacency_block,
    )


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


def decide_ov(inst: OvInstance) -> bool:
    """True iff some pair (a, b) in A x B is orthogonal (packed bit tests)."""
    if inst.a.shape[0] == 0 or inst.b.shape[0] == 0:
        return False
    pa, pb = inst.packed
    return _any_orthogonal(pa, pb)


def _any_orthogonal(pa: np.ndarray, pb: np.ndarray) -> bool:
    for start in range(0, pa.shape[0], 128):
        chunk = pa[start : start + 128]
        orth = ((chunk[:, None, :] & pb[None, :, :]) == 0).all(axis=2)
        if orth.any():
            return True
    return False


def count_ov_exact(inst: OvInstance) -> int:
    """Exact orthogonal-pair count (packed, row-chunked)."""
    if inst.a.shape[0] == 0 or inst.b.shape[0] == 0:
        return 0
    pa, pb = inst.packed
    total = 0
    for start in range(0, pa.shape[0], 256):
        chunk = pa[start : start + 256]
        orth = ((chunk[:, None, :] & pb[None, :, :]) == 0).all(axis=2)
        total += int(orth.sum())
    return total


def ov_oracles(
    inst: OvInstance,
    decision: Optional[Callable[[OvInstance], bool]] = None,
) -> BipartiteOracles:
    """Oracle pair for the orthogonality graph (left = A, right = B)."""
    decide = decision if decision is not None else decide_ov
    pa, pb = inst.packed

    def independence(left: np.ndarray, right: np.ndarray) -> bool:
        sub = OvInstance(inst.a[left], inst.b[right])
        return not decide(sub)

    def adjacency(u: int, v: int) -> bool:
        return bool(((pa[u] & pb[v]) == 0).all())

    def adjacency_row(u: int, right: np.ndarray) -> np.ndarray:
        return ((pa[u] & pb[right]) == 0).all(axis=1)

    def adjacency_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        out = np.empty((left.size, right.size), dtype=bool)
        sel = pb[right]
        for start in range(0, left.size, 256):
            chunk = pa[left[start : start + 256]]
            out[start : start + 256] = ((chunk[:, None, :] & sel[None, :, :]) == 0).all(axis=2)
        return out

    return BipartiteOracles(
        int(inst.a.shape[0]),
        int(inst.b.shape[0]),
        independence,
        adjacency,
        adjacency_row=adjacency_row,
        adjacency_block=adjacency_block,
    )


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


def _triangle_negative_rows(
    inst: NwtInstance, a: int, vb: np.ndarray, vc: np.ndarray
) -> np.ndarray:
    """For vertex a and BC-edge endpoints (vb, vc): which close a negative triangle."""
    present = inst.adjacency[a, vb] & inst.adjacency[a, vc]
    sums = inst.weights[a, vb] + inst.weights[vb, vc] + inst.weights[vc, a]
    return present & (sums < 0)


def decide_nwt(inst: NwtInstance) -> bool:
    """True iff some triangle (a, b, c) across the parts has negative weight."""
    vb, vc = inst.bc_edges()
    if vb.size == 0:
        return False
    for a in inst.part_a:
        if _triangle_negative_rows(inst, int(a), vb, vc).any():
            return True
    return False


def count_nwt_exact(inst: NwtInstance) -> int:
    """Exact negative-triangle count (full scan over A x BC-edges)."""
    vb, vc = inst.bc_edges()
    if vb.size == 0:
        return 0
    total = 0
    for a in inst.part_a:
        total += int(_triangle_negative_rows(inst, int(a), vb, vc).sum())
    return total


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

    With the default decider, independence queries are answered by the
    equivalent direct scan over the selected (vertex, edge) pairs — the
    same predicate ``decide_nwt`` computes on the materialized
    sub-instance, without paying for the materialization.  A custom
    ``decision`` procedure receives the materialized sub-instance.
    """
    vb, vc = inst.bc_edges()

    if decision is None:
        def independence(left: np.ndarray, right: np.ndarray) -> bool:
            bsel, csel = vb[right], vc[right]
            for a in inst.part_a[left]:
                present = inst.adjacency[a, bsel] & inst.adjacency[a, csel]
                sums = inst.weights[a, bsel] + inst.weights[bsel, csel] + inst.weights[csel, a]
                if (present & (sums < 0)).any():
                    return False
            return True
    else:
        def independence(left: np.ndarray, right: np.ndarray) -> bool:
            return not decision(sub_nwt_instance(inst, left, right))

    def adjacency(u: int, v: int) -> bool:
        a = int(inst.part_a[u])
        return bool(_triangle_negative_rows(inst, a, vb[v : v + 1], vc[v : v + 1])[0])

    def adjacency_row(u: int, right: np.ndarray) -> np.ndarray:
        a = int(inst.part_a[u])
        return _triangle_negative_rows(inst, a, vb[right], vc[right])

    def adjacency_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        bsel, csel = vb[right], vc[right]
        out = np.empty((left.size, right.size), dtype=bool)
        for i, u in enumerate(left):
            a = int(inst.part_a[u])
            present = inst.adjacency[a, bsel] & inst.adjacency[a, csel]
            sums = inst.weights[a, bsel] + inst.weights[bsel, csel] + inst.weights[csel, a]
            out[i] = present & (sums < 0)
        return out

    return BipartiteOracles(
        int(inst.part_a.size),
        int(vb.size),
        independence,
        adjacency,
        adjacency_row=adjacency_row,
        adjacency_block=adjacency_block,
    )


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
