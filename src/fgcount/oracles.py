"""Hidden-bipartite-graph oracles and failure-probability amplification.

A hidden graph G = (U, V, E) is exposed only through two predicates:

* an independence query: does a given vertex subset contain no edge?
  (stands in for running a decision solver on a sub-instance), and
* an adjacency query: is a specific (left, right) pair an edge?
  (stands in for verifying one candidate witness).

``BipartiteOracles`` is built from exactly two callables, one per kind of
query: ``independence(left, right)`` and ``adjacency_block(left, right)``,
which answers adjacency for a whole block of pairs at once.  Single-pair and
single-row adjacency queries are that block on one row; each probed pair
counts as one adjacency query, so the batching is purely an evaluation
detail.  The object checks every index against the side sizes and keeps the
per-object query counters.  Vertex subsets are passed as sorted index arrays
per side; the contract is on set contents, not order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BipartiteOracles",
    "matrix_oracles",
    "edge_set_oracles",
    "AmplifiedDecider",
    "amplify",
    "repetitions_for",
    "amplified_independence",
    "AMPLIFY_CONSTANT",
]


def _as_index_array(indices) -> np.ndarray:
    arr = np.asarray(indices, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError("vertex subsets must be one-dimensional index sequences")
    return arr


class BipartiteOracles:
    """Query access to a hidden bipartite graph, with call counters.

    The graph is given by two callables.  ``independence`` receives two
    sorted int arrays (left indices, right indices) and must return True
    iff no edge of the hidden graph joins them.  ``adjacency_block``
    receives two index arrays and returns the boolean adjacency matrix of
    left x right.  The single-pair and single-row adjacency entry points
    are that block on one row; every probed pair counts as one adjacency
    query.  All indices are checked against the side sizes first.

    Counters are plain attributes mutated under the GIL; concurrent trials
    should each own their oracle object (counters are deliberately not
    global).
    """

    def __init__(
        self,
        left_size: int,
        right_size: int,
        independence: Callable[[np.ndarray, np.ndarray], bool],
        adjacency_block: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        if left_size < 0 or right_size < 0:
            raise ValueError("side sizes must be nonnegative")
        self.left_size = int(left_size)
        self.right_size = int(right_size)
        self._independence = independence
        self._adjacency_block = adjacency_block
        self.independence_calls = 0
        self.adjacency_calls = 0

    @property
    def total_vertices(self) -> int:
        return self.left_size + self.right_size

    def _check_bounds(self, left: np.ndarray, right: np.ndarray) -> None:
        if left.size and (left.min() < 0 or left.max() >= self.left_size):
            raise IndexError("left index out of range")
        if right.size and (right.min() < 0 or right.max() >= self.right_size):
            raise IndexError("right index out of range")

    def independence_query(self, left, right) -> bool:
        """True iff the subset (left ∪ right) spans no edge. Counts as one query.

        The underlying callable always receives sorted index arrays (the
        query is about set contents; sorting is the canonical form, and
        decision backends may rely on it).
        """
        left = np.sort(_as_index_array(left))
        right = np.sort(_as_index_array(right))
        self._check_bounds(left, right)
        self.independence_calls += 1
        return bool(self._independence(left, right))

    def _block(self, left, right) -> np.ndarray:
        """The checked, counted block behind all three adjacency entry points."""
        left = _as_index_array(left)
        right = _as_index_array(right)
        self._check_bounds(left, right)
        self.adjacency_calls += int(left.size) * int(right.size)
        return np.asarray(self._adjacency_block(left, right), dtype=bool)

    def adjacency_query(self, u: int, v: int) -> bool:
        """True iff (u, v) is an edge. Counts as one query."""
        return bool(self._block([u], [v])[0, 0])

    def adjacency_row(self, u: int, right) -> np.ndarray:
        """Adjacency of left vertex ``u`` against each of ``right``.

        Counts as ``len(right)`` adjacency queries.
        """
        return self._block([u], right)[0]

    def adjacency_block(self, left, right) -> np.ndarray:
        """Adjacency matrix of ``left`` x ``right``; len(left)*len(right) queries."""
        return self._block(left, right)

    def count_edges_incident(self, left, right) -> int:
        """Exact number of edges between the two index sets (block sum)."""
        left = _as_index_array(left)
        right = _as_index_array(right)
        if left.size == 0 or right.size == 0:
            return 0
        return int(self.adjacency_block(left, right).sum())


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 matrix row-wise into uint64 words (zero padded)."""
    n_rows, n_cols = matrix.shape
    words = max(1, (n_cols + 63) // 64)
    padded = np.zeros((n_rows, words * 64), dtype=matrix.dtype)  # no cast on copy
    padded[:, :n_cols] = matrix
    packed_bytes = np.packbits(padded, axis=1, bitorder="little")
    return packed_bytes.view(np.uint64).reshape(n_rows, words)


def matrix_oracles(adjacency: np.ndarray) -> BipartiteOracles:
    """Oracle pair backed by an explicit |U| x |V| boolean matrix.

    Used for synthetic graphs and as the ground-truth oracle in tests.
    Independence queries scan left rows in blocks with early exit; a packed
    bit representation keeps each probe cheap even for wide right sides.
    Adjacency blocks are gathered 256 rows at a time, so no temporary grows
    with the number of left rows.
    """
    adj = np.ascontiguousarray(np.asarray(adjacency, dtype=bool))
    if adj.ndim != 2:
        raise ValueError("adjacency must be a 2-D boolean matrix")
    left_size, right_size = adj.shape
    packed = _pack_rows(adj) if left_size else np.zeros((0, 1), dtype=np.uint64)
    words = packed.shape[1]

    def right_mask(right: np.ndarray) -> np.ndarray:
        mask = np.zeros(words * 64, dtype=bool)
        mask[right] = True
        return np.packbits(mask, bitorder="little").view(np.uint64)

    def independence(left: np.ndarray, right: np.ndarray) -> bool:
        if left.size == 0 or right.size == 0:
            return True
        rmask = right_mask(right)
        for start in range(0, left.size, 256):
            chunk = packed[left[start : start + 256]]
            if (chunk & rmask).any():
                return False
        return True

    def adjacency_block(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        out = np.empty((left.size, right.size), dtype=bool)
        for start in range(0, left.size, 256):
            rows = left[start : start + 256]
            out[start : start + rows.size] = adj.take(rows, axis=0).take(right, axis=1)
        return out

    return BipartiteOracles(left_size, right_size, independence, adjacency_block)


def edge_set_oracles(
    left_size: int, right_size: int, edges: Sequence[tuple[int, int]]
) -> BipartiteOracles:
    """Oracle pair from an explicit edge list (convenience for small graphs)."""
    adj = np.zeros((left_size, right_size), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return matrix_oracles(adj)


# --------------------------------------------------------------------------
# Majority amplification for randomized boolean deciders.
# --------------------------------------------------------------------------

# Majority over r repetitions of a decider that errs with probability <= 1/3
# fails with probability at most exp(-r * KL(1/2 || 1/3)) < exp(-r/18), so
# r >= 18 ln(2/target) forces the failure rate below target.
AMPLIFY_CONSTANT = 18.0


def repetitions_for(target_failure: float, constant: float = AMPLIFY_CONSTANT) -> int:
    """Smallest odd repetition count bringing failure <= 1/3 down to target."""
    if not 0.0 < target_failure < 1.0:
        raise ValueError(f"target_failure must be in (0,1), got {target_failure}")
    if target_failure >= 1.0 / 3.0:
        return 1
    r = math.ceil(constant * math.log(2.0 / target_failure))
    if r % 2 == 0:
        r += 1
    return max(r, 1)


@dataclass
class AmplifiedDecider:
    """Majority vote over repeated calls of a randomized boolean procedure.

    ``repetitions`` is odd so that the majority is well defined.  For a
    deterministic base the vote trivially reproduces the base's answer.
    """

    base: Callable[..., bool]
    repetitions: int

    def __post_init__(self) -> None:
        if self.repetitions < 1 or self.repetitions % 2 == 0:
            raise ValueError("repetitions must be a positive odd integer")

    def __call__(self, *args, **kwargs) -> bool:
        trues = sum(1 for _ in range(self.repetitions) if self.base(*args, **kwargs))
        return trues > self.repetitions // 2


def amplify(
    base: Callable[..., bool],
    target_failure: float,
    *,
    constant: float = AMPLIFY_CONSTANT,
) -> AmplifiedDecider:
    """Wrap a decider failing with probability <= 1/3 to fail <= target_failure."""
    r = repetitions_for(target_failure, constant)
    return AmplifiedDecider(base=base, repetitions=r)


def amplified_independence(
    oracles: BipartiteOracles, target_failure: float, *, constant: float = AMPLIFY_CONSTANT
) -> BipartiteOracles:
    """View of ``oracles`` whose independence answers are majority-amplified.

    Each independence query fans out into an odd number of queries on
    ``oracles``, and adjacency queries pass straight through to it, so its
    counters record the raw decider invocations.
    """
    return BipartiteOracles(
        oracles.left_size,
        oracles.right_size,
        amplify(oracles.independence_query, target_failure, constant=constant),
        oracles.adjacency_block,
    )
