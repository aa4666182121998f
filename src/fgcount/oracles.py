"""Hidden-bipartite-graph oracles and failure-probability amplification.

A hidden graph G = (U, V, E) is exposed only through two predicates:

* an independence query: does a given vertex subset contain no edge?
  (stands in for running a decision solver on a sub-instance), and
* an adjacency query: is a specific (left, right) pair an edge?
  (stands in for verifying one candidate witness).

``BipartiteOracles`` is built from exactly two callables, one per kind of
query: ``independence(left, right)`` and ``adjacency_block(left, right)``,
which answers adjacency for a block of pairs.  A backend only ever sees one
block of at most ``_block_rows(len(right))`` left rows, and adjacency sums
stream block by block, never holding the whole left x right block.  Single
pairs and rows are that block on one row; each probed pair counts as one
adjacency query, so the batching is purely an evaluation detail.  The
object checks every index against the side sizes and keeps the per-object
query counters.  Vertex subsets are passed as integer index arrays per
side; the contract is on set contents, not order.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BipartiteOracles",
    "matrix_oracles",
    "edge_set_oracles",
    "amplify",
    "repetitions_for",
    "amplified_independence",
    "AMPLIFY_CONSTANT",
]


# A backend is handed at most _CHUNK rows at a time and, for wide rows, about
# _BLOCK_PAIRS entries: together they bound every temporary a block makes.
_CHUNK = 256
_BLOCK_PAIRS = 1 << 19


def _block_rows(width: int) -> int:
    """Rows per block when each row holds ``width`` entries."""
    return max(1, min(_CHUNK, _BLOCK_PAIRS // max(width, 1)))


def _as_index_array(indices) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.dtype.kind not in "iu" and arr.size:  # np.asarray([]) is float64
        raise TypeError(f"vertex indices must be integers, not {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError("vertex subsets must be one-dimensional index sequences")
    return arr.astype(np.int64, copy=False)


class BipartiteOracles:
    """Query access to a hidden bipartite graph, with call counters.

    The graph is given by two callables.  ``independence`` receives two
    sorted int arrays (left indices, right indices) and must return True
    iff no edge of the hidden graph joins them.  ``adjacency_block``
    receives one block of at most ``_block_rows(len(right))`` left rows and
    returns its adjacency matrix (any nonzero entry is an edge).  The
    single-pair and single-row adjacency entry points are that block on one
    row; every probed pair counts as one adjacency query.  All indices are
    checked against the side sizes first.

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
        out = np.empty((left.size, right.size), dtype=bool)
        step = _block_rows(right.size)
        for start in range(0, left.size, step):
            out[start : start + step] = self._adjacency_block(left[start : start + step], right)
        return out

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

    def neighbor_counts(self, left, right) -> np.ndarray:
        """Neighbours in ``left`` of each vertex of ``right`` (int64), summed per block."""
        left = _as_index_array(left)
        right = _as_index_array(right)
        counts = np.zeros(right.size, dtype=np.int64)
        step = _block_rows(right.size)
        for start in range(0, left.size, step):
            counts += self.adjacency_block(left[start : start + step], right).sum(axis=0)
        return counts

    def count_edges_incident(self, left, right) -> int:
        """Exact number of edges between the two index sets (streamed block sums)."""
        return int(self.neighbor_counts(left, right).sum())


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 matrix row-wise into uint64 words (bytes zero padded)."""
    n_rows, n_cols = matrix.shape
    words = max(1, (n_cols + 63) // 64)
    packed = np.zeros((n_rows, words * 8), dtype=np.uint8)
    packed[:, : (n_cols + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.uint64)


def matrix_oracles(adjacency: np.ndarray) -> BipartiteOracles:
    """Oracle pair backed by an explicit |U| x |V| boolean matrix.

    Used for synthetic graphs and as the ground-truth oracle in tests.
    Independence queries scan packed left rows in blocks with early exit; a
    packed bit representation keeps each probe cheap even for wide right
    sides.  Adjacency blocks are plain gathers of the block they are handed.
    """
    adj = np.ascontiguousarray(np.asarray(adjacency, dtype=bool))
    if adj.ndim != 2:
        raise ValueError("adjacency must be a 2-D boolean matrix")
    left_size, right_size = adj.shape
    packed = _pack_rows(adj)
    words = packed.shape[1]
    rows = _block_rows(words)

    def right_mask(right: np.ndarray) -> np.ndarray:
        mask = np.zeros(words * 64, dtype=bool)
        mask[right] = True
        return np.packbits(mask, bitorder="little").view(np.uint64)

    def independence(left: np.ndarray, right: np.ndarray) -> bool:
        if left.size == 0 or right.size == 0:
            return True
        rmask = right_mask(right)
        for start in range(0, left.size, rows):
            if (packed[left[start : start + rows]] & rmask).any():
                return False
        return True

    return BipartiteOracles(
        left_size, right_size, independence,
        lambda left, right: adj.take(left, axis=0).take(right, axis=1),
    )


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


def amplify(
    base: Callable[..., bool],
    target_failure: float,
    *,
    constant: float = AMPLIFY_CONSTANT,
) -> Callable[..., bool]:
    """Majority of an odd number of calls of ``base``, a decider failing with
    probability <= 1/3, so that the vote fails with probability <= target_failure."""
    r = repetitions_for(target_failure, constant)

    def majority(*args, **kwargs) -> bool:
        trues = sum(1 for _ in range(r) if base(*args, **kwargs))
        return trues > r // 2

    return majority


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
