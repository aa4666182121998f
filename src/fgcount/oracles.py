"""Hidden-bipartite-graph oracles and failure-probability amplification.

A hidden graph G = (U, V, E) is exposed only through two predicates:

* an independence query: does a given vertex subset contain no edge?
  (stands in for running a decision solver on a sub-instance), and
* an adjacency query: is a specific (left, right) pair an edge?
  (stands in for verifying one candidate witness).

``BipartiteOracles`` serves both from backend callables shaped by what the
estimator consumes: many independence queries against one bound right set,
and edges only as sums.  The object checks, counts and forwards: it checks
every index against the side sizes, counts each probed pair as one
adjacency query, and hands a backend the whole checked arrays in one call,
an empty left included.  ``matrix_oracles`` and the reduction kernels block
their own work under ``_block_rows``.  Vertex subsets are integer index
arrays per side; the contract is on set contents, not order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "BipartiteOracles",
    "matrix_oracles",
    "amplify",
    "repetitions_for",
    "amplified_independence",
]


# BipartiteOracles checks, counts and forwards whole arrays, an empty left
# included; matrix_oracles and the reduction kernels block their own work in
# at most _CHUNK rows of about _BLOCK_PAIRS entries, which bounds every
# temporary and keeps matrix_oracles' uint8 sum of a block's rows exact.
_CHUNK = 255
_BLOCK_PAIRS = 1 << 19


def _block_rows(width: int) -> int:
    """Rows per block when each row holds ``width`` entries."""
    return max(1, min(_CHUNK, _BLOCK_PAIRS // max(width, 1)))


def _as_index_array(indices, copy: bool = False) -> np.ndarray:
    arr = np.asarray(indices)
    if arr.dtype.kind not in "iu" and arr.size:  # np.asarray([]) is float64
        raise TypeError(f"vertex indices must be integers, not {arr.dtype}")
    if arr.ndim != 1:
        raise ValueError("vertex subsets must be one-dimensional index sequences")
    return arr.astype(np.int64, copy=copy)


_INT64 = np.dtype(np.int64)


def _sorted_indices(indices, size: int, side: str) -> np.ndarray:
    """A sorted int64 copy of ``indices``, checked at its ends against ``size``.

    A 1-D ndarray with the native int64 descriptor (a window of
    ``find_core``'s permutation) is copied as it is; anything else,
    including a big-endian int64 array, is checked and converted by
    ``_as_index_array``.
    """
    if type(indices) is np.ndarray and indices.dtype is _INT64 and indices.ndim == 1:
        arr = indices.copy()
    else:
        arr = _as_index_array(indices, copy=True)
    arr.sort()
    if arr.size and not (0 <= arr.item(0) and arr.item(-1) < size):
        raise IndexError(f"{side} index out of range")
    return arr


@dataclass(frozen=True, eq=False)
class _BoundRight:
    """A right set bound by one ``BipartiteOracles`` object (``owner``).

    ``indices`` is sorted, bounds-checked and read-only; ``predicate`` is
    what the owner's independence backend returned for it.  Only ``owner``
    uses the predicate: any other object binds ``indices`` anew.
    """

    owner: "BipartiteOracles"
    indices: np.ndarray
    predicate: Callable[[np.ndarray], bool]


@dataclass(frozen=True, eq=False)
class _TouchPredicate:
    """``matrix_oracles``' predicate for one bound right set.

    ``touched`` holds one bool per left vertex: does it have a neighbour in
    the set?  A left window is independent iff no gathered byte is 1.
    ``BipartiteOracles.first_isolated`` reads runs of one-vertex answers
    from ``touched`` directly.
    """

    touched: np.ndarray

    def __call__(self, left: np.ndarray) -> bool:
        return 1 not in self.touched[left].tobytes()


class BipartiteOracles:
    """Query access to a hidden bipartite graph, with call counters.

    The graph is given by two callables.  ``independence`` receives a
    sorted, read-only int array of right indices and returns a predicate;
    the predicate receives a sorted int array of left indices and must
    return True iff no edge of the hidden graph joins the two sets.  Any
    per-right-set work (a mask, a slice) belongs in ``independence`` itself,
    which runs once per ``bind_right``.  ``adjacency`` receives the whole
    checked left and right index arrays, repeats and order as given, the
    left possibly empty, and returns one integer per entry of ``right``: its
    number of neighbours in left; the optional ``edges`` receives the same
    arrays and returns the number of edge pairs in left x right, repeats
    counting with multiplicity.  The object checks, counts and forwards:
    every index against the side sizes, every probed pair as one adjacency
    query, and one backend call per ``neighbor_counts`` or
    ``count_edges_incident`` (``edges`` when given, else summed
    ``neighbor_counts``); single pairs, rows and blocks come from one-row
    calls.  A backend blocks its own work if it must, as ``matrix_oracles``
    and the reduction kernels do under ``_block_rows``.

    ``first_isolated`` asks a run of one-vertex queries and counts each.
    It answers them in bulk only when the predicate is a ``_TouchPredicate``,
    the type ``matrix_oracles`` returns, whose touch mask already holds
    every one-vertex answer; any other predicate is asked one vertex at a
    time through ``independence_query``.

    A backend must not hold the object it backs: the cycle would keep the
    object, and whatever its backends hold, alive until cyclic GC.

    Counters are plain attributes mutated under the GIL; concurrent trials
    should each own their oracle object (counters are deliberately not
    global).
    """

    def __init__(
        self,
        left_size: int,
        right_size: int,
        independence: Callable[[np.ndarray], Callable[[np.ndarray], bool]],
        adjacency: Callable[[np.ndarray, np.ndarray], np.ndarray],
        edges: Callable[[np.ndarray, np.ndarray], int] | None = None,
    ) -> None:
        if left_size < 0 or right_size < 0:
            raise ValueError("side sizes must be nonnegative")
        self.left_size = int(left_size)
        self.right_size = int(right_size)
        self._independence = independence
        self._adjacency = adjacency
        self._edges = edges
        self.independence_calls = 0
        self.adjacency_calls = 0

    @property
    def total_vertices(self) -> int:
        return self.left_size + self.right_size

    def bind_right(self, right) -> _BoundRight:
        """Sort, check and prepare a right set once for many independence queries.

        A value this object bound is returned as it is; raw indices, or a
        value bound by another object, are bound here.  Binding is not a
        query and counts nothing.
        """
        if isinstance(right, _BoundRight):
            if right.owner is self:
                return right
            right = right.indices
        right = _sorted_indices(right, self.right_size, "right")
        right.flags.writeable = False
        return _BoundRight(self, right, self._independence(right))

    def independence_query(self, left, right) -> bool:
        """True iff the subset (left ∪ right) spans no edge. Counts as one query.

        ``right`` is raw indices or a ``bind_right`` value; raw indices are
        bound on the spot.  The predicate always receives a sorted left
        array (the query is about set contents; sorting is the canonical
        form, and decision backends may rely on it).

        A query against a bound value with a one-element native int64
        window costs one copy, a check of the element against the left
        size, the counter and the predicate: about
        0.5–0.6 µs before the predicate on a 2-vCPU Xeon VM (Python 3.11,
        numpy 2.4), where ``matrix_oracles``' predicate adds about 0.3 µs.  A
        longer window of that kind is also sorted in place and checked at
        its two ends; other inputs are checked and converted first.
        """
        if not (isinstance(right, _BoundRight) and right.owner is self):
            right = self.bind_right(right)
        if type(left) is np.ndarray and left.dtype is _INT64 and left.shape == (1,):
            left = left.copy()
            if not 0 <= left.item() < self.left_size:
                raise IndexError("left index out of range")
        else:
            left = _sorted_indices(left, self.left_size, "left")
        self.independence_calls += 1
        return bool(right.predicate(left))

    def first_isolated(self, window, right) -> int:
        """Position of the first vertex of ``window`` isolated from ``right``.

        Asks the one-vertex queries ``window[0]``, ``window[1]``, ... in
        order, up to and including the first that answers independent, and
        counts each as one query; returns ``len(window)``, having asked them
        all, if every vertex touches ``right``.  ``right`` is bound as
        ``independence_query`` binds it, and ``window`` is not modified.

        A predicate that ``matrix_oracles`` returned (a ``_TouchPredicate``)
        is answered in bulk: at most ``_CHUNK`` vertices at a time are
        bounds-checked, gathered from its touch mask and searched for the
        first 0 byte, so a long run of hits costs a few numpy calls and a
        short one no more than one chunk.  Every other predicate is asked
        one vertex at a time through ``self.independence_query``, so a
        wrapper set on the instance sees each of those queries; so is a
        chunk holding an out-of-range entry, which raises ``IndexError``
        where the per-vertex loop would.
        """
        if not (isinstance(right, _BoundRight) and right.owner is self):
            right = self.bind_right(right)
        window = _as_index_array(window)
        size = window.size
        resume = 0
        if isinstance(right.predicate, _TouchPredicate):
            touched = right.predicate.touched
            for resume in range(0, size, _CHUNK):
                chunk = window[resume : resume + _CHUNK]
                if chunk.min() < 0 or chunk.max() >= self.left_size:
                    break
                j = touched[chunk].tobytes().find(0)
                if j >= 0:
                    self.independence_calls += j + 1
                    return resume + j
                self.independence_calls += chunk.size
            else:
                return size
        for j in range(resume, size):
            if self.independence_query(window[j : j + 1], right):
                return j
        return size

    def _counted(self, left, right) -> tuple[np.ndarray, np.ndarray]:
        """Both index sets, checked, then counted as |left|·|right| queries."""
        left = _as_index_array(left)
        right = _as_index_array(right)
        if left.size and (left.min() < 0 or left.max() >= self.left_size):
            raise IndexError("left index out of range")
        if right.size and (right.min() < 0 or right.max() >= self.right_size):
            raise IndexError("right index out of range")
        self.adjacency_calls += int(left.size) * int(right.size)
        return left, right

    def _answer(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        """The backend's counts for checked arrays; ValueError unless one per right entry."""
        counts = np.asarray(self._adjacency(left, right))
        if counts.shape != right.shape:
            raise ValueError(f"adjacency answered shape {counts.shape}, not {right.shape}")
        return counts

    def _block(self, left, right) -> np.ndarray:
        """The checked, counted block behind all three adjacency entry points."""
        left, right = self._counted(left, right)
        out = np.empty((left.size, right.size), dtype=bool)
        for i in range(left.size):
            out[i] = self._answer(left[i : i + 1], right)
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
        """Neighbours in ``left`` of each vertex of ``right`` (int64): both sides
        checked, counted and forwarded whole, an empty left too, in one backend
        call (``matrix_oracles`` and the kernels block under ``_block_rows``)."""
        return self._answer(*self._counted(left, right)).astype(np.int64)

    def count_edges_incident(self, left, right) -> int:
        """Exact number of edges in left x right, with multiplicities.

        Counts as ``len(left) * len(right)`` adjacency queries.  Answered by
        the ``edges`` backend when the object has one, else by summing
        ``neighbor_counts``.
        """
        if self._edges is None:
            return int(self.neighbor_counts(left, right).sum())
        return int(self._edges(*self._counted(left, right)))


def _pack_rows(matrix: np.ndarray) -> np.ndarray:
    """Pack a boolean or 0/1 matrix row-wise into uint64 words (bytes zero padded)."""
    n_rows, n_cols = matrix.shape
    words = max(1, (n_cols + 63) // 64)
    packed = np.zeros((n_rows, words * 8), dtype=np.uint8)
    packed[:, : (n_cols + 7) // 8] = np.packbits(matrix, axis=1, bitorder="little")
    return packed.view(np.uint64)


def matrix_oracles(adjacency: np.ndarray) -> BipartiteOracles:
    """Oracle object backed by an explicit |U| x |V| boolean matrix.

    Used for synthetic graphs and as the ground-truth oracle in tests.  The
    matrix is packed into one bit per pair (``uint64`` rows, 1/8 of the
    bool matrix) and every answer comes from those words; the object keeps
    no reference to ``adjacency``, so the caller may drop it.  A right set
    becomes a bit mask.  Binding X ORs each block of rows ANDed with X's
    mask into one bool per left vertex: does it touch X?  The predicate is
    a ``_TouchPredicate`` over that mask.  Each independence query is then
    a gather of its window from the mask and a byte-membership test (is a 1
    among the gathered bytes?), a plain ``bytes`` search with no numpy
    reduction to dispatch; ``first_isolated`` reads a run of one-vertex
    answers from the mask a chunk at a time.  The object
    forwards whole arrays (an empty left too) and adjacency blocks them
    under ``_block_rows``: at most 255 rows summed in uint8, so no sum
    wraps, added into int64 column counts from which ``right`` is gathered.
    ``edges`` ANDs each block of left rows with the mask and adds up the
    set bits; right entries listed m times are masked together and their
    count weighted by m, so a duplicate-free right set takes one pass.
    """
    adj = np.asarray(adjacency, dtype=bool)
    if adj.ndim != 2:
        raise ValueError("adjacency must be a 2-D boolean matrix")
    left_size, right_size = adj.shape
    packed = _pack_rows(adj)
    words = packed.shape[1]
    rows = _block_rows(words)

    def mask(right: np.ndarray) -> np.ndarray:
        bits = np.zeros(words * 64, dtype=bool)
        bits[right] = True
        return np.packbits(bits, bitorder="little").view(np.uint64)

    def independence(right: np.ndarray) -> Callable[[np.ndarray], bool]:
        rmask = mask(right)
        touched = np.empty(left_size, dtype=bool)
        for start in range(0, left_size, rows):
            touched[start : start + rows] = np.bitwise_or.reduce(
                packed[start : start + rows] & rmask, axis=1
            )
        return _TouchPredicate(touched)

    def adjacency(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        counts = np.zeros(words * 64, dtype=np.int64)
        for start in range(0, left.size, rows):
            block = packed.take(left[start : start + rows], axis=0).view(np.uint8)
            counts += np.unpackbits(block, axis=1, bitorder="little").sum(axis=0, dtype=np.uint8)
        return counts[right]

    def edges(left: np.ndarray, right: np.ndarray) -> int:
        values, repeats = np.unique(right, return_counts=True)
        total = 0
        for m in np.unique(repeats).tolist():
            rmask = mask(values[repeats == m])
            for start in range(0, left.size, rows):
                block = packed.take(left[start : start + rows], axis=0)
                total += m * int(np.bitwise_count(block & rmask).sum())
        return total

    return BipartiteOracles(left_size, right_size, independence, adjacency, edges)


# --------------------------------------------------------------------------
# Majority amplification for randomized boolean deciders.
# --------------------------------------------------------------------------

# Majority over r repetitions of a decider that errs with probability <= 1/3
# fails with probability at most exp(-r * KL(1/2 || 1/3)) < exp(-r/18), so
# r >= 18 ln(2/target) forces the failure rate below target.
AMPLIFY_CONSTANT = 18.0


def repetitions_for(target_failure: float) -> int:
    """Smallest odd repetition count bringing failure <= 1/3 down to target."""
    if not 0.0 < target_failure < 1.0:
        raise ValueError(f"target_failure must be in (0,1), got {target_failure}")
    if target_failure >= 1.0 / 3.0:
        return 1
    r = math.ceil(AMPLIFY_CONSTANT * math.log(2.0 / target_failure))
    return r if r % 2 else r + 1


def amplify(base: Callable[..., bool], target_failure: float) -> Callable[..., bool]:
    """Majority of an odd number of calls of ``base``, a decider failing with
    probability <= 1/3, so that the vote fails with probability <= target_failure."""
    r = repetitions_for(target_failure)

    def majority(*args, **kwargs) -> bool:
        trues = sum(1 for _ in range(r) if base(*args, **kwargs))
        return trues > r // 2

    return majority


def amplified_independence(oracles: BipartiteOracles, target_failure: float) -> BipartiteOracles:
    """View of ``oracles`` whose independence answers are majority-amplified.

    Binding a right set on the view binds it once on ``oracles``; each
    independence query then fans out into an odd number of queries on
    ``oracles``, and adjacency is answered by ``oracles.neighbor_counts``
    and ``oracles.count_edges_incident``, so its counters record the raw
    decider invocations and probed pairs.
    """
    vote = amplify(oracles.independence_query, target_failure)

    def independence(right: np.ndarray) -> Callable[[np.ndarray], bool]:
        bound = oracles.bind_right(right)
        return lambda left: vote(left, bound)

    return BipartiteOracles(
        oracles.left_size,
        oracles.right_size,
        independence,
        oracles.neighbor_counts,
        oracles.count_edges_incident,
    )
