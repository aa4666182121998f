"""Explicit synthetic bipartite graphs for exercising the edge estimator.

Each builder returns the adjacency matrix; wrap it with
``oracles.matrix_oracles`` to query it, and keep the matrix around as the
instrumented ground truth (exact edge counts, true degrees).
"""

from __future__ import annotations

import numpy as np

from .rng import RngStream

__all__ = [
    "random_bipartite",
    "dense_bipartite",
    "sparse_bipartite",
    "star_skewed_bipartite",
    "regular_right_bipartite",
]


def random_bipartite(left: int, right: int, edge_prob: float, rng: RngStream) -> np.ndarray:
    # Row-chunked so the transient double matrix stays small; chunked draws
    # consume the generator stream exactly like a one-shot draw would.
    gen = rng.generator()
    out = np.empty((left, right), dtype=bool)
    for start in range(0, left, 256):
        stop = min(start + 256, left)
        out[start:stop] = gen.random((stop - start, right)) < edge_prob
    return out


def dense_bipartite(left: int, right: int, rng: RngStream) -> np.ndarray:
    return random_bipartite(left, right, 0.2, rng)


def sparse_bipartite(left: int, right: int, rng: RngStream) -> np.ndarray:
    # Mean right-degree ~4: thin enough that isolated vertices appear.
    return random_bipartite(left, right, min(1.0, 4.0 / max(left, 1)), rng)


def star_skewed_bipartite(left: int, right: int, rng: RngStream) -> np.ndarray:
    """Eight right vertices adjacent to everything, the rest near-isolated.

    Every other pair is an edge with probability 0.002, so the stars carry
    almost all edges: exactly the degree skew the core-removal machinery
    exists for.
    """
    gen = rng.generator()
    adj = gen.random((left, right)) < 0.002
    star_cols = gen.permutation(right)[:8]
    adj[:, star_cols] = True
    return adj


def regular_right_bipartite(left: int, right: int, degree: int, rng: RngStream) -> np.ndarray:
    """Every right vertex has exactly ``degree`` left neighbours.

    With equal degrees no vertex dominates, so the right side is
    (1/right)-balanced: the sharpest regime for halving concentration.
    """
    if degree > left:
        raise ValueError("degree cannot exceed the left side")
    gen = rng.generator()
    adj = np.zeros((left, right), dtype=bool)
    for v in range(right):
        adj[gen.permutation(left)[:degree], v] = True
    return adj
