"""Seeded instance generators, including exact witness planting.

Planting strategies are constructive and verified: the instance is built so
that accidental witnesses are structurally impossible (disjoint value
ranges, a blocker coordinate, disjoint triangle triples), the requested
witnesses are inserted, and the exact count is re-checked with the
enumeration kernels; the rare collision triggers a resample.  ``generate``
is deterministic in the spec, so two calls produce byte-identical files.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .instances import Problem, ProblemInstance
from .reductions import (
    NwtInstance,
    OvInstance,
    ThreeSumInstance,
    count_3sum_exact,
    count_nwt_exact,
    count_ov_exact,
)
from .rng import RngStream, derive_stream
from .satcount import CnfFormula

__all__ = ["GeneratorSpec", "InfeasiblePlant", "generate"]


class InfeasiblePlant(ValueError):
    """The requested planted witness count cannot be realised at this size."""


_INTEGER_FIELDS = ("n", "seed", "d", "value_bound", "weight_bound", "clause_count", "width_k")


def _is_integer(value) -> bool:  # numpy integers are; bool, an int subclass, is not
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate.  ``n`` is the total instance size:

    3SUM: total list length (split as evenly as possible across A, B, C);
    OV:   total vector count (split across A and B), dimension ``d``;
    NWT:  total vertex count (split across the three parts, or ``parts``);
    CNF:  variable count, with ``clause_count`` clauses of width ``width_k``.
    """

    problem: Problem
    n: int
    seed: int = 0
    planted_count: Optional[int] = None
    # problem-specific knobs
    d: int = 64  # OV dimension
    density: float = 0.25  # OV bit density / NWT edge probability
    value_bound: int = 10**9  # 3SUM magnitude scale
    weight_bound: int = 100  # NWT |w| bound
    clause_count: int = 0  # CNF clauses
    width_k: int = 3  # CNF clause width
    parts: Optional[tuple[int, int, int]] = None  # NWT part sizes override

    def __post_init__(self) -> None:
        if not isinstance(self.problem, Problem):
            raise ValueError(f"problem must be a Problem, got {self.problem!r}")
        planted = () if self.planted_count is None else ("planted_count",)
        for name in _INTEGER_FIELDS + planted:
            if not _is_integer(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if isinstance(self.density, bool) or not isinstance(self.density, numbers.Real):
            raise ValueError(f"density must be a number, got {self.density!r}")
        if self.parts is not None and not (isinstance(self.parts, tuple) and len(self.parts) == 3
                                           and all(_is_integer(p) and p >= 0 for p in self.parts)):
            raise ValueError(f"parts must be three non-negative integers, got {self.parts!r}")
        if self.n <= 0:
            raise ValueError("size parameter n must be positive")
        if self.planted_count is not None and self.planted_count < 0:
            raise ValueError("planted_count must be nonnegative")
        if self.d < 0:
            raise ValueError(f"d must be nonnegative, got {self.d}")
        if not 0.0 <= self.density <= 1.0:  # NaN fails too
            raise ValueError(f"density must lie in [0,1], got {self.density}")
        if self.value_bound < 1:
            raise ValueError(f"value_bound must be positive, got {self.value_bound}")
        if self.weight_bound < 1:
            raise ValueError(f"weight_bound must be positive, got {self.weight_bound}")
        if self.clause_count < 0:
            raise ValueError(f"clause_count must be nonnegative, got {self.clause_count}")
        if self.width_k < 1:
            raise ValueError(f"width_k must be at least 1, got {self.width_k}")


def generate(spec: GeneratorSpec) -> ProblemInstance:
    """Deterministically generate an instance; planted counts are exact."""
    rng = derive_stream(RngStream(spec.seed), f"gen-{spec.problem.value}")
    if spec.problem is Problem.THREESUM:
        return _gen_3sum(spec, rng)
    if spec.problem is Problem.OV:
        return _gen_ov(spec, rng)
    if spec.problem is Problem.NWT:
        return _gen_nwt(spec, rng)
    return _gen_cnf(spec, rng)


def _split_three(n: int) -> tuple[int, int, int]:
    base = n // 3
    return base, base, n - 2 * base


def _distinct(gen: np.random.Generator, lo: int, hi: int, count: int) -> np.ndarray:
    """Distinct uniform draws from [lo, hi] (resampling duplicates)."""
    if hi - lo + 1 < count:
        raise InfeasiblePlant(f"cannot draw {count} distinct values from [{lo},{hi}]")
    out = np.unique(gen.integers(lo, hi + 1, size=count * 2))
    while out.size < count:
        more = gen.integers(lo, hi + 1, size=count)
        out = np.unique(np.concatenate([out, more]))
    picked = out[gen.permutation(out.size)[:count]]
    return picked


def _gen_3sum(spec: GeneratorSpec, rng: RngStream) -> ThreeSumInstance:
    na, nb, nc = _split_three(spec.n)
    v = spec.value_bound

    if spec.planted_count is None:
        gen = rng.generator()
        a = gen.integers(-v, v + 1, size=na)
        b = gen.integers(-v, v + 1, size=nb)
        c = gen.integers(-v, v + 1, size=nc)
        return ThreeSumInstance(a, b, c)

    # Planted instance: random filler values live in bands whose pairwise
    # sums are all negative while every C entry is positive, so filler can
    # never produce a tuple.  Witnesses come from two arithmetic grids:
    # a progression of p values in A against q values in B yields p*q pairs
    # whose sums cover only p+q-1 distinct values, all placed in C (band 2);
    # a 1 x r grid in a third band tops the count up to exactly k.  Bands
    # are spaced so no cross-band pair lands on any C value.
    k = spec.planted_count
    scale = max(v // 16, 4 * (spec.n + 8))
    q = math.isqrt(k) if k else 0
    if q * q < k:
        q += 1
    p = k // q if q else 0
    r = k - p * q
    need_a = p + (1 if r else 0)
    need_b = q + r
    need_c = (p + q - 1 if k else 0) + r
    if need_a > na or need_b > nb or need_c > nc:
        raise InfeasiblePlant(
            f"cannot plant {k} tuples into sizes {(na, nb, nc)}"
        )
    if scale < 4 * (p + q + r + 4):
        raise InfeasiblePlant("value_bound too small for the requested plant")

    gen = rng.generator()
    a_fill = _distinct(gen, 4 * scale, 5 * scale, na - need_a)
    b_fill = _distinct(gen, -16 * scale, -15 * scale, nb - need_b)
    c_fill = _distinct(gen, 1, scale, nc - need_c)

    a_parts = [a_fill]
    b_parts = [b_fill]
    c_parts = [c_fill]
    if k:
        grid_a = 22 * scale + np.arange(1, p + 1, dtype=np.int64)
        grid_b = -20 * scale + np.arange(1, q + 1, dtype=np.int64)
        grid_c = 2 * scale + np.arange(2, p + q + 1, dtype=np.int64)
        a_parts.append(grid_a)
        b_parts.append(grid_b)
        c_parts.append(grid_c)
    if r:
        a_parts.append(np.asarray([40 * scale + 1], dtype=np.int64))
        b_parts.append(-30 * scale + np.arange(1, r + 1, dtype=np.int64))
        c_parts.append(10 * scale + 1 + np.arange(1, r + 1, dtype=np.int64))

    a = np.concatenate(a_parts)[gen.permutation(na)]
    b = np.concatenate(b_parts)[gen.permutation(nb)]
    c = np.concatenate(c_parts)[gen.permutation(nc)]
    inst = ThreeSumInstance(a, b, c)
    actual = count_3sum_exact(inst)
    if actual != k:
        raise InfeasiblePlant(f"planted 3SUM verification failed ({actual} != {k})")
    return inst


def _gen_ov(spec: GeneratorSpec, rng: RngStream) -> OvInstance:
    na = spec.n // 2
    nb = spec.n - na
    d = spec.d
    gen = rng.generator()

    if spec.planted_count is None:
        a = (gen.random((na, d)) < spec.density).astype(np.uint8)
        b = (gen.random((nb, d)) < spec.density).astype(np.uint8)
        return OvInstance(a, b)

    k = spec.planted_count
    if k > min(na, nb, max(d - 1, 0)):
        raise InfeasiblePlant(f"cannot plant {k} orthogonal pairs at n={spec.n}, d={d}")

    # Coordinate 0 is a blocker carried by every vector, so no random pair
    # is orthogonal.  Planted pair t clears the blocker on one A-row and
    # gives it the private coordinate 1+t, which every B-row except its
    # partner is forced to carry.
    a = (gen.random((na, d)) < spec.density).astype(np.uint8)
    b = (gen.random((nb, d)) < spec.density).astype(np.uint8)
    a[:, 0] = 1
    b[:, 0] = 1
    a_rows = gen.permutation(na)[:k]
    b_rows = gen.permutation(nb)[:k]
    b[:, 1 : 1 + k] = 1
    for t in range(k):
        a[a_rows[t]] = 0
        a[a_rows[t], 1 + t] = 1
        b[b_rows[t], 1 + t] = 0
    inst = OvInstance(a, b)
    if count_ov_exact(inst) != k:
        raise InfeasiblePlant("planted OV verification failed")
    return inst


def _gen_nwt(spec: GeneratorSpec, rng: RngStream) -> NwtInstance:
    if spec.parts is not None:
        na, nb, nc = spec.parts
        if na + nb + nc != spec.n:
            raise ValueError("parts must sum to n")
    else:
        na, nb, nc = _split_three(spec.n)
    n = spec.n
    ids = np.arange(n, dtype=np.int64)
    part_a, part_b, part_c = ids[:na], ids[na : na + nb], ids[na + nb :]
    w = spec.weight_bound
    gen = rng.generator()

    def cross_block(rows: np.ndarray, cols: np.ndarray, adjacency, weights, lo, hi):
        mask = gen.random((rows.size, cols.size)) < spec.density
        vals = gen.integers(lo, hi + 1, size=(rows.size, cols.size))
        r, c = np.nonzero(mask)
        adjacency[rows[r], cols[c]] = True
        adjacency[cols[c], rows[r]] = True
        weights[rows[r], cols[c]] = vals[r, c]
        weights[cols[c], rows[r]] = vals[r, c]

    adjacency = np.zeros((n, n), dtype=bool)
    weights = np.zeros((n, n), dtype=np.int64)

    if spec.planted_count is None:
        for rows, cols in ((part_a, part_b), (part_a, part_c), (part_b, part_c)):
            cross_block(rows, cols, adjacency, weights, -w, w)
        return NwtInstance(n, part_a, part_b, part_c, adjacency, weights)

    k = spec.planted_count
    if k > min(na, nb, nc):
        raise InfeasiblePlant(f"cannot plant {k} disjoint triangles into parts {(na, nb, nc)}")

    # Nonnegative base weights mean no accidental negative triangle; each
    # planted triangle sits on its own vertex triple with weights (0, 0, -1),
    # and any triangle sharing at most one planted edge keeps a sum >= 0.
    for rows, cols in ((part_a, part_b), (part_a, part_c), (part_b, part_c)):
        cross_block(rows, cols, adjacency, weights, 1, w)
    ta = part_a[gen.permutation(na)[:k]]
    tb = part_b[gen.permutation(nb)[:k]]
    tc = part_c[gen.permutation(nc)[:k]]
    for a_v, b_v, c_v in zip(ta, tb, tc):
        for u, v_, wt in ((a_v, b_v, 0), (b_v, c_v, 0), (c_v, a_v, -1)):
            adjacency[u, v_] = adjacency[v_, u] = True
            weights[u, v_] = weights[v_, u] = wt
    inst = NwtInstance(n, part_a, part_b, part_c, adjacency, weights)
    if count_nwt_exact(inst) != k:
        raise InfeasiblePlant("planted NWT verification failed")
    return inst


def _gen_cnf(spec: GeneratorSpec, rng: RngStream) -> CnfFormula:
    if spec.planted_count is not None:
        raise InfeasiblePlant("exact solution-count planting is not supported for CNF")
    n = spec.n
    k = min(spec.width_k, n)
    m = spec.clause_count if spec.clause_count else 4 * n
    gen = rng.generator()
    clauses = []
    for _ in range(m):
        variables = gen.choice(n, size=k, replace=False) + 1
        signs = gen.integers(0, 2, size=k)
        clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(variables, signs)))
    return CnfFormula(n_vars=n, width_k=spec.width_k, clauses=tuple(clauses))
