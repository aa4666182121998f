"""Approximate #CNF-SAT via sparse XOR hashing and a satisfiability oracle.

The pipeline reduces approximate counting to satisfiability queries on
*augmented* formulas: a width-k CNF conjoined with a sparse GF(2) linear
system.  Counting proceeds in two regimes:

* few solutions: count them exactly by self-reduction, branching on one
  variable at a time and pruning unsatisfiable branches through the oracle
  (``sparse_count``), giving up once a stated budget is exceeded;
* many solutions: thin the solution set by a factor ~2^m with random sparse
  XOR constraints, exactly count several independently thinned copies, and
  rescale the summed counts (``sat_solve``).

A single sparse XOR row does not concentrate the thinned count well, which
is why ``sat_solve`` sums 2^t independent hashed copies per level m; the
variance bound that makes this work is the subject of the hash-moment
tests.  All counts are arbitrary-precision integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property
from operator import index
from typing import Callable, Optional, Union

import numpy as np

from .rng import RngStream, _distinct_rows, _raw_bits, derive_stream
from .oracles import amplify

__all__ = [
    "CapExceeded",
    "CnfFormula",
    "SparseXorSystem",
    "AugmentedFormula",
    "augment",
    "sparse_count",
    "sample_hash",
    "conjoin",
    "decide_pi_ks",
    "brute_force_count",
    "solution_codes",
    "EnumerationDecider",
    "SatSolveParams",
    "SatSolveConfig",
    "sat_solve",
    "approx_count_cnf",
    "parse_dimacs",
    "write_dimacs",
]


class CapExceeded(RuntimeError):
    """An enumeration-based routine was asked to exceed its configured size cap."""


# --------------------------------------------------------------------------
# Formula types.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CnfFormula:
    """A width-k CNF over variables 1..n_vars (signed-literal clauses)."""

    n_vars: int
    width_k: int
    clauses: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.n_vars < 0:
            raise ValueError("n_vars must be nonnegative")
        if self.width_k < 1:
            raise ValueError("width_k must be positive")
        clauses = tuple(tuple(int(l) for l in clause) for clause in self.clauses)
        object.__setattr__(self, "clauses", clauses)
        for clause in clauses:
            if len(clause) > self.width_k:
                raise ValueError(f"clause {clause} exceeds width {self.width_k}")
            for lit in clause:
                if lit == 0 or abs(lit) > self.n_vars:
                    raise ValueError(f"literal {lit} out of range for n={self.n_vars}")

    @cached_property
    def masks(self) -> tuple[tuple[int, int], ...]:
        """Each clause as (pos_mask, neg_mask), bit v-1 standing for x_v.

        A clause holding both x_v and -x_v is always satisfied and is left out.
        """
        out = []
        for clause in self.clauses:
            pos = neg = 0
            for lit in clause:
                if lit > 0:
                    pos |= 1 << (lit - 1)
                else:
                    neg |= 1 << (-lit - 1)
            if not pos & neg:
                out.append((pos, neg))
        return tuple(out)


@dataclass(frozen=True)
class SparseXorSystem:
    """A GF(2) linear system over x_1..x_n_vars with at most n_vars rows.

    Each row is a pair (mask, rhs), bit v-1 of ``mask`` standing for x_v:
    the row holds when the parity of the masked variables equals ``rhs``.
    ``SparseXorSystem(n)`` is the empty system.  Rows are checked once, here;
    ``AugmentedFormula.assign`` shares the system and checks nothing again.
    """

    n_vars: int
    rows: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        rows = tuple((index(mask), index(rhs)) for mask, rhs in self.rows)
        object.__setattr__(self, "rows", rows)
        if len(rows) > max(self.n_vars, 0):
            raise ValueError("row count must not exceed the variable count")
        for mask, rhs in rows:
            if mask < 0 or mask >> self.n_vars:
                raise ValueError(f"row mask {mask:#x} out of range for n={self.n_vars}")
            if rhs not in (0, 1):
                raise ValueError("right-hand sides are GF(2) bits")


@dataclass(frozen=True)
class AugmentedFormula:
    """CNF plus XOR system plus a partial assignment (for self-reduction).

    The assignment is two bitmasks, bit v-1 standing for x_v:
    ``assigned_mask`` marks the assigned variables and ``value_bits`` their
    values.  ``assign`` ORs one bit into each and shares the parent's ``cnf``
    and ``xors``, so building a formula costs the same at every depth;
    consumers evaluate clauses and rows against the masks.  Semantics:
    completions of the assignment satisfying all clauses and rows.
    """

    cnf: CnfFormula
    xors: SparseXorSystem
    assigned_mask: int = 0
    value_bits: int = 0

    def __post_init__(self) -> None:
        if self.cnf.n_vars != self.xors.n_vars:
            raise ValueError("CNF and XOR system disagree on variable count")
        if self.assigned_mask >> self.cnf.n_vars or self.value_bits & ~self.assigned_mask:
            raise ValueError("assignment masks out of range or inconsistent")

    @property
    def n_vars(self) -> int:
        return self.cnf.n_vars

    def free_count(self) -> int:
        return self.cnf.n_vars - self.assigned_mask.bit_count()

    def assign(self, var: int, value: int) -> "AugmentedFormula":
        """The same formula with x_var = value added to the assignment."""
        if not 1 <= var <= self.cnf.n_vars:
            raise ValueError(f"variable {var} out of range for n={self.cnf.n_vars}")
        if value not in (0, 1):
            raise ValueError("assignment values are bits")
        bit = 1 << (index(var) - 1)  # a numpy integer would make the masks fixed-width
        if self.assigned_mask & bit:
            raise ValueError(f"variable {var} already assigned")
        return AugmentedFormula(
            self.cnf, self.xors, self.assigned_mask | bit, self.value_bits | (bit if value else 0)
        )


def augment(cnf: CnfFormula) -> AugmentedFormula:
    """Wrap a plain CNF as an augmented formula with no XOR rows."""
    return AugmentedFormula(cnf=cnf, xors=SparseXorSystem(cnf.n_vars))


# --------------------------------------------------------------------------
# Exact counting by self-reduction (budgeted).
# --------------------------------------------------------------------------


class _BudgetExhausted(Exception):
    pass


def sparse_count(
    formula: AugmentedFormula,
    budget: int,
    oracle: Callable[[AugmentedFormula], bool],
) -> Optional[int]:
    """Exact solution count if it is at most ``budget``, else None.

    Recurses on the two assignment masks, branching on the lowest free
    variable, 0 before 1.  A node builds one formula over the shared
    ``cnf`` and ``xors`` and makes one oracle call on it, pruning dead
    branches.  Once the number of solutions found exceeds the budget the
    recursion unwinds and None is returned (outcome-equivalent to checking
    partial sums at every node; caps the work at budget+1 solutions).
    Oracle calls are bounded by 8n * (min(budget, count) + 1).
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")

    cnf, xors = formula.cnf, formula.xors
    every = (1 << cnf.n_vars) - 1
    found = 0

    def recurse(assigned: int, values: int) -> int:
        nonlocal found
        if not oracle(AugmentedFormula(cnf, xors, assigned, values)):
            return 0
        free = every & ~assigned
        if not free:
            found += 1
            if found > budget:
                raise _BudgetExhausted
            return 1
        bit = free & -free
        return recurse(assigned | bit, values) + recurse(assigned | bit, values | bit)

    try:
        return recurse(formula.assigned_mask, formula.value_bits)
    except _BudgetExhausted:
        return None


# --------------------------------------------------------------------------
# Sparse XOR hashing.
# --------------------------------------------------------------------------


def sample_hash(s: int, m: int, n: int, rng: RngStream) -> SparseXorSystem:
    """Random m x n GF(2) matrix whose rows have uniform size-s supports.

    Each row independently picks a uniform size-s subset of [n] as its
    support and uniform coefficient bits on it; its mask holds the support
    variables whose coefficient is 1.  The stream's raw words are read in
    one pass: first the m supports (``_distinct_rows``: s indices a row
    when 4s^2 <= n, otherwise n keys a row whose s smallest win); then m*s
    coefficient bits, bit i*s + j belonging to row i's j-th smallest
    variable (``_raw_bits``).  Right-hand sides are left zero here;
    ``conjoin`` draws them fresh (they must be independent of the matrix
    and of each other across hashed copies).
    """
    if not 1 <= s <= n:
        raise ValueError(f"support size s={s} must satisfy 1 <= s <= n={n}")
    if not 0 <= m <= n:
        raise ValueError(f"row count m={m} must satisfy 0 <= m <= n={n}")
    source = rng.generator().bit_generator
    support = _distinct_rows(source, m, s, n)
    dense = np.zeros((m, n), dtype=np.uint8)
    dense[np.arange(m)[:, None], support] = _raw_bits(source, m * s).reshape(m, s)
    masks = np.packbits(dense, axis=1, bitorder="little")
    return SparseXorSystem(n, tuple((int.from_bytes(row.tobytes(), "little"), 0) for row in masks))


def conjoin(cnf: CnfFormula, system: SparseXorSystem, rng: RngStream) -> AugmentedFormula:
    """Attach ``system``'s masks to ``cnf`` with a fresh uniform right-hand side.

    Row i's right-hand side is bit i of the stream's raw words
    (``_raw_bits``); the rhs of each row of ``system`` is ignored.
    """
    if system.n_vars != cnf.n_vars:
        raise ValueError("dimension mismatch between formula and XOR system")
    b = _raw_bits(rng.generator().bit_generator, len(system.rows)).tolist()
    rows = tuple((mask, bit) for (mask, _), bit in zip(system.rows, b))
    return AugmentedFormula(cnf, SparseXorSystem(system.n_vars, rows))


# --------------------------------------------------------------------------
# Desk-scale deciders for augmented formulas.
# --------------------------------------------------------------------------


def decide_pi_ks(formula: AugmentedFormula, *, free_var_cap: int = 32) -> bool:
    """Satisfiability of CNF ∧ XOR by backtracking with unit propagation.

    Clause units and XOR rows with one free variable are propagated to a
    fixpoint before branching on the lowest-index free variable; the search
    state is an (assigned, values) bitmask pair.  A stand-in for the
    abstract satisfiability oracle at desk scale; refuses formulas with more
    than ``free_var_cap`` free variables.
    """
    if formula.free_count() > free_var_cap:
        raise CapExceeded(
            f"{formula.free_count()} free variables exceed the decision cap {free_var_cap}"
        )
    clauses = formula.cnf.masks
    rows = formula.xors.rows
    every = (1 << formula.n_vars) - 1

    def search(assigned: int, values: int) -> bool:
        changed = True
        while changed:
            changed = False
            for pos, neg in clauses:
                if (values & pos) | (assigned & ~values & neg):
                    continue
                free = (pos | neg) & ~assigned
                if not free:
                    return False
                if not free & (free - 1):
                    assigned |= free
                    values |= free & pos
                    changed = True
            for mask, rhs in rows:
                free = mask & ~assigned
                parity = (values & mask).bit_count() & 1
                if not free:
                    if parity != rhs:
                        return False
                elif not free & (free - 1):
                    assigned |= free
                    if parity != rhs:
                        values |= free
                    changed = True
        free = every & ~assigned
        if not free:
            return True
        bit = free & -free
        return search(assigned | bit, values) or search(assigned | bit, values | bit)

    return search(formula.assigned_mask, formula.value_bits)


def _rows_hold(codes: np.ndarray, rows) -> np.ndarray:
    """Which n-bit codes satisfy every (mask, rhs) row."""
    ok = np.ones(codes.shape, dtype=bool)
    for mask, rhs in rows:
        ok &= np.bitwise_count(codes & np.uint64(mask)) & 1 == rhs
    return ok


# Free variables the enumerators and the built-in decider accept.
BRUTE_FORCE_CAP = 26
_BLOCK_BITS = 18  # free variables spanned by one truth table: 2^18 bits, 4096 words


@cache
def _literal_tables() -> np.ndarray:
    """Truth tables of the 2 * _BLOCK_BITS literals over one block, as uint64 words.

    Row j is the table of x_j: bit t is bit j of t, t = 64 * word + bit in
    the word.  Row _BLOCK_BITS + j is its complement, the table of not x_j.
    A block of b < _BLOCK_BITS bits reads the first max(1, 2^b / 64) words.
    """
    words = np.arange(1 << _BLOCK_BITS >> 6, dtype=np.uint64)
    tables = np.empty((2 * _BLOCK_BITS, words.size), dtype=np.uint64)
    for j in range(_BLOCK_BITS):
        if j < 6:  # the same pattern in every word
            tables[j] = sum(1 << t for t in range(64) if t >> j & 1)
        else:  # whole words, all ones where bit j - 6 of the word index is set
            tables[j] = (words >> np.uint64(j - 6) & np.uint64(1)) * np.uint64(2**64 - 1)
    tables[_BLOCK_BITS:] = ~tables[:_BLOCK_BITS]
    tables.flags.writeable = False
    return tables


def _fold(op, tables: np.ndarray, which: list[int]) -> np.ndarray:
    """``op`` over the rows ``which`` of ``tables``, left to right."""
    out = tables[which[0]]
    for i in which[1:]:
        out = op(out, tables[i])
    return out


def _truth_tables(f: AugmentedFormula):
    """Yield (block, table) for every block of f's free assignments holding a solution.

    The lowest _BLOCK_BITS free variables index a table's bits and the rest
    are spelled by ``block``: bit t is set when free assignment
    block * 2^low + t satisfies f.  The assignment of f, then of the block,
    simplifies each clause and row: a clause with a true literal drops out,
    one with no free literal left empties the block, and a row's assigned
    parity folds into its right-hand side.  The table is the AND of what is
    left: per clause the OR of its literal tables, per row the XOR of its
    variables' tables or its complement.  Clauses and rows over no spelled
    variable are ANDed once, into the table every block starts from.
    """
    width = f.free_count()
    if width > BRUTE_FORCE_CAP:
        raise CapExceeded(f"{width} free variables exceed the enumeration cap {BRUTE_FORCE_CAP}")
    if f.n_vars > 64:
        raise CapExceeded(f"{f.n_vars} variables do not fit a 64-bit code")
    free = [p for p in range(f.n_vars) if not f.assigned_mask >> p & 1]
    low, high = free[:_BLOCK_BITS], free[_BLOCK_BITS:]
    spelled = sum(1 << p for p in high)
    tables = _literal_tables()[:, : max(1, 1 << len(low) >> 6)]

    indexed = sum(1 << p for p in low)
    row_of = {1 << p: j for j, p in enumerate(low)}

    def literals(pos: int, neg: int = 0) -> list[int]:  # rows of ``tables``
        out = []
        for mask, shift in ((pos, 0), (neg, _BLOCK_BITS)):
            mask &= indexed
            while mask:
                bit = mask & -mask
                out.append(row_of[bit] + shift)
                mask ^= bit
        return out

    # Left open by f's assignment: clauses as (spelled pos, spelled neg,
    # literal rows), XOR rows as (spelled mask, folded rhs, literal rows).
    assigned, values = f.assigned_mask, f.value_bits
    clauses = [
        (pos & spelled, neg & spelled, literals(pos, neg))
        for pos, neg in f.cnf.masks
        if not values & pos | assigned & ~values & neg
    ]
    rows = [
        (mask & spelled, rhs ^ (values & mask).bit_count() & 1, literals(mask))
        for mask, rhs in f.xors.rows
    ]

    def restrict(table: np.ndarray, block_values: int, clauses, rows) -> bool:
        """AND the clauses and rows into ``table`` under the spelled variables'
        ``block_values``; False if they empty it."""
        for pos, neg, lits in clauses:
            if block_values & pos | ~block_values & neg:
                continue
            if not lits:
                return False
            table &= _fold(np.bitwise_or, tables, lits)
        for mask, rhs, lits in rows:
            rhs ^= (block_values & mask).bit_count() & 1
            if lits:  # an even parity complements the lead literal
                table &= _fold(np.bitwise_xor, tables, [lits[0] + (1 - rhs) * _BLOCK_BITS, *lits[1:]])
            elif rhs:
                return False
        return True

    start = np.full(tables.shape[1], 2**64 - 1, dtype=np.uint64)
    if len(low) < 6:  # one word, of which 2^len(low) bits are assignments
        start[0] = (1 << (1 << len(low))) - 1
    fixed = [c for c in clauses if not c[0] | c[1]], [r for r in rows if not r[0]]
    if not restrict(start, 0, *fixed):
        return
    clauses = [c for c in clauses if c[0] | c[1]]
    rows = [r for r in rows if r[0]]
    for block in range(1 << len(high)):
        table = start.copy()
        if restrict(table, sum(1 << p for i, p in enumerate(high) if block >> i & 1), clauses, rows):
            yield block, table


def brute_force_count(f: AugmentedFormula) -> int:
    """Exact solution count by exhaustive enumeration over free variables.

    More than ``BRUTE_FORCE_CAP`` (26) free variables raise ``CapExceeded``.
    Sums the set bits of ``_truth_tables``, which evaluates every clause and
    row on 2^18 assignments at a time.  One count of a random 3-CNF takes
    about 0.15 ms at 16 variables, 7 ms at 24 and 35 ms at 26 on a 2-vCPU
    Xeon VM (``BENCH_enumeration.json``); per-code evaluation took 3 ms,
    3 s and 12-15 s.
    """
    return sum(int(np.bitwise_count(table).sum()) for _, table in _truth_tables(f))


def solution_codes(cnf: CnfFormula) -> np.ndarray:
    """All satisfying assignments of a plain CNF as n-bit codes (bit v-1 = x_v).

    The set bits of ``_truth_tables``' blocks, decoded in ascending order:
    with no variable assigned, bit t of block b is the code b * 2^18 + t.
    About 0.3 ms for a 16-variable, 28-clause 3-CNF on a 2-vCPU Xeon VM
    (``BENCH_enumeration.json``).
    """
    low = min(cnf.n_vars, _BLOCK_BITS)
    parts = [np.zeros(0, dtype=np.uint64)]
    for block, table in _truth_tables(augment(cnf)):
        bits = np.unpackbits(table.astype("<u8", copy=False).view(np.uint8), bitorder="little")
        parts.append(np.flatnonzero(bits).astype(np.uint64) | np.uint64(block << low))
    return np.concatenate(parts)


class EnumerationDecider:
    """Exact oracle for descendants of one base CNF, backed by a solution table.

    Enumerates the base CNF's solutions once (``solution_codes``: more than
    ``BRUTE_FORCE_CAP`` = 26 variables raise ``CapExceeded``), then answers
    satisfiability of any formula over that CNF obtained by conjoining XOR
    rows and assigning variables — the query pattern of ``sparse_count``
    driven by ``sat_solve``; a formula over another CNF raises
    ``ValueError``.  Per rows object (a self-reduction shares one) it keeps
    the T solution codes satisfying the rows and a set of at most
    sum_j min(2^j, T) prefix keys (c & (2^j - 1)) | 2^j, j = 0..n.  An
    assignment of a variable prefix x_1..x_j is one lookup of values | 2^j;
    any other scans the kept codes.
    """

    def __init__(self, cnf: CnfFormula) -> None:
        self.cnf = cnf
        self.n = cnf.n_vars
        self.codes = solution_codes(cnf)
        self.calls = 0
        self._rows: Optional[tuple] = None  # the rows the table was filtered by
        self._kept: list[int] = []
        self._prefixes: set[int] = set()

    def __call__(self, f: AugmentedFormula) -> bool:
        if f.cnf is not self.cnf and f.cnf != self.cnf:
            raise ValueError("formula is over a different CNF from the decider's table")
        self.calls += 1
        if f.xors.rows is not self._rows:
            self._rows = f.xors.rows
            kept = self.codes[_rows_hold(self.codes, f.xors.rows)]
            self._kept = kept.tolist()
            # level n from Python ints: its marker 2^n overflows uint64 at n = 64
            self._prefixes = {c | 1 << self.n for c in self._kept}
            for j in range(self.n):
                marker = np.uint64(1 << j)
                self._prefixes.update((kept & (marker - np.uint64(1)) | marker).tolist())
        assigned, values = f.assigned_mask, f.value_bits
        if not assigned & (assigned + 1):
            return values | (assigned + 1) in self._prefixes
        return any(c & assigned == values for c in self._kept)


# --------------------------------------------------------------------------
# The counting algorithm.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SatSolveParams:
    """Parameters of one counting run.

    ``t`` fixes the number 2^t of independently hashed copies summed per
    level, ceil(delta*n/2 + 2 lg(1/eps)); ``sparsity_s`` is the analysis
    level 40 lg(2/delta)^2 / delta.  At small n that bound exceeds n, in
    which case sampling proceeds at the densest admissible support s = n
    (a dense row is pairwise independent, which only improves the variance
    the bound is protecting).
    """

    delta: float
    eps: float
    t: int
    sparsity_s: int

    @staticmethod
    def _check_ranges(delta: float, eps: float) -> None:
        if not 0.0 < delta < 1.0 / 3.0:
            raise ValueError("delta must lie in (0, 1/3)")
        if not 0.0 < eps < 1.0:
            raise ValueError("eps must lie in (0,1)")

    def __post_init__(self) -> None:
        self._check_ranges(self.delta, self.eps)
        if self.t < 1:
            raise ValueError("t must be positive")
        required = 40.0 * math.log2(2.0 / self.delta) ** 2 / self.delta
        if self.sparsity_s < required:
            raise ValueError(
                f"sparsity {self.sparsity_s} below the analysis bound {required:.1f}"
            )

    @classmethod
    def for_instance(cls, n_vars: int, delta: float, eps: float) -> "SatSolveParams":
        cls._check_ranges(delta, eps)  # before t and s divide by them
        t = max(1, math.ceil(delta * n_vars / 2.0 + 2.0 * math.log2(1.0 / eps)))
        s = math.ceil(40.0 * math.log2(2.0 / delta) ** 2 / delta)
        return cls(delta=delta, eps=eps, t=t, sparsity_s=s)


# The C in a caller-supplied oracle's per-call failure budget
# eps^2 / (C n 2^(delta n / 3)).
AMPLIFICATION_C = 16.0
# Refuse 2^t hashed copies per level beyond this (plainly infeasible).
MAX_T = 48


@dataclass(frozen=True)
class SatSolveConfig:
    """The one setting of a counting run that tests change.

    ``brute_force_constant`` is the 8 in the small-instance cutoff
    n / lg n <= 8/delta; setting it to 0 disables the brute-force branch so
    the hashing path can be exercised on instances small enough to verify
    exhaustively.  The enumeration cap, the amplification constant and the
    largest t are the module constants ``BRUTE_FORCE_CAP``,
    ``AMPLIFICATION_C`` and ``MAX_T``.
    """

    brute_force_constant: float = 8.0


DEFAULT_SAT_CONFIG = SatSolveConfig()


def _power_budget(exponent: float) -> int:
    """floor(2^exponent) as an exact integer budget.

    Comparing integer counts against floor(2^e) is equivalent to comparing
    against the real 2^e, so the floor loses nothing.
    """
    if exponent > 900:
        raise CapExceeded(f"budget 2^{exponent:.1f} is beyond representable scale")
    return int(math.floor(2.0**exponent))


def sat_solve(
    formula: CnfFormula,
    params: SatSolveParams,
    oracle: Callable[[AugmentedFormula], bool],
    rng: RngStream,
    *,
    config: SatSolveConfig = DEFAULT_SAT_CONFIG,
) -> Optional[int]:
    """Estimate the number of solutions within (1 ± eps), or report no estimate.

    Stages: (1) tiny instances are enumerated outright; (2) a budgeted
    self-reduction counts exactly when there are at most ~2^(t + delta n/2)
    solutions; (3) otherwise, for m = 0, 1, ... the solution set is thinned
    by independently sampled (s, m+t, n)-hashes, 2^t copies per level, each
    counted exactly under a shared budget — the first level whose copies
    all stay within budget returns 2^m times their sum.  Exhausting all
    levels yields None (the caller's "no estimate" outcome; the success
    guarantee makes this a probability <= 1/4 event).

    With probability at least 3/4 the returned value lies within
    (1 ± eps) of the true count, assuming a sound oracle.
    """
    n = formula.n_vars
    delta, eps, t = params.delta, params.eps, params.t

    # Small instances: solve outright.  (n/lg n is increasing for n >= 3.)
    if n <= 2 or (n / math.log2(n)) <= config.brute_force_constant / delta:
        return brute_force_count(augment(formula))

    base_budget = _power_budget(t + delta * n / 2.0)
    result = sparse_count(augment(formula), base_budget, oracle)
    if result is not None:
        return result

    if t > MAX_T:
        raise CapExceeded(f"2^{t} hashed copies per level is beyond desk scale")
    s_eff = min(params.sparsity_s, n)

    for m in range(0, n - t + 1):
        budget = _power_budget(t + delta * n / 2.0 + 2.0)
        copies = []
        for i in range(1 << t):
            system = sample_hash(s_eff, m + t, n, derive_stream(rng, f"hash-{m}-{i}"))
            hashed = conjoin(formula, system, derive_stream(rng, f"rhs-{m}-{i}"))
            res = sparse_count(hashed, budget, oracle)
            if res is None:
                break
            copies.append(res)
            budget -= res
        else:
            return (1 << m) * sum(copies)
    return None


def approx_count_cnf(
    formula: CnfFormula,
    eps: float,
    delta: float,
    rng: RngStream,
    *,
    config: SatSolveConfig = DEFAULT_SAT_CONFIG,
    oracle: Optional[Callable[[AugmentedFormula], bool]] = None,
) -> Optional[int]:
    """Top-level counter: a satisfiability oracle driving sat_solve.

    For eps below 2^-n an exact count is at least as cheap as estimating,
    so it is returned directly.  Otherwise the counting run executes at
    delta/3 (whose sparsity requirement 40 lg(2/(delta/3))^2/(delta/3)
    equals the 120 lg(6/delta)^2/delta level this wrapper is specified at).
    Without an ``oracle`` the exact backtracking decider answers every
    query once; a caller-supplied oracle is assumed to err with probability
    <= 1/3 and is majority-amplified to a per-call failure of
    eps^2 / (C n 2^(delta n/3)).  Success probability >= 2/3.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    n = formula.n_vars
    if eps < 2.0 ** (-n):
        return brute_force_count(augment(formula))

    params = SatSolveParams.for_instance(n, delta / 3.0, eps)
    if oracle is None:
        # Repeating a deterministic decider would only repeat its answer.
        oracle = lambda f: decide_pi_ks(f, free_var_cap=BRUTE_FORCE_CAP)
    else:
        target = eps**2 / (AMPLIFICATION_C * n * 2.0 ** (delta * n / 3.0))
        oracle = amplify(oracle, max(target, 1e-300))
    return sat_solve(formula, params, oracle, rng, config=config)


# --------------------------------------------------------------------------
# DIMACS with an XOR extension line.
# --------------------------------------------------------------------------


def parse_dimacs(text: str) -> AugmentedFormula:
    """Parse DIMACS CNF; lines "x <rhs> v:c v:c ... 0" add XOR rows.

    Each x-line follows the header and folds into one (mask, rhs) row: the
    rhs and every coefficient c are bits, each v lies in [1, n] and appears
    once in its line, and an entry with c = 0 sets no bit.  The header's
    clause count covers the CNF clauses only, as written by
    ``write_dimacs``.  Anything else raises ``ValueError``.
    """
    n_vars = None
    n_clauses = 0
    clauses: list[tuple[int, ...]] = []
    rows: list[tuple[int, int]] = []
    pending: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) < 4 or parts[1] != "cnf":
                raise ValueError(f"bad problem line: {line!r}")
            n_vars, n_clauses = int(parts[2]), int(parts[3])
            continue
        if line.startswith("x"):
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"XOR line without a right-hand side: {line!r}")
            if n_vars is None:
                raise ValueError(f"XOR line before the 'p cnf' header: {line!r}")
            rhs = int(parts[1])
            seen = mask = 0
            for token in parts[2:]:
                if token == "0":
                    break
                v, _, c = token.partition(":")
                v, c = int(v), int(c or 2)  # a bare "v" fails the bit check
                if not 1 <= v <= n_vars or seen >> (v - 1) & 1 or c not in (0, 1):
                    raise ValueError(f"bad XOR entry {token!r} in {line!r}")
                seen |= 1 << (v - 1)
                mask |= c << (v - 1)
            rows.append((mask, rhs))
            continue
        for token in line.split():
            lit = int(token)
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
            else:
                pending.append(lit)
    if pending:
        clauses.append(tuple(pending))
    if n_vars is None:
        raise ValueError("missing 'p cnf' header")
    if len(clauses) != n_clauses:
        raise ValueError(f"header declares {n_clauses} clauses, found {len(clauses)}")
    width = max([len(c) for c in clauses] + [1])
    cnf = CnfFormula(n_vars=n_vars, width_k=width, clauses=tuple(clauses))
    return AugmentedFormula(cnf=cnf, xors=SparseXorSystem(n_vars, tuple(rows)))


def write_dimacs(f: Union[CnfFormula, AugmentedFormula]) -> str:
    """Serialize to DIMACS (plus x-lines when XOR rows are present).

    An x-line lists "v:1" for each set bit of the row's mask.  DIMACS cannot
    hold a partial assignment: a formula with one is refused.
    """
    if isinstance(f, CnfFormula):
        f = augment(f)
    if f.assigned_mask:
        raise ValueError("a partially assigned formula has no DIMACS form")
    lines = [f"p cnf {f.cnf.n_vars} {len(f.cnf.clauses)}"]
    for clause in f.cnf.clauses:
        lines.append(" ".join([str(l) for l in clause] + ["0"]))
    for mask, rhs in f.xors.rows:
        entries = [f"{p + 1}:1" for p in range(f.n_vars) if mask >> p & 1]
        lines.append(" ".join(["x", str(rhs), *entries, "0"]))
    return "\n".join(lines) + "\n"
