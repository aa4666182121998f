"""Sparse counting, hashing, deciders, and the counting pipeline."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fgcount import satcount
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem
from fgcount.rng import RngStream, derive_stream
from fgcount.satcount import (
    AugmentedFormula,
    CapExceeded,
    CnfFormula,
    EnumerationDecider,
    SatSolveConfig,
    SatSolveParams,
    SparseXorSystem,
    approx_count_cnf,
    augment,
    brute_force_count,
    conjoin,
    decide_pi_ks,
    parse_dimacs,
    sample_hash,
    sat_solve,
    solution_codes,
    sparse_count,
    write_dimacs,
)


class CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, f):
        self.calls += 1
        return self.fn(f)


def random_cnf(gen, n, m, k=3):
    clauses = []
    for _ in range(m):
        vs = gen.choice(n, size=min(k, n), replace=False) + 1
        signs = gen.integers(0, 2, size=vs.size)
        clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(vs, signs)))
    return CnfFormula(n_vars=n, width_k=k, clauses=tuple(clauses))


# -- formula plumbing --------------------------------------------------------


def test_assigned_formula_counts_the_completions_of_the_assignment():
    cnf = CnfFormula(3, 3, ((1, 2), (-1, 3), (-2,)))
    rows = SparseXorSystem(3, ((0b011, 1),))  # x1 + x2 = 1
    f = AugmentedFormula(cnf=cnf, xors=rows)
    g = f.assign(1, 1)
    # x1 = 1 leaves x2 = 0 (row and third clause) and x3 = 1 (second clause)
    assert brute_force_count(g) == 1
    assert decide_pi_ks(g) is True
    assert g.cnf is f.cnf and g.xors is f.xors
    assert (g.assigned_mask, g.value_bits) == (0b1, 0b1)
    h = g.assign(3, 0)
    assert (h.assigned_mask, h.value_bits) == (0b101, 0b001)
    assert AugmentedFormula(cnf, rows, h.assigned_mask, h.value_bits) == h
    # the two branches on a variable split the parent's solutions
    for var in (1, 2, 3):
        assert brute_force_count(f.assign(var, 0)) + brute_force_count(f.assign(var, 1)) == (
            brute_force_count(f)
        )
    with pytest.raises(ValueError):
        g.assign(1, 0)


def test_assignment_masks_are_validated():
    cnf = CnfFormula(3, 1, ())
    rows = SparseXorSystem(3)
    for assigned, values in ((0b001, 0b010), (0b1000, 0), (-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            AugmentedFormula(cnf, rows, assigned, values)
    with pytest.raises(ValueError):
        AugmentedFormula(cnf, SparseXorSystem(2))
    f = AugmentedFormula(cnf, rows, 0b111, 0b101)
    assert f.free_count() == 0
    g = augment(cnf).assign(2, 1)
    for var, value in ((0, 1), (4, 1), (1, 2), (2, 0), (2, 1)):
        with pytest.raises(ValueError):
            g.assign(var, value)
    # numpy integers give the same Python-int masks, beyond 64 variables too
    wide = augment(CnfFormula(70, 1, ()))
    assert wide.assign(np.int64(70), 1) == wide.assign(70, 1)
    assert type(g.assign(np.int64(3), 1).assigned_mask) is int


def test_assignment_can_make_a_formula_unsatisfiable():
    f = augment(CnfFormula(1, 1, ((1,),)))
    g = f.assign(1, 0)  # falsifies the only clause
    assert brute_force_count(g) == 0
    assert decide_pi_ks(g) is False
    h = AugmentedFormula(
        cnf=CnfFormula(1, 1, ()),
        xors=SparseXorSystem(1, ((0b1, 1),)),
    ).assign(1, 0)  # violates x1 = 1
    assert brute_force_count(h) == 0
    assert decide_pi_ks(h) is False


def test_xor_row_satisfied_by_an_assignment_leaves_other_variables_free():
    f = AugmentedFormula(
        cnf=CnfFormula(2, 1, ()),
        xors=SparseXorSystem(2, ((0b01, 1),)),
    )
    g = f.assign(1, 1)
    assert brute_force_count(g) == 2
    assert decide_pi_ks(g) is True


def test_xor_system_rows_are_validated():
    assert SparseXorSystem(3).rows == ()
    assert SparseXorSystem(3, [(np.int64(0b101), np.int64(1))]).rows == ((0b101, 1),)
    for rows in (
        ((-1, 0),),  # negative mask
        ((0b1000, 0),),  # x4 at n = 3
        ((0b1, 2),),  # rhs not a bit
        ((0b1, 0),) * 4,  # more rows than variables
    ):
        with pytest.raises(ValueError):
            SparseXorSystem(3, rows)


# -- sparse_count ------------------------------------------------------------


def oracle_dpll(f):
    return decide_pi_ks(f)


def test_sparse_count_unsatisfiable_is_zero():
    f = augment(CnfFormula(2, 3, ((1,), (-1,))))
    assert sparse_count(f, 10, oracle_dpll) == 0


def test_sparse_count_no_variables_is_one():
    f = augment(CnfFormula(0, 1, ()))
    assert sparse_count(f, 1, oracle_dpll) == 1


def test_sparse_count_budget_boundary():
    f = augment(CnfFormula(2, 3, ((1, 2),)))
    assert sparse_count(f, 3, oracle_dpll) == 3
    assert sparse_count(f, 2, oracle_dpll) is None


def test_sparse_count_matches_exhaustive_on_random_pairs():
    gen = np.random.default_rng(90)
    for _ in range(120):
        n = int(gen.integers(1, 13))
        m = int(gen.integers(0, 3 * n + 1))
        f = augment(random_cnf(gen, n, m))
        exact = brute_force_count(f)
        budget = int(gen.integers(0, 2**n + 2))
        result = sparse_count(f, budget, oracle_dpll)
        if exact <= budget:
            assert result == exact
        else:
            assert result is None


def test_sparse_count_oracle_budget():
    gen = np.random.default_rng(91)
    for _ in range(40):
        n = int(gen.integers(2, 13))
        f = augment(random_cnf(gen, n, int(gen.integers(0, 2 * n))))
        exact = brute_force_count(f)
        budget = int(gen.integers(0, 2**n + 2))
        oracle = CountingOracle(oracle_dpll)
        sparse_count(f, budget, oracle)
        assert oracle.calls <= 8 * n * (min(budget, exact) + 1)


def test_sparse_count_aborts_the_whole_computation():
    # Once the budget is exhausted, no further oracle calls may happen.
    f = augment(CnfFormula(6, 1, ()))  # 64 solutions
    oracle = CountingOracle(oracle_dpll)
    assert sparse_count(f, 3, oracle) is None
    burned = oracle.calls
    # counting 3+1 solutions at depth 6 plus pruning takes far fewer calls
    # than visiting the whole tree
    assert burned <= 8 * 6 * 4


_ONE_SOLUTION = CnfFormula(2, 1, ((1,), (2,)))  # x1 = x2 = 1
_TWO_SOLUTIONS = CnfFormula(2, 1, ((1,),))  # x1 = 1


@pytest.mark.parametrize("formula, budget, result, calls", [
    (augment(CnfFormula(0, 1, ())), 5, 1, 1),
    (augment(_ONE_SOLUTION).assign(2, 1).assign(1, 1), 5, 1, 1),
    (augment(_ONE_SOLUTION).assign(2, 1).assign(1, 0), 5, 0, 1),
    (augment(_ONE_SOLUTION), 0, None, 5),
    (augment(_ONE_SOLUTION), 1, 1, 5),
    (augment(_TWO_SOLUTIONS), 1, None, 5),
], ids=["no-variables", "fully-assigned", "fully-assigned-unsat", "budget-0-one-solution",
        "budget-1-one-solution", "budget-1-two-solutions"])
def test_sparse_count_edges(formula, budget, result, calls):
    oracle = CountingOracle(oracle_dpll)
    assert sparse_count(formula, budget, oracle) == result
    assert oracle.calls == calls


# -- hashing -----------------------------------------------------------------


def reference_hash_masks(s, m, n, rng):
    """The masks sample_hash must draw: per row a choice of s variables,
    sorted, then s coefficient bits for them in increasing variable order."""
    gen = rng.generator()
    masks = []
    for _ in range(m):
        support = sorted(int(p) for p in gen.choice(n, size=s, replace=False))
        coeffs = [int(c) for c in gen.integers(0, 2, size=s)]
        mask = 0
        for p, c in zip(support, coeffs):
            if c:
                mask |= 1 << p
        masks.append(mask)
    return masks


def test_sample_hash_support_sizes():
    system = sample_hash(4, 3, 20, RngStream(1))
    assert system.n_vars == 20
    assert [mask for mask, _ in system.rows] == reference_hash_masks(4, 3, 20, RngStream(1))
    for mask, rhs in system.rows:
        assert 0 <= mask < 1 << 20 and mask.bit_count() <= 4
        assert rhs == 0  # right-hand sides are drawn at conjoin time


def test_sample_hash_full_support_when_s_equals_n():
    # every variable is in the support, so a mask is exactly the coefficient bits
    system = sample_hash(5, 2, 5, RngStream(2))
    assert [mask for mask, _ in system.rows] == reference_hash_masks(5, 2, 5, RngStream(2))


def test_sample_hash_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_hash(6, 1, 5, RngStream(1))
    with pytest.raises(ValueError):
        sample_hash(2, 6, 5, RngStream(1))


def test_hash_hits_fixed_point_with_probability_two_to_minus_m():
    # For any fixed x, P(Ax = b) = 2^-m over the draw of (A, b).
    m, s, n = 3, 4, 20
    x_bits = np.random.default_rng(7).integers(0, 2, size=n)
    x_code = sum(int(b) << (v - 1) for v, b in enumerate(x_bits, start=1))
    master = RngStream(33)
    hits = 0
    trials = 40_000
    for i in range(trials):
        system = sample_hash(s, m, n, derive_stream(master, f"A-{i}"))
        f = conjoin(CnfFormula(n, 3, ()), system, derive_stream(master, f"b-{i}"))
        hits += all((mask & x_code).bit_count() % 2 == rhs for mask, rhs in f.xors.rows)
    p = hits / trials
    sigma = math.sqrt(2**-m * (1 - 2**-m) / trials)
    assert abs(p - 2**-m) <= 3 * sigma


def test_conjoin_zero_rows_preserves_solutions():
    gen = np.random.default_rng(8)
    f = random_cnf(gen, 8, 12)
    g = conjoin(f, SparseXorSystem(8), RngStream(3))
    assert brute_force_count(g) == brute_force_count(augment(f))


def test_conjoin_keeps_unsatisfiable_unsatisfiable():
    f = CnfFormula(4, 2, ((1,), (-1,)))
    system = sample_hash(2, 2, 4, RngStream(4))
    g = conjoin(f, system, RngStream(5))
    assert brute_force_count(g) == 0


def test_conjoin_deterministic_rhs():
    f = CnfFormula(6, 3, ())
    system = sample_hash(3, 4, 6, RngStream(6))
    a = conjoin(f, system, RngStream(7))
    b = conjoin(f, system, RngStream(7))
    assert a.xors.rows == b.xors.rows


def test_conjoin_dimension_mismatch():
    with pytest.raises(ValueError):
        conjoin(CnfFormula(4, 3, ()), sample_hash(2, 2, 5, RngStream(1)), RngStream(2))


# -- deciders ----------------------------------------------------------------


def test_decide_empty_formula_true():
    assert decide_pi_ks(augment(CnfFormula(0, 1, ()))) is True


def test_decide_contradiction_false():
    assert decide_pi_ks(augment(CnfFormula(1, 1, ((1,), (-1,))))) is False


def test_decide_respects_cap():
    with pytest.raises(CapExceeded):
        decide_pi_ks(augment(CnfFormula(40, 3, ())), free_var_cap=32)


def test_decide_agrees_with_enumeration_on_augmented_instances():
    # Random width-3 formulas near the satisfiability threshold plus four
    # XOR rows: both answers occur often.
    gen = np.random.default_rng(100)
    pick = np.random.default_rng(106)  # assignments; leaves gen's formulas as they were
    master = RngStream(101)
    answers = {True: 0, False: 0}
    for trial in range(200):
        n = 16
        f = random_cnf(gen, n, 60)
        system = sample_hash(
            int(gen.integers(2, n + 1)), 4, n, derive_stream(master, f"h{trial}")
        )
        aug = conjoin(f, system, derive_stream(master, f"b{trial}"))
        enum = EnumerationDecider(f)
        # the root, a prefix x1..xj and a random (rarely prefix) subset
        j = int(pick.integers(1, n))
        subset = pick.choice(n, size=int(pick.integers(1, n)), replace=False) + 1
        for vs in ((), range(1, j + 1), subset):
            g = aug
            for v in vs:
                g = g.assign(int(v), int(pick.integers(0, 2)))
            got = decide_pi_ks(g)
            answers[got] += 1
            assert got == (brute_force_count(g) > 0)
            assert enum(g) == got
    assert answers[True] > 0 and answers[False] > 0


def test_enumeration_decider_matches_dpll_along_self_reduction():
    gen = np.random.default_rng(102)
    master = RngStream(103)
    n = 10
    f = random_cnf(gen, n, 18)
    enum = EnumerationDecider(f)  # one decider for every hashed copy, as in sat_solve
    for trial in range(10):
        system = sample_hash(n, 3, n, derive_stream(master, f"h{trial}"))
        aug = conjoin(f, system, derive_stream(master, f"b{trial}"))
        r1 = sparse_count(aug, 1 << n, enum)
        r2 = sparse_count(aug, 1 << n, oracle_dpll)
        assert r1 == r2
        assert r1 == brute_force_count(aug)


def test_enumeration_decider_handles_non_prefix_assignments():
    gen = np.random.default_rng(104)
    f = random_cnf(gen, 8, 14)
    enum = EnumerationDecider(f)
    aug = augment(f).assign(5, 1).assign(2, 0)  # not a variable prefix
    assert enum(aug) == decide_pi_ks(aug)


class RecordingOracle:
    """Answers through ``fn`` and records each query's masks and answer."""

    def __init__(self, fn):
        self.fn = fn
        self.log = []

    def __call__(self, f):
        answer = self.fn(f)
        self.log.append((f.assigned_mask, f.value_bits, answer))
        return answer


def test_enumeration_decider_answers_as_dpll_call_for_call():
    # Hashed copies of random 16-variable CNFs, some with so many rows that
    # no solution survives, each counted from the root (j = 0 through the
    # full assignments j = n) and from a non-prefix partial assignment.
    gen = np.random.default_rng(107)
    master = RngStream(108)
    n = 16
    counts = []
    for trial in range(12):
        f = random_cnf(gen, n, 28)
        enum = EnumerationDecider(f)
        system = sample_hash(n, int(gen.integers(3, 13)), n, derive_stream(master, f"h{trial}"))
        aug = conjoin(f, system, derive_stream(master, f"b{trial}"))
        for start in (aug, aug.assign(5, 1).assign(2, 0)):
            by_enum, by_dpll = RecordingOracle(enum), RecordingOracle(oracle_dpll)
            result = sparse_count(start, 1 << n, by_enum)
            assert result == sparse_count(start, 1 << n, by_dpll)
            assert by_enum.log == by_dpll.log
            assert result == brute_force_count(start)
            counts.append(result)
            assert (start.assigned_mask, start.value_bits) == by_enum.log[0][:2]
    assert 0 in counts and max(counts) > 1


def test_enumeration_decider_prefix_keys_at_64_variables(monkeypatch):
    # Full assignments at n = 64 need the prefix marker 2^64, beyond uint64.
    # A 64-variable table is too large to enumerate, so the decider is
    # handed a two-code one.
    top = 1 << 63
    table = np.array([top | 5, 6], dtype=np.uint64)
    monkeypatch.setattr(satcount, "solution_codes", lambda cnf: table)
    cnf = CnfFormula(64, 1, ())
    enum = EnumerationDecider(cnf)

    def prefix(value_bits, j):
        return AugmentedFormula(cnf, SparseXorSystem(64), (1 << j) - 1, value_bits)

    assert enum(prefix(0, 0))
    assert enum(prefix(top | 5, 64)) and enum(prefix(6, 64))
    assert not enum(prefix(5, 64)) and not enum(prefix(top | 6, 64))
    assert enum(prefix(5, 63)) and enum(prefix(6, 63)) and not enum(prefix(7, 63))
    assert enum(prefix(1, 1)) and enum(prefix(0, 1))
    assert not enum(prefix(3, 2)) and enum(prefix(1, 2))


def test_enumeration_decider_refuses_a_formula_over_another_cnf():
    enum = EnumerationDecider(CnfFormula(2, 1, ((1,),)))
    other = augment(CnfFormula(2, 1, ((-1,),))).assign(1, 1)  # unsatisfiable
    with pytest.raises(ValueError):
        enum(other)
    # an equal CNF built separately is the same formula
    assert enum(augment(CnfFormula(2, 1, ((1,),))).assign(1, 1)) is True
    assert enum.calls == 1


def test_solution_codes_agree_with_count():
    gen = np.random.default_rng(105)
    for _ in range(20):
        f = random_cnf(gen, int(gen.integers(1, 11)), int(gen.integers(0, 25)))
        assert solution_codes(f).size == brute_force_count(augment(f))


def _reference_codes(f: AugmentedFormula, candidates=None) -> list[int]:
    """The solutions of ``f`` among ``candidates`` (default: every n-bit code),
    checking each code with int arithmetic."""
    out = []
    clauses, rows = f.cnf.masks, f.xors.rows
    for c in range(1 << f.n_vars) if candidates is None else candidates:
        if c & f.assigned_mask != f.value_bits:
            continue
        for pos, neg in clauses:
            if not c & pos | ~c & neg:
                break
        else:
            for mask, rhs in rows:
                if (c & mask).bit_count() & 1 != rhs:
                    break
            else:
                out.append(c)
    return out


# 0, 1 and 5..7 variables sit around one 64-bit word, 17..20 around 2^18 bits
@pytest.mark.parametrize("n", [0, 1, 5, 6, 7, 17, 18, 19, 20])
def test_enumeration_matches_a_per_assignment_reference(n):
    gen = np.random.default_rng(107 + n)
    formulas = [CnfFormula(n, 1, ()), CnfFormula(n, 1, ((),))]
    if n:
        random = random_cnf(gen, n, int(gen.integers(0, 4 * n + 1)))
        tautology = (1, -1) + ((2,) if n > 1 else ())
        formulas.append(CnfFormula(n, 3, random.clauses + (tautology,)))
    for cnf in formulas:
        plain = _reference_codes(augment(cnf))
        codes = solution_codes(cnf)
        assert codes.dtype == np.uint64
        assert codes.tolist() == plain
        assert np.all(np.diff(codes.astype(np.int64)) > 0)
    # the last formula again under XOR rows and no, one or many assigned
    # variables; the reference filters its solutions, not all 2^n codes again
    for assigned in (0, 1 << int(gen.integers(0, n)), int(gen.integers(0, 1 << n))) if n else (0,):
        rows = tuple(
            (int(gen.integers(0, 1 << n)), int(gen.integers(0, 2)))
            for _ in range(int(gen.integers(0, min(n, 5) + 1)))
        )
        values = int(gen.integers(0, 1 << n)) & assigned
        f = AugmentedFormula(cnf, SparseXorSystem(n, rows), assigned, values)
        assert brute_force_count(f) == len(_reference_codes(f, plain))


def test_enumeration_at_the_cap():
    gen = np.random.default_rng(108)
    cnf = random_cnf(gen, 26, 60)
    f = AugmentedFormula(cnf, sample_hash(6, 2, 26, RngStream(108)))
    total = brute_force_count(f)
    assert total > 0
    # x3 indexes the bits of a table, x24 is spelled by a block number
    for var in (3, 24):
        assert brute_force_count(f.assign(var, 0)) + brute_force_count(f.assign(var, 1)) == total
    with pytest.raises(CapExceeded, match="^27 free variables exceed the enumeration cap 26$"):
        brute_force_count(augment(CnfFormula(27, 1, ())))
    wide = CnfFormula(65, 1, ())
    f = AugmentedFormula(wide, SparseXorSystem(65), (1 << 65) - 1 - 0b111, 0)
    with pytest.raises(CapExceeded, match="^65 variables do not fit a 64-bit code$"):
        brute_force_count(f)


# -- sat_solve ---------------------------------------------------------------


def test_params_formulas():
    p = SatSolveParams.for_instance(18, 0.3, 0.3)
    assert p.t == math.ceil(0.3 * 18 / 2 + 2 * math.log2(1 / 0.3))
    assert p.sparsity_s >= 40 * math.log2(2 / 0.3) ** 2 / 0.3
    with pytest.raises(ValueError):
        SatSolveParams.for_instance(18, 0.5, 0.3)  # delta must be < 1/3
    with pytest.raises(ValueError):
        SatSolveParams(delta=0.3, eps=0.3, t=5, sparsity_s=3)  # s below bound


@pytest.mark.parametrize("delta, eps", [(0.0, 0.3), (-0.1, 0.3), (0.3, 0.0), (0.3, 1.0)])
def test_params_reject_delta_and_eps_out_of_range(delta, eps):
    # checked before t and s are computed, which divide by delta and eps
    with pytest.raises(ValueError):
        SatSolveParams.for_instance(18, delta, eps)


def test_small_instances_brute_forced():
    # n / lg n = 8 / 3 <= 8 / delta for any delta < 1/3: stage-one exact.
    gen = np.random.default_rng(110)
    f = random_cnf(gen, 8, 20)
    params = SatSolveParams.for_instance(8, 0.3, 0.3)
    value = sat_solve(f, params, oracle_dpll, RngStream(1))
    assert value == brute_force_count(augment(f))


def test_unsat_returns_zero_through_budgeted_stage():
    # With the brute-force stage disabled, an unsatisfiable formula is
    # settled by the first oracle call of the budgeted self-reduction.
    f = CnfFormula(12, 2, ((1,), (-1,)))
    params = SatSolveParams.for_instance(12, 0.3, 0.3)
    cfg = SatSolveConfig(brute_force_constant=0.0)
    oracle = CountingOracle(oracle_dpll)
    assert sat_solve(f, params, oracle, RngStream(2), config=cfg) == 0
    assert oracle.calls == 1


def test_few_solutions_counted_exactly_through_budgeted_stage():
    f = CnfFormula(12, 1, tuple((v,) for v in range(1, 11)))  # forces x1..x10
    params = SatSolveParams.for_instance(12, 0.3, 0.3)
    cfg = SatSolveConfig(brute_force_constant=0.0)
    assert sat_solve(f, params, oracle_dpll, RngStream(3), config=cfg) == 4


def test_hashing_stage_estimates_within_tolerance():
    # Exercise the level loop on instances small enough to verify
    # exhaustively; at these parameters concentration is strong, so a large
    # majority of seeded runs must land within (1 +- eps).
    gen = np.random.default_rng(111)
    f = random_cnf(gen, 16, 28)
    exact = brute_force_count(augment(f))
    assert exact > 0
    params = SatSolveParams.for_instance(16, 0.3, 0.3)
    cfg = SatSolveConfig(brute_force_constant=0.0)
    good = 0
    trials = 15
    for t in range(trials):
        enum = EnumerationDecider(f)
        v = sat_solve(f, params, enum, derive_stream(RngStream(112), f"t{t}"), config=cfg)
        assert v is not None
        assert 0 <= v <= 2**16
        if abs(v - exact) <= 0.3 * exact:
            good += 1
    assert good >= trials - 2


def test_output_bounds_property():
    # Whatever the run does, the output is None or an integer in [0, 2^n].
    gen = np.random.default_rng(113)
    cfg = SatSolveConfig(brute_force_constant=0.0)
    for trial in range(25):
        n = int(gen.integers(8, 15))
        f = random_cnf(gen, n, int(gen.integers(0, 4 * n)))
        params = SatSolveParams.for_instance(n, 0.3, 0.3)
        v = sat_solve(f, params, EnumerationDecider(f),
                      derive_stream(RngStream(114), f"p{trial}"), config=cfg)
        if v is not None:
            assert 0 <= v <= 2**n


def test_all_levels_failing_returns_no_estimate():
    # An oracle that always answers "satisfiable" makes every hashed count
    # blow through its budget, so every level fails and there is no estimate.
    f = CnfFormula(12, 3, ())
    params = SatSolveParams.for_instance(12, 0.3, 0.3)
    cfg = SatSolveConfig(brute_force_constant=0.0)
    value = sat_solve(f, params, lambda g: True, RngStream(4), config=cfg)
    assert value is None


def test_counting_runs_are_pinned():
    # Values and oracle-call counts of fixed runs: a refactor that keeps the
    # counter's behaviour keeps every one of them exactly.
    cfg = SatSolveConfig(brute_force_constant=0.0)
    params = SatSolveParams.for_instance(16, 0.3, 0.3)
    pinned = {
        (1, 1): (926, 23565), (1, 2): (907, 22809),
        (3, 1): (876, 23063), (3, 2): (955, 24381),
        (11, 1): (885, 22466), (11, 2): (892, 22756),
    }
    for (spec_seed, seed), expected in pinned.items():
        # 16-variable 3-CNFs with 700-1000 solutions, as in the benchmark
        f = generate(GeneratorSpec(problem=Problem.CNF, n=16, clause_count=28, seed=spec_seed))
        enum = EnumerationDecider(f)
        value = sat_solve(f, params, enum, RngStream(seed), config=cfg)
        assert (value, enum.calls) == expected
    f = generate(GeneratorSpec(problem=Problem.CNF, n=20, clause_count=80, seed=5))
    assert approx_count_cnf(f, 0.4, 0.3, RngStream(7), config=cfg) == 36  # exact 39
    # the pairs of test_sparse_count_matches_exhaustive_on_random_pairs
    gen = np.random.default_rng(90)
    records = []
    for _ in range(120):
        n = int(gen.integers(1, 13))
        f = augment(random_cnf(gen, n, int(gen.integers(0, 3 * n + 1))))
        oracle = CountingOracle(oracle_dpll)
        result = sparse_count(f, int(gen.integers(0, 2**n + 2)), oracle)
        records.append((result, oracle.calls))
    assert sum(calls for _, calls in records) == 43103
    assert hashlib.sha256(repr(records).encode()).hexdigest() == (
        "d5889b91bc54521cbee649cbe9dbe50d15e4d12aefb9d83bfeb276c1abdb3cc4"
    )


# -- approx_count_cnf --------------------------------------------------------


def test_wrapper_tiny_formula_exact():
    f = CnfFormula(2, 2, ((1, 2),))
    for seed in range(10):
        assert approx_count_cnf(f, 0.5, 0.3, RngStream(seed)) == 3


def test_wrapper_eps_below_two_to_minus_n_is_exact():
    gen = np.random.default_rng(120)
    f = random_cnf(gen, 10, 20)
    eps = 2.0**-11
    assert approx_count_cnf(f, eps, 0.3, RngStream(1)) == brute_force_count(augment(f))


def test_wrapper_validates_inputs():
    f = CnfFormula(2, 2, ())
    with pytest.raises(ValueError):
        approx_count_cnf(f, 0.0, 0.3, RngStream(1))
    with pytest.raises(ValueError):
        approx_count_cnf(f, 0.5, 1.0, RngStream(1))


def test_wrapper_medium_formula_within_tolerance():
    gen = np.random.default_rng(121)
    f = random_cnf(gen, 18, 42)
    exact = brute_force_count(augment(f))
    v = approx_count_cnf(f, 0.4, 0.3, RngStream(5))
    # stage-one exact path at this size
    assert v == exact


def test_wrapper_n20_random_formulas():
    gen = np.random.default_rng(122)
    for seed in range(5):
        f = random_cnf(gen, 20, 80)
        exact = brute_force_count(augment(f))
        v = approx_count_cnf(f, 0.4, 0.3, RngStream(seed))
        assert v is not None
        assert abs(v - exact) <= 0.4 * exact


def test_wrapper_calls_the_builtin_decider_once_per_query(monkeypatch):
    # The built-in decider is exact, so the wrapper must not repeat it.
    base_calls = 0
    queries = 0
    decide = satcount.decide_pi_ks
    count = satcount.sparse_count

    def counted_decide(f, **kwargs):
        nonlocal base_calls
        base_calls += 1
        return decide(f, **kwargs)

    def counted_count(formula, budget, oracle):
        def query(f):
            nonlocal queries
            queries += 1
            return oracle(f)

        return count(formula, budget, query)

    monkeypatch.setattr(satcount, "decide_pi_ks", counted_decide)
    monkeypatch.setattr(satcount, "sparse_count", counted_count)
    f = CnfFormula(10, 1, tuple((v,) for v in range(1, 8)))  # 8 solutions
    cfg = SatSolveConfig(brute_force_constant=0.0)
    assert approx_count_cnf(f, 0.3, 0.3, RngStream(6), config=cfg) == 8
    assert queries > 0
    assert base_calls == queries


# -- DIMACS ------------------------------------------------------------------


def test_dimacs_round_trip_plain():
    gen = np.random.default_rng(130)
    f = random_cnf(gen, 9, 15)
    g = parse_dimacs(write_dimacs(f))
    assert g.cnf.n_vars == f.n_vars
    assert g.cnf.clauses == f.clauses
    assert g.xors.rows == ()


def test_dimacs_round_trip_augmented():
    f = CnfFormula(5, 3, ((1, -2, 4),))
    rows = SparseXorSystem(5, ((0b10001, 1),))  # x1 + x5 = 1
    aug = AugmentedFormula(cnf=f, xors=rows)
    g = parse_dimacs(write_dimacs(aug))
    assert g.cnf.clauses == f.clauses
    assert g.xors.rows == rows.rows


def test_dimacs_refuses_a_partial_assignment():
    f = augment(CnfFormula(2, 2, ((1, 2),)))
    assert brute_force_count(f.assign(1, 0)) == 1
    with pytest.raises(ValueError):
        write_dimacs(f.assign(1, 0))
    assert brute_force_count(parse_dimacs(write_dimacs(f))) == 3


def test_dimacs_rejects_missing_header():
    with pytest.raises(ValueError):
        parse_dimacs("1 2 0\n")


def test_dimacs_rejects_xor_line_without_rhs():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 1\n1 2 0\nx\n")


def test_dimacs_rejects_clause_count_mismatch():
    with pytest.raises(ValueError):
        parse_dimacs("p cnf 3 5\n1 2 0\n")


@pytest.mark.parametrize("xor_lines", [
    "x 1 0:1 0",  # variable 0
    "x 1 4:1 0",  # above n
    "x 1 1:1 1:0 0",  # repeated variable
    "x 1 1:2 0",  # coefficient not a bit
    "x 2 1:1 0",  # rhs not a bit
    "x 1 3 0",  # entry without a coefficient
    "x 0 1:1 0\nx 1 2:1 0\nx 0 3:1 0\nx 1 1:1 2:1 0",  # four rows at n = 3
])
def test_dimacs_rejects_malformed_xor_lines(xor_lines):
    with pytest.raises(ValueError):
        parse_dimacs(f"p cnf 3 1\n1 2 0\n{xor_lines}\n")


def test_dimacs_xor_line_needs_the_header_first():
    with pytest.raises(ValueError):
        parse_dimacs("x 1 1:1 0\np cnf 3 1\n1 2 0\n")


def test_dimacs_zero_coefficients_are_accepted_and_not_written_back():
    f = parse_dimacs("p cnf 3 1\n1 2 0\nx 1 1:1 2:0 3:1 0\n")
    assert f.xors.rows == ((0b101, 1),)
    text = write_dimacs(f)
    assert text.splitlines()[-1] == "x 1 1:1 3:1 0"
    assert parse_dimacs(text) == f


@st.composite
def augmented_formulas(draw):
    n = draw(st.integers(1, 8))
    literal = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    clauses = draw(st.lists(st.lists(literal, max_size=4).map(tuple), max_size=6))
    width = max([len(c) for c in clauses] + [1])
    rows = []
    for _ in range(draw(st.integers(0, n))):
        support = draw(st.lists(st.integers(1, n), max_size=n, unique=True))
        coeffs = draw(st.lists(st.integers(0, 1), min_size=len(support),
                               max_size=len(support)))
        mask = sum(c << (v - 1) for v, c in zip(support, coeffs))
        rows.append((mask, draw(st.integers(0, 1))))
    system = SparseXorSystem(n, tuple(rows))
    return AugmentedFormula(cnf=CnfFormula(n, width, tuple(clauses)), xors=system)


@settings(max_examples=200, deadline=None)
@given(augmented_formulas())
def test_dimacs_round_trip_property(f):
    g = parse_dimacs(write_dimacs(f))
    assert g.n_vars == f.n_vars
    assert g.cnf.clauses == f.cnf.clauses
    assert g.xors.rows == f.xors.rows
    assert brute_force_count(g) == brute_force_count(f)


def reference_count(f):
    """Solutions of an augmented formula by a direct loop over all assignments."""
    total = 0
    for code in range(1 << f.n_vars):
        x = {v: code >> (v - 1) & 1 for v in range(1, f.n_vars + 1)}
        total += (
            all(x[v] == f.value_bits >> (v - 1) & 1
                for v in x if f.assigned_mask >> (v - 1) & 1)
            and all(any(x[abs(l)] == (l > 0) for l in c) for c in f.cnf.clauses)
            and all(
                sum(x[v] for v in x if mask >> (v - 1) & 1) % 2 == rhs
                for mask, rhs in f.xors.rows
            )
        )
    return total


@settings(max_examples=200, deadline=None)
@given(augmented_formulas(), st.data())
def test_mask_evaluation_matches_a_direct_loop(f, data):
    for v in data.draw(st.lists(st.integers(1, f.n_vars), unique=True)):
        f = f.assign(v, data.draw(st.integers(0, 1)))
    exact = reference_count(f)
    assert brute_force_count(f) == exact
    assert decide_pi_ks(f) == (exact > 0)
