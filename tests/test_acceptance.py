"""Acceptance gate: statistical and exactness criteria at desk scale.

Each criterion prints one PASS/FAIL line (run with -s to see them inline).
Tolerances are fixed here, not tuned: success fractions carry the stated
binomial slack below their theoretical levels, query budgets use the pinned
constants, and exactness criteria demand equality.
"""

import math
import time

import numpy as np
import pytest

from fgcount.edgecount import find_core, halve
from fgcount.exact import exact_count
from fgcount.experiments import (
    Outcome,
    bipartite_counter,
    instance_counter,
    records_to_csv,
    run_trials,
    scaling_probe,
    strip_timing,
    probe_to_csv,
)
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem
from fgcount.oracles import matrix_oracles
from fgcount.reductions import (
    NwtInstance,
    OvInstance,
    ThreeSumInstance,
    count_3sum,
    count_nwt,
    count_nwt_exact,
    count_ov,
    count_ov_exact,
    decide_nwt,
    decide_nwt_via_apsp,
)
from fgcount.rng import RngStream, derive_stream
from fgcount.satcount import (
    CnfFormula,
    EnumerationDecider,
    SatSolveParams,
    augment,
    brute_force_count,
    conjoin,
    sample_hash,
    sat_solve,
    solution_codes,
    sparse_count,
)
from fgcount.synthetic import (
    dense_bipartite,
    regular_right_bipartite,
    sparse_bipartite,
    star_skewed_bipartite,
)

EPS = 0.25


def gate(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# Criterion 1 & 2 share the same six instance families and trial records.
# ---------------------------------------------------------------------------


def _build_families():
    families = []

    ov = generate(GeneratorSpec(problem=Problem.OV, n=4096, d=64, density=0.25, seed=9101))
    families.append(
        dict(name="ov-4096", counter_eps=lambda eps: instance_counter(ov, eps),
             exact=count_ov_exact(ov), n_est=4096)
    )

    planted = 21_113  # ~ 4000^1.2 witnesses
    ts = generate(GeneratorSpec(problem=Problem.THREESUM, n=4000,
                                planted_count=planted, seed=9102))
    families.append(
        dict(name="3sum-4000", counter_eps=lambda eps: instance_counter(ts, eps),
             exact=planted, n_est=int(ts.a.size + ts.b.size))
    )

    nwt = generate(GeneratorSpec(problem=Problem.NWT, n=1128, parts=(1000, 64, 64),
                                 density=0.99, weight_bound=100, seed=9103))
    vb, _ = nwt.bc_edges()
    families.append(
        dict(name="nwt-5000", counter_eps=lambda eps: instance_counter(nwt, eps),
             exact=count_nwt_exact(nwt), n_est=int(nwt.part_a.size + vb.size))
    )

    for name, adj in (
        ("dense", dense_bipartite(2500, 2500, RngStream(9104))),
        ("sparse", sparse_bipartite(2500, 2500, RngStream(9105))),
        ("star-skewed", star_skewed_bipartite(2500, 2500, RngStream(9106))),
    ):
        families.append(
            dict(name=name, counter_eps=lambda eps, adj=adj: bipartite_counter(adj, eps),
                 exact=int(adj.sum()), n_est=5000)
        )
    return families


def _run_families(families, trials: int, seed: int):
    out = {}
    for fam in families:
        master = derive_stream(RngStream(seed), f"family-{fam['name']}")
        out[fam["name"]] = run_trials(
            fam["counter_eps"](EPS), trials, master, exact=fam["exact"]
        )
    return out


@pytest.fixture(scope="module")
def families():
    return _build_families()


@pytest.fixture(scope="module")
def family_records(families):
    start = time.monotonic()
    records = _run_families(families, trials=60, seed=1001)
    elapsed = time.monotonic() - start
    return records, elapsed


def test_criterion_1_edgecount_accuracy(families, family_records):
    records, elapsed = family_records
    fractions = {}
    for fam in families:
        rs = records[fam["name"]]
        hits = sum(
            1 for r in rs
            if r.outcome is Outcome.OK and r.rel_error is not None and r.rel_error <= EPS
        )
        fractions[fam["name"]] = hits / len(rs)
    ok = all(f >= 0.60 for f in fractions.values()) and elapsed <= 300.0
    detail = ", ".join(f"{k}={v:.2f}" for k, v in fractions.items())
    gate(1, ok, f"success fractions at eps={EPS}: {detail}; runtime {elapsed:.1f}s <= 300s")


def test_criterion_2_independence_query_budget(families, family_records):
    records, _ = family_records
    worst = 0.0
    for fam in families:
        bound = 2000.0 * EPS**-2 * math.log(fam["n_est"]) ** 6
        for r in records[fam["name"]]:
            worst = max(worst, r.independence_calls / bound)
            assert r.independence_calls <= bound

    template = GeneratorSpec(problem=Problem.OV, n=4096, d=64, density=0.25, seed=1301)
    probe = scaling_probe(template, [4096, 8192], EPS, 5, RngStream(1302))
    medians = dict(probe)
    ratio = medians[8192] / max(medians[4096], 1)
    limit = 1.5 * (math.log(8192) / math.log(4096)) ** 6
    ok = ratio <= limit
    gate(
        2, ok,
        f"per-trial calls <= budget (worst used {worst:.3%}); "
        f"probe medians {medians[4096]} -> {medians[8192]}, ratio {ratio:.2f} <= {limit:.2f}",
    )


# ---------------------------------------------------------------------------
# Criterion 3: exact fallbacks.
# ---------------------------------------------------------------------------


def _criterion3_rows(instances_per_problem: int, seed: int):
    rows = []
    gen = np.random.default_rng(seed)
    for i in range(instances_per_problem):
        inst = ThreeSumInstance(
            gen.integers(-60, 61, size=20),
            gen.integers(-60, 61, size=20),
            gen.integers(-60, 61, size=20),
        )
        exact = exact_count(inst)
        small_n = count_3sum(inst, 0.4, RngStream(seed + i))
        tiny_eps = count_3sum(inst, 60.0**-3, RngStream(seed + i))
        rows.append(("3sum", i, exact, small_n, tiny_eps))

        ov = OvInstance(
            (gen.random((30, 16)) < 0.3).astype(np.uint8),
            (gen.random((30, 16)) < 0.3).astype(np.uint8),
        )
        exact = exact_count(ov)
        rows.append(
            ("ov", i, exact,
             count_ov(ov, 0.4, RngStream(seed + i)),
             count_ov(ov, 60.0**-2, RngStream(seed + i)))
        )

        spec = GeneratorSpec(problem=Problem.NWT, n=21, density=0.7,
                             weight_bound=40, seed=seed + i)
        nwt = generate(spec)
        exact = exact_count(nwt)
        rows.append(
            ("nwt", i, exact,
             count_nwt(nwt, 0.4, RngStream(seed + i)),
             count_nwt(nwt, 0.5 * 21.0**-3, RngStream(seed + i)))
        )
    return rows


def test_criterion_3_exact_fallbacks():
    rows = _criterion3_rows(50, seed=3001)
    bad = [r for r in rows if not (r[2] == r[3] == r[4])]
    gate(3, not bad, f"{len(rows)} instances x (small-n, tiny-eps) all equal brute force")


# ---------------------------------------------------------------------------
# Criterion 4: budgeted self-reduction correctness and call budget.
# ---------------------------------------------------------------------------


class _CountingOracle:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, f):
        self.calls += 1
        return self.fn(f)


def _criterion4_rows(pairs: int, seed: int):
    gen = np.random.default_rng(seed)
    rows = []
    for i in range(pairs):
        n = int(gen.integers(1, 13))
        m = int(gen.integers(0, 3 * n + 1))
        clauses = []
        for _ in range(m):
            vs = gen.choice(n, size=min(3, n), replace=False) + 1
            signs = gen.integers(0, 2, size=vs.size)
            clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(vs, signs)))
        f = CnfFormula(n_vars=n, width_k=3, clauses=tuple(clauses))
        exact = brute_force_count(augment(f))
        budget = int(gen.integers(0, 2**n + 2))
        oracle = _CountingOracle(EnumerationDecider(f))
        result = sparse_count(augment(f), budget, oracle)
        correct = (result == exact) if exact <= budget else (result is None)
        within = oracle.calls <= 8 * n * (min(budget, exact) + 1)
        rows.append((i, n, m, budget, exact, correct, within, oracle.calls))
    return rows


def test_criterion_4_sparse_correctness_and_budget():
    rows = _criterion4_rows(500, seed=4001)
    wrong = [r for r in rows if not r[5]]
    over = [r for r in rows if not r[6]]
    gate(4, not wrong and not over,
         f"500 (formula, budget) pairs: {len(wrong)} wrong results, "
         f"{len(over)} over the 8n(min(a,count)+1) call budget")


# ---------------------------------------------------------------------------
# Criterion 5: hash moments.
# ---------------------------------------------------------------------------


def _hash_moment_rows(sets: int, draws: int, seed: int):
    """Each row: (n, m, set_size, expected_mean, emp_mean, emp_var, var_bound)."""
    gen = np.random.default_rng(seed)
    delta = 0.3
    rows = []
    master = RngStream(seed)
    attempts = 0
    while len(rows) < sets and attempts < sets * 20:
        attempts += 1
        n = int(gen.integers(12, 17))
        m = int(gen.integers(1, 4))
        n_clauses = int(gen.integers(4, 14))
        clauses = []
        for _ in range(n_clauses):
            vs = gen.choice(n, size=3, replace=False) + 1
            signs = gen.integers(0, 2, size=3)
            clauses.append(tuple(int(v) if s else -int(v) for v, s in zip(vs, signs)))
        f = CnfFormula(n_vars=n, width_k=3, clauses=tuple(clauses))
        codes = solution_codes(f)
        if codes.size < 2 ** (m + delta * n):  # regime where the variance bound applies
            continue

        stream = derive_stream(master, f"set-{len(rows)}")
        sizes = np.empty(draws, dtype=np.float64)
        for d in range(draws):
            system = sample_hash(n, m, n, derive_stream(stream, f"A-{d}"))
            hashed = conjoin(f, system, derive_stream(stream, f"b-{d}"))
            ok = np.ones(codes.shape, dtype=bool)
            for mask, rhs in hashed.xors.rows:
                parity = np.bitwise_count(codes & np.uint64(mask)) & np.uint64(1)
                ok &= parity == np.uint64(rhs)
            sizes[d] = ok.sum()
        expected = codes.size / 2**m
        var_bound = float(codes.size) ** 2 * 2.0 ** (delta * n / 16.0 - 2 * m)
        rows.append(
            (n, m, int(codes.size), expected, sizes.mean(), sizes.var(), var_bound)
        )
    return rows


@pytest.fixture(scope="module")
def hash_moment_rows():
    return _hash_moment_rows(sets=20, draws=10_000, seed=5001)


def test_criterion_5_hash_moments(hash_moment_rows):
    rows = hash_moment_rows
    assert len(rows) == 20
    mean_bad = [r for r in rows if abs(r[4] - r[3]) > 0.05 * r[3]]
    var_bad = [r for r in rows if r[5] > 2.0 * r[6]]
    worst_mean = max(abs(r[4] - r[3]) / r[3] for r in rows)
    gate(5, not mean_bad and not var_bad,
         f"20 solution sets x 10k draws: worst mean error {worst_mean:.3%} <= 5%, "
         f"{len(var_bad)} variance bound violations")


# ---------------------------------------------------------------------------
# Criterion 6: the counting pipeline end to end.
# ---------------------------------------------------------------------------


def _criterion6_rows(trials: int, seed: int):
    rows = []
    for t in range(trials):
        spec = GeneratorSpec(problem=Problem.CNF, n=18, clause_count=40,
                             width_k=3, seed=seed + t)
        f = generate(spec)
        exact = brute_force_count(augment(f))
        params = SatSolveParams.for_instance(18, 0.3, 0.3)
        value = sat_solve(f, params, EnumerationDecider(f),
                          derive_stream(RngStream(seed), f"trial-{t}"))
        ok = value is not None and abs(value - exact) <= 0.3 * exact
        rows.append((t, exact, value, ok))
    return rows


def test_criterion_6_satsolve_end_to_end():
    start = time.monotonic()
    rows = _criterion6_rows(100, seed=6001)
    elapsed = time.monotonic() - start
    good = sum(1 for r in rows if r[3])
    ok = good >= 66 and elapsed <= 180.0
    gate(6, ok, f"{good}/100 trials within (1±0.3) of the exhaustive count "
                f"(need >= 66); runtime {elapsed:.1f}s <= 180s")


# ---------------------------------------------------------------------------
# Criterion 7: balanced halving concentration.
# ---------------------------------------------------------------------------


def _criterion7_rows(halvings: int, seed: int):
    left = right = 2048
    degree = 16
    adj = regular_right_bipartite(left, right, degree, RngStream(seed))
    n = left + right
    X = np.arange(right)
    eb_x = degree * right  # every right vertex has the same degree
    xi = degree / eb_x  # sharp balance parameter: max degree / eb(X)
    bound = math.sqrt(xi * math.log(n)) * eb_x
    rows = []
    master = RngStream(seed + 1)
    for i in range(halvings):
        kept = halve(X, derive_stream(master, f"halve-{i}"))
        eb_kept = degree * kept.size
        rows.append((i, kept.size, eb_kept, abs(eb_kept - eb_x / 2) > bound))
    return rows, n


def test_criterion_7_balanced_halving():
    rows, n = _criterion7_rows(200, seed=7001)
    violations = sum(1 for r in rows if r[3])
    allowed = math.floor(4 / n * 200 + 3)
    gate(7, violations <= allowed,
         f"{violations} halving deviations beyond sqrt(xi ln n) * eb over 200 "
         f"halvings (allowed {allowed})")


# ---------------------------------------------------------------------------
# Criterion 8: core quality against true degrees.
# ---------------------------------------------------------------------------


def _criterion8_rows(runs_per_graph: int, seed: int):
    xi = 0.25
    size = 2048
    n = 2 * size
    graphs = {}
    complete = np.ones((size, size), dtype=bool)
    graphs["complete"] = complete
    two_tier = np.zeros((size, size), dtype=bool)
    two_tier[:, :64] = True  # heavy: degree |U|
    two_tier[0, 64:] = True  # light: degree 1
    graphs["two-tier"] = two_tier

    rows = []
    for gname, adj in graphs.items():
        degrees = adj.sum(axis=0)
        ux = int(adj.any(axis=1).sum())
        for run in range(runs_per_graph):
            oracles = matrix_oracles(adj)
            out = find_core(
                oracles, np.arange(size), xi,
                derive_stream(RngStream(seed), f"{gname}-{run}"),
            )
            assert isinstance(out, np.ndarray)
            in_s = np.zeros(size, dtype=bool)
            in_s[out] = True
            w1 = bool(in_s[degrees >= xi * ux].all())
            w2 = bool((degrees[out] >= xi * ux / 24).all())
            rows.append((gname, run, w1 and w2, oracles.independence_calls))
    return rows, n, xi


def test_criterion_8_core_property_and_queries():
    rows, n, xi = _criterion8_rows(50, seed=8001)
    assert len(rows) == 100
    good = sum(1 for r in rows if r[2])
    query_cap = 4.0 * (1 / xi) * math.log2(n) ** 2
    worst_queries = max(r[3] for r in rows)
    ok = good >= 97 and worst_queries <= query_cap
    gate(8, ok, f"{good}/100 runs satisfy the core inclusion/exclusion bounds "
                f"(need >= 97); max queries {worst_queries} <= {query_cap:.0f}")


# ---------------------------------------------------------------------------
# Criterion 9: the layered APSP route agrees with the direct decider.
# ---------------------------------------------------------------------------


def _criterion9_instance(gen) -> NwtInstance:
    # Mix densities and weight skews so the pool contains both answers.
    n = 45
    ids = np.arange(n)
    parts = (ids[:15], ids[15:30], ids[30:])
    density = float(gen.uniform(0.15, 0.7))
    lo = int(gen.integers(-60, 0))
    adjacency = np.zeros((n, n), dtype=bool)
    weights = np.zeros((n, n), dtype=np.int64)
    for rows_, cols in ((parts[0], parts[1]), (parts[0], parts[2]), (parts[1], parts[2])):
        mask = gen.random((rows_.size, cols.size)) < density
        vals = gen.integers(lo, 61, size=(rows_.size, cols.size))
        r, c = np.nonzero(mask)
        adjacency[rows_[r], cols[c]] = adjacency[cols[c], rows_[r]] = True
        weights[rows_[r], cols[c]] = vals[r, c]
        weights[cols[c], rows_[r]] = vals[r, c]
    return NwtInstance(n, parts[0], parts[1], parts[2], adjacency, weights)


def _criterion9_rows(instances: int, seed: int):
    gen = np.random.default_rng(seed)
    rows = []
    for i in range(instances):
        inst = _criterion9_instance(gen)
        direct = decide_nwt(inst)
        via = decide_nwt_via_apsp(inst)
        rows.append((i, direct, via))
    return rows


def test_criterion_9_apsp_cross_validation():
    rows = _criterion9_rows(100, seed=9001)
    disagree = [r for r in rows if r[1] != r[2]]
    yes = sum(1 for r in rows if r[1])
    ok = not disagree and 0 < yes < len(rows)  # both answers represented
    gate(9, ok, f"100 instances ({yes} yes / {100 - yes} no), "
                f"{len(disagree)} disagreements")


# ---------------------------------------------------------------------------
# Criterion 10: byte determinism of every criterion pipeline.
# ---------------------------------------------------------------------------


def _rows_csv(rows) -> str:
    return "\n".join(",".join(repr(x) for x in row) for row in rows) + "\n"


def test_criterion_10_determinism(families):
    # Each criterion's machinery reruns at reduced size under a fixed master
    # seed; its serialized output must be byte-identical across runs (trial
    # CSVs compared with the timing column stripped).
    checks = {}

    a = _run_families(families, trials=6, seed=42)
    b = _run_families(families, trials=6, seed=42)
    checks["c1-trials"] = all(
        strip_timing(records_to_csv(a[k])) == strip_timing(records_to_csv(b[k]))
        for k in a
    )

    template = GeneratorSpec(problem=Problem.OV, n=512, d=32, seed=421)
    checks["c2-probe"] = probe_to_csv(
        scaling_probe(template, [256, 512], EPS, 2, RngStream(43))
    ) == probe_to_csv(scaling_probe(template, [256, 512], EPS, 2, RngStream(43)))

    checks["c3-fallbacks"] = _rows_csv(_criterion3_rows(6, seed=44)) == _rows_csv(
        _criterion3_rows(6, seed=44)
    )
    checks["c4-sparse"] = _rows_csv(_criterion4_rows(60, seed=45)) == _rows_csv(
        _criterion4_rows(60, seed=45)
    )
    checks["c5-hash"] = _rows_csv(
        _hash_moment_rows(sets=3, draws=500, seed=46)
    ) == _rows_csv(_hash_moment_rows(sets=3, draws=500, seed=46))
    checks["c6-satsolve"] = _rows_csv(_criterion6_rows(8, seed=47)) == _rows_csv(
        _criterion6_rows(8, seed=47)
    )
    checks["c7-halving"] = _rows_csv(_criterion7_rows(30, seed=48)[0]) == _rows_csv(
        _criterion7_rows(30, seed=48)[0]
    )
    checks["c8-core"] = _rows_csv(_criterion8_rows(5, seed=49)[0]) == _rows_csv(
        _criterion8_rows(5, seed=49)[0]
    )
    checks["c9-apsp"] = _rows_csv(_criterion9_rows(10, seed=50)) == _rows_csv(
        _criterion9_rows(10, seed=50)
    )

    bad = [k for k, v in checks.items() if not v]
    gate(10, not bad, f"byte-identical reruns for {len(checks)} pipelines"
         + (f"; mismatches: {bad}" if bad else ""))
