"""Edge estimator: exact branches, loop bookkeeping, budgets, failure modes."""

import math

import numpy as np
import pytest

from fgcount.edgecount import (
    EdgeCountConfig,
    EdgeCountStats,
    IterationBudgetExceeded,
    edge_count,
    find_core,
)
from fgcount.oracles import BipartiteOracles, matrix_oracles
from fgcount.rng import RngStream, derive_stream
from fgcount.synthetic import random_bipartite


def eb(adj, sel):
    return int(adj[:, sel].sum())


class ScriptedCore:
    """find_core stand-in that pops prescribed outcomes in call order.

    Each script entry is a callable taking the current X and returning what
    find_core does, an exact count or a core array; the last entry repeats
    forever.  Records every call's (X, xi) for later assertions.
    """

    def __init__(self, script):
        self.script = list(script)
        self.calls = []

    def __call__(self, oracles, X, xi, rng):
        self.calls.append((X.copy(), xi))
        entry = self.script[0] if len(self.script) == 1 else self.script.pop(0)
        return entry(X)


def no_halve(X, rng):
    return X


def test_eps_validated():
    oracles = matrix_oracles(np.zeros((4, 4), dtype=bool))
    with pytest.raises(ValueError):
        edge_count(oracles, 0.0, RngStream(1))
    with pytest.raises(ValueError):
        edge_count(oracles, 1.0, RngStream(1))


@pytest.mark.parametrize("field, value", [
    ("zeta_constant", 0.0), ("zeta_constant", -1.0), ("zeta_constant", math.inf),
    ("zeta_constant", math.nan), ("core_factor", 0.0), ("core_factor", math.inf),
    ("exact_cutoff", -1), ("exact_cutoff", math.nan),
])
def test_config_fields_are_checked(field, value):
    with pytest.raises(ValueError, match=field):
        EdgeCountConfig(**{field: value})


def test_small_instances_counted_exactly():
    gen = np.random.default_rng(40)
    for _ in range(10):
        left = int(gen.integers(1, 60))
        right = int(gen.integers(1, 60))
        adj = gen.random((left, right)) < 0.2
        oracles = matrix_oracles(adj)
        value = edge_count(oracles, 0.5, RngStream(int(gen.integers(1 << 30))))
        assert value == int(adj.sum())


def test_just_below_cutoff_is_exact():
    gen = np.random.default_rng(41)
    adj = gen.random((1500, 1499)) < 0.01  # n = 2999
    st = EdgeCountStats()
    value = edge_count(matrix_oracles(adj), 0.25, RngStream(9), stats=st)
    assert value == int(adj.sum())
    assert st.exit_branch == "small-n"


def test_empty_graph_above_cutoff():
    adj = np.zeros((1600, 1600), dtype=bool)
    st = EdgeCountStats()
    value = edge_count(matrix_oracles(adj), 0.25, RngStream(4), stats=st)
    assert value == 0
    assert st.exit_branch == "first-pass"


def test_desk_scale_first_pass_is_exact_with_budgeted_queries():
    # At this scale the degree-sample size ceil(24 ln n / (zeta/48)) dwarfs
    # the left side, so the first core pass exhausts U_X and the run returns
    # the exact count; queries must still respect the stated budgets.
    adj = random_bipartite(2048, 2048, 2**-6, RngStream(600))
    oracles = matrix_oracles(adj)
    eps = 0.25
    value = edge_count(oracles, eps, RngStream(601))
    assert value == int(adj.sum())
    n = 4096
    assert oracles.independence_calls <= 2000 * eps**-2 * math.log(n) ** 6
    assert oracles.adjacency_calls <= 2 * eps**-4 * n * math.log(n) ** 3
    # calibrated regression bounds, far below the theory-level budget: one
    # scan locates each non-isolated left vertex (~1 query apiece) and the
    # final enumeration probes |U_X| x |X| pairs
    assert oracles.independence_calls <= 1.3 * 2048 + 64
    assert oracles.adjacency_calls <= 1.05 * 2048 * 2048


def test_scripted_bookkeeping_identity():
    # Drive E2..E7 with prescribed core outcomes and no-op halving, then
    # reproduce the expected output with independent arithmetic on the true
    # matrix: 2^t * eb(X_final) + sum over removals of 2^(t at removal) * eb(S).
    gen = np.random.default_rng(50)
    adj = gen.random((30, 40)) < 0.3
    X0 = np.arange(40)
    s1 = np.asarray([2, 5, 7])
    s2 = np.asarray([1, 9])
    s3 = np.asarray([3])

    script = [
        lambda X: np.empty(0, dtype=np.int64),  # E2 it1: witness -> halve
        lambda X: s1,  # E2 it2: unbalancer
        lambda X: np.empty(0, dtype=np.int64),  # E5 it2: witness -> E6
        lambda X: s2,  # E2 it3: unbalancer
        lambda X: s3,  # E5 it3: unbalancer -> E7
        lambda X: eb(adj, X),  # E2 it4: finish
    ]
    stub = ScriptedCore(script)
    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(adj),
        0.25,
        RngStream(1),
        config=EdgeCountConfig(exact_cutoff=0),
        stats=st,
        find_core_impl=stub,
        halve_impl=no_halve,
    )
    x4 = np.setdiff1d(np.setdiff1d(X0, s1), s2)
    expected = 4 * eb(adj, x4) + 2 * eb(adj, s1) + 4 * eb(adj, s2)
    assert value == expected
    assert st.iterations == 4
    assert st.halvings == 2
    assert st.removals == 2
    # the second pass runs at zeta, the first at zeta / 48
    xis = [xi for _, xi in stub.calls]
    assert xis[2] == pytest.approx(48 * xis[1])


def test_scripted_conservation_without_halving():
    # Removal-only runs must conserve mass exactly: the output equals e(G).
    gen = np.random.default_rng(51)
    adj = gen.random((25, 30)) < 0.4
    s1 = np.asarray([0, 4, 8])
    s2 = np.asarray([11, 12])
    script = [
        lambda X: s1,
        lambda X: np.asarray([20]),  # E5: unbalancer -> E7 (no halve)
        lambda X: s2,
        lambda X: np.asarray([21]),  # E5: unbalancer -> E7
        lambda X: eb(adj, X),
    ]
    value = edge_count(
        matrix_oracles(adj),
        0.25,
        RngStream(2),
        config=EdgeCountConfig(exact_cutoff=0),
        find_core_impl=ScriptedCore(script),
        halve_impl=no_halve,
    )
    assert value == int(adj.sum())


def test_second_pass_exact_outcome_reassembles_removed_mass():
    # When the second core pass returns an exact count for X \ S, the edges
    # of S (already priced) must rejoin before scaling.
    gen = np.random.default_rng(52)
    adj = gen.random((20, 25)) < 0.5
    s1 = np.asarray([3, 6])
    script = [
        lambda X: s1,
        lambda X: eb(adj, X),  # E5 exact on X \ S
    ]
    value = edge_count(
        matrix_oracles(adj),
        0.25,
        RngStream(3),
        config=EdgeCountConfig(exact_cutoff=0),
        find_core_impl=ScriptedCore(script),
        halve_impl=no_halve,
    )
    assert value == int(adj.sum())


def test_a_numpy_integer_from_find_core_is_an_exact_count():
    # Only an index array is a core: np.int64(7) is eb(X), not a 1-vertex set.
    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(np.ones((20, 25), dtype=bool)),
        0.25,
        RngStream(7),
        config=EdgeCountConfig(exact_cutoff=0),
        stats=st,
        find_core_impl=ScriptedCore([lambda X: np.int64(7)]),
    )
    assert (value, st.exit_branch) == (7, "first-pass")


def test_halving_to_nothing_exits_empty():
    # Remove an unbalancer, halve the rest to nothing: the run ends on the
    # "empty" branch with only the retired mass N = eb(S).
    gen = np.random.default_rng(53)
    adj = gen.random((20, 25)) < 0.5
    s1 = np.asarray([3, 6])
    script = [
        lambda X: s1,
        lambda X: np.empty(0, dtype=np.int64),  # witness -> halve X \ S
    ]
    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(adj),
        0.25,
        RngStream(4),
        config=EdgeCountConfig(exact_cutoff=0),
        stats=st,
        find_core_impl=ScriptedCore(script),
        halve_impl=lambda X, rng: np.empty(0, dtype=np.int64),
    )
    assert value == eb(adj, s1)
    assert st.exit_branch == "empty"
    assert (st.iterations, st.halvings, st.removals) == (2, 1, 1)
    assert (st.final_t, st.final_accumulator) == (1, eb(adj, s1))


def test_unbalancer_covering_x_exits_second_pass():
    # Halve once, remove S1, then a core that is all of X: eb(X) = eb(S) is
    # priced exactly and the run ends without a second core pass.
    gen = np.random.default_rng(54)
    adj = gen.random((20, 25)) < 0.5
    s1 = np.asarray([3, 6])
    stub = ScriptedCore([
        lambda X: np.empty(0, dtype=np.int64),  # it1: witness -> halve
        lambda X: s1,  # it2: unbalancer
        lambda X: np.asarray([20]),  # it2 second pass: remove, no halve
        lambda X: X.copy(),  # it3: S = X
    ])
    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(adj),
        0.25,
        RngStream(5),
        config=EdgeCountConfig(exact_cutoff=0),
        stats=st,
        find_core_impl=stub,
        halve_impl=no_halve,
    )
    assert value == 2 * int(adj.sum())  # no-op halving doubles every edge
    assert len(stub.calls) == 4
    assert st.exit_branch == "second-pass"
    assert (st.iterations, st.halvings, st.removals) == (3, 1, 1)
    assert (st.final_t, st.final_accumulator) == (1, 2 * eb(adj, s1))


def test_iteration_budget_exceeded():
    adj = np.ones((20, 20), dtype=bool)
    witness_forever = ScriptedCore([lambda X: np.empty(0, dtype=np.int64)])
    st = EdgeCountStats()
    with pytest.raises(IterationBudgetExceeded):
        edge_count(
            matrix_oracles(adj),
            0.25,
            RngStream(5),
            config=EdgeCountConfig(exact_cutoff=0),
            stats=st,
            find_core_impl=witness_forever,
            halve_impl=no_halve,
        )
    assert st.iterations == math.ceil(7 * math.log(40)) + 1


def true_degree_core(adj, exact_below):
    """Cores computed from the instrumented matrix's true degrees."""

    def impl(oracles, X, xi, rng):
        if X.size <= exact_below:
            return eb(adj, X)
        ux = int(adj[:, X].any(axis=1).sum())
        degrees = adj[:, X].sum(axis=0)
        return X[degrees >= xi * ux]

    return impl


def _tiered_graph():
    # Two full-degree right vertices over a 100-vertex left block, five
    # medium vertices over an 8-vertex block, forty degree-1 vertices on a
    # single left vertex, and isolated padding.
    left, right = 108, 102
    adj = np.zeros((left, right), dtype=bool)
    adj[:100, 0] = True
    adj[:100, 1] = True
    adj[100:108, 2:7] = True
    adj[107, 7:47] = True
    return adj


def test_true_degree_cores_remove_heavy_tiers_and_finish_exactly():
    adj = _tiered_graph()
    eps = 0.25
    n = adj.shape[0] + adj.shape[1]
    # pin zeta = 0.5 so core accuracies are informative at this scale
    zc = eps**2 / (0.5 * math.log(n) ** 3)
    config = EdgeCountConfig(exact_cutoff=0, zeta_constant=zc)

    calls = []
    inner = true_degree_core(adj, exact_below=40)

    def recording_core(oracles, X, xi, rng):
        out = inner(oracles, X, xi, rng)
        ux = int(adj[:, X].any(axis=1).sum())
        calls.append((X.size, ux, type(out).__name__))
        return out

    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(adj),
        eps,
        RngStream(6),
        config=config,
        stats=st,
        find_core_impl=recording_core,
        halve_impl=no_halve,
    )
    assert value == int(adj.sum())  # removal-only run conserves exactly
    assert st.removals == 2
    assert st.halvings == 0
    # progress: |X| * |U_X| collapses by far more than 3/4 across iterations
    first_pass = [x * ux for x, ux, kind in calls][0::2]
    for before, after in zip(first_pass, first_pass[1:]):
        assert after <= 0.75 * before


def test_true_degree_cores_with_real_halving_terminate():
    # Balanced graph: every right vertex has degree 3, spread over a left
    # side large enough that its degree stays below xi |U_X| all the way
    # down, so cores are empty and the loop halves until the exact-count
    # threshold is reached.
    gen = np.random.default_rng(60)
    left, right = 400, 300
    adj = np.zeros((left, right), dtype=bool)
    for v in range(right):
        adj[gen.choice(left, size=3, replace=False), v] = True
    eps = 0.25
    n = left + right
    zc = eps**2 / (2.4 * math.log(n) ** 3)  # first-pass xi = 0.05
    config = EdgeCountConfig(exact_cutoff=0, zeta_constant=zc)

    final_x = {}
    inner = true_degree_core(adj, exact_below=30)

    def recording_core(oracles, X, xi, rng):
        out = inner(oracles, X, xi, rng)
        if not isinstance(out, np.ndarray):
            final_x["X"] = X.copy()
        return out

    st = EdgeCountStats()
    value = edge_count(
        matrix_oracles(adj),
        eps,
        RngStream(61),
        config=config,
        stats=st,
        find_core_impl=recording_core,
    )
    assert st.halvings >= 1
    assert st.exit_branch == "first-pass"
    # reported value decomposes exactly as 2^t * eb(X_final) + N
    assert value == (1 << st.final_t) * eb(adj, final_x["X"]) + st.final_accumulator


def test_noisy_independence_oracle_is_wrapped():
    # Declaring a randomized decider makes every outer independence query
    # fan out into an odd number of raw queries sized for the per-call
    # failure budget eps^2 / (2000 ln(n)^6).
    adj = np.zeros((1600, 1600), dtype=bool)
    gen = np.random.default_rng(70)

    base = matrix_oracles(adj)
    flipped = {"count": 0}

    def noisy_left(left):
        truth = True  # empty graph: always independent
        if gen.random() < 0.2:
            flipped["count"] += 1
            return not truth
        return truth

    def noisy(right):
        return noisy_left

    oracles = BipartiteOracles(
        1600, 1600, noisy, lambda u, v: np.zeros(len(v), dtype=int)
    )
    eps = 0.25
    value = edge_count(oracles, eps, RngStream(71), oracle_failure_prob=0.2)
    assert value == 0
    n = 3200
    target = eps**2 / (2000.0 * math.log(n) ** 6)
    from fgcount.oracles import repetitions_for

    r = repetitions_for(target)
    assert oracles.independence_calls % r == 0
    assert oracles.independence_calls >= r


def test_noisy_failure_above_third_rejected():
    oracles = matrix_oracles(np.zeros((1600, 1600), dtype=bool))
    with pytest.raises(ValueError):
        edge_count(oracles, 0.25, RngStream(1), oracle_failure_prob=0.4)


def test_edgeless_graph_costs_one_core_pass():
    # With no edges the very first scan exhausts (an empty) U_X, so the
    # whole run spends one binary search worth of independence queries.
    adj = np.zeros((1600, 1600), dtype=bool)
    oracles = matrix_oracles(adj)
    assert edge_count(oracles, 0.25, RngStream(81)) == 0
    assert oracles.independence_calls <= 2 * math.ceil(math.log2(1601)) + 2


def test_counters_match_instrumented_wrapper_across_a_run():
    # The oracle object's own counters must equal an external tally of raw
    # probe volume over a whole estimator run, exactly.
    gen = np.random.default_rng(75)
    adj = gen.random((1700, 1700)) < 0.005
    tally = {"independence": 0, "adjacency": 0}

    def independence(right):
        def independent(left):
            tally["independence"] += 1
            return not adj[np.ix_(left, right)].any()

        return independent

    def adjacency(left, right):
        tally["adjacency"] += len(left) * len(right)
        return adj[np.ix_(left, right)].sum(axis=0)

    oracles = BipartiteOracles(1700, 1700, independence, adjacency)
    value = edge_count(oracles, 0.25, RngStream(76))
    assert value == int(adj.sum())
    assert oracles.independence_calls == tally["independence"]
    assert oracles.adjacency_calls == tally["adjacency"]


def test_erdos_renyi_estimate_smoke():
    # Full statistical acceptance lives in test_acceptance; here just check
    # a couple of trials at scale return the truth (first-pass exact regime).
    adj = random_bipartite(2048, 2048, 2**-6, RngStream(80))
    exact = int(adj.sum())
    for seed in (1, 2):
        value = edge_count(matrix_oracles(adj), 0.25, RngStream(seed))
        assert abs(value - exact) <= 0.25 * exact


# -- real core finding driving the full loop ---------------------------------
#
# The default accuracy parameter makes the degree sample larger than any
# desk-scale left side, so these two tests widen zeta (a sanctioned config
# override) until fcc fits under |U|; the estimator then runs its genuine
# remove/halve dynamics with the production find_core and halve.


def test_real_loop_removal_regime():
    left, right = 16_000, 4_000
    n = left + right
    eps = 0.25
    config = EdgeCountConfig(zeta_constant=eps**2 / (0.9 * math.log(n) ** 3))
    adj = random_bipartite(left, right, 0.01, RngStream(42))
    exact = int(adj.sum())
    oracles = matrix_oracles(adj)
    st = EdgeCountStats()
    value = edge_count(oracles, eps, RngStream(43), config=config, stats=st)
    assert st.removals >= 1 and st.halvings >= 1  # remove-then-halve rounds
    assert st.exit_branch == "first-pass"
    assert 0.85 * exact <= value <= 1.15 * exact
    assert oracles.independence_calls <= 2000 * eps**-2 * math.log(n) ** 6

    # Across seeds, the halving noise concentrates far inside the tolerance
    # (observed max deviation ~2%; the band leaves generous slack).
    for seed in range(7):
        v = edge_count(
            matrix_oracles(adj), eps,
            derive_stream(RngStream(4242), f"t{seed}"), config=config,
        )
        assert 0.85 * exact <= v <= 1.15 * exact


def test_loop_regime_run_is_pinned():
    # One fixed-seed run of the removal/halving regime above, pinned to
    # recorded values: a faster oracle path must reproduce every query,
    # branch and count.
    left, right = 16_000, 4_000
    n = left + right
    eps = 0.25
    config = EdgeCountConfig(zeta_constant=eps**2 / (0.9 * math.log(n) ** 3))
    adj = random_bipartite(left, right, 0.01, RngStream(42))
    oracles = matrix_oracles(adj)
    st = EdgeCountStats()
    value = edge_count(oracles, eps, RngStream(43), config=config, stats=st)
    assert value == 639_800
    assert oracles.independence_calls == 26_322
    assert oracles.adjacency_calls == 111_275_863
    assert st.exit_branch == "first-pass"
    assert (st.halvings, st.removals) == (2, 2)
    assert (st.final_t, st.final_accumulator) == (2, 564_868)
    assert st.iterations == 3


def test_instance_wrapper_sees_every_independence_query():
    # A tracer replaces ``independence_query`` and ``first_isolated`` on one
    # oracle object; over a whole run that removes and halves, the wrappers
    # must see exactly the queries the object counts.  A ``first_isolated``
    # call that returns j on a window of w vertices asked min(j + 1, w).
    left, right = 16_000, 4_000
    n = left + right
    eps = 0.25
    config = EdgeCountConfig(zeta_constant=eps**2 / (0.9 * math.log(n) ** 3))
    adj = random_bipartite(left, right, 0.01, RngStream(42))
    oracles = matrix_oracles(adj)
    seen = [0]
    query, first_isolated = oracles.independence_query, oracles.first_isolated

    def counting(left, right):
        seen[0] += 1
        return query(left, right)

    def counting_run(window, right):
        j = first_isolated(window, right)
        seen[0] += min(j + 1, len(window))
        return j

    oracles.independence_query = counting
    oracles.first_isolated = counting_run
    st = EdgeCountStats()
    edge_count(oracles, eps, RngStream(43), config=config, stats=st)
    assert st.removals >= 1 and st.halvings >= 1
    assert seen[0] == oracles.independence_calls == 26_322


def plain_predicate_twin(adj):
    """``matrix_oracles(adj)`` with its predicate wrapped in a plain function.

    Every answer, probed pair and count is the matrix backend's own, but the
    oracle object cannot tell the predicate for a touch mask, so it asks a
    scan's one-vertex queries one at a time.
    """
    inner = matrix_oracles(adj)

    def independence(right):
        predicate = inner._independence(right)
        return lambda left: predicate(left)

    return BipartiteOracles(*adj.shape, independence, inner._adjacency, inner._edges)


def runs_of_hits(adj, X, order):
    """Length of the longest run of consecutive left vertices of ``order``
    that touch X, and the share of ``order`` that touches X."""
    touches = adj[np.ix_(order, X)].any(axis=1)
    edges = np.flatnonzero(np.diff(np.concatenate(([0], touches.astype(np.int8), [0]))))
    longest = int((edges[1::2] - edges[::2]).max()) if edges.size else 0
    return longest, float(touches.mean())


@pytest.mark.parametrize(
    "left, right, density, x_size, xi, regime",
    [
        (4096, 256, 0.0004, 256, 0.9, "sparse"),  # misses dominate
        (1024, 1024, 0.001, 200, 0.5, "sparse"),  # exhausts the ordering
        (2048, 512, 0.05, 512, 0.5, "long-runs"),  # runs of hits past _CHUNK
        (600, 300, 0.1, 300, 0.1, "long-runs"),  # fcc > |U|: one run to the end
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_find_core_answers_as_a_plain_predicate_backend(
    left, right, density, x_size, xi, regime, seed
):
    adj = random_bipartite(left, right, density, RngStream(seed, b"graph"))
    X = np.arange(x_size)
    longest, share = runs_of_hits(adj, X, RngStream(seed).generator().permutation(left))
    if regime == "sparse":
        assert share < 0.25
    else:
        assert longest > 255
    results = []
    for oracles in (matrix_oracles(adj), plain_predicate_twin(adj)):
        out = find_core(oracles, X, xi, RngStream(seed))
        out = out.tolist() if isinstance(out, np.ndarray) else out
        results.append((out, oracles.independence_calls, oracles.adjacency_calls))
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "left, right, density, loop",
    [
        (16_000, 1_000, 0.01, True),  # removes and halves
        (16_000, 400, 0.004, True),  # halves; most left vertices miss X
        (16_000, 2_000, 0.003, True),
        (2048, 2048, 2**-6, False),  # default constants: first pass exact
    ],
)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_edge_count_answers_as_a_plain_predicate_backend(left, right, density, loop, seed):
    n = left + right
    eps = 0.25
    config = EdgeCountConfig(zeta_constant=eps**2 / (0.9 * math.log(n) ** 3)) if loop else EdgeCountConfig()
    adj = random_bipartite(left, right, density, RngStream(42))
    results = []
    for oracles in (matrix_oracles(adj), plain_predicate_twin(adj)):
        st = EdgeCountStats()
        value = edge_count(oracles, eps, RngStream(seed), config=config, stats=st)
        results.append((value, oracles.independence_calls, oracles.adjacency_calls, st))
    assert results[0] == results[1]
    if loop:
        assert results[0][3].halvings >= 1


def test_real_loop_halving_regime():
    # Lower density keeps every vertex below the core threshold, so the
    # first pass certifies balance and the loop halves until the thin-side
    # exact branch finishes the count.
    left, right = 16_000, 400
    n = left + right
    eps = 0.25
    config = EdgeCountConfig(zeta_constant=eps**2 / (0.9 * math.log(n) ** 3))
    adj = random_bipartite(left, right, 0.004, RngStream(44))
    exact = int(adj.sum())
    oracles = matrix_oracles(adj)
    st = EdgeCountStats()
    value = edge_count(oracles, eps, RngStream(45), config=config, stats=st)
    assert st.halvings >= 1
    assert st.removals == 0
    assert 0.7 * exact <= value <= 1.3 * exact
