"""Problem reductions: deciders, oracle consistency, exact fallbacks, APSP."""

import math

import numpy as np
import pytest

from fgcount import oracles as oracles_module
from fgcount.edgecount import EdgeCountConfig
from fgcount.generators import GeneratorSpec, generate
from fgcount.instances import Problem
from fgcount.oracles import repetitions_for
from fgcount.reductions import (
    CountStats,
    NwtInstance,
    OvInstance,
    ThreeSumInstance,
    count_3sum,
    count_3sum_exact,
    count_nwt,
    count_nwt_exact,
    count_ov,
    count_ov_exact,
    decide_3sum,
    decide_nwt,
    decide_nwt_via_apsp,
    decide_ov,
    floyd_warshall,
    nwt_oracles,
    nwt_to_apsp,
    ov_oracles,
    three_sum_oracles,
)
from fgcount.rng import RngStream


def three_sum_pairs(inst):
    """Number of c in C with a + b = c, for every pair (a, b), by a plain loop."""
    out = np.zeros((inst.a.size, inst.b.size), dtype=np.int64)
    for i, a in enumerate(inst.a):
        for j, b in enumerate(inst.b):
            for c in inst.c:
                if a + b == c:
                    out[i, j] += 1
    return out


def cubic_3sum_count(inst):
    return int(three_sum_pairs(inst).sum())


def ov_pairs(inst):
    """Orthogonality of every pair (u, v) in A x B, by a plain loop."""
    out = np.zeros((inst.a.shape[0], inst.b.shape[0]), dtype=bool)
    for i, u in enumerate(inst.a):
        for j, v in enumerate(inst.b):
            out[i, j] = all(int(x) * int(y) == 0 for x, y in zip(u, v))
    return out


def naive_ov_count(inst):
    return int(ov_pairs(inst).sum())


def negative_triangles(inst):
    """Every negative triangle (a, b, c) across the parts, by a triple loop."""
    adj, w = inst.adjacency, inst.weights
    return {
        (int(a), int(b), int(c))
        for a in inst.part_a
        for b in inst.part_b
        for c in inst.part_c
        if adj[a, b] and adj[b, c] and adj[c, a] and w[a, b] + w[b, c] + w[c, a] < 0
    }


def nwt_pairs(inst):
    """Which (A-vertex, B-C edge) pairs close a negative triangle, by the triple loop."""
    triangles = negative_triangles(inst)
    vb, vc = inst.bc_edges()
    return np.array(
        [[(int(a), int(b), int(c)) in triangles for b, c in zip(vb, vc)] for a in inst.part_a]
    ).reshape(inst.part_a.size, vb.size)


def random_nwt(gen, na, nb, nc, density=0.6, w=50):
    n = na + nb + nc
    ids = np.arange(n)
    parts = (ids[:na], ids[na : na + nb], ids[na + nb :])
    edges = []
    for rows, cols in ((parts[0], parts[1]), (parts[0], parts[2]), (parts[1], parts[2])):
        for u in rows:
            for v in cols:
                if gen.random() < density:
                    edges.append((int(u), int(v), int(gen.integers(-w, w + 1))))
    return NwtInstance.from_edges(parts, edges, n_vertices=n)


# -- 3SUM --------------------------------------------------------------------


def test_decide_3sum_examples():
    assert decide_3sum(ThreeSumInstance([1], [2], [3])) is True
    assert decide_3sum(ThreeSumInstance([1], [2], [4])) is False


def test_decide_3sum_agrees_with_cubic_scan():
    gen = np.random.default_rng(200)
    for _ in range(300):
        inst = ThreeSumInstance(
            gen.integers(-1000, 1001, size=20),
            gen.integers(-1000, 1001, size=20),
            gen.integers(-1000, 1001, size=20),
        )
        assert decide_3sum(inst) == (cubic_3sum_count(inst) > 0)


def test_exact_3sum_counts_tuples_with_multiplicity():
    inst = ThreeSumInstance([0, 0], [0, 0], [0])
    assert count_3sum_exact(inst) == 4
    inst = ThreeSumInstance([1], [2], [3, 3])
    assert count_3sum_exact(inst) == 2
    gen = np.random.default_rng(201)
    for _ in range(60):
        inst = ThreeSumInstance(
            gen.integers(-15, 16, size=12),
            gen.integers(-15, 16, size=12),
            gen.integers(-15, 16, size=12),
        )
        assert count_3sum_exact(inst) == cubic_3sum_count(inst)


def test_three_sum_oracles_consistency():
    gen = np.random.default_rng(202)
    inst = ThreeSumInstance(
        gen.integers(-300, 301, size=67),
        gen.integers(-300, 301, size=67),
        gen.integers(-300, 301, size=66),
    )
    oracles = three_sum_oracles(inst)
    assert oracles.independence_query([], []) is True
    edges = three_sum_pairs(inst) > 0
    assert edges.any() and not edges.all()
    np.testing.assert_array_equal(oracles.adjacency_block(np.arange(67), np.arange(67)), edges)
    for _ in range(500):
        lsel = np.flatnonzero(gen.random(67) < 0.3)
        rsel = np.flatnonzero(gen.random(67) < 0.3)
        inside = edges[np.ix_(lsel, rsel)].any()
        assert oracles.independence_query(lsel, rsel) == (not inside)
        sub = ThreeSumInstance(inst.a[lsel], inst.b[rsel], inst.c)
        assert decide_3sum(sub) == inside


def test_three_sum_adjacency_example():
    oracles = three_sum_oracles(ThreeSumInstance([1], [2], [3]))
    assert oracles.adjacency_query(0, 0) is True


def test_three_sum_subinstances_are_valid_and_reuse_c():
    seen = []

    def recording_decide(sub):
        assert isinstance(sub, ThreeSumInstance)
        seen.append(sub)
        return decide_3sum(sub)

    gen = np.random.default_rng(203)
    inst = ThreeSumInstance(
        gen.integers(-50, 51, size=30),
        gen.integers(-50, 51, size=30),
        gen.integers(-50, 51, size=30),
    )
    oracles = three_sum_oracles(inst, recording_decide)
    oracles.independence_query(np.arange(5), np.arange(7))
    assert len(seen) == 1
    assert seen[0].a.size == 5 and seen[0].b.size == 7
    np.testing.assert_array_equal(seen[0].c, inst.c)


@pytest.mark.parametrize("n_bound", [5, None])
def test_three_sum_bound_check_sees_minus_two_to_the_63(n_bound):
    # np.abs(-2**63) wraps to -2**63 in int64.
    with pytest.raises(ValueError):
        ThreeSumInstance([-(2**63)], [0], [0], n_bound=n_bound)


def test_three_sum_value_bound_is_below_two_to_the_62():
    # 2^62 + 2^62 wraps around int64; 2 (2^62 - 1) still fits.
    for args in (([2**62], [0], [0]), ([1], [0], [1], 2**62)):
        with pytest.raises(ValueError):
            ThreeSumInstance(*args)
    assert ThreeSumInstance([2**62 - 1], [0], [0]).n_bound == 2**62 - 1


@pytest.mark.parametrize("problem", ["ov", "3sum"])
def test_custom_deciders_see_read_only_right_slices(problem):
    # Two queries against one bound right set share its B slice; a decider
    # that writes to it fails, and the second query sees it unmodified.
    gen = np.random.default_rng(230)
    if problem == "ov":
        inst = OvInstance(gen.random((10, 6)) < 0.4, gen.random((9, 6)) < 0.4)
        build = ov_oracles
    else:
        inst = ThreeSumInstance(
            gen.integers(-9, 10, 10), gen.integers(-9, 10, 9), gen.integers(-9, 10, 6)
        )
        build = three_sum_oracles
    original = inst.b.copy()
    seen = []

    def decision(sub):
        seen.append(sub.b.copy())
        sub.b[0] = 1 - sub.b[0]
        return False

    oracles = build(inst, decision)
    bound = oracles.bind_right([6, 2, 4])
    for left in ([0, 1], [5]):
        with pytest.raises(ValueError, match="read-only"):
            oracles.independence_query(left, bound)
    assert len(seen) == 2
    np.testing.assert_array_equal(seen[0], seen[1])
    np.testing.assert_array_equal(seen[0], original[[2, 4, 6]])
    np.testing.assert_array_equal(inst.b, original)


def test_count_3sum_exact_fallbacks():
    inst = ThreeSumInstance([0, 0], [0, 0], [0])
    assert count_3sum(inst, 0.1, RngStream(1)) == 4
    gen = np.random.default_rng(204)
    for seed in range(10):
        inst = ThreeSumInstance(
            gen.integers(-40, 41, size=20),
            gen.integers(-40, 41, size=20),
            gen.integers(-40, 41, size=20),
        )
        eps = 60.0**-3  # at or below n^-3: exact path
        assert count_3sum(inst, eps, RngStream(seed)) == cubic_3sum_count(inst)


def test_count_3sum_no_witnesses():
    inst = ThreeSumInstance([1, 2], [3, 4], [100, 200])
    assert count_3sum(inst, 0.5, RngStream(2)) == 0


def test_count_3sum_duplicate_c_through_estimator_path():
    # eps far above n^-3, so the layered estimator path runs (the bipartite
    # instance is small enough that each layer is enumerated exactly).
    gen = np.random.default_rng(205)
    values = np.arange(-30, 30)  # 60 distinct values
    inst = ThreeSumInstance(
        gen.integers(-30, 31, size=60),
        gen.integers(-30, 31, size=60),
        np.concatenate([values, values[:20]]),  # 20 values with multiplicity 2
    )
    stats = CountStats()
    got = count_3sum(inst, 0.4, RngStream(3), stats=stats)
    assert got == cubic_3sum_count(inst)
    assert len(stats.edgecount) == 2  # one estimator pass per multiplicity level


# -- OV ----------------------------------------------------------------------


def test_decide_ov_examples():
    assert decide_ov(OvInstance([[1, 0]], [[0, 1]])) is True
    assert decide_ov(OvInstance([[1, 1]], [[1, 0]])) is False


def test_decide_ov_agrees_with_naive_loop():
    gen = np.random.default_rng(210)
    for _ in range(300):
        inst = OvInstance(
            (gen.random((40, 32)) < gen.uniform(0.1, 0.4)).astype(np.uint8),
            (gen.random((40, 32)) < gen.uniform(0.1, 0.4)).astype(np.uint8),
        )
        assert decide_ov(inst) == (naive_ov_count(inst) > 0)


def test_count_ov_exact_matches_naive():
    gen = np.random.default_rng(211)
    for _ in range(30):
        inst = OvInstance(
            (gen.random((25, 16)) < 0.25).astype(np.uint8),
            (gen.random((25, 16)) < 0.25).astype(np.uint8),
        )
        assert count_ov_exact(inst) == naive_ov_count(inst)


def test_ov_oracles_consistency():
    gen = np.random.default_rng(212)
    inst = OvInstance(
        (gen.random((40, 24)) < 0.2).astype(np.uint8),
        (gen.random((40, 24)) < 0.2).astype(np.uint8),
    )
    oracles = ov_oracles(inst)
    edges = ov_pairs(inst)
    assert edges.any() and not edges.all()
    np.testing.assert_array_equal(oracles.adjacency_block(np.arange(40), np.arange(40)), edges)
    for _ in range(200):
        lsel = np.flatnonzero(gen.random(40) < 0.3)
        rsel = np.flatnonzero(gen.random(40) < 0.3)
        inside = edges[np.ix_(lsel, rsel)].any()
        assert oracles.independence_query(lsel, rsel) == (not inside)
        assert decide_ov(OvInstance(inst.a[lsel], inst.b[rsel])) == inside


def test_count_ov_trivial_cases():
    ones = np.ones((10, 8), dtype=np.uint8)
    assert count_ov(OvInstance(ones, ones), 0.5, RngStream(1)) == 0
    zeros = np.zeros((10, 8), dtype=np.uint8)
    assert count_ov(OvInstance(zeros, zeros), 0.5, RngStream(2)) == 100


def test_count_ov_exact_fallback():
    gen = np.random.default_rng(213)
    inst = OvInstance(
        (gen.random((30, 16)) < 0.3).astype(np.uint8),
        (gen.random((30, 16)) < 0.3).astype(np.uint8),
    )
    assert count_ov(inst, 60.0**-2, RngStream(3)) == naive_ov_count(inst)


# -- NWT ---------------------------------------------------------------------


def _single_triangle(w_ab, w_bc, w_ca):
    return NwtInstance.from_edges(
        ([0], [1], [2]), [(0, 1, w_ab), (1, 2, w_bc), (2, 0, w_ca)], n_vertices=3
    )


def test_decide_nwt_single_triangle():
    assert decide_nwt(_single_triangle(1, 1, -3)) is True
    assert decide_nwt(_single_triangle(1, 1, -1)) is False


def test_nwt_rejects_intra_part_edges():
    with pytest.raises(ValueError):
        NwtInstance.from_edges(([0, 1], [2], [3]), [(0, 1, 5)], n_vertices=4)


def test_count_nwt_exact_matches_enumeration():
    gen = np.random.default_rng(220)
    for _ in range(20):
        inst = random_nwt(gen, 6, 5, 7)
        assert count_nwt_exact(inst) == len(negative_triangles(inst))


def test_nwt_oracles_consistency_and_closure():
    gen = np.random.default_rng(221)
    for w in (50, 2):  # at w = 2, zero-weight (not negative) triangles are common
        inst = random_nwt(gen, 8, 7, 7, w=w)
        oracles = nwt_oracles(inst)
        nl, nr = oracles.left_size, oracles.right_size
        edges = nwt_pairs(inst)
        assert edges.any() and not edges.all()
        np.testing.assert_array_equal(oracles.adjacency_block(np.arange(nl), np.arange(nr)), edges)
        seen = []
        recording = nwt_oracles(inst, lambda sub: seen.append(sub) or decide_nwt(sub))
        for _ in range(150):
            lsel = np.flatnonzero(gen.random(nl) < 0.4)
            rsel = np.flatnonzero(gen.random(nr) < 0.4)
            expected = not edges[np.ix_(lsel, rsel)].any()
            assert oracles.independence_query(lsel, rsel) == expected
            # the decider's sub-instance is a valid instance with the same answer
            seen.clear()
            assert recording.independence_query(lsel, rsel) == expected
            assert len(seen) == 1 and isinstance(seen[0], NwtInstance)
            assert decide_nwt(seen[0]) == (not expected)


def test_nwt_custom_decision_receives_subinstance():
    gen = np.random.default_rng(222)
    inst = random_nwt(gen, 9, 5, 6)
    seen = []

    def decision(sub):
        seen.append(sub)
        return decide_nwt(sub)

    oracles = nwt_oracles(inst, decision)
    edges = nwt_pairs(inst)
    for _ in range(100):
        lsel = np.flatnonzero(gen.random(oracles.left_size) < 0.4)
        rsel = np.flatnonzero(gen.random(oracles.right_size) < 0.4)
        seen.clear()
        oracles.independence_query(lsel, rsel)
        # compact: the window's A vertices plus all of B and C, not all n vertices
        assert len(seen) == 1 and isinstance(seen[0], NwtInstance)
        assert seen[0].n_vertices == seen[0].n == lsel.size + 5 + 6
        assert decide_nwt(seen[0]) == edges[np.ix_(lsel, rsel)].any()
        assert count_nwt_exact(seen[0]) == int(edges[np.ix_(lsel, rsel)].sum())


def test_nwt_rejects_repeated_edges():
    parts = ([0], [1], [2])
    # the second listing would overwrite w(0, 1) and close a negative triangle
    for repeat in ((0, 1, -9), (1, 0, -9), (0, 1, 1)):
        with pytest.raises(ValueError, match="listed twice"):
            NwtInstance.from_edges(parts, [(0, 1, 1), (1, 2, 1), (0, 2, 1), repeat])


def test_nwt_rejects_weights_too_large_for_int64_sums():
    # Three weights of 2^62 sum past 2^63 and wrap to a negative triangle.
    limit = (2**63 - 1) // 3
    for w in (2**62, limit + 1, -limit - 1):
        with pytest.raises(ValueError, match="too large"):
            _single_triangle(w, w, w)
    inst = _single_triangle(limit, -limit, -limit)
    assert (count_nwt_exact(inst), decide_nwt(inst), decide_nwt_via_apsp(inst)) == (1, True, True)
    inst = _single_triangle(limit, limit, limit)
    assert (count_nwt_exact(inst), decide_nwt(inst), decide_nwt_via_apsp(inst)) == (0, False, False)


def test_count_nwt_trivial_and_exact_fallback():
    inst = _single_triangle(1, 1, 1)
    assert count_nwt(inst, 0.5, RngStream(1)) == 0
    inst = _single_triangle(1, 1, -3)
    assert count_nwt(inst, 0.5, RngStream(2)) == 1
    gen = np.random.default_rng(223)
    inst = random_nwt(gen, 6, 6, 6)
    # 17.9^-3 lies above n^-3 = 18^-3, so this runs the estimator, which
    # counts exactly because n = 18 is under exact_cutoff; the n^-3 boundary
    # itself is test_counters_count_exactly_at_eps_n_to_the_minus_k.
    eps = 17.9**-3
    assert count_nwt(inst, eps, RngStream(3)) == count_nwt_exact(inst)


@pytest.mark.parametrize("problem", ["3sum", "ov", "nwt"])
def test_counters_count_exactly_at_eps_n_to_the_minus_k(problem):
    # At eps exactly n^-k (k = 3 for 3SUM and NWT, 2 for OV) every counter
    # takes its exact path: no estimator pass runs.
    gen = np.random.default_rng(225)
    if problem == "3sum":
        inst = ThreeSumInstance(*(gen.integers(-9, 10, 6) for _ in range(3)))
        count, exact, k = count_3sum, count_3sum_exact, 3
    elif problem == "ov":
        inst = OvInstance(gen.random((9, 5)) < 0.4, gen.random((9, 5)) < 0.4)
        count, exact, k = count_ov, count_ov_exact, 2
    else:
        inst = random_nwt(gen, 6, 6, 6)
        count, exact, k = count_nwt, count_nwt_exact, 3
    assert inst.n == 18
    stats = CountStats()
    assert count(inst, 18.0**-k, RngStream(4), stats=stats) == exact(inst)
    assert stats.edgecount == []


# -- all three kernels -------------------------------------------------------


def test_kernels_agree_with_loops_across_block_boundaries(monkeypatch):
    # Blocks of 5 left rows: every derived query crosses block boundaries.
    monkeypatch.setattr(oracles_module, "_CHUNK", 5)
    gen = np.random.default_rng(224)
    ts = ThreeSumInstance(
        gen.integers(-20, 21, size=23), gen.integers(-20, 21, size=9),
        gen.integers(-20, 21, size=12),
    )
    ov = OvInstance(
        (gen.random((23, 12)) < 0.3).astype(np.uint8),
        (gen.random((9, 12)) < 0.3).astype(np.uint8),
    )
    nwt = random_nwt(gen, 23, 4, 4, w=5)
    cases = [
        (three_sum_pairs(ts), three_sum_oracles(ts), decide_3sum(ts), count_3sum_exact(ts)),
        (ov_pairs(ov), ov_oracles(ov), decide_ov(ov), count_ov_exact(ov)),
        (nwt_pairs(nwt), nwt_oracles(nwt), decide_nwt(nwt), count_nwt_exact(nwt)),
    ]
    for counts, oracles, decided, exact in cases:
        edges = counts > 0
        assert edges.any() and not edges.all()
        assert decided is True and exact == int(counts.sum())
        left, right = np.arange(oracles.left_size), np.arange(oracles.right_size)
        np.testing.assert_array_equal(oracles.adjacency_block(left, right), edges)
        for u in (0, 7, 22):
            np.testing.assert_array_equal(oracles.adjacency_row(u, right), edges[u])
        for _ in range(100):
            lsel = np.flatnonzero(gen.random(oracles.left_size) < 0.5)
            rsel = np.flatnonzero(gen.random(oracles.right_size) < 0.3)
            inside = edges[np.ix_(lsel, rsel)].any()
            assert oracles.independence_query(lsel, rsel) == (not inside)


# -- APSP reduction ----------------------------------------------------------


def bellman_ford(weights, source):
    n = weights.shape[0]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    for _ in range(n - 1):
        expanded = dist[:, None] + weights
        dist = np.minimum(dist, expanded.min(axis=0))
    return dist


def test_floyd_warshall_single_edge():
    weights = np.full((6, 6), np.inf)
    weights[0, 3] = 5.0
    out = floyd_warshall(weights)
    assert out[0, 3] == 5.0
    assert np.isinf(out[3, 0])
    assert out[1, 1] == 0.0
    assert weights[1, 1] == np.inf  # the input is not overwritten


def test_floyd_warshall_two_hop_negative():
    weights = np.full((3, 3), np.inf)
    weights[0, 1] = 2.0
    weights[1, 2] = -4.0
    assert floyd_warshall(weights)[0, 2] == -2.0


def test_floyd_warshall_matches_bellman_ford():
    gen = np.random.default_rng(230)
    n = 20  # 60 layered vertices
    weights = np.full((3 * n, 3 * n), np.inf)
    for layer in range(2):
        for u in range(n):
            for v in range(n):
                if gen.random() < 0.3:
                    weights[layer * n + u, (layer + 1) * n + v] = float(
                        gen.integers(-10, 11)
                    )
    out = floyd_warshall(weights)
    for source in range(0, 3 * n, 7):
        np.testing.assert_allclose(out[source], bellman_ford(weights, source))


def test_floyd_warshall_size_cap():
    with pytest.raises(ValueError):
        floyd_warshall(np.full((2049, 2049), np.inf))
    with pytest.raises(ValueError):
        floyd_warshall(np.zeros((3, 4)))


def test_apsp_check_on_path_graph_is_false():
    # u - x - v path: a (u,1) -> (v,3) walk exists but {u,v} is not an edge,
    # so no triangle closes.
    inst = NwtInstance.from_edges(([0], [1], [2]), [(0, 1, 1), (1, 2, 1)], n_vertices=3)
    weights, check = nwt_to_apsp(inst)
    assert check(floyd_warshall(weights)) is False


def test_apsp_check_single_triangle_hand_computation():
    inst = _single_triangle(1, 1, -3)
    weights, check = nwt_to_apsp(inst)
    out = floyd_warshall(weights)
    # the cheapest (u,1) -> (v,3) walk for edge {u,v} = {2,0} (weight -3)
    # goes through the opposite vertex: 1 + 1 = 2; 2 + (-3) < 0
    assert check(out) is True


def test_nwt_to_apsp_weights_match_a_per_edge_loop():
    gen = np.random.default_rng(232)
    inst = random_nwt(gen, 6, 5, 4, density=0.6)
    n = inst.n_vertices
    expected = np.full((3 * n, 3 * n), np.inf)
    for u in range(n):
        for v in range(n):
            if inst.adjacency[u, v]:
                for layer in (0, 1):
                    expected[layer * n + u, (layer + 1) * n + v] = float(inst.weights[u, v])
    weights, _ = nwt_to_apsp(inst)
    np.testing.assert_array_equal(weights, expected)


def test_decide_nwt_agrees_with_apsp_route():
    gen = np.random.default_rng(231)
    for _ in range(30):
        inst = random_nwt(gen, 5, 5, 5, density=float(gen.uniform(0.2, 0.9)))
        assert decide_nwt(inst) == decide_nwt_via_apsp(inst)


# -- noisy decision wiring ----------------------------------------------------


def test_noisy_decision_engages_amplification():
    # All-ones vectors: no orthogonal pair anywhere.  A decider that lies
    # 20% of the time must be majority-amplified back to the truth; every
    # outer independence query costs an odd number r of decider calls.
    gen = np.random.default_rng(240)
    inst = OvInstance(np.ones((50, 4), dtype=np.uint8), np.ones((150, 4), dtype=np.uint8))

    def noisy_decide(sub):
        truth = decide_ov(sub)
        return (not truth) if gen.random() < 0.2 else truth

    stats = CountStats()
    eps = 0.25
    value = count_ov(
        inst, eps, RngStream(7), decision=noisy_decide,
        decision_failure_prob=0.2, stats=stats,
        config=EdgeCountConfig(exact_cutoff=0),
    )
    assert value == 0
    r = repetitions_for(eps**2 / (2000.0 * math.log(200) ** 6))
    assert r % 2 == 1
    assert stats.independence_calls % r == 0
    assert stats.independence_calls >= r


# -- pinned runs ----------------------------------------------------------------


def _pinned_run(count, inst, seed, **kwargs):
    stats = CountStats()
    value = count(inst, 0.25, RngStream(seed), stats=stats, **kwargs)
    paths = [(e.exit_branch, e.halvings, e.removals) for e in stats.edgecount]
    return value, stats.independence_calls, stats.adjacency_calls, paths


def test_reduction_runs_are_pinned():
    # Fixed-seed estimator runs through each kernel, pinned to recorded
    # values: a change to how blocks are formed must reproduce every count,
    # query and branch.
    first_pass = [("first-pass", 0, 0)]
    for seed, expected in ((1, (69_127, 2_057, 4_175_872)), (2, (61_603, 2_059, 4_171_776))):
        ov = generate(GeneratorSpec(problem=Problem.OV, n=4096, d=64, density=0.25, seed=seed))
        assert _pinned_run(count_ov, ov, 10 + seed) == (*expected, first_pass)

    # 3210 B-C edges: the 2^19-pair cap cuts blocks to 163 rows of A.
    nwt = generate(GeneratorSpec(
        problem=Problem.NWT, n=460, parts=(300, 80, 80), density=0.5, weight_bound=50, seed=31,
    ))
    assert nwt_oracles(nwt).right_size == 3210
    config = EdgeCountConfig(exact_cutoff=1000)
    for decision in (None, decide_nwt):
        run = _pinned_run(count_nwt, nwt, 13, config=config, decision=decision)
        assert run == (117_674, 300, 963_000, first_pass)

    gen = np.random.default_rng(14)  # duplicate C: three multiplicity layers
    ts = ThreeSumInstance(
        gen.integers(-300, 301, 400), gen.integers(-300, 301, 400),
        gen.integers(-100, 101, 60) // 3 * 3,
    )
    run = _pinned_run(count_3sum, ts, 15, config=EdgeCountConfig(exact_cutoff=500))
    assert run == (14_346, 1_251, 448_800, 3 * first_pass)
