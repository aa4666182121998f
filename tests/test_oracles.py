"""Oracle contracts: independence vs explicit edges, counters, amplification."""

import tracemalloc

import numpy as np
import pytest

from fgcount.oracles import (
    BipartiteOracles,
    _block_rows,
    _pack_rows,
    amplified_independence,
    amplify,
    edge_set_oracles,
    matrix_oracles,
    repetitions_for,
)


def test_independence_matches_edge_enumeration_small_graphs():
    # For graphs up to 64 vertices, compare the oracle's answer against a
    # direct count of edges inside the queried subset, over many sampled
    # subsets per graph.
    gen = np.random.default_rng(123)
    for _ in range(20):
        left = int(gen.integers(1, 33))
        right = int(gen.integers(1, 33))
        adj = gen.random((left, right)) < 0.15
        oracles = matrix_oracles(adj)
        for _ in range(50):
            lsel = np.flatnonzero(gen.random(left) < 0.4)
            rsel = np.flatnonzero(gen.random(right) < 0.4)
            inside = int(adj[np.ix_(lsel, rsel)].sum())
            assert oracles.independence_query(lsel, rsel) == (inside == 0)


def test_adjacency_row_and_block_agree_with_matrix():
    gen = np.random.default_rng(5)
    adj = gen.random((40, 30)) < 0.2
    oracles = matrix_oracles(adj)
    rsel = np.arange(0, 30, 2)
    np.testing.assert_array_equal(oracles.adjacency_row(3, rsel), adj[3, rsel])
    lsel = np.asarray([0, 7, 21])
    np.testing.assert_array_equal(
        oracles.adjacency_block(lsel, rsel), adj[np.ix_(lsel, rsel)]
    )


def test_counters_count_each_probed_pair():
    adj = np.zeros((10, 10), dtype=bool)
    oracles = matrix_oracles(adj)
    oracles.independence_query([0, 1], [2])
    assert oracles.independence_calls == 1
    oracles.adjacency_query(0, 0)
    oracles.adjacency_row(1, np.arange(10))
    oracles.adjacency_block(np.arange(3), np.arange(4))
    assert oracles.adjacency_calls == 1 + 10 + 12


def test_counters_match_instrumented_wrapper_exactly():
    # An external wrapper that tallies raw probe volume must agree with the
    # oracle object's own counters.
    gen = np.random.default_rng(17)
    adj = gen.random((25, 25)) < 0.3
    tally = {"independence": 0, "adjacency": 0}

    def independence(left, right):
        tally["independence"] += 1
        return not adj[np.ix_(left, right)].any()

    def adjacency_block(left, right):
        tally["adjacency"] += len(left) * len(right)
        return adj[np.ix_(left, right)]

    oracles = BipartiteOracles(25, 25, independence, adjacency_block)
    for _ in range(30):
        lsel = np.flatnonzero(gen.random(25) < 0.5)
        rsel = np.flatnonzero(gen.random(25) < 0.5)
        oracles.independence_query(lsel, rsel)
        if lsel.size and rsel.size:
            assert oracles.adjacency_query(lsel[0], rsel[0]) == adj[lsel[0], rsel[0]]
            np.testing.assert_array_equal(oracles.adjacency_row(lsel[0], rsel), adj[lsel[0], rsel])
            oracles.adjacency_block(lsel, rsel)
    assert oracles.independence_calls == tally["independence"]
    assert oracles.adjacency_calls == tally["adjacency"]


def test_edge_set_constructor():
    oracles = edge_set_oracles(3, 3, [(0, 1), (2, 2)])
    assert oracles.adjacency_query(0, 1)
    assert not oracles.adjacency_query(1, 1)
    assert oracles.count_edges_incident(np.arange(3), np.arange(3)) == 2


def test_out_of_range_subset_rejected():
    oracles = edge_set_oracles(3, 3, [])
    with pytest.raises(IndexError):
        oracles.independence_query([3], [0])


@pytest.mark.parametrize("u, v", [(-1, 0), (3, 0), (0, -1), (0, 4)])
def test_out_of_range_adjacency_rejected(u, v):
    # A negative index must not wrap around to the last row or column.
    oracles = matrix_oracles(np.ones((3, 4), dtype=bool))
    with pytest.raises(IndexError):
        oracles.adjacency_query(u, v)
    with pytest.raises(IndexError):
        oracles.adjacency_row(u, [0, v])
    with pytest.raises(IndexError):
        oracles.adjacency_block([0, u], [v, 1])
    assert oracles.adjacency_calls == 0


# -- amplification ----------------------------------------------------------


def test_amplify_deterministic_base_identity():
    calls = []

    def base(x):
        calls.append(x)
        return x > 0

    decider = amplify(base, 0.001)
    for x in (-3, -1, 1, 5):
        calls.clear()
        assert decider(x) == (x > 0)
        assert len(calls) % 2 == 1


def test_amplify_high_target_degenerates_to_single_call():
    calls = []

    def base():
        calls.append(1)
        return True

    decider = amplify(base, 0.5)
    assert decider() is True
    assert len(calls) == 1


def test_repetition_count_formula():
    # smallest odd r >= 18 ln(2/target)
    assert repetitions_for(0.5) == 1
    assert repetitions_for(1 / 3) == 1
    r = repetitions_for(0.01)
    assert r % 2 == 1
    assert r >= 18 * np.log(200.0)
    assert r <= 18 * np.log(200.0) + 2


def test_amplify_rejects_bad_target():
    with pytest.raises(ValueError):
        amplify(lambda: True, 0.0)
    with pytest.raises(ValueError):
        amplify(lambda: True, 1.0)


def test_amplified_coin_failure_rate():
    # Base decider correct with probability exactly 2/3 (the worst case the
    # contract admits); after amplification to target 0.01, the empirical
    # failure rate over many trials must stay within binomial noise of the
    # target: <= 0.01 + 3 sqrt(0.01 * 0.99 / trials).
    gen = np.random.default_rng(404)
    truth = True

    def base():
        return truth if gen.random() < 2 / 3 else (not truth)

    decider = amplify(base, 0.01)
    trials = 10_000
    failures = sum(1 for _ in range(trials) if decider() is not truth)
    slack = 3 * np.sqrt(0.01 * 0.99 / trials)
    assert failures / trials <= 0.01 + slack


def test_amplified_independence_wrapper_counts_on_inner():
    gen = np.random.default_rng(3)
    adj = gen.random((30, 30)) < 0.1
    inner = matrix_oracles(adj)

    wrapped = amplified_independence(inner, 0.05)
    lsel, rsel = np.arange(5), np.arange(5)
    truth = inner.count_edges_incident(lsel, rsel) == 0
    before_adj = inner.adjacency_calls
    assert wrapped.independence_query(lsel, rsel) == truth
    # one outer query fans out into an odd number r of raw inner queries
    r = repetitions_for(0.05)
    assert r > 1 and r % 2 == 1
    assert inner.independence_calls == r
    # adjacency passes straight through to the inner counters
    wrapped.adjacency_query(0, 0)
    wrapped.adjacency_row(1, [0, 1, 2])
    block = wrapped.adjacency_block(lsel, rsel)
    np.testing.assert_array_equal(block, adj[:5, :5])
    assert inner.adjacency_calls == before_adj + 1 + 3 + 25


def test_amplified_wrapper_fixes_a_noisy_decider():
    # A decider lying with probability 0.3 on a fixed query; the majority
    # wrapper at a small target should essentially always recover the truth.
    gen = np.random.default_rng(77)
    adj = np.zeros((8, 8), dtype=bool)
    adj[0, 0] = True

    def noisy_independence(left, right):
        truth = not adj[np.ix_(left, right)].any()
        return truth if gen.random() >= 0.3 else (not truth)

    oracles = BipartiteOracles(8, 8, noisy_independence, lambda u, v: adj[np.ix_(u, v)])
    wrapped = amplified_independence(oracles, 1e-4)
    wrong = 0
    for _ in range(200):
        if wrapped.independence_query([0], [0]) is not False:
            wrong += 1
    assert wrong == 0


@pytest.mark.parametrize(
    "n_left, n_right", [(600, 37), (0, 37), (600, 0), (256, 5), (257, 5), (513, 90)]
)
def test_chunked_adjacency_block_matches_fancy_indexing(n_left, n_right):
    gen = np.random.default_rng(n_left + n_right)
    adj = gen.random((700, 90)) < 0.2
    left = gen.integers(0, 700, size=n_left)  # crosses 256-row chunks, with repeats
    right = gen.integers(0, 90, size=n_right)
    oracles = matrix_oracles(adj)
    expected = adj[np.ix_(left, right)]
    block = oracles.adjacency_block(left, right)
    assert block.shape == (n_left, n_right)
    np.testing.assert_array_equal(block, expected)
    counts = oracles.neighbor_counts(left, right)
    assert counts.dtype == np.int64
    np.testing.assert_array_equal(counts, expected.sum(axis=0))
    assert oracles.count_edges_incident(left, right) == int(expected.sum())
    assert oracles.adjacency_calls == 3 * n_left * n_right


def test_backend_sees_one_block_at_a_time():
    # A right side past 2^11 entries lowers the row cap below 256; every
    # entry point hands the backend blocks within the cap, and the pairs it
    # sees add up to the adjacency counter.
    gen = np.random.default_rng(31)
    adj = gen.random((700, 3000)) < 0.01
    seen = []

    def backend(left, right):
        seen.append((left.size, right.size))
        return adj[np.ix_(left, right)]

    oracles = BipartiteOracles(700, 3000, lambda left, right: True, backend)
    left, right = np.arange(700), np.arange(3000)
    assert _block_rows(right.size) < 256
    np.testing.assert_array_equal(oracles.adjacency_block(left, right), adj)
    np.testing.assert_array_equal(oracles.neighbor_counts(left, right), adj.sum(axis=0))
    assert oracles.count_edges_incident(left[:300], right[:40]) == int(adj[:300, :40].sum())
    oracles.adjacency_row(5, right)
    oracles.adjacency_query(6, 7)
    assert max(rows for rows, cols in seen if cols == right.size) == _block_rows(right.size)
    assert all(rows <= _block_rows(cols) for rows, cols in seen)
    assert sum(rows * cols for rows, cols in seen) == oracles.adjacency_calls


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_matrix_oracles_build_makes_no_padded_copy():
    adj = np.random.default_rng(40).random((4000, 2000)) < 0.1
    assert _peak_bytes(lambda: matrix_oracles(adj)) < adj.nbytes / 2


def test_count_edges_incident_streams_its_blocks():
    adj = np.random.default_rng(41).random((4000, 2000)) < 0.1
    oracles = matrix_oracles(adj)
    left, right = np.arange(4000), np.arange(2000)
    counted = []
    peak = _peak_bytes(lambda: counted.append(oracles.count_edges_incident(left, right)))
    assert counted == [int(adj.sum())]
    assert peak < adj.nbytes / 2


@pytest.mark.parametrize("rows", [0, 3])
@pytest.mark.parametrize("dtype", [bool, np.uint8])
@pytest.mark.parametrize("width", [0, 1, 7, 8, 63, 64, 65, 130])
def test_pack_rows_matches_bit_loop(width, dtype, rows):
    matrix = (np.random.default_rng(width).random((rows, width)) < 0.5).astype(dtype)
    expected = np.zeros((rows, max(1, (width + 63) // 64)), dtype=np.uint64)
    for i in range(rows):
        for j in range(width):
            if matrix[i, j]:
                expected[i, j // 64] |= np.uint64(1 << (j % 64))
    packed = _pack_rows(matrix)
    assert packed.dtype == np.uint64
    np.testing.assert_array_equal(packed, expected)


@pytest.mark.parametrize("bad", [np.ones(3, dtype=bool), [True], [1.7], np.array([0.0, 1.0])])
def test_non_integer_indices_rejected(bad):
    # A boolean mask or a float array is not a list of vertex indices.
    oracles = matrix_oracles(np.eye(3, dtype=bool))
    queries = (
        oracles.independence_query, oracles.adjacency_block,
        oracles.neighbor_counts, oracles.count_edges_incident,
    )
    for query in queries:
        with pytest.raises(TypeError):
            query(bad, [1])
        with pytest.raises(TypeError):
            query([1], bad)
    with pytest.raises(TypeError):
        oracles.adjacency_row(1, bad)
    assert (oracles.independence_calls, oracles.adjacency_calls) == (0, 0)
    # An empty list is float64 to numpy but still the empty subset.
    assert oracles.count_edges_incident([], [0, 1]) == 0
    assert oracles.independence_query([], [])
