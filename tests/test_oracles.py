"""Oracle contracts: independence vs explicit edges, counters, amplification."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from fgcount.oracles import (
    _CHUNK,
    BipartiteOracles,
    _block_rows,
    _pack_rows,
    amplified_independence,
    amplify,
    matrix_oracles,
    repetitions_for,
)
from fgcount.reductions import (
    NwtInstance,
    OvInstance,
    ThreeSumInstance,
    decide_3sum,
    decide_nwt,
    decide_ov,
    nwt_oracles,
    ov_oracles,
    three_sum_oracles,
)


def edge_set_oracles(left_size, right_size, edges):
    """Oracle pair of the graph with the given (left, right) edge list."""
    adj = np.zeros((left_size, right_size), dtype=bool)
    for u, v in edges:
        adj[u, v] = True
    return matrix_oracles(adj)


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

    def independence(right):
        def independent(left):
            tally["independence"] += 1
            return not adj[np.ix_(left, right)].any()

        return independent

    def adjacency(left, right):
        tally["adjacency"] += len(left) * len(right)
        return adj[np.ix_(left, right)].sum(axis=0)

    oracles = BipartiteOracles(25, 25, independence, adjacency)
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


def test_oracle_constructors_reject_bad_sizes_and_shapes():
    with pytest.raises(ValueError):
        BipartiteOracles(-1, 2, lambda right: lambda left: True, lambda u, v: v * 0)
    with pytest.raises(ValueError):
        matrix_oracles(np.ones(3, dtype=bool))


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

    def noisy_independence(right):
        def noisy(left):
            truth = not adj[np.ix_(left, right)].any()
            return truth if gen.random() >= 0.3 else (not truth)

        return noisy

    oracles = BipartiteOracles(
        8, 8, noisy_independence, lambda u, v: adj[np.ix_(u, v)].sum(axis=0)
    )
    wrapped = amplified_independence(oracles, 1e-4)
    wrong = 0
    for _ in range(200):
        if wrapped.independence_query([0], [0]) is not False:
            wrong += 1
    assert wrong == 0


@pytest.mark.parametrize(
    "n_left, n_right",
    [(600, 37), (0, 37), (600, 0), (256, 5), (257, 5), (513, 90), (255, 5), (254, 5)],
)
def test_chunked_adjacency_block_matches_fancy_indexing(n_left, n_right):
    gen = np.random.default_rng(n_left + n_right)
    adj = gen.random((700, 90)) < 0.2
    left = gen.integers(0, 700, size=n_left)  # crosses _CHUNK-row chunks, with repeats
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


def test_backend_sees_the_whole_arrays_in_one_call():
    # neighbor_counts, and count_edges_incident without an edges backend,
    # each hand the backend the checked arrays in one call: the caller's
    # order, repeats kept, an empty left too.  The single-pair, row and block
    # entry points make one-row calls.  The pairs the backend sees add up to
    # the adjacency counter.
    gen = np.random.default_rng(31)
    adj = gen.random((700, 3000)) < 0.01
    seen = []

    def backend(left, right):
        seen.append((left.copy(), right.copy()))
        return adj[np.ix_(left, right)].sum(axis=0)

    oracles = BipartiteOracles(700, 3000, lambda right: lambda left: True, backend)
    left = gen.integers(0, 700, size=900)  # unsorted, with repeats
    right = gen.integers(0, 3000, size=3000)
    assert left.size > _block_rows(right.size)  # more rows than one block: none split off
    calls = [
        (oracles.neighbor_counts, left.tolist(), right),
        (oracles.count_edges_incident, left, right[:40]),
        (oracles.neighbor_counts, [], right),
        (oracles.count_edges_incident, left[:0], right[:40]),
    ]
    for query, lsel, rsel in calls:
        before = len(seen)
        expected = adj[np.ix_(np.asarray(lsel, dtype=np.int64), rsel)]
        answer = query(lsel, rsel)
        if query == oracles.neighbor_counts:
            np.testing.assert_array_equal(answer, expected.sum(axis=0))
        else:
            assert answer == int(expected.sum())
        assert len(seen) == before + 1
        given_left, given_right = seen[-1]
        assert given_left.dtype == given_right.dtype == np.int64
        assert given_left.tolist() == list(lsel) and given_right.tolist() == rsel.tolist()
    before = len(seen)
    block = oracles.adjacency_block(left[:50], right)
    np.testing.assert_array_equal(block, adj[np.ix_(left[:50], right)])
    oracles.adjacency_row(5, right)
    oracles.adjacency_query(6, 7)
    rows = [given_left.tolist() for given_left, _ in seen[before:]]
    assert rows == [[u] for u in left[:50].tolist()] + [[5], [6]]
    assert sum(lsel.size * rsel.size for lsel, rsel in seen) == oracles.adjacency_calls


@pytest.mark.parametrize(
    "answer", [np.array([1]), np.ones((1, 6), dtype=np.int64)], ids=["length-1", "2-d"]
)
def test_an_answer_of_the_wrong_shape_is_rejected(answer):
    # Added into a count vector, a length-1 answer would broadcast to every
    # right vertex, so neighbor_counts would read 1 for each of them.
    oracles = BipartiteOracles(4, 6, lambda right: lambda left: True, lambda left, right: answer)
    for query in (oracles.neighbor_counts, oracles.count_edges_incident, oracles.adjacency_block):
        with pytest.raises(ValueError):
            query([0, 1], np.arange(6))


def test_uint8_chunk_sums_are_exact_at_the_cap():
    # matrix_oracles sums a chunk's rows in uint8, which holds 255 at most,
    # so a chunk must not hold more rows than that.  In an all-True matrix
    # every column of a full chunk sums to the cap.
    assert _CHUNK <= 255
    adj = np.ones((2 * _CHUNK + 3, 7), dtype=bool)
    oracles = matrix_oracles(adj)
    right = np.arange(7)
    lefts = [
        np.arange(_CHUNK), np.arange(_CHUNK + 1), np.arange(2 * _CHUNK),
        np.full(_CHUNK, 4),  # one row, _CHUNK times
    ]
    for left in lefts:
        counts = oracles.neighbor_counts(left, right)
        np.testing.assert_array_equal(counts, adj[left].sum(axis=0))
        assert counts.tolist() == [left.size] * 7


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


# -- binding a right set -----------------------------------------------------


def _small_nwt(gen):
    ids = np.arange(18)
    parts = (ids[:6], ids[6:12], ids[12:])
    edges = [
        (int(u), int(v), int(gen.integers(-20, 21)))
        for rows, cols in ((parts[0], parts[1]), (parts[0], parts[2]), (parts[1], parts[2]))
        for u in rows
        for v in cols
        if gen.random() < 0.6
    ]
    return NwtInstance.from_edges(parts, edges, n_vertices=18)


_GEN = np.random.default_rng(90)
_ADJ = _GEN.random((40, 30)) < 0.08
_OV = OvInstance(_GEN.random((24, 10)) < 0.3, _GEN.random((20, 10)) < 0.3)
_3SUM = ThreeSumInstance(
    _GEN.integers(-30, 31, 24), _GEN.integers(-30, 31, 20), _GEN.integers(-30, 31, 12)
)
_NWT = _small_nwt(_GEN)
_BINDING_CASES = {
    "matrix": lambda: matrix_oracles(_ADJ),
    "amplified": lambda: amplified_independence(matrix_oracles(_ADJ), 0.05),
    "ov-kernel": lambda: ov_oracles(_OV),
    "ov-decision": lambda: ov_oracles(_OV, decide_ov),
    "3sum-kernel": lambda: three_sum_oracles(_3SUM),
    "3sum-decision": lambda: three_sum_oracles(_3SUM, decide_3sum),
    "nwt-kernel": lambda: nwt_oracles(_NWT),
    "nwt-decision": lambda: nwt_oracles(_NWT, decide_nwt),
}


@pytest.mark.parametrize("case", list(_BINDING_CASES))
def test_bound_query_answers_as_the_raw_query(case):
    oracles = _BINDING_CASES[case]()
    nl, nr = oracles.left_size, oracles.right_size
    edges = oracles.adjacency_block(np.arange(nl), np.arange(nr))
    assert edges.any() and not edges.all()
    gen = np.random.default_rng(91)
    rights = [np.empty(0, dtype=np.int64)]
    rights += [gen.permutation(nr)[: int(gen.integers(1, nr + 1))] for _ in range(8)]
    for right in rights:
        bound = oracles.bind_right(right)
        lefts = [np.empty(0, dtype=np.int64)]
        lefts += [gen.permutation(nl)[: int(gen.integers(1, nl + 1))] for _ in range(10)]
        for left in lefts:
            expected = not edges[np.ix_(left, right)].any()
            assert oracles.independence_query(left, bound) == expected
            assert oracles.independence_query(left, right) == expected


def test_binding_counts_nothing_and_each_query_counts_one():
    oracles = matrix_oracles(np.eye(6, dtype=bool))
    bound = oracles.bind_right([4, 1, 3])
    assert (oracles.independence_calls, oracles.adjacency_calls) == (0, 0)
    assert not oracles.independence_query([3], bound)
    assert oracles.independence_query([0, 2], bound)
    assert oracles.independence_query([0], [5])
    assert (oracles.independence_calls, oracles.adjacency_calls) == (3, 0)


@pytest.mark.parametrize("bad", [-1, 6])
def test_right_indices_are_checked_at_bind(bad):
    oracles = matrix_oracles(np.zeros((4, 6), dtype=bool))
    with pytest.raises(IndexError):
        oracles.bind_right([0, bad])
    with pytest.raises(IndexError):
        oracles.independence_query([0], [bad, 0])
    assert oracles.independence_calls == 0


@pytest.mark.parametrize("bad", [-1, 4])
def test_left_indices_are_checked_at_query(bad):
    oracles = matrix_oracles(np.zeros((4, 6), dtype=bool))
    bound = oracles.bind_right([0, 5])
    with pytest.raises(IndexError):
        oracles.independence_query([bad, 1], bound)
    assert oracles.independence_calls == 0


_ORDER = np.random.default_rng(95).permutation(40)  # int64, like find_core's
_ACCEPTED_LEFTS = {
    "int64-view": lambda: _ORDER[3:11],
    "strided": lambda: _ORDER[::3],
    "list": lambda: _ORDER[:9].tolist(),
    "uint8": lambda: _ORDER[:7].astype(np.uint8),
    "int32": lambda: _ORDER[5:17].astype(np.int32),
    "big-endian": lambda: _ORDER[:6].astype(">i8"),
    "empty": lambda: [],
}
_REJECTED_LEFTS = {
    "bool": (lambda: np.ones(4, dtype=bool), TypeError),
    "float": (lambda: _ORDER[:4].astype(float), TypeError),
    "2-d": (lambda: _ORDER[:6].reshape(2, 3), ValueError),
    "2-d-list": (lambda: [[1, 2], [3, 4]], ValueError),
    "negative": (lambda: np.array([3, -1]), IndexError),
    "negative-list": (lambda: [3, -1], IndexError),
    "left-size": (lambda: np.array([40, 3]), IndexError),
    "left-size-list": (lambda: [40], IndexError),
}


def test_one_query_path_gives_the_same_verdicts():
    # Every left input, whatever its type, dtype or layout, is checked and
    # converted on one path: each accepted one reaches the predicate as a
    # fresh sorted int64 copy, which it may write, and each rejected one raises.
    adj = np.random.default_rng(96).random((40, 30)) < 0.05
    right = np.arange(0, 30, 4)
    received = []

    def independence(bound):
        def predicate(left):
            received.append((left.dtype, left.tolist()))
            answer = not adj[np.ix_(left, bound)].any()
            left[...] = 0
            return answer

        return predicate

    oracles = BipartiteOracles(40, 30, independence, lambda u, v: adj[np.ix_(u, v)].sum(axis=0))
    bound = oracles.bind_right(right)
    order_before = _ORDER.copy()
    verdicts = set()
    for name, make in _ACCEPTED_LEFTS.items():
        left = make()
        given = np.array(left, dtype=np.int64)
        answer = oracles.independence_query(left, bound)
        verdicts.add(answer)
        assert answer == (not adj[np.ix_(given, right)].any()), name
        assert received[-1] == (np.dtype(np.int64), sorted(given.tolist())), name
        np.testing.assert_array_equal(np.asarray(left, dtype=np.int64), given)
    np.testing.assert_array_equal(_ORDER, order_before)
    assert verdicts == {True, False}
    assert oracles.independence_calls == len(_ACCEPTED_LEFTS)
    for name, (make, error) in _REJECTED_LEFTS.items():
        with pytest.raises(error):
            oracles.independence_query(make(), bound)
    assert oracles.independence_calls == len(received) == len(_ACCEPTED_LEFTS)


def test_one_vertex_windows_are_checked_and_copied():
    # first_isolated's per-vertex queries are one-element slices of
    # find_core's int64 permutation: each must be bounds-checked and reach
    # the predicate as a fresh copy, which it may write without touching the slice.
    adj = np.random.default_rng(97).random((40, 30)) < 0.05
    right = np.arange(0, 30, 4)
    received = []

    def independence(bound):
        def predicate(left):
            received.append((left.dtype, left.tolist()))
            answer = not adj[np.ix_(left, bound)].any()
            left[...] = -1
            return answer

        return predicate

    oracles = BipartiteOracles(40, 30, independence, lambda u, v: adj[np.ix_(u, v)].sum(axis=0))
    bound = oracles.bind_right(right)
    order_before = _ORDER.copy()
    verdicts = set()
    for k in range(_ORDER.size):
        u = int(_ORDER[k])
        answer = oracles.independence_query(_ORDER[k : k + 1], bound)
        verdicts.add(answer)
        assert answer == (not adj[u, right].any()), u
        assert received[-1] == (np.dtype(np.int64), [u])
    np.testing.assert_array_equal(_ORDER, order_before)
    assert verdicts == {True, False}
    for bad in (np.array([40]), np.array([-1])):
        with pytest.raises(IndexError):
            oracles.independence_query(bad, bound)
    assert oracles.independence_calls == len(received) == _ORDER.size


def test_bound_indices_are_a_sorted_read_only_copy():
    seen = []

    def independence(right):
        seen.append(right)
        return lambda left: True

    oracles = BipartiteOracles(6, 6, independence, lambda u, v: np.zeros(len(v), dtype=int))
    right = np.array([5, 0, 3])
    bound = oracles.bind_right(right)
    np.testing.assert_array_equal(bound.indices, [0, 3, 5])
    assert seen == [bound.indices]
    assert not bound.indices.flags.writeable
    with pytest.raises(ValueError):
        bound.indices[0] = 1
    assert right.flags.writeable and right.tolist() == [5, 0, 3]


def _recording(adj, prepared):
    """Oracles over ``adj`` whose independence backend appends each right
    set it prepares to ``prepared``."""

    def independence(right):
        prepared.append(right)
        return lambda left: not adj[np.ix_(left, right)].any()

    return BipartiteOracles(
        *adj.shape, independence, lambda u, v: adj[np.ix_(u, v)].sum(axis=0)
    )


def test_a_value_bound_by_another_object_is_bound_again():
    prepared_a, prepared_b = [], []
    a = _recording(np.zeros((4, 4), dtype=bool), prepared_a)
    b = _recording(np.eye(4, dtype=bool), prepared_b)
    bound = a.bind_right([2])
    assert a.bind_right(bound) is bound
    assert a.independence_query([2], bound)
    assert not b.independence_query([2], bound)  # b has the edge (2, 2)
    assert (len(prepared_a), len(prepared_b)) == (1, 1)
    assert (a.independence_calls, b.independence_calls) == (1, 1)
    # binding anew checks the indices against the new object's right side
    narrow = matrix_oracles(np.zeros((4, 2), dtype=bool))
    with pytest.raises(IndexError):
        narrow.independence_query([0], bound)


def test_amplified_query_prepares_the_inner_object_once_per_outer_bind():
    prepared = []
    adj = np.zeros((8, 8), dtype=bool)
    adj[1, 3] = True
    inner = _recording(adj, prepared)
    wrapped = amplified_independence(inner, 0.05)
    bound = wrapped.bind_right([3, 1])
    assert len(prepared) == 1
    for left in ([0], [1], [0, 2], []):
        assert wrapped.independence_query(left, bound) == (1 not in left)
    assert len(prepared) == 1
    assert inner.independence_calls == 4 * repetitions_for(0.05)
    wrapped.independence_query([1], [3])  # raw indices: a bind of its own
    assert len(prepared) == 2


# -- a run of one-vertex queries ---------------------------------------------

# Left vertices 0..699 touch right vertex 0, and 700..799 neither 0 nor 3;
# every third left vertex touches 2.
_RUN_ADJ = np.zeros((800, 4), dtype=bool)
_RUN_ADJ[:700, 0] = True
_RUN_ADJ[::3, 2] = True


def _plain_oracles(adj):
    """Oracles over ``adj`` whose predicate is a plain function."""
    return BipartiteOracles(
        *adj.shape,
        lambda right: lambda left: not adj[np.ix_(left, right)].any(),
        lambda u, v: adj[np.ix_(u, v)].sum(axis=0),
    )


_RUN_BACKENDS = {
    "matrix": matrix_oracles,
    "plain": _plain_oracles,
    "amplified": lambda adj: amplified_independence(matrix_oracles(adj), 0.05),
}


def _run_window(length, isolated_at, seed=0):
    """An int64 window of ``length`` left vertices of ``_RUN_ADJ``: hits up
    to ``isolated_at``, an isolated vertex there, anything after it."""
    gen = np.random.default_rng(seed)
    window = gen.integers(0, 800, size=length)
    if isolated_at is None:
        isolated_at = length
    window[:isolated_at] = gen.integers(0, 700, size=isolated_at)
    if isolated_at < length:
        window[isolated_at] = gen.integers(700, 800)
    return window


def _one_by_one(oracles, window, right):
    """What ``first_isolated`` answers, asked as a loop of one-vertex queries."""
    for j in range(len(window)):
        if oracles.independence_query(window[j : j + 1], right):
            return j
    return len(window)


_RUN_CASES = [(0, None)] + [
    (length, at)
    for length in (1, 254, 255, 256, 600)
    for at in (0, 254, 255, 256, None)
    if at is None or at < length
]


@pytest.mark.parametrize("backend", list(_RUN_BACKENDS))
@pytest.mark.parametrize("length, isolated_at", _RUN_CASES)
def test_first_isolated_answers_and_counts_as_a_query_loop(backend, length, isolated_at):
    make = _RUN_BACKENDS[backend]
    window = _run_window(length, isolated_at)
    before = window.copy()
    right = [0, 3]
    bulk, loop = make(_RUN_ADJ), make(_RUN_ADJ)
    expected = length if isolated_at is None else isolated_at
    assert bulk.first_isolated(window, bulk.bind_right(right)) == expected
    assert _one_by_one(loop, window, loop.bind_right(right)) == expected
    assert bulk.independence_calls == loop.independence_calls == min(expected + 1, length)
    np.testing.assert_array_equal(window, before)
    # raw right indices and a list window are bound and checked as a query's are
    assert bulk.first_isolated(window.tolist(), right) == expected


def test_first_isolated_on_the_amplified_view_counts_r_inner_queries_each():
    inner = matrix_oracles(_RUN_ADJ)
    wrapped = amplified_independence(inner, 0.05)
    assert wrapped.first_isolated(_run_window(600, 300), [0]) == 300
    assert wrapped.independence_calls == 301
    assert inner.independence_calls == 301 * repetitions_for(0.05)


@pytest.mark.parametrize("backend", ["matrix", "plain"])
@pytest.mark.parametrize("bad", [-1, 800])
def test_first_isolated_raises_where_the_query_loop_does(backend, bad):
    # An out-of-range entry in the second chunk raises after the queries
    # before it are counted; an isolated vertex before it is answered.
    make = _RUN_BACKENDS[backend]
    window = _run_window(600, None)
    window[300] = bad
    for oracles in (make(_RUN_ADJ), make(_RUN_ADJ)):
        with pytest.raises(IndexError):
            oracles.first_isolated(window, [0])
        with pytest.raises(IndexError):
            _one_by_one(oracles, window, [0])
        assert oracles.independence_calls == 2 * 300
    window[280] = 750
    bulk, loop = make(_RUN_ADJ), make(_RUN_ADJ)
    assert bulk.first_isolated(window, [0]) == _one_by_one(loop, window, [0]) == 280
    assert bulk.independence_calls == loop.independence_calls == 281


def test_only_a_touch_mask_is_answered_in_bulk():
    # matrix_oracles' predicate is the one type first_isolated reads in
    # bulk; any other predicate is asked through independence_query, where
    # an instance wrapper sees it.
    for make, wrapped_calls in ((matrix_oracles, 0), (_plain_oracles, 301)):
        oracles = make(_RUN_ADJ)
        seen = []
        inner = oracles.independence_query
        oracles.independence_query = lambda left, right: seen.append(left) or inner(left, right)
        assert oracles.first_isolated(_run_window(600, 300), [0]) == 300
        assert (len(seen), oracles.independence_calls) == (wrapped_calls, 301)


# -- one adjacency protocol ---------------------------------------------------

_GEN_P = np.random.default_rng(92)
_3SUM_DUP = ThreeSumInstance(  # every C value three times
    _GEN_P.integers(-30, 31, 24), _GEN_P.integers(-30, 31, 20),
    np.repeat(_GEN_P.integers(-30, 31, 6), 3),
)


def _nwt_edges(inst):
    """Dense A x (B-C edge) witness matrix, triangle by triangle."""
    vb, vc = inst.bc_edges()
    adj, w = inst.adjacency, inst.weights
    out = np.zeros((inst.part_a.size, vb.size), dtype=bool)
    for i, a in enumerate(inst.part_a):
        for j, (b, c) in enumerate(zip(vb, vc)):
            out[i, j] = adj[a, b] and adj[a, c] and w[a, b] + w[b, c] + w[c, a] < 0
    return out


_OV_EDGES = (_OV.a.astype(int) @ _OV.b.astype(int).T) == 0
_3SUM_EDGES = np.isin(_3SUM_DUP.a[:, None] + _3SUM_DUP.b[None, :], _3SUM_DUP.c)
_NWT_EDGES = _nwt_edges(_NWT)
_PROTOCOL_CASES = {
    "matrix": (lambda: matrix_oracles(_ADJ), _ADJ),
    "amplified": (lambda: amplified_independence(matrix_oracles(_ADJ), 0.05), _ADJ),
    "ov-kernel": (lambda: ov_oracles(_OV), _OV_EDGES),
    "ov-decision": (lambda: ov_oracles(_OV, decide_ov), _OV_EDGES),
    "3sum-kernel": (lambda: three_sum_oracles(_3SUM_DUP), _3SUM_EDGES),
    "3sum-decision": (lambda: three_sum_oracles(_3SUM_DUP, decide_3sum), _3SUM_EDGES),
    "nwt-kernel": (lambda: nwt_oracles(_NWT), _NWT_EDGES),
    "nwt-decision": (lambda: nwt_oracles(_NWT, decide_nwt), _NWT_EDGES),
}


@pytest.mark.parametrize("case", list(_PROTOCOL_CASES))
def test_every_adjacency_entry_point_agrees_with_the_dense_matrix(case):
    make, adj = _PROTOCOL_CASES[case]
    oracles = make()
    nl, nr = adj.shape
    assert (oracles.left_size, oracles.right_size) == (nl, nr)
    assert adj.any() and not adj.all()
    if case.startswith("3sum"):
        assert np.unique(_3SUM_DUP.c).size < _3SUM_DUP.c.size
    gen = np.random.default_rng(93)
    wide = 2100  # the reduction kernels' own blocks this wide hold fewer than _CHUNK rows
    assert _block_rows(wide) < _CHUNK
    shapes = [
        (0, 0), (0, 5), (5, 0), (_CHUNK + 1, 1), (2 * _CHUNK + 88, 37), (_CHUNK + 44, wide),
    ]
    for n_left, n_right in shapes:
        left = gen.integers(0, nl, size=n_left)  # repeats: a multiset of indices
        right = gen.integers(0, nr, size=n_right)
        expected = adj[np.ix_(left, right)]
        pairs = n_left * n_right
        before = oracles.adjacency_calls
        counts = oracles.neighbor_counts(left, right)
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(counts, expected.sum(axis=0))
        assert oracles.adjacency_calls == before + pairs
        assert oracles.count_edges_incident(left, right) == int(expected.sum())
        assert oracles.adjacency_calls == before + 2 * pairs
        block = oracles.adjacency_block(left, right)
        assert block.dtype == bool
        np.testing.assert_array_equal(block, expected)
        assert oracles.adjacency_calls == before + 3 * pairs
    right = gen.integers(0, nr, size=wide)
    for u in gen.integers(0, nl, size=4):
        before = oracles.adjacency_calls
        row = oracles.adjacency_row(u, right)
        np.testing.assert_array_equal(row, adj[u, right])
        assert oracles.adjacency_query(u, right[0]) is bool(adj[u, right[0]])
        assert oracles.adjacency_calls == before + wide + 1
    assert oracles.independence_calls == 0


@pytest.mark.parametrize("bad", [-5, 3, 99])
def test_both_sides_are_checked_when_the_other_is_empty(bad):
    oracles = matrix_oracles(np.eye(3, dtype=bool))
    for query in (
        oracles.neighbor_counts, oracles.count_edges_incident,
        oracles.adjacency_block, oracles.independence_query,
    ):
        with pytest.raises(IndexError):
            query([], [bad])
        with pytest.raises(IndexError):
            query([bad], [])
    assert (oracles.independence_calls, oracles.adjacency_calls) == (0, 0)


@pytest.mark.parametrize(
    "make",
    [matrix_oracles, lambda adj: amplified_independence(matrix_oracles(adj), 0.05)],
    ids=["matrix", "amplified"],
)
def test_a_dropped_oracle_object_is_freed_without_cyclic_gc(make):
    # Each count builds its own object, and a matrix object holds a packed
    # copy of the matrix; a reference cycle would keep every such copy alive
    # until the cyclic collector runs.
    adj = np.random.default_rng(94).random((300, 200)) < 0.05
    gc.disable()
    try:
        oracles = make(adj)
        dropped = weakref.ref(oracles)
        del oracles
        assert dropped() is None

        oracles = make(adj)
        bound = oracles.bind_right(np.arange(50))
        oracles.independence_query(np.arange(10), bound)
        oracles.neighbor_counts(np.arange(300), np.arange(200))
        oracles.adjacency_block([0, 1], [2, 3])
        queried = weakref.ref(oracles)
        del oracles, bound
        assert queried() is None
    finally:
        gc.enable()


# -- the packed matrix backend ------------------------------------------------


def _multiset(gen, size, count, most=3):
    """``count`` distinct indices below ``size``, each listed 1..``most`` times, shuffled."""
    distinct = gen.permutation(size)[:count]
    out = np.repeat(distinct, gen.integers(1, most + 1, size=distinct.size))
    gen.shuffle(out)
    return out


@pytest.mark.parametrize("width", [1, 63, 64, 65, 130])
def test_matrix_oracles_match_dense_sums_at_word_boundaries(width):
    # The packed backend against a dense reference and against a plain
    # object over the same matrix whose count_edges_incident sums
    # neighbor_counts; an amplified view of the packed object must count on
    # its inner object exactly as the plain one counts on itself.
    gen = np.random.default_rng(width)
    n_left = 2 * _CHUNK + 30
    adj = gen.random((n_left, width)) < 0.3
    assert adj.any() and not adj.all()
    packed = matrix_oracles(adj)
    inner = matrix_oracles(adj)
    amplified = amplified_independence(inner, 0.05)
    plain = BipartiteOracles(
        n_left, width,
        lambda right: lambda left: not adj[np.ix_(left, right)].any(),
        lambda u, v: adj[np.ix_(u, v)].sum(axis=0),
    )
    lefts = [
        np.empty(0, dtype=np.int64), np.array([n_left - 1]),
        _multiset(gen, n_left, n_left // 2), np.repeat(np.arange(n_left), 3),
    ]
    rights = [
        np.empty(0, dtype=np.int64), np.array([width - 1]), gen.permutation(width),
        _multiset(gen, width, width), np.repeat(gen.permutation(width)[: (width + 1) // 2], 2),
    ]
    pairs = 0
    for left in lefts:
        for right in rights:
            expected = adj[np.ix_(left, right)]
            for oracles in (packed, amplified, plain):
                counts = oracles.neighbor_counts(left, right)
                assert counts.dtype == np.int64
                np.testing.assert_array_equal(counts, expected.sum(axis=0))
                total = oracles.count_edges_incident(left, right)
                assert type(total) is int and total == int(expected.sum())
                assert oracles.independence_query(left, right) == (not expected.any())
            pairs += 2 * left.size * right.size
    for oracles in (packed, amplified, inner, plain):
        assert oracles.adjacency_calls == pairs
    calls = len(lefts) * len(rights)
    assert packed.independence_calls == amplified.independence_calls == plain.independence_calls == calls
    assert inner.independence_calls == calls * repetitions_for(0.05)


@pytest.mark.parametrize("width", [1, 7, 64, 65])
@pytest.mark.parametrize("reach", ["none", "some", "all"])
def test_matrix_oracles_answer_each_one_vertex_query(width, reach):
    # The predicate tests the bytes of the gathered left mask for a 1:
    # every single left vertex against a bound set that touches no left
    # vertex, some of them, or all of them.
    gen = np.random.default_rng(width)
    n_left = 90
    adj = gen.random((n_left, width)) < 0.02
    right = gen.permutation(width)[: (width + 1) // 2]
    reached = {"none": 0, "some": 2 * n_left // 3, "all": n_left}[reach]
    adj[: n_left - reached, right] = False
    adj[np.arange(n_left - reached, n_left), gen.choice(right, reached)] = True
    assert adj[:, right].any(axis=1).sum() == reached
    oracles = matrix_oracles(adj)
    bound = oracles.bind_right(right)
    for u in range(n_left):
        expected = not adj[u, right].any()
        assert oracles.independence_query([u], right) == expected
        assert oracles.independence_query(np.array([u]), bound) == expected
    assert oracles.independence_calls == 2 * n_left


def test_matrix_oracles_keep_no_reference_to_the_matrix():
    adj = np.random.default_rng(96).random((200, 70)) < 0.1
    expected = int(adj.sum())
    given = weakref.ref(adj)
    oracles = matrix_oracles(adj)
    del adj
    assert given() is None
    assert oracles.count_edges_incident(np.arange(200), np.arange(70)) == expected
