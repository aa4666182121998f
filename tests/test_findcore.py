"""Core finding: exact branches, core quality, query budgets."""

import math

import numpy as np
import pytest

from fgcount.edgecount import _is_unbalancer, find_core, halve
from fgcount.oracles import BipartiteOracles, matrix_oracles
from fgcount.rng import RngStream, derive_stream
from fgcount.synthetic import random_bipartite


def fcc(xi, n):
    """Size of find_core's degree sample Y: ceil(24 ln n / xi)."""
    return math.ceil(24 * math.log(n) / xi)


def record_samples(oracles):
    """Record every ``neighbor_counts(left, right)`` call on ``oracles``.

    In its sampled branch find_core makes exactly one such call, with the
    degree sample Y as ``left`` and X as ``right``; the result is the
    degree proxy the core is cut from.  Returns the list of recorded
    ``(left, counts)`` pairs, which fills as calls are made.
    """
    calls = []
    inner = oracles.neighbor_counts

    def recorded(left, right):
        counts = inner(left, right)
        calls.append((np.asarray(left), counts))
        return counts

    oracles.neighbor_counts = recorded
    return calls


def sampled(calls):
    """The (Y, counts) of the one neighbor_counts call of a sampled find_core."""
    assert len(calls) == 1
    return calls[0]


def test_core_params_formula():
    # Every left vertex of a complete graph is non-isolated, so the scan
    # stops after exactly fcc = ceil(24 ln n / xi) = 799 of its 2048.
    adj = np.ones((2048, 2048), dtype=bool)
    oracles = matrix_oracles(adj)
    calls = record_samples(oracles)
    out = find_core(oracles, np.arange(2048), 0.25, RngStream(11))
    assert isinstance(out, np.ndarray) and out.dtype == np.int64
    sample, _ = sampled(calls)
    assert sample.size == math.ceil(24 * math.log(4096) / 0.25) == 799


def test_find_core_rejects_contract_violations():
    adj = np.zeros((4, 4), dtype=bool)
    oracles = matrix_oracles(adj)
    with pytest.raises(ValueError):
        find_core(oracles, np.empty(0, dtype=np.int64), 0.5, RngStream(1))
    with pytest.raises(ValueError):
        find_core(oracles, np.arange(4), 0.0, RngStream(1))
    with pytest.raises(ValueError):
        find_core(oracles, np.arange(4), 1.0, RngStream(1))
    with pytest.raises(ValueError):  # n = 1: ln n would be 0
        find_core(matrix_oracles(np.zeros((0, 1), dtype=bool)), [0], 0.5, RngStream(1))


@pytest.mark.parametrize(
    "bad, error",
    [
        (np.array([1.5] * 80), TypeError),
        (np.ones(80, dtype=bool), TypeError),
        (np.arange(80).reshape(2, 40), ValueError),
    ],
    ids=["float", "bool", "2-d"],
)
def test_find_core_and_halve_reject_non_index_x(bad, error):
    # Casting would turn these into indices: 1.5 into vertex 1, a mask into
    # vertex 1 repeated.
    oracles = matrix_oracles(np.eye(40, dtype=bool))
    with pytest.raises(error):
        find_core(oracles, bad, 0.5, RngStream(1))
    with pytest.raises(error):
        halve(bad, RngStream(1))
    assert (oracles.independence_calls, oracles.adjacency_calls) == (0, 0)


def test_find_core_and_halve_take_any_integer_x():
    oracles = matrix_oracles(np.eye(40, dtype=bool))
    X = np.arange(40, dtype=np.int32)
    assert find_core(oracles, X, 0.5, RngStream(1)) == 40
    kept = halve(X, RngStream(2))
    assert kept.dtype == np.int64
    np.testing.assert_array_equal(kept, halve(X.astype(np.int64), RngStream(2)))
    assert halve([], RngStream(1)).size == 0


def test_small_right_side_counts_exactly():
    # |X| = 3 < 24 ln 50, so the edges incident to X are enumerated outright.
    adj = np.zeros((47, 3), dtype=bool)
    adj[0, 0] = True
    oracles = matrix_oracles(adj)
    out = find_core(oracles, np.arange(3), 0.5, RngStream(7))
    assert type(out) is int and out == 1
    assert oracles.independence_calls == 0


def test_star_exhausts_left_side_and_counts_exactly():
    # One left vertex adjacent to all of X: the first located vertex empties
    # U_X, so the scan exhausts the ordering and counts |X| edges exactly.
    left, right = 300, 300
    adj = np.zeros((left, right), dtype=bool)
    adj[17, :] = True
    oracles = matrix_oracles(adj)
    out = find_core(oracles, np.arange(right), 0.5, RngStream(3))
    assert type(out) is int and out == right


def test_complete_bipartite_core_is_everything():
    # Every right vertex has full degree |U_X|, so it must be in any core;
    # membership is decided by a count that is deterministically fcc here.
    size = 1024
    adj = np.ones((size, size), dtype=bool)
    oracles = matrix_oracles(adj)
    calls = record_samples(oracles)
    out = find_core(oracles, np.arange(size), 0.25, RngStream(11))
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(np.sort(out), np.arange(size))
    sample, counts = sampled(calls)
    assert sample.size == fcc(0.25, 2048)
    assert (counts == sample.size).all()


def test_complete_bipartite_core_at_scale():
    # 4096 + 4096 vertices: the core must still be all of X on every seeded
    # run (full-degree vertices pass the membership count with certainty).
    size = 4096
    adj = np.ones((size, size), dtype=bool)
    for run in range(10):
        oracles = matrix_oracles(adj)
        out = find_core(
            oracles, np.arange(size), 0.25, RngStream(1200 + run)
        )
        assert isinstance(out, np.ndarray)
        assert out.size == size


def test_two_tier_degrees_separate_cleanly():
    # 50 right vertices of full degree and 974 of degree one: vertices above
    # xi |U_X| must be kept, vertices below xi |U_X| / 24 must be dropped.
    # Here both memberships are deterministic (counts are fcc versus <= 1).
    left = right = 1024
    heavy = 50
    adj = np.zeros((left, right), dtype=bool)
    adj[:, :heavy] = True
    adj[0, heavy:] = True
    oracles = matrix_oracles(adj)
    xi = 0.3
    out = find_core(oracles, np.arange(right), xi, RngStream(23))
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(np.sort(out), np.arange(heavy))
    ux = left  # every left vertex sees a heavy column
    degrees = adj.sum(axis=0)
    assert (degrees[out] >= xi * ux / 24).all()  # nothing light kept
    assert set(np.flatnonzero(degrees >= xi * ux)) <= set(out)


def test_independence_query_budget():
    gen = np.random.default_rng(2)
    left = right = 1024
    adj = gen.random((left, right)) < 0.01
    oracles = matrix_oracles(adj)
    xi = 0.3
    out = find_core(oracles, np.arange(right), xi, RngStream(5))
    assert isinstance(out, np.ndarray)
    assert oracles.independence_calls <= fcc(xi, left + right) * math.ceil(math.log2(left + 1))


def test_find_core_deterministic_in_stream():
    adj = np.ones((512, 512), dtype=bool)

    def run():
        oracles = matrix_oracles(adj)
        calls = record_samples(oracles)
        return find_core(oracles, np.arange(512), 0.5, RngStream(9)), calls

    (a, calls_a), (b, calls_b) = run(), run()
    assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(sampled(calls_a)[0], sampled(calls_b)[0])


def test_sketch_sample_lies_in_nonisolated_left():
    gen = np.random.default_rng(31)
    adj = gen.random((600, 600)) < 0.05
    oracles = matrix_oracles(adj)
    calls = record_samples(oracles)
    out = find_core(oracles, np.arange(600), 0.5, RngStream(13))
    if isinstance(out, np.ndarray):
        sample, counts = sampled(calls)
        nonisolated = np.flatnonzero(adj.any(axis=1))
        assert set(sample) <= set(nonisolated)
        assert (counts <= sample.size).all()


def test_sketch_sample_is_first_nonisolated_in_the_ordering():
    # Y is the first fcc left vertices of the stream's permutation that have
    # a neighbour in X, in that order.
    gen = np.random.default_rng(2)
    left = right = 1024
    adj = gen.random((left, right)) < 0.01
    X = np.arange(0, right, 2)
    xi = 0.3
    oracles = matrix_oracles(adj)
    calls = record_samples(oracles)
    out = find_core(oracles, X, xi, RngStream(5))
    assert isinstance(out, np.ndarray)
    order = RngStream(5).generator().permutation(left)
    nonisolated = adj[:, X].any(axis=1)
    sample, _ = sampled(calls)
    np.testing.assert_array_equal(sample, order[nonisolated[order]][: fcc(xi, left + right)])


class WindowRecorder:
    """Independence backend that checks no query repeats a scanned vertex.

    A vertex is certified isolated when a query containing it answers
    independent, and located when a dependent query's only uncertified
    member is that vertex.  At each location everything certified so far
    counts as scanned, and no later query may contain a scanned vertex.
    """

    def __init__(self, adj, X):
        self.adj = adj
        self.X = X
        self.certified: set = set()
        self.pending: list = []  # dependent queries of the current search
        self.scanned: set = set()
        self.located: list = []

    def __call__(self, right):
        np.testing.assert_array_equal(right, self.X)
        return lambda left: self.query(left, right)

    def query(self, left, right):
        members = set(left.tolist())
        assert not members & self.scanned
        answer = not self.adj[np.ix_(left, right)].any()
        if answer:
            self.certified |= members
        else:
            self.pending.append(members)
        for query in self.pending:
            rest = query - self.certified
            if len(rest) == 1:
                self.located.extend(rest)
                self.scanned |= self.certified | rest
                self.pending = []
                break
        return answer


@pytest.mark.parametrize("density, xi, x_size", [(0.01, 0.3, 1024), (0.002, 0.5, 200)])
def test_queries_skip_located_and_certified_vertices(density, xi, x_size):
    # The first case returns a core, the second exhausts the ordering.
    gen = np.random.default_rng(41)
    left = right = 1024
    adj = gen.random((left, right)) < density
    X = np.arange(x_size)
    recorder = WindowRecorder(adj, X)
    oracles = BipartiteOracles(
        left, right, recorder, lambda u, v: adj[np.ix_(u, v)].sum(axis=0)
    )
    calls = record_samples(oracles)
    out = find_core(oracles, X, xi, RngStream(8))
    if isinstance(out, np.ndarray):
        np.testing.assert_array_equal(recorder.located, sampled(calls)[0])
    else:
        assert out == int(adj[:, X].sum())
        nonisolated = np.flatnonzero(adj[:, X].any(axis=1))
        assert sorted(recorder.located) == nonisolated.tolist()


def reference_scan(adj, X, order, fcc):
    """The windows a plain gallop-then-bisect scan of ``order`` asks, in order.

    Each search starts at the position ``lo`` after the last vertex found
    and looks for the largest k with order[lo:k] isolated from X: it probes
    k = lo+1, lo+3, lo+7, ... while the window stays empty, then bisects
    between the last empty window and the first non-empty one.  Returns the
    windows and the most doublings any one search made.
    """
    touches = adj[:, X].any(axis=1)
    t = order.size
    windows = []

    def empty(lo, k):
        windows.append(order[lo:k].tolist())
        return not touches[order[lo:k]].any()

    found, lo, most_doublings = 0, 0, 0
    while found < fcc and lo < t:
        k, step = lo, 1
        while k + step <= t and empty(lo, k + step):
            k += step
            step *= 2
        most_doublings = max(most_doublings, step.bit_length() - 1)
        upper = min(k + step, t + 1)
        while upper - k > 1:
            mid = (k + upper) // 2
            if empty(lo, mid):
                k = mid
            else:
                upper = mid
        if k == t:
            break
        found += 1
        lo = k + 1
    return windows, most_doublings


def record_windows(oracles):
    """Record the left window of every independence query on a
    ``matrix_oracles`` object.

    A ``first_isolated`` call there asks its one-vertex queries in bulk; it
    is recorded as those windows, [window[0]], [window[1]], ..., up to and
    including the vertex at the position it returns, if that lies in the
    window.
    """
    windows = []
    query, first_isolated = oracles.independence_query, oracles.first_isolated

    def recorded_query(left, right):
        windows.append(np.asarray(left).tolist())
        return query(left, right)

    def recorded_first_isolated(window, right):
        j = first_isolated(window, right)
        windows.extend([u] for u in window[: j + 1].tolist())
        return j

    oracles.independence_query = recorded_query
    oracles.first_isolated = recorded_first_isolated
    return windows


@pytest.mark.parametrize(
    "left, right, density, x_size, xi, seed, outcome",
    [
        (4096, 256, 0.0004, 256, 0.9, 3, "core"),  # sparse X
        (1024, 1024, 0.001, 200, 0.5, 8, "exhausted"),
        (1, 200, 1.0, 200, 0.5, 1, "exhausted"),  # the one left vertex is hit
        (1, 200, 0.0, 200, 0.5, 1, "exhausted"),  # ... or certified isolated
    ],
    ids=["sparse-x", "exhausts", "one-left-hit", "one-left-isolated"],
)
def test_scan_asks_the_windows_of_a_plain_gallop_then_bisect(
    left, right, density, x_size, xi, seed, outcome
):
    adj = random_bipartite(left, right, density, RngStream(seed, b"graph"))
    X = np.arange(x_size)
    oracles = matrix_oracles(adj)
    windows = record_windows(oracles)
    out = find_core(oracles, X, xi, RngStream(seed))
    assert isinstance(out, np.ndarray) == (outcome == "core")
    if outcome == "exhausted":
        assert out == int(adj[:, X].sum())
    order = RngStream(seed).generator().permutation(left)
    expected, most_doublings = reference_scan(adj, X, order, fcc(xi, left + right))
    assert windows == expected
    assert len(windows) == oracles.independence_calls
    if left > 1:
        # Searches gallop several doublings and bisect, not just one probe.
        assert most_doublings >= 3
        assert any(len(w) & (len(w) + 1) for w in windows)


@pytest.mark.parametrize("density, xi, x_size", [(0.01, 0.3, 1024), (0.002, 0.5, 200)])
def test_find_core_prepares_x_once_per_pass(density, xi, x_size):
    gen = np.random.default_rng(41)
    adj = gen.random((1024, 1024)) < density
    X = np.arange(x_size)
    prepared = []

    def independence(right):
        prepared.append(right)
        return lambda left: not adj[np.ix_(left, right)].any()

    oracles = BipartiteOracles(
        1024, 1024, independence, lambda u, v: adj[np.ix_(u, v)].sum(axis=0)
    )
    for seed in (8, 9):
        find_core(oracles, X, xi, RngStream(seed))
    assert len(prepared) == 2
    assert oracles.independence_calls > 2 * math.log2(1024)
    for right in prepared:
        np.testing.assert_array_equal(right, X)


# -- the unbalancer predicate ----------------------------------------------------


def test_classify_empty_is_witness():
    assert not _is_unbalancer(np.empty(0, dtype=np.int64), 0.7, 24.0)


def test_classify_small_nonempty_is_unbalancer():
    # 24 / 0.5^2 = 96, so a singleton is far below the witness size
    assert _is_unbalancer(np.arange(1), 0.5, 24.0)
    assert _is_unbalancer(np.arange(95), 0.5, 24.0)


def test_classify_boundary_is_witness():
    assert not _is_unbalancer(np.arange(96), 0.5, 24.0)
    assert not _is_unbalancer(np.arange(200), 0.5, 24.0)


def test_classify_is_pure_and_total():
    gen = np.random.default_rng(4)
    for _ in range(200):
        size = int(gen.integers(0, 500))
        xi = float(gen.uniform(0.01, 0.99))
        s = np.arange(size)
        first = _is_unbalancer(s, xi, 24.0)
        assert first is _is_unbalancer(s, xi, 24.0)
        assert first in (False, True)
        # unbalancer and witness partition (size, xi) space
        assert first == (1 <= size < 24 / xi**2)


# -- halve -------------------------------------------------------------------


def test_halve_empty():
    out = halve(np.empty(0, dtype=np.int64), RngStream(1))
    assert out.size == 0


def test_halve_deterministic_for_fixed_stream():
    X = np.arange(1000)
    s = RngStream(77, b"h")
    np.testing.assert_array_equal(halve(X, s), halve(X, s))


def test_halve_mean_retention():
    X = np.arange(1000)
    master = RngStream(55)
    total = 0
    trials = 10_000
    for i in range(trials):
        total += halve(X, derive_stream(master, f"h-{i}")).size
    mean = total / trials
    assert abs(mean - 500.0) <= 5.0  # within 1% of half


def test_halve_preserves_membership_and_order():
    X = np.asarray([3, 1, 4, 1, 5, 9, 2, 6])
    out = halve(X, RngStream(8))
    assert set(out.tolist()) <= set(X.tolist())
