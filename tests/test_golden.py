"""Replay the golden edge-layer and #CNF records (see ``golden_runs.py``)."""

import hashlib

import pytest

from fgcount.edgecount import edge_count
from fgcount.oracles import BipartiteOracles, matrix_oracles
from fgcount.rng import RngStream, derive_stream
from fgcount.synthetic import random_bipartite
from golden_runs import EDGE_PATH, EDGE_RUNS, EPS, SAT_PATH, SAT_RUNS, _loop_config, load, main

EDGE_GOLDEN = load(EDGE_PATH)
SAT_GOLDEN = load(SAT_PATH)


def test_every_run_has_a_record():
    assert sorted(EDGE_GOLDEN) == sorted(EDGE_RUNS)
    assert sorted(SAT_GOLDEN) == sorted(SAT_RUNS)


@pytest.mark.parametrize("name", list(EDGE_RUNS))
def test_edge_run_matches_its_golden_record(name):
    assert EDGE_RUNS[name]() == EDGE_GOLDEN[name]


@pytest.mark.parametrize("name", list(SAT_RUNS))
def test_sat_run_matches_its_golden_record(name):
    assert SAT_RUNS[name]() == SAT_GOLDEN[name]


def test_records_are_not_overwritten_without_force(capsys):
    assert main([]) == 1
    assert "pass --force" in capsys.readouterr().err


def test_bip_loop_query_sequence_is_pinned():
    # Count 0 of bip-loop-16k at seed 1 (the golden record, which halves and
    # removes), with a backend that records every window it is asked about
    # and answers through matrix_oracles' own callables.  The counters alone
    # would not catch a scan that asks other windows the same number of times.
    root = RngStream(1)
    adj = random_bipartite(16_000, 4_000, 0.01, derive_stream(root, "graph"))
    rng = derive_stream(derive_stream(root, "counts"), "count-0")
    inner = matrix_oracles(adj)
    windows = []

    def independence(right):
        predicate = inner._independence(right)

        def recording(left):
            windows.append(tuple(left.tolist()))
            return predicate(left)

        return recording

    oracles = BipartiteOracles(inner.left_size, inner.right_size, independence, inner._adjacency)
    value = edge_count(oracles, EPS, rng, config=_loop_config(20_000, 0.9))
    assert value == EDGE_GOLDEN["bip-loop-16k/seed-1"]["estimate"] == 647027
    assert len(windows) == oracles.independence_calls == 26280
    assert all(list(w) == sorted(w) for w in windows)
    digest = hashlib.sha256(repr(windows).encode()).hexdigest()
    assert digest == "99f5f4b3cd21ba863a477ea4a903e1d8796eadb3c8bf7e97f3c938457864b70a"


def test_bip_loop_edge_sums_are_pinned():
    # The same count, on a matrix_oracles object whose two edge-sum entry
    # points record each outermost call: which one, the sizes of its left
    # and right sets, and its answer.  A call one entry point makes through
    # the other is not recorded, so the record is the estimator's own
    # questions, however the object answers them.
    root = RngStream(1)
    adj = random_bipartite(16_000, 4_000, 0.01, derive_stream(root, "graph"))
    rng = derive_stream(derive_stream(root, "counts"), "count-0")
    oracles = matrix_oracles(adj)
    calls, depth = [], [0]

    def recording(name, method):
        def record(left, right):
            depth[0] += 1
            try:
                answer = method(left, right)
            finally:
                depth[0] -= 1
            if not depth[0]:
                value = answer if name == "count_edges_incident" else answer.tolist()
                calls.append((name, len(left), len(right), value))
            return answer

        return record

    for name in ("count_edges_incident", "neighbor_counts"):
        setattr(oracles, name, recording(name, getattr(oracles, name)))
    value = edge_count(oracles, EPS, rng, config=_loop_config(20_000, 0.9))
    assert value == EDGE_GOLDEN["bip-loop-16k/seed-1"]["estimate"]
    assert [c[:3] for c in calls] == [
        ("neighbor_counts", 12677, 4000),
        ("count_edges_incident", 16000, 3067),
        ("neighbor_counts", 265, 933),
        ("neighbor_counts", 12677, 476),
        ("count_edges_incident", 16000, 200),
        ("neighbor_counts", 265, 276),
        ("count_edges_incident", 16000, 146),
    ]
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "d6b2aef71f5a55e4228350a61eb427a4734bb54e98138bb1d2ab0d000bea3136"
