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
