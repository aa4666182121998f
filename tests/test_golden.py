"""Replay the golden edge-layer records (see ``golden_runs.py``)."""

import pytest

from golden_runs import RUNS, load

GOLDEN = load()


def test_every_run_has_a_record():
    assert sorted(GOLDEN) == sorted(RUNS)


@pytest.mark.parametrize("name", list(RUNS))
def test_edge_run_matches_its_golden_record(name):
    assert RUNS[name]() == GOLDEN[name]
