"""Replay the golden edge-layer and #CNF records (see ``golden_runs.py``)."""

import pytest

from golden_runs import EDGE_PATH, EDGE_RUNS, SAT_PATH, SAT_RUNS, load, main

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
