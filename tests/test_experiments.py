"""Trial runner: records, CSV determinism, outcomes, scaling probe."""

import json

import numpy as np
import pytest

from fgcount.edgecount import IterationBudgetExceeded
from fgcount.experiments import (
    ExperimentConfig,
    Outcome,
    bipartite_counter,
    probe_to_csv,
    records_to_csv,
    run_experiment,
    run_trials,
    scaling_probe,
    strip_timing,
    success_fraction,
)
from fgcount.generators import GeneratorSpec
from fgcount.instances import Problem
from fgcount.rng import RngStream
from fgcount.satcount import CapExceeded
from fgcount.synthetic import random_bipartite


def _ov_config(trials=4, seed=7):
    return ExperimentConfig(
        eps=0.3,
        trials=trials,
        master_seed=seed,
        generator=GeneratorSpec(problem=Problem.OV, n=80, d=16, seed=3),
    )


def test_run_experiment_exact_path_zero_error():
    records = run_experiment(_ov_config())
    assert len(records) == 4
    for r in records:
        assert r.outcome is Outcome.OK
        assert r.rel_error == 0.0  # n < 3000: the estimator is exact here
        assert r.exact is not None and r.estimate == r.exact
    assert success_fraction(records, 0.3) == 1.0


def test_csv_deterministic_modulo_timing():
    a = strip_timing(records_to_csv(run_experiment(_ov_config())))
    b = strip_timing(records_to_csv(run_experiment(_ov_config())))
    assert a == b
    assert a.startswith("# fgcount-csv v1\n")


def test_distinct_master_seeds_give_distinct_trial_seeds():
    a = run_experiment(_ov_config(seed=1))
    b = run_experiment(_ov_config(seed=2))
    assert [r.seed for r in a] != [r.seed for r in b]


def test_outcomes_are_the_three_defined_ones():
    records = run_experiment(_ov_config())
    for r in records:
        assert r.outcome in (Outcome.OK, Outcome.NO_ESTIMATE, Outcome.BUDGET_EXCEEDED)


def test_budget_exceeded_is_recorded_not_raised():
    # A counter that always exceeds the loop budget must yield records, not
    # an exception.
    from fgcount.edgecount import IterationBudgetExceeded

    def counter(rng, stats):
        raise IterationBudgetExceeded("forced")

    records = run_trials(counter, 3, RngStream(1))
    assert all(r.outcome is Outcome.BUDGET_EXCEEDED for r in records)
    assert all(r.estimate is None for r in records)


def test_cap_exceeded_is_recorded_not_raised():
    # approx_count_cnf brute-forces a 30-variable formula at default
    # constants, which is beyond its enumeration cap.
    from fgcount.experiments import instance_counter
    from fgcount.satcount import CnfFormula

    counter = instance_counter(CnfFormula(30, 1, ((1,),)), 0.3)
    records = run_trials(counter, 2, RngStream(3))
    assert all(r.outcome is Outcome.CAP_EXCEEDED for r in records)
    assert all(r.estimate is None for r in records)


def test_no_estimate_recorded():
    records = run_trials(lambda rng, stats: None, 2, RngStream(2))
    assert all(r.outcome is Outcome.NO_ESTIMATE for r in records)


def test_csv_cells_are_str_of_the_value():
    # a numpy integer estimate is written as a number, not as its repr
    records = run_trials(lambda rng, stats: np.int64(5), 1, RngStream(2), exact=4)
    row = strip_timing(records_to_csv(records)).splitlines()[2].split(",")
    assert row[2:6] == ["OK", "5", "4", "0.25"]


def test_failed_rows_leave_the_estimate_cells_empty():
    def raising(exc):
        def counter(rng, stats):
            raise exc
        return counter

    counters = {
        "NO_ESTIMATE": lambda rng, stats: None,
        "BUDGET_EXCEEDED": raising(IterationBudgetExceeded("forced")),
        "CAP_EXCEEDED": raising(CapExceeded("forced")),
    }
    for outcome, counter in counters.items():
        text = records_to_csv(run_trials(counter, 1, RngStream(2)))
        header, row = (line.split(",") for line in text.splitlines()[1:])
        cells = dict(zip(header, row))
        assert cells["outcome"] == outcome
        assert [cells[k] for k in ("estimate", "exact", "rel_error")] == ["", "", ""]
        assert cells["independence_calls"] == "0"


def test_bipartite_counter_runs_and_counts_queries():
    adj = random_bipartite(60, 60, 0.1, RngStream(5))
    counter = bipartite_counter(adj, 0.3)
    records = run_trials(counter, 3, RngStream(6), exact=int(adj.sum()))
    for r in records:
        assert r.outcome is Outcome.OK
        assert r.estimate == int(adj.sum())
        assert r.adjacency_calls > 0


def test_rel_error_definition():
    records = run_trials(lambda rng, stats: 8, 1, RngStream(1), exact=10)
    assert records[0].rel_error == pytest.approx(0.2)
    records = run_trials(lambda rng, stats: 3, 1, RngStream(1), exact=0)
    assert records[0].rel_error == pytest.approx(3.0)  # max(exact, 1) divisor


def test_config_from_json_with_overrides():
    cfg = ExperimentConfig.from_json(
        '{"eps": 0.25, "trials": 2, "master_seed": 5,'
        ' "generator": {"problem": "ov", "n": 40, "d": 8, "seed": 1},'
        ' "overrides": {"exact_cutoff": 100}}'
    )
    assert cfg.edgecount.exact_cutoff == 100
    assert cfg.generator.problem is Problem.OV
    records = run_experiment(cfg)
    assert len(records) == 2


def test_config_from_json_takes_each_default_from_its_field():
    cfg = ExperimentConfig.from_json(
        '{"eps": 0.25, "trials": 2, "generator": {"problem": "ov", "n": 40, "d": 8, "seed": 1}}'
    )
    spec = GeneratorSpec(problem=Problem.OV, n=40, d=8, seed=1)
    assert cfg == ExperimentConfig(0.25, 2, generator=spec)


def test_run_experiment_from_instance_file(tmp_path):
    from fgcount.generators import generate
    from fgcount.instances import save_instance

    inst = generate(GeneratorSpec(problem=Problem.THREESUM, n=30, planted_count=4, seed=8))
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    cfg = ExperimentConfig(
        eps=0.3, trials=2, master_seed=3, instance_path=str(path)
    )
    records = run_experiment(cfg)
    assert all(r.estimate == 4 and r.exact == 4 for r in records)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(eps=0.3, trials=0, master_seed=1, instance_path="x")
    with pytest.raises(ValueError):
        ExperimentConfig(eps=0.3, trials=1, master_seed=1)  # no source


def test_scaling_probe_deterministic():
    template = GeneratorSpec(problem=Problem.OV, n=64, d=16, seed=4)
    a = scaling_probe(template, [64, 128], 0.3, 2, RngStream(9))
    b = scaling_probe(template, [64, 128], 0.3, 2, RngStream(9))
    assert a == b
    text = probe_to_csv(a)
    assert text.splitlines()[1] == "size,median_independence_calls"


# Recorded before the edge layer's run record was cut to its counters; each
# config's estimator reaches the independence oracle, so any change to a
# count, a call counter or the RNG stream's consumption shows here.
_PINNED_BENCH = [
    (
        {"generator": {"problem": "ov", "n": 400, "d": 24, "density": 0.5, "seed": 3}},
        "0,2754065370740525465,OK,18,18,0.0,77,1800\n"
        "1,4284091909457418870,OK,18,18,0.0,71,1800\n"
        "2,4839520575979731396,OK,18,18,0.0,75,1800\n",
    ),
    (
        {"generator": {"problem": "3sum", "n": 900, "planted_count": 5, "seed": 4},
         "compute_exact": False},
        "0,2754065370740525465,OK,5,,,38,600\n"
        "1,4284091909457418870,OK,5,,,39,600\n"
        "2,4839520575979731396,OK,5,,,37,600\n",
    ),
    (
        {"generator": {"problem": "nwt", "n": 240, "density": 0.1, "seed": 5}},
        "0,2754065370740525465,OK,274,274,0.0,85,48837\n"
        "1,4284091909457418870,OK,274,274,0.0,87,48837\n"
        "2,4839520575979731396,OK,274,274,0.0,87,48837\n",
    ),
]


@pytest.mark.parametrize("config, rows", _PINNED_BENCH, ids=["ov", "3sum", "nwt"])
def test_bench_csvs_are_pinned(config, rows):
    payload = {"eps": 0.25, "trials": 3, "master_seed": 7, **config,
               "overrides": {"exact_cutoff": 0}}
    cfg = ExperimentConfig.from_json(json.dumps(payload))
    assert strip_timing(records_to_csv(run_experiment(cfg))) == (
        "# fgcount-csv v1\n"
        "trial_id,seed,outcome,estimate,exact,rel_error,independence_calls,adjacency_calls\n"
        + rows
    )
