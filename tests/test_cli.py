"""Command-line surface: round trips, exit codes, seed override."""

import json

import pytest
from click.testing import CliRunner

from fgcount.cli import EXIT_BUDGET, EXIT_NO_ESTIMATE, EXIT_USAGE, main
from fgcount.edgecount import IterationBudgetExceeded
from fgcount.satcount import CapExceeded


@pytest.fixture()
def runner():
    return CliRunner()


def test_gen_count_round_trip_3sum(runner, tmp_path):
    path = tmp_path / "i.json"
    r = runner.invoke(main, ["gen", "--problem", "3sum", "--n", "30",
                             "--planted", "5", "--seed", "3", "--out", str(path)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["count-3sum", str(path), "--eps", "0.3", "--exact"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == "5"
    assert lines[1] == "exact 5"


def test_gen_deterministic_bytes(runner, tmp_path):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["gen", "--problem", "ov", "--n", "40", "--d", "16", "--seed", "8"]
    assert runner.invoke(main, args + ["--out", str(p1)]).exit_code == 0
    assert runner.invoke(main, args + ["--out", str(p2)]).exit_code == 0
    assert p1.read_bytes() == p2.read_bytes()


def test_count_cnf_and_exact(runner, tmp_path):
    path = tmp_path / "f.cnf"
    r = runner.invoke(main, ["gen", "--problem", "cnf", "--n", "10",
                             "--clauses", "25", "--seed", "2", "--out", str(path)])
    assert r.exit_code == 0
    r = runner.invoke(main, ["count-cnf", str(path), "--eps", "0.4", "--exact"])
    assert r.exit_code == 0, r.output
    est, exact_line = r.output.strip().splitlines()
    assert exact_line == f"exact {est}"  # tiny instance: exact stage


def test_env_seed_overrides_flag(runner, tmp_path):
    path = tmp_path / "i.json"
    runner.invoke(main, ["gen", "--problem", "3sum", "--n", "30", "--seed", "1",
                         "--out", str(path)])
    a = runner.invoke(main, ["count-3sum", str(path), "--seed", "1"],
                      env={"FGCOUNT_SEED": "99"})
    b = runner.invoke(main, ["count-3sum", str(path), "--seed", "2"],
                      env={"FGCOUNT_SEED": "99"})
    assert a.output == b.output


def test_usage_error_exit_code(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    r = runner.invoke(main, ["count-3sum", str(bad)])
    assert r.exit_code == EXIT_USAGE


def test_wrong_instance_kind_rejected(runner, tmp_path):
    path = tmp_path / "i.json"
    runner.invoke(main, ["gen", "--problem", "ov", "--n", "20", "--d", "8",
                         "--seed", "1", "--out", str(path)])
    r = runner.invoke(main, ["count-3sum", str(path)])
    assert r.exit_code == EXIT_USAGE


def test_bench_emits_csv(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "eps": 0.3, "trials": 3, "master_seed": 11,
        "generator": {"problem": "ov", "n": 60, "d": 16, "seed": 2},
    }))
    out = tmp_path / "out.csv"
    r = runner.invoke(main, ["bench", str(cfg), "--out", str(out)])
    assert r.exit_code == 0, r.output
    text = out.read_text()
    assert text.startswith("# fgcount-csv v1\n")
    assert "# summary:" in text
    assert text.count("\n") == 3 + 3  # tag, header, 3 rows, summary


def test_probe_csv(runner):
    r = runner.invoke(main, ["probe", "--problem", "ov", "--sizes", "64,128",
                             "--trials", "2", "--seed", "3"])
    assert r.exit_code == 0, r.output
    lines = r.output.strip().splitlines()
    assert lines[0] == "# fgcount-csv v1"
    assert lines[1] == "size,median_independence_calls"
    assert len(lines) == 4


def test_infeasible_plant_is_clean_error(runner):
    r = runner.invoke(main, ["gen", "--problem", "cnf", "--n", "8", "--planted", "4"])
    assert r.exit_code != 0
    assert "plant" in r.output.lower()


def test_count_cnf_rejects_xor_extended_files(runner, tmp_path):
    path = tmp_path / "aug.cnf"
    path.write_text("p cnf 3 1\n1 2 0\nx 1 1:1 3:1 0\n")
    r = runner.invoke(main, ["count-cnf", str(path)])
    assert r.exit_code == EXIT_USAGE


def test_count_cnf_beyond_the_enumeration_cap_is_no_estimate(runner, tmp_path):
    path = tmp_path / "f.cnf"
    r = runner.invoke(main, ["gen", "--problem", "cnf", "--n", "30",
                             "--clauses", "120", "--seed", "4", "--out", str(path)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["count-cnf", str(path)])
    assert r.exit_code == EXIT_NO_ESTIMATE
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output.startswith("CAP_EXCEEDED: ")


def test_malformed_xor_line_is_a_usage_error(runner, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 3 1\n1 2 0\nx\n")
    r = runner.invoke(main, ["count-cnf", str(path)])
    assert r.exit_code == EXIT_USAGE
    assert r.output.startswith("error: ")


def _raise(exc):
    def counter(rng, stats):
        raise exc
    return counter


@pytest.mark.parametrize("counter, output, code", [
    (lambda rng, stats: 7, "7\n", 0),
    (lambda rng, stats: None, "NO_ESTIMATE\n", EXIT_NO_ESTIMATE),
    (_raise(IterationBudgetExceeded("forced")), "BUDGET_EXCEEDED\n", EXIT_BUDGET),
    (_raise(CapExceeded("forced")), "CAP_EXCEEDED: forced\n", EXIT_NO_ESTIMATE),
], ids=["ok", "no-estimate", "budget-exceeded", "cap-exceeded"])
def test_count_prints_the_csv_outcome_word(runner, tmp_path, monkeypatch, counter, output, code):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    monkeypatch.setattr("fgcount.cli.instance_counter", lambda *args, **kwargs: counter)
    r = runner.invoke(main, ["count-cnf", str(path)])
    assert (r.output, r.exit_code) == (output, code)


def test_count_cnf_exact_up_to_the_enumeration_cap(runner, tmp_path):
    # 25 variables: the estimate and the exact count both enumerate (cap 26)
    path = tmp_path / "f.cnf"
    r = runner.invoke(main, ["gen", "--problem", "cnf", "--n", "25",
                             "--clauses", "2", "--seed", "4", "--out", str(path)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["count-cnf", str(path), "--exact"])
    assert r.exit_code == 0, r.output
    estimate, exact = r.output.strip().splitlines()
    assert int(estimate) > 0
    assert exact == f"exact {estimate}"


def test_count_3sum_exact_beyond_the_exact_cap_is_cap_exceeded(runner, tmp_path):
    # 420 elements: the estimate runs, the exact count passes the cubic cap
    path = tmp_path / "t.txt"
    r = runner.invoke(main, ["gen", "--problem", "3sum", "--n", "420",
                             "--seed", "2", "--out", str(path)])
    assert r.exit_code == 0, r.output
    r = runner.invoke(main, ["count-3sum", str(path), "--exact"])
    assert r.exit_code == EXIT_NO_ESTIMATE
    assert r.exception is None or isinstance(r.exception, SystemExit)
    estimate, cap_line = r.output.strip().splitlines()
    assert int(estimate) >= 0
    assert cap_line.startswith("CAP_EXCEEDED: ")


def test_bench_exact_reference_beyond_the_cap_is_cap_exceeded(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "eps": 0.3, "trials": 2, "master_seed": 5,
        "generator": {"problem": "cnf", "n": 30, "clause_count": 120, "seed": 4},
    }))
    r = runner.invoke(main, ["bench", str(cfg)])
    assert r.exit_code == EXIT_NO_ESTIMATE
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output.startswith("CAP_EXCEEDED: ")


def _assert_usage_error(r):
    assert r.exit_code == EXIT_USAGE, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert r.output.startswith("error: ")


@pytest.mark.parametrize("args", [
    ["probe", "--problem", "ov", "--sizes", ","],
    ["probe", "--problem", "ov", "--sizes", "64", "--trials", "0"],
    ["probe", "--problem", "ov", "--sizes", "64", "--eps", "0"],
    ["gen", "--problem", "ov", "--n", "-5"],
    ["gen", "--problem", "ov", "--n", "10", "--d", "-3"],
    ["gen", "--problem", "cnf", "--n", "5", "--width", "0"],
    ["probe", "--problem", "ov", "--sizes", "16", "--trials", "1", "--d", "-3"],
    ["probe", "--problem", "cnf", "--sizes", "8", "--trials", "1"],
    ["gen", "--problem", "nwt", "--n", "10", "--weight-bound", "-1"],
    ["gen", "--problem", "3sum", "--n", "10", "--value-bound", "-5"],
], ids=["probe-empty-sizes", "probe-zero-trials", "probe-eps-zero", "gen-negative-n",
        "gen-negative-d", "gen-zero-width", "probe-negative-d", "probe-cnf",
        "gen-negative-weight-bound", "gen-negative-value-bound"])
def test_bad_arguments_are_usage_errors(runner, args):
    _assert_usage_error(runner.invoke(main, args))


@pytest.mark.parametrize("command, option, value", [
    ("count-ov", "--eps", "1.5"),
    ("count-cnf", "--delta", "1.5"),
])
def test_count_rejects_parameters_outside_the_unit_interval(
    runner, tmp_path, command, option, value
):
    problem = command.removeprefix("count-")
    path = tmp_path / f"i.{'cnf' if problem == 'cnf' else 'json'}"
    r = runner.invoke(main, ["gen", "--problem", problem, "--n", "20", "--seed", "1",
                             "--out", str(path)])
    assert r.exit_code == 0, r.output
    _assert_usage_error(runner.invoke(main, [command, str(path), option, value]))


_NWT_PARTS = {"A": [0], "B": [1], "C": [2]}


@pytest.mark.parametrize("command, payload", [
    ("count-ov", {"type": "ov"}),
    ("count-nwt", {"type": "nwt", "parts": _NWT_PARTS, "edges": [[0, 7, 1]]}),
    ("count-ov", {"type": "ov", "d": 2, "A": [[0, -1]], "B": [[1, 0]]}),
    ("bench", {"eps": 0.25, "trials": 2, "master_seed": 1}),
    # -1 would index vertex 2 and close the negative triangle (0, 1, 2)
    ("count-nwt", {"type": "nwt", "parts": _NWT_PARTS,
                   "edges": [[0, 1, -5], [0, 2, -5], [-1, 1, -5]]}),
    ("count-3sum", {"type": "3sum", "A": [1.5], "B": [1], "C": [2]}),
    ("count-nwt", {"type": "nwt", "parts": {"A": [-1], "B": [1], "C": [2]}, "edges": []}),
    ("count-3sum", {"type": "3sum", "A": [[1, 2]], "B": [1], "C": [2, 3]}),
    # three weights of 2^62 wrap around int64 to a negative triangle
    ("count-nwt", {"type": "nwt", "parts": _NWT_PARTS,
                   "edges": [[0, 1, 2**62], [1, 2, 2**62], [0, 2, 2**62]]}),
    ("count-3sum", {"type": "3sum", "A": [-(2**63)], "B": [0], "C": [0]}),
    # the repeat would overwrite w(0, 1) and close the negative triangle (0, 1, 2)
    ("count-nwt", {"type": "nwt", "parts": _NWT_PARTS,
                   "edges": [[0, 1, 1], [1, 2, 1], [0, 2, 1], [1, 0, -9]]}),
    ("count-ov", {"type": "ov", "A": [[1, 0]], "B": [[0, 1]]}),
    ("count-ov", {"type": "ov", "d": 5, "A": [[1, 0]], "B": [[0, 1]]}),
    # each of these loaded: true as 1, and any d when there are no vectors
    ("count-ov", {"type": "ov", "d": True, "A": [[1]], "B": [[0]]}),
    ("count-ov", {"type": "ov", "d": "x", "A": [], "B": []}),
    ("count-ov", {"type": "ov", "d": -2, "A": [], "B": []}),
], ids=["ov-missing-key", "nwt-endpoint-above-n", "ov-negative-entry",
        "bench-missing-instance", "nwt-negative-endpoint", "3sum-float-entry",
        "nwt-negative-part-member", "3sum-nested-list", "nwt-weight-overflow",
        "3sum-minus-two-to-the-63", "nwt-repeated-edge", "ov-missing-d", "ov-wrong-d",
        "ov-bool-d", "ov-string-d-no-vectors", "ov-negative-d-no-vectors"])
def test_malformed_instance_files_are_usage_errors(runner, tmp_path, command, payload):
    if command == "bench":
        payload = {**payload, "instance_path": str(tmp_path / "missing.json")}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    args = [command, str(path)] + ([] if command == "bench" else ["--exact"])
    _assert_usage_error(runner.invoke(main, args))


@pytest.mark.parametrize("args, env, message", [
    (["--seed", "0"], {"FGCOUNT_SEED": "abc"}, "FGCOUNT_SEED must be an integer"),
    (["--eps", "abc"], {}, "'abc' is not a valid float"),
    (None, {}, "Missing argument 'INSTANCE_FILE'"),
], ids=["bad-env-seed", "bad-eps", "missing-instance-file"])
def test_click_usage_errors_exit_with_the_usage_code(runner, tmp_path, args, env, message):
    path = tmp_path / "f.cnf"
    path.write_text("p cnf 2 1\n1 2 0\n")
    argv = ["count-cnf"] + ([] if args is None else [str(path)] + args)
    r = runner.invoke(main, argv, env=env)
    assert r.exit_code == EXIT_USAGE, r.output
    assert r.exception is None or isinstance(r.exception, SystemExit)
    assert message in r.stderr


_BENCH_CONFIG = {"eps": 0.3, "trials": 2, "master_seed": 11,
                 "generator": {"problem": "ov", "n": 20, "d": 8, "seed": 2}}


@pytest.mark.parametrize("config", [
    [1, 2],
    {**_BENCH_CONFIG, "master_sed": 99},
    {**_BENCH_CONFIG, "trials": 2.5},
    {**_BENCH_CONFIG, "trials": True},
    {**_BENCH_CONFIG, "master_seed": "abc"},
    {**_BENCH_CONFIG, "eps": "0.3"},
    {**_BENCH_CONFIG, "cnf_delta": None},
    {**_BENCH_CONFIG, "compute_exact": "no"},
    {**_BENCH_CONFIG, "generator": {"problem": "ov", "size": 20}},
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": "abc"}},
    # each of these ran the estimator once: a traceback or a wrong count
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": 0, "zeta_constant": 0}},
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": 0, "core_factor": 1e400}},
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": 0, "core_factor": 0}},
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": 0, "core_factor": -3}},
    {**_BENCH_CONFIG, "overrides": {"exact_cutoff": 0, "iteration_factor": 7}},
    # each of these ended in a TypeError traceback
    {**_BENCH_CONFIG, "generator": {**_BENCH_CONFIG["generator"], "n": 10.5}},
    {**_BENCH_CONFIG, "generator": {**_BENCH_CONFIG["generator"], "d": 3.5}},
    {**_BENCH_CONFIG, "generator": {**_BENCH_CONFIG["generator"], "seed": "x"}},
    {**_BENCH_CONFIG, "generator": {"problem": "cnf", "n": 8, "width_k": 2.5}},
    {**_BENCH_CONFIG, "generator": {"problem": "cnf", "n": 8, "clause_count": 2.5}},
    # each of these exited 0, taking true as 1
    {**_BENCH_CONFIG, "generator": {**_BENCH_CONFIG["generator"], "planted_count": True}},
    {**_BENCH_CONFIG, "generator": {**_BENCH_CONFIG["generator"], "density": True}},
], ids=["top-level-list", "unknown-key", "float-trials", "bool-trials", "string-seed",
        "string-eps", "null-cnf-delta", "string-compute-exact", "unknown-generator-key",
        "string-override", "zero-zeta-constant", "infinite-core-factor", "zero-core-factor",
        "negative-core-factor", "unknown-override", "float-generator-n", "float-generator-d",
        "string-generator-seed", "float-width-k", "float-clause-count", "bool-planted-count",
        "bool-density"])
def test_malformed_bench_configs_are_usage_errors(runner, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    _assert_usage_error(runner.invoke(main, ["bench", str(path)]))


def test_count_cnf_rejects_a_malformed_xor_entry(runner, tmp_path):
    path = tmp_path / "bad.cnf"
    path.write_text("p cnf 3 1\n1 2 0\nx 1 1:1 1:0 0\n")
    _assert_usage_error(runner.invoke(main, ["count-cnf", str(path)]))


@pytest.mark.parametrize("command", ["count-3sum", "count-ov", "count-nwt", "count-cnf"])
def test_count_commands_take_the_same_argument_and_options(command):
    params = {p.name: p for p in main.commands[command].params}
    expected = {"eps": 0.25, "seed": 0, "exact_flag": False}
    if command == "count-cnf":
        expected["delta"] = 0.3
    instance_file = params.pop("instance_file")
    assert instance_file.human_readable_name == "INSTANCE_FILE" and instance_file.required
    assert {name: p.default for name, p in params.items()} == expected
    assert params["eps"].opts == ["--eps"]
    assert params["seed"].opts == ["--seed"]
    assert params["exact_flag"].opts == ["--exact"] and params["exact_flag"].is_flag
    if command == "count-cnf":
        assert params["delta"].opts == ["--delta"]


def test_bench_rejects_an_xor_extended_instance_file(runner, tmp_path):
    path = tmp_path / "aug.cnf"
    path.write_text("p cnf 3 1\n1 2 0\nx 1 1:1 3:1 0\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eps": 0.3, "trials": 2, "instance_path": str(path)}))
    _assert_usage_error(runner.invoke(main, ["bench", str(cfg)]))


def test_an_unwritable_out_file_is_a_usage_error(runner, tmp_path):
    out = tmp_path / "missing-dir" / "i.json"
    args = ["gen", "--problem", "ov", "--n", "10", "--d", "4", "--out", str(out)]
    _assert_usage_error(runner.invoke(main, args))
