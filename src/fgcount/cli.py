"""Command-line surface.

Exit codes: 0 on success, 2 when no estimate was produced or a count the
command needs is beyond an enumeration cap (``CAP_EXCEEDED: <reason>``: the
estimate itself, ``--exact``'s exact count after the estimate, or
``bench``'s exact reference before any trial), 3 when the estimator
exceeded its iteration budget, 1 on usage or I/O errors (click's own usage
errors included) and on malformed instance files.  The environment
variable FGCOUNT_SEED, when set, overrides any --seed flag.
"""

from __future__ import annotations

import contextlib
import os
import sys
from functools import partial
from pathlib import Path
from typing import NoReturn, Optional

import click

from .exact import exact_count
from .experiments import (
    ExperimentConfig,
    Outcome,
    _attempt,
    instance_counter,
    probe_to_csv,
    records_to_csv,
    run_experiment,
    scaling_probe,
    summary_line,
)
from .generators import GeneratorSpec, generate
from .instances import Problem, dumps_instance, load_instance, problem_kind
from .reductions import CountStats
from .rng import RngStream, derive_stream
from .satcount import CapExceeded

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NO_ESTIMATE = 2
EXIT_BUDGET = 3


def _resolve_seed(seed: int) -> int:
    env = os.environ.get("FGCOUNT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise click.UsageError(f"FGCOUNT_SEED must be an integer, got {env!r}") from exc
    return seed


def _usage_error(message: str) -> NoReturn:
    click.echo(f"error: {message}", err=True)
    sys.exit(EXIT_USAGE)


def _check_unit_interval(name: str, value: float) -> None:
    if not 0.0 < value < 1.0:
        _usage_error(f"{name} must lie in (0,1), got {value}")


@contextlib.contextmanager
def _usage_exit_code():
    """Give click's usage errors EXIT_USAGE; click's own code 2 is NO_ESTIMATE here."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_USAGE
        raise


class _Main(click.Group):
    """The command group; usage errors, its own or a command's, exit EXIT_USAGE."""

    def make_context(self, *args, **kwargs):
        with _usage_exit_code():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_exit_code():
            return super().invoke(ctx)


@click.group(cls=_Main)
def main() -> None:
    """Approximate counting via decision oracles."""


def _emit(text: str, out: Optional[str]) -> None:
    """Write ``text`` to the ``--out`` file, else echo it to stdout."""
    if not out:
        click.echo(text, nl=False)
        return
    try:
        Path(out).write_text(text)
    except OSError as exc:
        _usage_error(str(exc))


@main.command()
@click.option("--problem", type=click.Choice([p.value for p in Problem]), required=True)
@click.option("--n", type=int, required=True, help="total instance size")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--planted", type=int, default=None, help="exact witness count to plant")
@click.option("--d", type=int, default=64, show_default=True, help="OV dimension")
@click.option("--density", type=float, default=0.25, show_default=True)
@click.option("--value-bound", type=int, default=10**9, show_default=True)
@click.option("--weight-bound", type=int, default=100, show_default=True)
@click.option("--clauses", type=int, default=0, help="CNF clause count (default 4n)")
@click.option("--width", type=int, default=3, show_default=True, help="CNF clause width")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def gen(problem, n, seed, planted, d, density, value_bound, weight_bound, clauses, width, out):
    """Generate an instance file (JSON, or DIMACS for CNF)."""
    try:
        inst = generate(GeneratorSpec(
            problem=Problem(problem),
            n=n,
            seed=_resolve_seed(seed),
            planted_count=planted,
            d=d,
            density=density,
            value_bound=value_bound,
            weight_bound=weight_bound,
            clause_count=clauses,
            width_k=width,
        ))
    except ValueError as exc:  # a bad field or an infeasible plant
        _usage_error(str(exc))
    _emit(dumps_instance(inst), out)


def _count(kind, instance_file, eps, seed, exact_flag, delta=0.3):
    """One ``count-*`` run: a single estimate on the ``cli-count`` stream."""
    _check_unit_interval("--delta", delta)
    _check_unit_interval("--eps", eps)
    try:
        inst = load_instance(instance_file)
    except (OSError, ValueError) as exc:
        _usage_error(str(exc))
    if problem_kind(inst) is not kind:
        _usage_error(f"expected a {kind.value} instance")
    rng = derive_stream(RngStream(_resolve_seed(seed)), "cli-count")
    try:
        counter = instance_counter(inst, eps, cnf_delta=delta)
    except ValueError as exc:  # an x-line CNF
        _usage_error(str(exc))
    outcome, value, reason = _attempt(counter, rng, CountStats())
    if outcome is not Outcome.OK:  # the CSV's outcome word; CAP_EXCEEDED adds its reason
        click.echo(outcome.value if reason is None else f"{outcome.value}: {reason}")
        sys.exit(EXIT_BUDGET if outcome is Outcome.BUDGET_EXCEEDED else EXIT_NO_ESTIMATE)
    click.echo(str(value))
    if exact_flag:
        try:
            click.echo(f"exact {exact_count(inst)}")
        except CapExceeded as exc:
            click.echo(f"CAP_EXCEEDED: {exc}")
            sys.exit(EXIT_NO_ESTIMATE)
    sys.exit(EXIT_OK)


_COUNT_HELP = {
    Problem.THREESUM: "Approximate the number of 3SUM tuples in a JSON instance.",
    Problem.OV: "Approximate the number of orthogonal pairs in a JSON instance.",
    Problem.NWT: "Approximate the number of negative triangles in a JSON instance.",
    Problem.CNF: "Approximately count satisfying assignments of a DIMACS CNF.",
}


def _count_command(kind: Problem) -> click.Command:
    params = [
        click.Argument(["instance_file"], type=click.Path(exists=True, dir_okay=False)),
        click.Option(["--eps"], type=float, default=0.25, show_default=True),
        click.Option(["--seed"], type=int, default=0, show_default=True),
        click.Option(["--exact", "exact_flag"], is_flag=True, help="also print the exact count"),
    ]
    if kind is Problem.CNF:
        params.insert(2, click.Option(["--delta"], type=float, default=0.3, show_default=True))
    return click.Command(
        f"count-{kind.value}", callback=partial(_count, kind), params=params, help=_COUNT_HELP[kind]
    )


for _kind in Problem:
    main.add_command(_count_command(_kind))


@main.command()
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def bench(config_file, out):
    """Run an experiment config (JSON) and emit trial records as CSV."""
    try:
        cfg = ExperimentConfig.from_json(Path(config_file).read_text())
    except (OSError, ValueError) as exc:
        _usage_error(str(exc))
    try:
        records = run_experiment(cfg)
    except CapExceeded as exc:  # the exact reference count, before any trial
        click.echo(f"CAP_EXCEEDED: {exc}")
        sys.exit(EXIT_NO_ESTIMATE)
    except (OSError, ValueError) as exc:  # loading, generating or an x-line CNF
        _usage_error(str(exc))
    _emit(records_to_csv(records) + summary_line(records, cfg.eps) + "\n", out)
    sys.exit(EXIT_OK)


@main.command()
@click.option("--problem", type=click.Choice([p.value for p in Problem]), required=True)
@click.option("--sizes", required=True, help="comma-separated instance sizes")
@click.option("--eps", type=float, default=0.25, show_default=True)
@click.option("--trials", type=int, default=5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--d", type=int, default=64, show_default=True)
@click.option("--density", type=float, default=0.25, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
def probe(problem, sizes, eps, trials, seed, d, density, out):
    """Median independence-query counts across instance sizes."""
    try:
        size_list = [int(s) for s in sizes.split(",") if s]
    except ValueError:
        size_list = []
    if not size_list or min(size_list) <= 0:
        _usage_error("--sizes must be comma-separated positive integers")
    if trials < 1:
        _usage_error(f"--trials must be at least 1, got {trials}")
    _check_unit_interval("--eps", eps)
    seed = _resolve_seed(seed)
    try:
        template = GeneratorSpec(
            problem=Problem(problem), n=max(size_list), seed=seed, d=d, density=density
        )
        results = scaling_probe(template, size_list, eps, trials, RngStream(seed))
    except ValueError as exc:
        _usage_error(str(exc))
    _emit(probe_to_csv(results), out)
    sys.exit(EXIT_OK)


if __name__ == "__main__":
    main()
