"""Command-line front end: generate, solve, dump reductions, match.

Exit codes: 0 on success, 2 for usage or parse problems, 3 when oracle
verification contradicts the solver.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .errors import (
    DegenerateInterval,
    DuplicateEndpoint,
    DuplicateVertexId,
    InvalidSpec,
    ParseError,
)
from .generators import GeneratorSpec, generate
from .intervals import format_intervals, parse_intervals
from .matching import matching, parse_edge_list
from .oracle import SIZE_GUARD, brute_longest_path
from .pipeline import longest_path, run_stages


@click.group()
def main() -> None:
    """Longest path on interval graphs, reduction by reduction."""


def _load_intervals(path: str):
    """The graph in an interval file; a malformed or invalid file is a usage
    error (exit 2), reported without a traceback."""
    try:
        return parse_intervals(Path(path).read_text())
    except (ParseError, DuplicateVertexId, DuplicateEndpoint, DegenerateInterval) as exc:
        raise click.UsageError(f"cannot parse {path}: {type(exc).__name__}: {exc}") from exc


@main.command()
@click.option("--kind", type=click.Choice(["random", "proper", "planted"]), required=True)
@click.option("--n", type=int, required=True)
@click.option("--k", type=int, default=0, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
def gen(kind: str, n: int, k: int, seed: int) -> None:
    """Write a generated interval file to standard output."""
    try:
        graph = generate(GeneratorSpec(kind=kind, n=n, k=k, seed=seed))
    except InvalidSpec as exc:
        raise click.UsageError(str(exc)) from exc
    click.echo(format_intervals(graph), nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--verify-oracle", is_flag=True, help="cross-check against brute force (n <= 18)")
@click.option("--json", "as_json", is_flag=True, help="emit a JSON result document")
def solve(file: str, verify_oracle: bool, as_json: bool) -> None:
    """Longest path of the interval graph in FILE."""
    graph = _load_intervals(file)
    try:
        result = longest_path(graph)
    except InvalidSpec as exc:
        raise click.UsageError(str(exc)) from exc
    if verify_oracle and graph.n > SIZE_GUARD:
        click.echo(f"not verified: n={graph.n} exceeds the brute-force guard {SIZE_GUARD}", err=True)
    elif verify_oracle:
        want, _ = brute_longest_path(graph)
        if want != result.length:
            click.echo(
                f"verification mismatch: solver {result.length}, oracle {want}",
                err=True,
            )
            sys.exit(3)
    if as_json:
        click.echo(
            json.dumps({"length": result.length, "path": result.path, "stats": result.stats})
        )
    else:
        click.echo(" ".join([str(result.length), *result.path]))


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--stage", type=click.Choice(["1", "2"]), required=True)
def reduce(file: str, stage: str) -> None:
    """Dump the graph after one or both reductions, with the partition."""
    stages = run_stages(_load_intervals(file))
    if stage == "1":
        stage1 = stages.stage1
        out = stage1.g_sharp
        notes = [
            "# d: " + " ".join(sorted(stages.widened.names[v] for v in stages.deletion.marked)),
            "# a: " + " ".join(sorted(stage1.A)),
            "# u_sharp: " + " ".join(sorted(stage1.U_sharp)),
        ]
    else:
        special = stages.special
        out = special.graph
        notes = [
            "# a: " + " ".join(sorted(special.A)),
            "# b: " + " ".join(sorted(special.B)),
            f"# kappa: {special.kappa}",
        ]
    click.echo(format_intervals(out), nl=False)
    for line in notes:
        click.echo(line)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--k", type=int, required=True)
def match(file: str, k: int) -> None:
    """Decide whether the edge-list graph in FILE has a matching of size k."""
    if k < 1:
        raise click.UsageError("--k must be positive")
    try:
        graph = parse_edge_list(Path(file).read_text())
    except ParseError as exc:
        raise click.UsageError(f"cannot parse {file}: {exc}") from exc
    found, outcome = matching(graph, k)
    click.echo("YES" if found else "NO")
    if outcome.kernel is None:
        click.echo(f"removed_high_degree={outcome.removed_high_degree} kernel=none")
        return
    small, k_prime = outcome.kernel
    click.echo(
        f"removed_high_degree={outcome.removed_high_degree} "
        f"kernel_n={small.n} kernel_m={small.m} k_prime={k_prime}"
    )


if __name__ == "__main__":
    main()
