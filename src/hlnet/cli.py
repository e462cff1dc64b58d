"""Command-line surface tying recipes, formulas, constructions and oracles
into reproducible runs.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error,
3 a search budget was exhausted.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time

from .construction import CutReport, build_component_cut, load_cut, save_cut, verify_cut
from .formulas import component_edge_connectivity, extremal_edge_count, run_property_suite
from .oracles import (
    COMPLETE,
    SearchLimits,
    _check_search_depth,
    max_induced_edges,
    min_component_edge_cut,
    save_partition,
)
from .recipes import (
    MAX_DIM,
    Recipe,
    _check_dim,
    _write_document,
    g84,
    hypercube,
    load_graph,
    load_recipe,
    materialize,
    random_hl,
    save_graph,
    save_recipe,
)
from .reports import CELL_COLUMNS, FORMATS, emit_report

_FAIL_TOKENS = {
    "fail",
    "mismatch",
    "size-mismatch",
    "components-short",
    "bound-violated",
}

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlnet",
        description="Recursive matched-pair network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str, handler, recipe: bool = True):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=FORMATS, default="text")
        p.add_argument("--out", help="write the report here instead of stdout")
        p.add_argument(
            "--timing",
            action="store_true",
            help="record wall-clock elapsed_ms (breaks byte-reproducibility)",
        )
        if recipe:
            p.add_argument("--n", type=int)
            p.add_argument(
                "--recipe",
                default="hypercube",
                help="hypercube | g84 | random[:seed=S] | file:PATH",
            )
        return p

    p = command("gen", "write recipe/graph files", _run_gen)
    p.add_argument("--recipe-out", help="recipe document destination")
    p.add_argument("--graph-out", help="edge-list destination")

    p = command("eg", "tabulate the extremal edge count over g", _run_eg, recipe=False)
    p.add_argument("--n", type=int)
    _add_g_args(p)

    p = command("cut", "build and export a component edge cut", _run_cut)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "permissive"), default="strict")
    p.add_argument("--cut-out", help="cut edge-list destination")

    p = command(
        "verify", "report components of a graph minus a cut", _run_verify, recipe=False
    )
    p.add_argument("--graph", required=True, dest="graph_path")
    p.add_argument("--cut", required=True, dest="cut_path")
    p.add_argument("--g", type=int, help="override the cut header's g")

    p = command("oracle-eg", "brute-force max induced edges vs formula", _run_oracle_eg)
    _add_g_args(p)
    _add_limit_args(p)

    p = command(
        "oracle-clambda",
        "exact minimum component cut vs formula bound",
        _run_oracle_clambda,
    )
    _add_g_args(p, g_all=False)
    _add_limit_args(p)
    p.add_argument("--witness-out", help="best partition destination (single --g only)")

    p = command(
        "suite", "exhaustive inequality property suite", _run_suite, recipe=False
    )
    p.add_argument("--g-max", type=int, default=4096)
    p.add_argument("--n-max", type=int, default=24)
    p.add_argument("--i-max", type=int, default=65536)
    p.add_argument("--n-max-mono", type=int, default=64)

    return parser


def _add_g_args(p: argparse.ArgumentParser, g_all: bool = True) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--g", type=int)
    grp.add_argument("--g-max", type=int)
    if g_all:
        grp.add_argument("--g-all", action="store_true")


def _add_limit_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-nodes", type=int, help="search node budget")
    p.add_argument("--time-budget", type=float, help="search time budget in seconds")


def _resolve_recipe(args: argparse.Namespace) -> Recipe:
    source = args.recipe
    if source.startswith("file:"):
        recipe = load_recipe(source[5:])
        if args.n is not None and recipe.dim != args.n:
            raise ValueError(
                f"--n {args.n} does not match recipe file dim {recipe.dim}"
            )
        return recipe
    if source == "g84":
        if args.n not in (None, 3):
            raise ValueError("g84 is a dim-3 recipe; drop --n or pass --n 3")
        return g84()
    seed = 0
    name = source
    if source.startswith("random:"):
        name, _, tail = source.partition(":")
        key, _, value = tail.partition("=")
        if key != "seed" or not value.removeprefix("-").isdecimal():
            raise ValueError(f"cannot parse {source!r}; use random:seed=INT")
        seed = int(value)
    if name not in ("hypercube", "random"):
        raise ValueError(f"unknown recipe {source!r}")
    if args.n is None:
        raise ValueError(f"--n is required with the {name} recipe")
    if name == "hypercube":
        return hypercube(args.n)
    return random_hl(args.n, seed)


# command -> (lowest g, highest g minus 2^n): the g each accepts at dimension n
_G_DOMAIN = {"eg": (0, 0), "cut": (1, -1), "verify": (0, -1),
             "oracle-eg": (1, 0), "oracle-clambda": (1, -1)}


def _g_range(args: argparse.Namespace, n: "int | None") -> range:
    g, g_max = args.g, getattr(args, "g_max", None)
    if g_max is not None and g_max < 1:
        raise ValueError(f"--g-max must be at least 1, got {g_max}")
    if g is None and g_max is None:  # --g-all, as argparse requires one of the three
        if n is None:
            raise ValueError("--g-all needs a dimension")
        _check_dim(n)
    gs = range(g, g + 1) if g is not None else range(1, (g_max or 1 << n) + 1)
    lo, top = _G_DOMAIN[args.command]
    # no upper end without n; the shift is capped (huge n) and floored (a cut's n < 0)
    hi = gs[-1] if n is None else (1 << min(max(n, 0), gs[-1].bit_length() + 1)) + top
    if lo <= gs[0] and gs[-1] <= hi:
        return gs
    bad = gs[0] if not lo <= gs[0] <= hi else hi + 1
    what = "must be non-negative" if n is None else f"out of range for dimension {n}"
    raise ValueError(f"g={bad} {what}")


def _check_guard(flag: str, value: int) -> None:
    if value > 1 << MAX_DIM:
        raise ValueError(f"{flag} {value} exceeds the guard 2^{MAX_DIM} = {1 << MAX_DIM}")


def _cell_row(n, g, formula, construction, oracle, status: str) -> dict:
    """One experiment cell's row, keyed by reports.CELL_COLUMNS, with elapsed_ms 0."""
    return dict(zip(CELL_COLUMNS, (n, g, formula, construction, oracle, status, 0)))


def _exit_code(rows) -> int:
    tokens = {row["status"].split(";")[0] for row in rows}
    if tokens & _FAIL_TOKENS:
        return EXIT_CHECK_FAILED
    if "incomplete" in tokens:
        return EXIT_BUDGET
    return EXIT_OK


def _run_gen(args: argparse.Namespace):
    if args.out and args.recipe_out:
        raise ValueError("--out and --recipe-out both name the recipe document; give one")
    recipe_out = args.out or args.recipe_out
    recipe = _resolve_recipe(args)
    if recipe_out or not args.graph_out:
        save_recipe(recipe, recipe_out or sys.stdout)
    if args.graph_out:
        save_graph(materialize(recipe), args.graph_out)
    return ()


def _run_eg(args: argparse.Namespace):
    n = args.n or 0
    if n < 0:
        raise ValueError(f"--n must be non-negative, got {n}")
    _check_guard("--g-max", args.g_max or 0)
    for g in _g_range(args, args.n):
        yield _cell_row(n, g, extremal_edge_count(g), None, None, "ok")


def _run_cut(args: argparse.Namespace):
    recipe = _resolve_recipe(args)
    n, (g,) = recipe.dim, _g_range(args, recipe.dim)
    bound = component_edge_connectivity(n, g, args.mode)
    if not bound.proven:
        print(
            "warning: outside the proven regime (need n >= 8 and "
            "g <= 2^ceil(n/2)); the value is an upper bound only",
            file=sys.stderr,
        )
    graph = materialize(recipe)
    cut = build_component_cut(recipe, g)
    # not read again: let its matchings (2^n ints in the cube) go before verify_cut's peak
    del recipe
    report = verify_cut(graph, cut)
    if args.cut_out:
        save_cut(cut, n, g, args.cut_out)
    return [_cut_row(n, g, bound.value, report)]


def _run_verify(args: argparse.Namespace):
    cut, n, g = load_cut(args.cut_path)
    args.g = g if args.g is None else args.g
    (g,) = _g_range(args, n)
    graph = load_graph(args.graph_path)
    if n != graph.n:
        raise ValueError(f"cut header dim {n} does not match graph dim {graph.n}")
    predicted = component_edge_connectivity(n, g, "permissive").value
    return [_cut_row(n, g, predicted, verify_cut(graph, cut))]


def _cut_row(n: int, g: int, predicted: int, report: CutReport) -> dict:
    """The one report row of cut and verify: the cut against n*g - e(g)."""
    if report.cut_size != predicted:
        token = "size-mismatch"
    elif report.component_count < g + 1:
        token = "components-short"
    else:
        token = "ok"
    status = (
        f"{token};components={report.component_count};"
        f"isolated={report.isolated_count}"
    )
    return _cell_row(n, g, predicted, report.cut_size, None, status)


def _run_oracle_eg(args: argparse.Namespace):
    limits = SearchLimits(args.max_nodes, args.time_budget)
    recipe = _resolve_recipe(args)
    gs = _g_range(args, recipe.dim)
    if gs[0] < 1 << recipe.dim:  # g = 2^n takes every vertex and runs no search
        _check_search_depth(1 << recipe.dim)
    graph = materialize(recipe)
    for g in gs:
        formula = extremal_edge_count(g)
        result = max_induced_edges(graph, g, limits)
        if result.status != COMPLETE:
            status = "incomplete"
        elif result.value == formula:
            status = "ok"
        else:
            status = "mismatch"
        yield _cell_row(recipe.dim, g, formula, None, result.value, status)


def _run_oracle_clambda(args: argparse.Namespace):
    limits = SearchLimits(args.max_nodes, args.time_budget)
    recipe = _resolve_recipe(args)
    n = recipe.dim
    gs = _g_range(args, n)
    if args.witness_out and args.g is None:
        raise ValueError("--witness-out needs a single --g")
    _check_search_depth(1 << n)
    graph = materialize(recipe)
    for g in gs:
        bound, proven = component_edge_connectivity(n, g, "permissive")
        result = min_component_edge_cut(graph, g + 1, limits)
        if result.status != COMPLETE:
            status = "incomplete"
        elif result.value > bound:
            status = "bound-violated"
        elif result.value == bound:
            status = "equal"
        else:  # below a proven bound, the search refutes the theorem
            status = "mismatch" if proven else "gap"
        if args.witness_out:
            save_partition(result.witness, args.witness_out)
        yield _cell_row(n, g, bound, None, result.value, status)


def _run_suite(args: argparse.Namespace):
    for flag in ("--g-max", "--i-max", "--n-max", "--n-max-mono"):
        _check_guard(flag, getattr(args, flag[2:].replace("-", "_")))
    checks = run_property_suite(
        g_max=args.g_max,
        slack_n_max=args.n_max,
        increment_max=args.i_max,
        monotone_n_max=args.n_max_mono,
    )
    return [
        {
            "check": c.name,
            "cases": c.cases,
            "status": "pass" if c.passed else "fail",
            "witness": c.witness,
            "lhs": c.lhs,
            "rhs": c.rhs,
        }
        for c in checks
    ]


def main(argv: "list[str] | None" = None) -> int:
    # a run's objects live until it ends, so the cyclic collector would only
    # re-walk them (whole passes over a loaded recipe tree); the caller's
    # setting comes back on every exit, since tests call main in-process
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if collecting:
            gc.enable()


def _run(argv: "list[str] | None") -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        # every row is drawn before any is emitted, so an error leaves no report
        rows = []
        start = time.monotonic()
        for row in args.handler(args):
            if args.timing and "elapsed_ms" in row:
                now = time.monotonic()
                row["elapsed_ms"] = int((now - start) * 1000)
                start = now
            rows.append(row)
        if rows:
            _write_document(args.out or sys.stdout, emit_report(rows, args.format))
        return _exit_code(rows)
    except (ValueError, OSError) as exc:  # RecipeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
