"""Command-line surface tying recipes, formulas, constructions and oracles
into reproducible runs.

Exit codes: 0 all checks passed, 1 a check failed, 2 usage error,
3 a search budget was exhausted.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass, field

from .construction import build_component_cut, load_cut, save_cut, verify_cut
from .formulas import (
    component_edge_connectivity,
    extremal_edge_count,
    run_property_suite,
)
from .oracles import (
    COMPLETE,
    SearchLimits,
    max_induced_edges,
    min_component_edge_cut,
    save_partition,
)
from .recipes import (
    MAX_DIM,
    Recipe,
    RecipeError,
    g84,
    hypercube,
    load_graph,
    load_recipe,
    materialize,
    random_hl,
    save_graph,
    save_recipe,
)
from .reports import ReportRow, emit_report

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


@dataclass
class RunConfig:
    """Everything a run depends on; equal configs give equal reports."""

    command: str
    n: "int | None" = None
    g: "int | None" = None
    g_max: "int | None" = None
    g_all: bool = False
    seed: int = 0
    recipe: str = "hypercube"
    fmt: str = "text"
    out: "str | None" = None
    mode: str = "strict"
    max_dim: int = MAX_DIM
    limits: SearchLimits = field(default_factory=SearchLimits)
    timing: bool = False
    recipe_out: "str | None" = None
    graph_out: "str | None" = None
    cut_out: "str | None" = None
    witness_out: "str | None" = None
    graph_path: "str | None" = None
    cut_path: "str | None" = None
    suite_g_max: int = 4096
    suite_n_max: int = 24
    suite_i_max: int = 65536
    suite_n_max_mono: int = 64


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlnet",
        description="Recursive matched-pair network toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, recipe: bool = True) -> None:
        p.add_argument("--format", choices=("csv", "json", "text"), default="text")
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
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--max-dim", type=int, default=MAX_DIM)

    p = sub.add_parser("gen", help="write recipe/graph files")
    common(p)
    p.add_argument("--recipe-out", help="recipe document destination")
    p.add_argument("--graph-out", help="edge-list destination")

    p = sub.add_parser("eg", help="tabulate the extremal edge count over g")
    common(p, recipe=False)
    p.add_argument("--n", type=int)
    _add_g_args(p)

    p = sub.add_parser("cut", help="build and export a component edge cut")
    common(p)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--mode", choices=("strict", "permissive"), default="strict")
    p.add_argument("--cut-out", help="cut edge-list destination")

    p = sub.add_parser("verify", help="report components of a graph minus a cut")
    common(p, recipe=False)
    p.add_argument("--graph", required=True, dest="graph_path")
    p.add_argument("--cut", required=True, dest="cut_path")
    p.add_argument("--g", type=int, help="override the cut header's g")

    p = sub.add_parser("oracle-eg", help="brute-force max induced edges vs formula")
    common(p)
    _add_g_args(p)
    _add_limit_args(p)

    p = sub.add_parser(
        "oracle-clambda", help="exact minimum component cut vs formula bound"
    )
    common(p)
    _add_g_args(p, g_all=False)
    _add_limit_args(p)
    p.add_argument("--witness-out", help="best partition destination (single --g only)")

    p = sub.add_parser("suite", help="exhaustive inequality property suite")
    common(p, recipe=False)
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


def parse_args(argv: "list[str] | None" = None) -> RunConfig:
    args = _build_parser().parse_args(argv)
    suite = args.command == "suite"
    return RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        g=getattr(args, "g", None),
        g_max=None if suite else getattr(args, "g_max", None),
        g_all=getattr(args, "g_all", False),
        seed=getattr(args, "seed", 0),
        recipe=getattr(args, "recipe", "hypercube"),
        fmt=getattr(args, "format", "text"),
        out=getattr(args, "out", None),
        mode=getattr(args, "mode", "strict"),
        max_dim=getattr(args, "max_dim", MAX_DIM),
        limits=SearchLimits(
            max_nodes_expanded=getattr(args, "max_nodes", None),
            time_budget=getattr(args, "time_budget", None),
        ),
        timing=getattr(args, "timing", False),
        recipe_out=getattr(args, "recipe_out", None),
        graph_out=getattr(args, "graph_out", None),
        cut_out=getattr(args, "cut_out", None),
        witness_out=getattr(args, "witness_out", None),
        graph_path=getattr(args, "graph_path", None),
        cut_path=getattr(args, "cut_path", None),
        suite_g_max=args.g_max if suite else 4096,
        suite_n_max=getattr(args, "n_max", 24),
        suite_i_max=getattr(args, "i_max", 65536),
        suite_n_max_mono=getattr(args, "n_max_mono", 64),
    )


def _resolve_recipe(cfg: RunConfig) -> tuple[Recipe, int]:
    source = cfg.recipe
    if source.startswith("file:"):
        recipe = load_recipe(source[5:])
        if cfg.n is not None and recipe.dim != cfg.n:
            raise ValueError(
                f"--n {cfg.n} does not match recipe file dim {recipe.dim}"
            )
        return recipe, recipe.dim
    if source == "g84":
        if cfg.n not in (None, 3):
            raise ValueError("g84 is a dim-3 recipe; drop --n or pass --n 3")
        return g84(), 3
    seed = cfg.seed
    name = source
    if source.startswith("random:"):
        name, _, tail = source.partition(":")
        key, _, value = tail.partition("=")
        if key != "seed" or not value.lstrip("-").isdigit():
            raise ValueError(f"cannot parse {source!r}; use random:seed=INT")
        seed = int(value)
    if name not in ("hypercube", "random"):
        raise ValueError(f"unknown recipe {source!r}")
    if cfg.n is None:
        raise ValueError(f"--n is required with the {name} recipe")
    if name == "hypercube":
        return hypercube(cfg.n, max_dim=cfg.max_dim), cfg.n
    return random_hl(cfg.n, seed, max_dim=cfg.max_dim), cfg.n


def _g_range(cfg: RunConfig, n: "int | None") -> list[int]:
    if cfg.g is not None:
        return [cfg.g]
    if cfg.g_max is not None:
        if cfg.g_max < 1:
            raise ValueError(f"--g-max must be at least 1, got {cfg.g_max}")
        return list(range(1, cfg.g_max + 1))
    if cfg.g_all:
        if n is None:
            raise ValueError("--g-all needs a dimension")
        return list(range(1, (1 << n) + 1))
    raise ValueError("one of --g, --g-max, --g-all is required")


class _Clock:
    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self._t0 = time.monotonic()

    def lap(self) -> int:
        now = time.monotonic()
        ms = int((now - self._t0) * 1000)
        self._t0 = now
        return ms if self.enabled else 0


def run(cfg: RunConfig) -> int:
    """Dispatch a validated config; emits the report and returns the exit code."""
    handler = {
        "gen": _run_gen,
        "eg": _run_eg,
        "cut": _run_cut,
        "verify": _run_verify,
        "oracle-eg": _run_oracle_eg,
        "oracle-clambda": _run_oracle_clambda,
        "suite": _run_suite,
    }[cfg.command]
    rows, columns = handler(cfg)
    if rows is not None:
        text = emit_report(rows, cfg.fmt, columns)
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return _exit_code(rows or [])


def _exit_code(rows) -> int:
    failed = False
    incomplete = False
    for row in rows:
        status = row.status if isinstance(row, ReportRow) else row.get("status", "")
        token = str(status).split(";")[0]
        if token in _FAIL_TOKENS:
            failed = True
        if token == "incomplete":
            incomplete = True
        if isinstance(row, ReportRow) and not row.consistent():
            failed = True
    if failed:
        return EXIT_CHECK_FAILED
    if incomplete:
        return EXIT_BUDGET
    return EXIT_OK


def _run_gen(cfg: RunConfig):
    recipe, _ = _resolve_recipe(cfg)
    if cfg.recipe_out:
        save_recipe(recipe, cfg.recipe_out)
    if cfg.graph_out:
        save_graph(materialize(recipe, max_dim=cfg.max_dim), cfg.graph_out)
    if not cfg.recipe_out and not cfg.graph_out:
        save_recipe(recipe, sys.stdout)
    return None, None


def _run_eg(cfg: RunConfig):
    n = cfg.n or 0
    rows = []
    clock = _Clock(cfg.timing)
    for g in _g_range(cfg, cfg.n):
        if n and not 0 <= g <= (1 << n):
            raise ValueError(f"g={g} out of range for dimension {n}")
        rows.append(
            ReportRow(n, g, extremal_edge_count(g), None, None, "ok", clock.lap())
        )
    return rows, None


def _run_cut(cfg: RunConfig):
    recipe, n = _resolve_recipe(cfg)
    g = cfg.g
    assert g is not None
    bound = component_edge_connectivity(n, g, cfg.mode)
    if not bound.proven:
        print(
            "warning: outside the proven regime (need n >= 8 and "
            "g <= 2^ceil(n/2)); the value is an upper bound only",
            file=sys.stderr,
        )
    clock = _Clock(cfg.timing)
    graph = materialize(recipe, max_dim=cfg.max_dim)
    cut = build_component_cut(recipe, g)
    report = verify_cut(graph, cut, g)
    if cfg.cut_out:
        save_cut(cut, n, g, cfg.cut_out)
    status = _cut_status(report, g)
    rows = [
        ReportRow(
            n, g, report.predicted_size, report.cut_size, None, status, clock.lap()
        )
    ]
    return rows, None


def _cut_status(report, g: int) -> str:
    if not report.matches_prediction:
        token = "size-mismatch"
    elif report.component_count < g + 1:
        token = "components-short"
    else:
        token = "ok"
    return (
        f"{token};components={report.component_count};"
        f"isolated={report.isolated_count}"
    )


def _run_verify(cfg: RunConfig):
    graph = load_graph(cfg.graph_path)
    cut, n, g = load_cut(cfg.cut_path)
    if n != graph.n:
        raise ValueError(f"cut header dim {n} does not match graph dim {graph.n}")
    if cfg.g is not None:
        g = cfg.g
    clock = _Clock(cfg.timing)
    report = verify_cut(graph, cut, g)
    rows = [
        ReportRow(
            graph.n,
            g,
            report.predicted_size,
            report.cut_size,
            None,
            _cut_status(report, g),
            clock.lap(),
        )
    ]
    return rows, None


def _run_oracle_eg(cfg: RunConfig):
    recipe, n = _resolve_recipe(cfg)
    graph = materialize(recipe, max_dim=cfg.max_dim)
    rows = []
    clock = _Clock(cfg.timing)
    for g in _g_range(cfg, n):
        formula = extremal_edge_count(g)
        result = max_induced_edges(graph, g, cfg.limits)
        if result.status != COMPLETE:
            status = "incomplete"
        elif result.value == formula:
            status = "ok"
        else:
            status = "mismatch"
        rows.append(ReportRow(n, g, formula, None, result.value, status, clock.lap()))
    return rows, None


def _run_oracle_clambda(cfg: RunConfig):
    recipe, n = _resolve_recipe(cfg)
    graph = materialize(recipe, max_dim=cfg.max_dim)
    gs = _g_range(cfg, n)
    if cfg.witness_out and len(gs) != 1:
        raise ValueError("--witness-out needs a single --g")
    rows = []
    clock = _Clock(cfg.timing)
    for g in gs:
        bound = component_edge_connectivity(n, g, "permissive").value
        result = min_component_edge_cut(graph, g + 1, cfg.limits)
        if result.status != COMPLETE:
            status = "incomplete"
        elif result.value > bound:
            status = "bound-violated"
        elif result.value == bound:
            status = "equal"
        else:
            status = "gap"
        rows.append(ReportRow(n, g, bound, None, result.value, status, clock.lap()))
        if cfg.witness_out:
            save_partition(result.witness, cfg.witness_out)
    return rows, None


_SUITE_COLUMNS = ["check", "cases", "status", "witness", "lhs", "rhs"]


def _run_suite(cfg: RunConfig):
    checks = run_property_suite(
        g_max=cfg.suite_g_max,
        slack_n_max=cfg.suite_n_max,
        increment_max=cfg.suite_i_max,
        monotone_n_max=cfg.suite_n_max_mono,
    )
    rows = [
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
    return rows, _SUITE_COLUMNS


def main(argv: "list[str] | None" = None) -> int:
    try:
        cfg = parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return run(cfg)
    except (ValueError, RecipeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
