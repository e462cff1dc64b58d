"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is exact integer equality; nothing is calibrated.
"""

import time

from hlnet import (
    extremal_edge_count,
    g84,
    hypercube,
    materialize,
    max_induced_edges,
    min_component_edge_cut,
    component_edge_connectivity,
    random_hl,
    run_property_suite,
    select_extremal_subgraph,
    build_component_cut,
)
from hlnet.cli import main
from hlnet.reports import emit_report

from helpers import components_after, induced_edge_count, isomorphic_small

SEEDS = (11, 23, 37, 58, 71)


def _report(number: int, label: str, t0: float) -> None:
    print(f"[acceptance] criterion {number} ({label}): PASS ({time.monotonic() - t0:.1f}s)")


def test_criterion_1_formula_equals_bruteforce_small_scale():
    t0 = time.monotonic()
    recipes = [hypercube(2), hypercube(3), hypercube(4), g84()]
    recipes += [random_hl(3, s) for s in SEEDS]
    recipes += [random_hl(4, s) for s in SEEDS]
    for recipe in recipes:
        graph = materialize(recipe)
        for g in range(1, (1 << recipe.dim) + 1):
            result = max_induced_edges(graph, g)
            assert result.status == "complete"
            assert result.value == extremal_edge_count(g), (recipe.dim, g)
    _report(1, "max induced edges == formula, n<=4, all g", t0)


def test_criterion_2_selection_optimal_mid_scale():
    t0 = time.monotonic()
    for n in range(5, 13):
        recipes = [hypercube(n)] + [random_hl(n, s) for s in SEEDS]
        for recipe in recipes:
            graph = materialize(recipe)
            for g in range(1, (1 << ((n + 1) // 2)) + 1):
                blocks = select_extremal_subgraph(recipe, g)
                chosen = [v for block in blocks for v in block]
                assert induced_edge_count(graph, chosen) == extremal_edge_count(g), (
                    n,
                    g,
                )
    _report(2, "selection attains formula, n=5..12", t0)


def _cut_budgets(n: int) -> list[int]:
    top = 1 << ((n + 1) // 2)
    sample = {1, 2, 3}
    k = 1
    while k <= top:
        sample.update({k - 1, k, k + 1})
        k <<= 1
    return sorted(g for g in sample if 1 <= g <= top)


def test_criterion_3_cut_construction_proven_regime():
    t0 = time.monotonic()
    for n in (8, 9, 10):
        recipes = [hypercube(n)] + [random_hl(n, s) for s in (5, 6, 7)]
        for recipe in recipes:
            graph = materialize(recipe)
            for g in _cut_budgets(n):
                cut = build_component_cut(recipe, g)
                assert len(cut) == n * g - extremal_edge_count(g), (n, g)
                witness = components_after(graph, cut)
                assert len(witness.blocks) >= g + 1, (n, g)
                isolated = sum(1 for b in witness.blocks if len(b) == 1)
                assert isolated == g, (n, g)
    _report(3, "cut size, components, isolated vertices, n=8..10", t0)


def test_criterion_4_property_suite_exhaustive():
    t0 = time.monotonic()
    checks = run_property_suite(
        g_max=4096, slack_n_max=24, increment_max=65536, monotone_n_max=64
    )
    for check in checks:
        assert check.passed, (check.name, check.witness, check.lhs, check.rhs)
    assert [check.cases for check in checks] == [4194304, 4194304, 65536, 49151, 180195]
    _report(4, "inequality suite, zero violations", t0)


def test_criterion_5_min_cut_oracle_cross_check(tmp_path):
    t0 = time.monotonic()
    cells = [
        ("hypercube-3", hypercube(3)),
        ("g84", g84()),
        ("random-3-7", random_hl(3, 7)),
        ("hypercube-4", hypercube(4)),
        ("random-4-7", random_hl(4, 7)),
    ]
    rows = []
    for name, recipe in cells:
        graph = materialize(recipe)
        n = recipe.dim
        for parts in (2, 3, 4):
            g = parts - 1
            bound = component_edge_connectivity(n, g, "permissive").value
            result = min_component_edge_cut(graph, parts)
            assert result.status == "complete", (name, parts)
            assert result.value <= bound, (name, parts)
            rows.append(
                {
                    "graph": name,
                    "n": n,
                    "g": g,
                    "oracle": result.value,
                    "bound": bound,
                    "relation": "equal" if result.value == bound else "gap",
                }
            )
    table = "".join(emit_report(rows, "csv"))
    (tmp_path / "clambda_gap.csv").write_text(table)
    print("\n" + "".join(emit_report(rows, "text")), end="")
    _report(5, "exact min cut <= bound, equality table recorded", t0)


def test_criterion_6_dim3_classification():
    t0 = time.monotonic()
    q3 = materialize(hypercube(3))
    g84_graph = materialize(g84())
    assert not isomorphic_small(q3, g84_graph)
    for seed in range(50):
        graph = materialize(random_hl(3, seed))
        in_q3 = isomorphic_small(graph, q3)
        in_g84 = isomorphic_small(graph, g84_graph)
        assert in_q3 != in_g84, seed
    _report(6, "50 random dim-3 recipes land in exactly one class", t0)


def test_criterion_7_reports_are_byte_identical(tmp_path):
    t0 = time.monotonic()
    for fmt in ("csv", "json"):
        outputs = []
        for i in (1, 2):
            path = tmp_path / f"suite-{i}.{fmt}"
            code = main(["suite", "--format", fmt, "--out", str(path)])
            assert code == 0
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1], fmt
    _report(7, "full suite reports byte-identical across runs", t0)
