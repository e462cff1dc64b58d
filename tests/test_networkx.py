"""Differential checks against networkx: the two component traversals and
the small isomorphism test must agree with an independent library."""

import random
from itertools import combinations

import pytest

from hlnet import build_component_cut, materialize, verify_cut
from helpers import components_after, isomorphic_small
from test_construction import CROSS_CHECK_RECIPES, relabelled

nx = pytest.importorskip("networkx")

# g84, hypercube(1..6) and random_hl(1..7, seeds 0..3)
SWEEP = CROSS_CHECK_RECIPES


def to_nx(graph, removed=()):
    other = nx.Graph()
    other.add_nodes_from(range(graph.vertex_count))
    other.add_edges_from(graph.edges())
    other.remove_edges_from(removed)
    return other


@pytest.mark.parametrize("index", range(len(SWEEP)))
def test_component_counts_match_networkx(index):
    recipe = SWEEP[index]
    graph = materialize(recipe)
    edges = list(graph.edges())
    rng = random.Random(index)
    # about 8 budgets per recipe, spread over the whole range
    top = (1 << recipe.dim) - 1
    gs = sorted({*range(1, top, max(1, top // 8)), top})
    cuts = [build_component_cut(recipe, g) for g in gs]
    cuts += [{e for e in edges if rng.random() < p} for p in (0.2, 0.4, 0.6)]
    for cut in cuts:
        expected = {frozenset(c) for c in nx.connected_components(to_nx(graph, cut))}
        report = verify_cut(graph, cut)
        assert report.cut_size == len(cut)
        assert report.component_count == len(expected)
        assert report.isolated_count == sum(len(c) == 1 for c in expected)
        assert set(map(frozenset, components_after(graph, cut).blocks)) == expected


def test_isomorphic_small_matches_networkx():
    graphs = [materialize(r) for r in SWEEP if r.dim in (3, 4)]
    pairs = list(combinations(graphs, 2))
    pairs += [(g, relabelled(g, seed)[0]) for seed, g in enumerate(graphs)]
    verdicts = set()
    for a, b in pairs:
        expected = nx.is_isomorphic(to_nx(a), to_nx(b))
        assert isomorphic_small(a, b) == isomorphic_small(b, a) == expected
        verdicts.add((a.n, b.n, expected))
    assert {(3, 3, True), (3, 3, False), (4, 4, True), (4, 4, False)} <= verdicts
