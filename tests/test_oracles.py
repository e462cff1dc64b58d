import math
from itertools import combinations
from types import SimpleNamespace

import pytest

from hlnet import oracles
from hlnet import (
    Graph,
    SearchLimits,
    build_component_cut,
    component_edge_connectivity,
    extremal_edge_count,
    g84,
    hypercube,
    materialize,
    max_induced_edges,
    min_component_edge_cut,
    random_hl,
    save_partition,
)

from helpers import (
    boundary_edges,
    components_after,
    isomorphic_small,
    neighbor_masks,
    traced_peak,
)


def naive_min_cut(graph, parts):
    """Unpruned restricted-growth enumeration; the slow cross-check.

    Returns the minimum and the blocks of its first assignment string in
    search order, which is the lexicographically smallest optimal one.
    """
    total = graph.vertex_count
    edges = list(graph.edges())
    best = None
    assign = []

    def rec(i, used):
        nonlocal best
        if total - i < parts - used:
            return
        if i == total:
            if used == parts:
                cost = sum(1 for u, v in edges if assign[u] != assign[v])
                if best is None or cost < best[0]:
                    best = (cost, assign.copy())
            return
        for b in range(min(used + 1, parts)):
            assign.append(b)
            rec(i + 1, used + 1 if b == used else used)
            assign.pop()

    rec(0, 0)
    cost, assign = best
    blocks = tuple(tuple(v for v, b in enumerate(assign) if b == i) for i in range(parts))
    return cost, blocks


def relabeled(graph, perm):
    """The graph with every vertex v renamed perm[v]."""
    adj = [[] for _ in range(graph.vertex_count)]
    for u, v in graph.edges():
        adj[perm[u]].append(perm[v])
        adj[perm[v]].append(perm[u])
    return Graph(graph.n, tuple(tuple(sorted(a)) for a in adj))


SHUFFLE8 = [3, 7, 0, 5, 1, 6, 2, 4]


def naive_max_edges(graph, k):
    """Unpruned scan of every k-subset in order; the first densest one wins."""
    masks = neighbor_masks(graph)
    best = None
    for subset in combinations(range(graph.vertex_count), k):
        mask = sum(1 << v for v in subset)
        value = sum((masks[v] & mask).bit_count() for v in subset) // 2
        if best is None or value > best[0]:
            best = (value, subset)
    return best


# --- max induced edges --------------------------------------------------------


def test_max_edges_q3_half(q3):
    result = max_induced_edges(q3, 4)
    assert result.value == 4
    assert result.status == "complete"
    assert len(result.witness) == 4


def test_max_edges_q4_seven(q4):
    result = max_induced_edges(q4, 7)
    assert result.value == 9
    assert result.status == "complete"


def test_max_edges_degenerate(q3):
    assert max_induced_edges(q3, 1).value == 0
    full = max_induced_edges(q3, 8)
    assert full.value == 12 and full.witness == tuple(range(8))
    with pytest.raises(ValueError):
        max_induced_edges(q3, 0)
    with pytest.raises(ValueError):
        max_induced_edges(q3, 9)


def test_max_edges_witness_attains_value(g84_graph):
    for k in range(1, 9):
        result = max_induced_edges(g84_graph, k)
        inner = sum(
            1
            for u in result.witness
            for v in g84_graph.neighbors(u)
            if v in set(result.witness)
        )
        assert inner // 2 == result.value


def test_max_edges_budget_incomplete(q4):
    result = max_induced_edges(q4, 8, SearchLimits(max_nodes_expanded=3))
    assert result.status == "incomplete"
    assert result.value <= max_induced_edges(q4, 8).value


@pytest.mark.parametrize(
    "recipe",
    [pytest.param(g84(), id="g84")]
    + [pytest.param(hypercube(n), id=f"hypercube-{n}") for n in range(1, 5)]
    + [
        pytest.param(random_hl(n, s), id=f"random-{n}-{s}")
        for n in range(1, 5)
        for s in (0, 1, 2)
    ],
)
def test_max_edges_matches_naive(recipe):
    graph = materialize(recipe)
    for k in range(1, graph.vertex_count + 1):
        result = max_induced_edges(graph, k)
        assert result.status == "complete"
        assert (result.value, result.witness) == naive_max_edges(graph, k)


@pytest.mark.parametrize("seed", [0, 777])
def test_max_edges_n5_fits_a_small_node_budget(seed):
    # the degree bound settles k = 8 at n = 5 in about 10^4 nodes; charging
    # each pick min(|chosen|, n) edges alone would need about 2 * 10^6
    graph = materialize(random_hl(5, seed))
    result = max_induced_edges(graph, 8, SearchLimits(max_nodes_expanded=100_000))
    assert result.status == "complete"
    assert result.value == 12


def test_time_budget_zero_is_exhausted_immediately(q4):
    result = max_induced_edges(q4, 8, SearchLimits(time_budget=0.0))
    assert result.status == "incomplete"
    # the incumbent is still a valid lower bound with a real witness
    assert len(result.witness) == 8


@pytest.mark.parametrize(
    "budget, message",
    [
        ({"max_nodes_expanded": -5}, "max_nodes_expanded must be non-negative, got -5"),
        ({"time_budget": -1.0}, "time_budget must be non-negative, got -1.0"),
        ({"time_budget": float("nan")}, "time_budget must be non-negative, got nan"),
        ({"time_budget": float("-inf")}, "time_budget must be non-negative, got -inf"),
    ],
)
def test_search_limits_reject_negative_and_nan_budgets(budget, message):
    with pytest.raises(ValueError) as exc:
        SearchLimits(**budget)
    assert str(exc.value) == message


def test_zero_and_infinite_budgets_keep_their_meaning(q4):
    exhausted = max_induced_edges(q4, 8, SearchLimits(max_nodes_expanded=0))
    assert exhausted.status == "incomplete"
    unlimited = max_induced_edges(q4, 8, SearchLimits(10**9, float("inf")))
    assert unlimited == max_induced_edges(q4, 8)
    assert unlimited.status == "complete"


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("seed", [None, 0, 1])
def test_max_edges_equals_formula(n, seed):
    recipe = hypercube(n) if seed is None else random_hl(n, seed)
    graph = materialize(recipe)
    for k in range(1, (1 << n) + 1):
        assert max_induced_edges(graph, k).value == extremal_edge_count(k)


# --- min component edge cut -----------------------------------------------------


def test_min_cut_q3_known_values(q3):
    assert min_component_edge_cut(q3, 2).value == 3
    assert min_component_edge_cut(q3, 3).value == 5


def test_min_cut_degenerate(q3):
    assert min_component_edge_cut(q3, 1).value == 0
    assert min_component_edge_cut(q3, 8).value == 12
    # parts = 1 is accepted (the single block), so the range starts at 1
    for parts in (0, 9):
        with pytest.raises(ValueError, match=rf"^parts={parts} out of range 1\.\.8$"):
            min_component_edge_cut(q3, parts)


@pytest.mark.parametrize(
    "make", [lambda: hypercube(3), g84, lambda: random_hl(3, 5), lambda: random_hl(3, 6)]
)
@pytest.mark.parametrize("parts", range(2, 9))
def test_min_cut_matches_naive(make, parts):
    graph = materialize(make())
    result = min_component_edge_cut(graph, parts)
    value, blocks = naive_min_cut(graph, parts)
    assert result.value == value
    # the witness is the smallest optimal assignment string, as documented
    assert result.witness.blocks == blocks


@pytest.mark.parametrize("make", [lambda: hypercube(3), g84])
@pytest.mark.parametrize("parts", range(2, 9))
def test_min_cut_witness_on_scrambled_labels(make, parts):
    # here the first incumbent is rarely optimal, so ties among later
    # optima decide the witness
    graph = relabeled(materialize(make()), SHUFFLE8)
    result = min_component_edge_cut(graph, parts)
    assert (result.value, result.witness.blocks) == naive_min_cut(graph, parts)


@pytest.mark.parametrize(
    "recipe",
    [
        pytest.param(hypercube(3), id="hypercube-3"),
        pytest.param(g84(), id="g84"),
        pytest.param(random_hl(3, 5), id="random-3-5"),
        pytest.param(random_hl(3, 6), id="random-3-6"),
        pytest.param(random_hl(4, 2), id="random-4-2"),
    ],
)
def test_min_cut_equals_formula_beyond_the_window(recipe):
    # the paper proves n*g - e(g) exact only for n >= 8 and g <= 2^ceil(n/2);
    # the partition search finds it for every g < 2^n of these graphs
    graph = materialize(recipe)
    n = graph.n
    for g in range(1, 1 << n):
        bound = component_edge_connectivity(n, g, "permissive").value
        assert min_component_edge_cut(graph, g + 1).value == bound


def test_min_cut_witness_consistent(g84_graph):
    result = min_component_edge_cut(g84_graph, 3)
    blocks = result.witness.blocks
    assert len(blocks) == 3
    flat = sorted(v for b in blocks for v in b)
    assert flat == list(range(8))
    cross = {
        (u, v)
        for u, v in g84_graph.edges()
        if next(i for i, b in enumerate(blocks) if u in b)
        != next(i for i, b in enumerate(blocks) if v in b)
    }
    assert cross == set(result.witness.cross_edges)
    assert len(cross) == result.value


def test_min_cut_below_construction_bound(q3, g84_graph):
    for graph in (q3, g84_graph):
        for g in range(1, 8):
            bound = component_edge_connectivity(3, g, "permissive").value
            assert min_component_edge_cut(graph, g + 1).value <= bound


@pytest.mark.parametrize("seed", [0, 777])
def test_min_cut_n5_fits_a_small_node_budget(seed):
    # the bound on undecided vertices' edges to decided ones settles 4 parts
    # at n = 5 in about 6 * 10^4 nodes; the other two bounds alone need
    # about 3.3 * 10^5
    graph = materialize(random_hl(5, seed))
    result = min_component_edge_cut(graph, 4, SearchLimits(max_nodes_expanded=150_000))
    assert result.status == "complete"
    assert result.value == 13


# nodes each complete search expands on random_hl(5, 11): k = 1..8 for the
# subset search, parts = 2..4 for the partition search
_PINNED_TREES = [
    (max_induced_edges, [0, 0, 141, 129, 1452, 3684, 8382, 9414]),
    (min_component_edge_cut, [249, 3818, 63184]),
]


@pytest.mark.parametrize("search, nodes", _PINNED_TREES, ids=["subset", "partition"])
def test_search_trees_are_pinned(search, nodes):
    # a budget of exactly the tree's node count completes, one less does not,
    # so any change to a bound or to the search order shows here
    graph = materialize(random_hl(5, 11))
    first = 1 if search is max_induced_edges else 2
    for size, n_nodes in enumerate(nodes, start=first):
        result = search(graph, size, SearchLimits(max_nodes_expanded=n_nodes))
        assert result.status == "complete", (size, n_nodes)
        if n_nodes:
            short = search(graph, size, SearchLimits(max_nodes_expanded=n_nodes - 1))
            assert short.status == "incomplete", (size, n_nodes)


@pytest.mark.parametrize(
    "limits",
    [
        SearchLimits(),
        SearchLimits(time_budget=math.inf),
        SearchLimits(max_nodes_expanded=math.inf),
    ],
    ids=["none", "inf-time", "inf-nodes"],
)
@pytest.mark.parametrize("search, nodes", _PINNED_TREES, ids=["subset", "partition"])
def test_absent_and_infinite_limits_search_the_whole_pinned_tree(
    search, nodes, limits, monkeypatch
):
    budgets = []

    class Recorded(oracles._Budget):
        def __init__(self, limits):
            super().__init__(limits)
            budgets.append(self)

    monkeypatch.setattr(oracles, "_Budget", Recorded)
    graph = materialize(random_hl(5, 11))
    first = 1 if search is max_induced_edges else 2
    for size, n_nodes in enumerate(nodes, start=first):
        assert search(graph, size, limits).status == "complete", size
        assert budgets.pop().nodes == n_nodes, size


@pytest.mark.parametrize("limit", [0, 1, 2.5, 3, 4096, 5000])
def test_budget_counts_to_its_node_limit_and_paces_the_clock(limit, monkeypatch):
    # the clock is read when the budget starts, then at node 1 and at every
    # multiple of the interval that comes before the node limit runs out
    reads = []
    budget = None

    def clock():
        reads.append(budget and budget.nodes)
        return 0.0

    monkeypatch.setattr(oracles, "time", SimpleNamespace(monotonic=clock))
    budget = oracles._Budget(SearchLimits(limit, time_budget=60.0))
    spent = sum(1 for _ in iter(budget.spend, False))
    assert spent == math.floor(limit)
    assert not budget.spend()
    assert (budget.nodes, budget.exhausted) == (spent + 1, True)
    interval = oracles._TIME_CHECK_INTERVAL
    assert reads == [None] + [k for k in (1, interval) if k <= spent]


@pytest.mark.parametrize(
    "limits",
    [SearchLimits(max_nodes_expanded=0), SearchLimits(time_budget=0)],
    ids=["no-nodes", "no-time"],
)
@pytest.mark.parametrize("search, nodes", _PINNED_TREES, ids=["subset", "partition"])
def test_zero_limits_leave_the_search_incomplete(search, nodes, limits):
    # the largest pinned tree outlasts one interval between clock reads
    graph = materialize(random_hl(5, 11))
    size = len(nodes) - 1 + (1 if search is max_induced_edges else 2)
    assert search(graph, size, limits).status == "incomplete"


@pytest.mark.parametrize("search", [max_induced_edges, min_component_edge_cut])
def test_search_tables_stay_small_for_large_k(search):
    # every table stays O(total^2 * n); a row per vertex and pick count
    # r <= k would be O(total^2 * k), about 3.4 * 10^7 entries here
    graph = materialize(random_hl(9, 0))
    results = []
    peak = traced_peak(
        lambda: results.append(search(graph, 256, SearchLimits(max_nodes_expanded=10)))
    )
    assert results[0].status == "incomplete"
    assert peak < 16 << 20


def test_min_cut_budget_incomplete(q4):
    result = min_component_edge_cut(q4, 4, SearchLimits(max_nodes_expanded=2))
    assert result.status == "incomplete"
    assert result.value >= min_component_edge_cut(q4, 4).value


def test_min_cut_deterministic(q4):
    a = min_component_edge_cut(q4, 3)
    b = min_component_edge_cut(q4, 3)
    assert a == b


def test_oracles_are_label_invariant(q4):
    # scrambling labels ruins the prefix incumbents; answers must not move
    scrambled = relabeled(q4, [9, 2, 14, 5, 0, 11, 7, 12, 3, 15, 6, 1, 13, 4, 10, 8])
    for k in (3, 5, 7, 11):
        assert max_induced_edges(scrambled, k).value == extremal_edge_count(k)
    for parts in (2, 3, 4):
        assert (
            min_component_edge_cut(scrambled, parts).value
            == min_component_edge_cut(q4, parts).value
        )


# --- components after removal ----------------------------------------------------


def test_components_no_removal(q3):
    witness = components_after(q3, set())
    assert witness.blocks == (tuple(range(8)),)
    assert witness.cross_edges == frozenset()


def test_components_star_removal(q3, g84_graph):
    for graph in (q3, g84_graph):
        star = boundary_edges(graph, [0])
        witness = components_after(graph, star)
        assert witness.blocks == ((0,), tuple(range(1, 8)))
        assert witness.cross_edges == frozenset(star)


def test_components_after_built_cut():
    for n, g in ((8, 9), (9, 16), (10, 31)):
        recipe = random_hl(n, n)
        cut = build_component_cut(recipe, g)
        witness = components_after(materialize(recipe), cut)
        singletons = sum(1 for b in witness.blocks if len(b) == 1)
        assert singletons == g
        assert len(witness.blocks) >= g + 1


def test_components_rejects_non_edge(q3):
    with pytest.raises(ValueError, match="not an edge"):
        components_after(q3, {(0, 3)})


def test_removed_edge_inside_component_is_not_cross(q4):
    # drop one 4-cycle face; everything stays connected
    face = {(0, 1), (1, 3), (2, 3), (0, 2)}
    witness = components_after(q4, face)
    assert len(witness.blocks) == 1
    assert witness.cross_edges == frozenset()


# --- isomorphism ------------------------------------------------------------------


def test_iso_identity(q3):
    assert isomorphic_small(q3, q3)


def test_iso_q3_vs_g84(q3, g84_graph):
    assert not isomorphic_small(q3, g84_graph)
    assert not isomorphic_small(g84_graph, q3)


def test_iso_under_relabeling(q3):
    assert isomorphic_small(q3, relabeled(q3, SHUFFLE8))


def test_iso_counts_differ(q3):
    assert not isomorphic_small(q3, materialize(hypercube(2)))


def test_iso_size_limit():
    big = materialize(hypercube(5))
    with pytest.raises(ValueError, match="16"):
        isomorphic_small(big, big)


def test_dim3_classification(q3, g84_graph):
    for seed in range(10):
        graph = materialize(random_hl(3, seed))
        assert isomorphic_small(graph, q3) != isomorphic_small(graph, g84_graph)


# --- witness export -----------------------------------------------------------


def test_partition_export(tmp_path, q3):
    result = min_component_edge_cut(q3, 2)
    path = tmp_path / "partition.txt"
    save_partition(result.witness, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# partition blocks=2 cross=3"
    assert lines[1] == "0 1 2 3 4 5 6"
    assert lines[2] == "7"
