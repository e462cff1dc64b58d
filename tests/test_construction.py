import io
import random
from collections import Counter

import pytest

from hlnet import (
    CutReport,
    Graph,
    binary_decomposition,
    build_component_cut,
    extremal_edge_count,
    g84,
    hypercube,
    load_cut,
    load_graph,
    materialize,
    random_hl,
    save_cut,
    save_graph,
    select_extremal_subgraph,
    verify_cut,
)

from helpers import boundary_edges, components_after, induced_edge_count, traced_peak


# --- extremal selection -----------------------------------------------------


CROSS_CHECK_RECIPES = (
    [g84()]
    + [hypercube(n) for n in range(1, 7)]
    + [random_hl(n, seed) for n in range(1, 8) for seed in range(4)]
)


def test_selection_single_power_is_one_subnetwork():
    blocks = select_extremal_subgraph(hypercube(4), 4)
    assert len(blocks) == 1
    assert len(blocks[0]).bit_length() - 1 == 2
    assert sorted(blocks[0]) == [0, 1, 2, 3]
    assert induced_edge_count(materialize(hypercube(4)), blocks[0]) == 4


@pytest.mark.parametrize("recipe", [hypercube(8), random_hl(8, 4), random_hl(8, 9)])
def test_selection_dim8_budget7(recipe):
    chosen = [v for block in select_extremal_subgraph(recipe, 7) for v in block]
    graph = materialize(recipe)
    assert len(chosen) == 7
    assert induced_edge_count(graph, chosen) == 9


@pytest.mark.parametrize("maker", [hypercube, lambda n: random_hl(n, 13)])
@pytest.mark.parametrize("n", range(2, 11))
def test_selection_attains_formula(maker, n):
    recipe = maker(n)
    graph = materialize(recipe)
    for g in range(1, min(1 << ((n + 1) // 2), (1 << n) - 1) + 1):
        chosen = [v for block in select_extremal_subgraph(recipe, g) for v in block]
        assert induced_edge_count(graph, chosen) == extremal_edge_count(g)


def test_selection_block_structure():
    # the paper's structure on every budget: block i is a full
    # t_i-dimensional sub-network and sends exactly 2^t_j edges to each
    # later block j
    for recipe in CROSS_CHECK_RECIPES:
        graph = materialize(recipe)
        for g in range(1, 1 << recipe.dim):
            blocks = select_extremal_subgraph(recipe, g)
            dims = binary_decomposition(g)
            assert [v for b in blocks for v in b] == list(range(g))
            assert [len(b) for b in blocks] == [1 << t for t in dims]
            block_of = {v: i for i, b in enumerate(blocks) for v in b}
            ends = Counter(
                (i, block_of[col[u]])
                for i, b in enumerate(blocks)
                for u in b
                for col in graph.columns
                if col[u] in block_of
            )
            for i, t in enumerate(dims):
                assert ends[i, i] == t << t  # each induced edge has both ends here
                for j in range(i + 1, len(dims)):
                    assert ends[i, j] == 1 << dims[j]


def test_selection_is_deterministic():
    r = random_hl(7, 3)
    assert select_extremal_subgraph(r, 37) == select_extremal_subgraph(r, 37)


def test_selection_domain_errors():
    with pytest.raises(ValueError, match="out of range"):
        select_extremal_subgraph(hypercube(3), 0)
    with pytest.raises(ValueError, match="out of range"):
        select_extremal_subgraph(hypercube(3), 8)


# --- component cuts ---------------------------------------------------------


def test_cut_for_one_vertex_is_its_star(q3):
    cut = build_component_cut(hypercube(3), 1)
    assert cut == boundary_edges(q3, [0])
    assert len(cut) == 3


def test_cut_size_matches_formula_dim8():
    for recipe in (hypercube(8), random_hl(8, 2)):
        cut = build_component_cut(recipe, 16)
        assert len(cut) == 96
        witness = components_after(materialize(recipe), cut)
        assert len(witness.blocks) >= 17


def test_cut_dim8_budget5_leaves_isolated():
    recipe = hypercube(8)
    cut = build_component_cut(recipe, 5)
    assert len(cut) == 8 * 5 - 5
    report = verify_cut(materialize(recipe), cut)
    assert report.isolated_count == 5
    assert report.component_count >= 6
    assert report.cut_size == 8 * 5 - extremal_edge_count(5)


def test_cut_is_boundary_plus_induced(g84_graph):
    recipe = g84()
    for g in range(1, 8):
        cut = build_component_cut(recipe, g)
        chosen = [v for block in select_extremal_subgraph(recipe, g) for v in block]
        inner = {
            (u, v)
            for u in chosen
            for v in g84_graph.neighbors(u)
            if v in chosen and u < v
        }
        assert cut == boundary_edges(g84_graph, chosen) | inner
        assert len(cut) == 3 * g - extremal_edge_count(g)


@pytest.mark.parametrize("recipe", CROSS_CHECK_RECIPES)
def test_cut_equals_materialized_star_of_first_labels(recipe):
    # the cut is walked off the recipe; check it against a real graph
    graph = materialize(recipe)
    edges = list(graph.edges())
    n = recipe.dim
    for g in range(1, 1 << n):
        cut = build_component_cut(recipe, g)
        assert cut == {(u, v) for u, v in edges if u < g}
        # g singletons and one connected rest, itself a singleton at g = 2^n - 1
        expected = CutReport(n * g - extremal_edge_count(g), g + 1, g + (g == 2**n - 1))
        assert verify_cut(graph, cut) == expected


def test_cut_domain_errors():
    with pytest.raises(ValueError, match="out of range"):
        build_component_cut(hypercube(3), 0)
    with pytest.raises(ValueError, match="out of range"):
        build_component_cut(hypercube(3), 8)


# --- cut verification ---------------------------------------------------------


def test_verify_empty_cut_one_component(q3):
    report = verify_cut(q3, set())
    assert report.component_count == 1
    assert report.isolated_count == 0
    assert report.cut_size == 0 != 3 * 1 - extremal_edge_count(1)


def test_verify_constructed_cut(q4):
    for g in range(1, 5):
        cut = build_component_cut(hypercube(4), g)
        report = verify_cut(q4, cut)
        assert report.cut_size == 4 * g - extremal_edge_count(g)
        assert report.component_count >= g + 1
        assert report.isolated_count == g


def test_verify_rejects_non_edge(q3):
    with pytest.raises(ValueError, match="not an edge"):
        verify_cut(q3, {(0, 7)})


@pytest.mark.parametrize("pair", [(-1, 6), (5000, 5001)])
def test_verify_rejects_out_of_range_pair(q3, pair):
    assert not q3.has_edge(*pair)
    with pytest.raises(ValueError, match="not an edge"):
        verify_cut(q3, {pair})


def test_verify_counts_a_pair_given_in_both_orders_once(q3):
    both = verify_cut(q3, {(0, 1), (1, 0)})
    assert both == verify_cut(q3, {(0, 1)})
    assert both.cut_size == 1


def test_verify_names_a_bad_pair_in_the_order_given(q3):
    message = r"^pair \(5001, 5000\) is not an edge of the graph$"
    with pytest.raises(ValueError, match=message):
        verify_cut(q3, {(5001, 5000)})


def test_verify_cut_holds_little_beside_its_graph():
    # one byte of marks per vertex; a set of every vertex would cost about
    # 0.7 of the graph's own peak here
    recipe = hypercube(16)
    graphs, reports = [], []
    graph_peak = traced_peak(lambda: graphs.append(materialize(recipe)))
    cut = build_component_cut(recipe, 64)
    peak = traced_peak(lambda: reports.append(verify_cut(graphs[0], cut)))
    assert reports == [CutReport(16 * 64 - extremal_edge_count(64), 65, 64)]
    assert peak < graph_peak / 2


def test_verify_cut_on_a_random_graph_holds_its_frontiers_as_lists():
    # frontiers kept as sets, with their image alive while the next one is
    # marked, peaked at 9.0 MiB here; lists, dropping the image first, at 5.0
    recipe = random_hl(16, 7)
    graph, cut = materialize(recipe), build_component_cut(recipe, 256)
    reports = []
    peak = traced_peak(lambda: reports.append(verify_cut(graph, cut)))
    assert reports == [CutReport(16 * 256 - extremal_edge_count(256), 257, 256)]
    assert peak < 7 << 20


def test_verify_two_adjacent_stars_cross_checked(q3):
    # all edges at 0 and at 1 (their shared edge appears once)
    cut = boundary_edges(q3, [0]) | boundary_edges(q3, [1])
    report = verify_cut(q3, cut)
    witness = components_after(q3, cut)
    assert report.component_count == len(witness.blocks) == 3
    assert report.isolated_count == 2
    assert report.cut_size == 5 == 3 * 2 - extremal_edge_count(2)


def relabelled(graph, seed):
    """The graph under a random relabelling, built from rows, and the relabelling."""
    perm = list(range(graph.vertex_count))
    random.Random(seed).shuffle(perm)
    rows = [[] for _ in perm]
    for u, v in graph.edges():
        rows[perm[u]].append(perm[v])
        rows[perm[v]].append(perm[u])
    return Graph(graph.n, rows), perm


def reloaded(graph):
    buf = io.StringIO()
    save_graph(graph, buf)
    buf.seek(0)
    return load_graph(buf)


def test_verify_and_components_after_agree_on_random_cuts():
    """The frontier sweep and the oracle's row DFS count the same components,
    on materialized graphs and on relabelled and loaded ones, whose columns
    are not levels."""
    several_large = 0
    for n in range(1, 7):
        for seed in range(3):
            graph = materialize(random_hl(n, seed))
            edges = list(graph.edges())
            rng = random.Random(n * 100 + seed)
            # the top k levels' matchings split the graph into 2^k subnetworks
            cuts = [
                {
                    (v, col[v])
                    for col in graph.columns[n - k :]
                    for v in range(1 << n)
                    if v < col[v]
                }
                for k in range(n + 1)
            ]
            cuts += [
                {e for e in edges if rng.random() < p} for p in (0.1, 0.3, 0.5, 0.7)
            ]
            scrambled, perm = relabelled(graph, seed)
            loaded = reloaded(graph)
            for cut in cuts:
                witness = components_after(graph, cut)
                sizes = sorted(len(block) for block in witness.blocks)
                several_large += sum(1 for s in sizes if s > 1) >= 2
                moved = {(perm[u], perm[v]) for u, v in cut}
                for g, c in ((graph, cut), (scrambled, moved), (loaded, cut)):
                    report = verify_cut(g, c)
                    assert report.component_count == len(sizes)
                    assert report.isolated_count == sizes.count(1)
                    assert report.cut_size == len(cut)
                    other = components_after(g, c)
                    assert sorted(len(block) for block in other.blocks) == sizes
    assert several_large > 20


# --- cut files --------------------------------------------------------------


def test_cut_file_round_trip(tmp_path):
    cut = build_component_cut(hypercube(4), 3)
    path = tmp_path / "cut.edges"
    save_cut(cut, 4, 3, path)
    edges, n, g = load_cut(path)
    assert (edges, n, g) == (cut, 4, 3)
    assert path.read_text().splitlines()[0] == f"# hl-cut n=4 g=3 size={len(cut)}"


def test_cut_file_writes_each_unordered_pair_once():
    buf = io.StringIO()
    save_cut({(0, 1), (1, 0)}, 3, 1, buf)
    assert buf.getvalue() == "# hl-cut n=3 g=1 size=1\n0 1\n"
    buf.seek(0)
    assert load_cut(buf) == ({(0, 1)}, 3, 1)


def test_save_cut_refuses_a_self_loop_before_opening(tmp_path):
    # load_cut reads only pairs u < v, so it would reject the line "3 3"
    path = tmp_path / "cut.edges"
    with pytest.raises(ValueError, match=r"^cut edge \(3, 3\) is a self-loop"):
        save_cut({(3, 3), (1, 2)}, 2, 1, path)
    assert not path.exists()


def test_cut_file_rejects_bad_size():
    doc = "# hl-cut n=3 g=1 size=2\n0 1\n"
    with pytest.raises(ValueError, match="claims 2"):
        load_cut(io.StringIO(doc))
