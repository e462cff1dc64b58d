import builtins
import gc
import hashlib
import io
import json
import random
import re
import sys
import time
import tracemalloc
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlnet import (
    Graph,
    Recipe,
    RecipeError,
    compose,
    dumps_recipe,
    g84,
    hypercube,
    leaf,
    load_cut,
    load_graph,
    load_recipe,
    loads_recipe,
    materialize,
    random_hl,
    save_graph,
    save_recipe,
    split,
    verify_cut,
)

from hlnet.recipes import _lean_text

from helpers import boundary_edges, induced_edge_count, isomorphic_small, traced_peak

Q4 = materialize(hypercube(4))
G84 = materialize(g84())


def two_color(graph):
    """True iff the graph has no odd cycle."""
    color = [-1] * graph.vertex_count
    for start in range(graph.vertex_count):
        if color[start] >= 0:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if color[w] < 0:
                    color[w] = color[u] ^ 1
                    stack.append(w)
                elif color[w] == color[u]:
                    return False
    return True


def is_simple_regular(graph, n):
    """True iff every vertex has n distinct neighbors, none of them itself,
    and w is a neighbor of v exactly when v is a neighbor of w."""
    rows = [graph.neighbors(v) for v in range(graph.vertex_count)]
    return all(
        len(set(row)) == n and v not in row and all(v in rows[w] for w in row)
        for v, row in enumerate(rows)
    )


def test_is_simple_regular_rejects_a_self_loop():
    assert not is_simple_regular(Graph._from_columns(1, [[0, 0]]), 1)
    assert is_simple_regular(Graph(1, [[1], [0]]), 1)


# --- compose / split ------------------------------------------------------


def test_compose_two_leaves_gives_k2():
    r = compose(leaf(), leaf(), [0])
    assert r.dim == 1
    g = materialize(r)
    assert g.vertex_count == 2 and g.edge_count == 1


def test_compose_identity_c4_halves_gives_q3(q3):
    c4 = hypercube(2)
    g = materialize(compose(c4, c4, [0, 1, 2, 3]))
    assert isomorphic_small(g, q3)


def test_compose_rejects_short_matching():
    c4 = hypercube(2)
    with pytest.raises(RecipeError, match="length 3"):
        compose(c4, c4, [0, 1, 2])


def test_compose_rejects_dim_mismatch():
    # Recipe makes the check, so compose and direct construction agree
    message = "^subrecipe dimension mismatch: left dim 2, right dim 1$"
    with pytest.raises(RecipeError, match=message):
        compose(hypercube(2), hypercube(1), [0, 1])


def test_compose_rejects_non_permutation():
    with pytest.raises(RecipeError, match="image 1 duplicated"):
        compose(hypercube(2), hypercube(2), [0, 1, 1, 2])


@pytest.mark.parametrize(
    "matching, message",
    [
        ([0, True, 2, 3], "matching image True outside 0..3"),
        ([0, 1, "2", 3], "matching image '2' outside 0..3"),
        ([0, 1, 2.0, 3], "matching image 2.0 outside 0..3"),
        ([0, 1, 2, 3, 4], "matching length 5 does not match half size 4"),
    ],
)
def test_compose_permutation_check_messages(matching, message):
    with pytest.raises(RecipeError) as excinfo:
        compose(hypercube(2), hypercube(2), matching)
    assert str(excinfo.value) == message


def test_split_is_inverse_of_compose():
    left = hypercube(2)
    right = compose(hypercube(1), hypercube(1), [1, 0])
    m = (2, 0, 3, 1)
    r = compose(left, right, m)
    assert split(r) == (left, right, m)


def test_split_hypercube_gives_identity_matching():
    l, r, m = split(hypercube(3))
    assert l == hypercube(2) and r == hypercube(2)
    assert m == (0, 1, 2, 3)


def test_split_leaf_raises():
    with pytest.raises(RecipeError, match="leaf"):
        split(leaf())


# --- constructors ---------------------------------------------------------


def test_hypercube_zero_is_single_vertex():
    g = materialize(hypercube(0))
    assert g.vertex_count == 1 and g.edge_count == 0
    assert verify_cut(g, ()).component_count == 1


def test_hypercube_two_is_a_4_cycle():
    g = materialize(hypercube(2))
    assert g.vertex_count == 4 and g.edge_count == 4
    assert is_simple_regular(g, 2)
    assert verify_cut(g, ()).component_count == 1


def test_hypercube_three_counts_and_bipartite(q3):
    assert q3.vertex_count == 8 and q3.edge_count == 12
    assert is_simple_regular(q3, 3)
    assert two_color(q3)


@pytest.mark.parametrize("n", range(7))
def test_hypercube_edges_are_single_bit_flips(n):
    g = materialize(hypercube(n))
    expected = {
        (u, u ^ (1 << b))
        for u in range(1 << n)
        for b in range(n)
        if u < u ^ (1 << b)
    }
    assert set(g.edges()) == expected


def test_hypercube_matchings_share_one_int_per_index():
    # every level's identity is a prefix of the top one, so the recipe holds
    # 2^(n-1) ints where one tuple of its own per level would hold 14,844
    n = 14
    r, ints = hypercube(n), set()
    while not r.is_leaf:
        ints.update(map(id, r.matching))
        r = r.left
    assert len(ints) == 1 << (n - 1)


def _matching_ints(recipe):
    """The distinct int objects in every matching of the tree."""
    ints, stack = set(), [recipe]
    while stack:
        r = stack.pop()
        if not r.is_leaf:
            ints.update(map(id, r.matching))
            stack += (r.left, r.right)
    return ints


@pytest.mark.parametrize("seed", range(3))
def test_random_hl_matchings_share_one_int_per_index(seed, tmp_path):
    # a fresh range per node would hold about 5.5 times as many at n = 12;
    # json decodes a fresh int for every entry above 256
    recipe = random_hl(12, seed)
    assert len(_matching_ints(recipe)) <= 1 << 11
    path = tmp_path / "r12.json"
    save_recipe(recipe, path)
    loaded = load_recipe(path)
    assert loaded == recipe
    assert len(_matching_ints(loaded)) <= 1 << 11


def test_recipes_hold_no_instance_dict():
    for recipe in (leaf(), g84(), random_hl(3, 1), loads_recipe(dumps_recipe(hypercube(2)))):
        assert not hasattr(recipe, "__dict__")


@pytest.mark.parametrize("entry", ["true", "false"])
def test_boolean_matching_entry_is_no_index(entry, tmp_path):
    # a table of index ints would map true to 1 and false to 0, so the
    # entries are mapped only after their node's checks
    doc = json.dumps(
        {"dim": 2, "node": {"left": json.loads(_K2_DOC), "right": json.loads(_K2_DOC),
                            "matching": ["?", 1 if entry == "false" else 0]}}
    ).replace('"?"', entry)
    message = f"$.node.matching: matching image {entry.title()} outside 0..1"
    path = tmp_path / "r.json"
    path.write_text(doc)
    for load, source in ((loads_recipe, doc), (load_recipe, path), (load_recipe, io.StringIO(doc))):
        with pytest.raises(RecipeError) as exc:
            load(source)
        assert str(exc.value) == message


def test_hypercube_guard():
    with pytest.raises(RecipeError, match="guard"):
        hypercube(21)


def test_g84_counts_and_odd_cycle(q3):
    g = G84
    assert g.vertex_count == 8 and g.edge_count == 12
    assert is_simple_regular(g, 3)
    assert not two_color(g)
    assert not isomorphic_small(g, q3)


@pytest.mark.parametrize("seed", [0, 1, 7, 123456789])
def test_random_hl_dim3_invariants(seed):
    g = materialize(random_hl(3, seed))
    assert g.vertex_count == 8 and g.edge_count == 12
    assert is_simple_regular(g, 3)


@pytest.mark.parametrize("seed", range(12))
def test_random_hl_dim3_is_q3_or_g84(q3, seed):
    g = materialize(random_hl(3, seed))
    assert isomorphic_small(g, q3) != isomorphic_small(g, G84)


@given(n=st.integers(0, 5), seed=st.integers(0, 2**64 - 1))
@settings(max_examples=40, deadline=None)
def test_random_hl_is_deterministic(n, seed):
    a, b = random_hl(n, seed), random_hl(n, seed)
    assert a == b
    assert dumps_recipe(a) == dumps_recipe(b)


def test_random_hl_seeds_differ():
    # not guaranteed per pair, but these seeds must not all collide
    recipes = {random_hl(4, s) for s in range(8)}
    assert len(recipes) > 1


# sha256 of dumps_recipe(random_hl(n, seed)) for seeds 0, 1, 7 and 2**64 - 1;
# the generator reduces seeds modulo 2^64, so -1 must give the last digest
RANDOM_HL_DIGESTS = {
    1: (
        "2096e2a73fd300acb6d760937d754e2337539028ae710f1517e6c7070ffb2d48",
        "2096e2a73fd300acb6d760937d754e2337539028ae710f1517e6c7070ffb2d48",
        "2096e2a73fd300acb6d760937d754e2337539028ae710f1517e6c7070ffb2d48",
        "2096e2a73fd300acb6d760937d754e2337539028ae710f1517e6c7070ffb2d48",
    ),
    2: (
        "d40e34c7fb7d72313b5c797ee506b6904bb74cb9f162423b4690184437ad52ff",
        "617ff1f5582e8b8e9cf75b7d09bbdff7a05e4f30520daaf9a3c3b56d9abe70ac",
        "d40e34c7fb7d72313b5c797ee506b6904bb74cb9f162423b4690184437ad52ff",
        "d40e34c7fb7d72313b5c797ee506b6904bb74cb9f162423b4690184437ad52ff",
    ),
    3: (
        "7ccae70aaf11df53ede16ce46e0fbe89e9977961ae2947a5ee0b3385aa9074e0",
        "f91bc3c0e7b086ddcedbf385bdb6fc967a24e0717e54ae786cc5e1ac8b14f76d",
        "4c530c562eb5b9c32385797fa27b8b59697f0712358bf9725d8cd87c9c7e4c79",
        "9c3d9bb97d4447dfb4e05887cc98e1725d3bec81424e6ef66ed89eb7184fcbdc",
    ),
    4: (
        "8992b15518e52edc0b789ec004d4123c3e45f80a1a4a99ae2b733d80104d3695",
        "f21575378a79bfeb62208827779ada7fe89674999b235559b40354350086611e",
        "397d3375444ec3d05b128e301b506d26c34c5bcdaa99b62e392b6f9663189185",
        "b8b83e184b06265c6bbd88f0dc9f05f48052a31e9347a466db91bca02f3a0bf8",
    ),
    5: (
        "7ecf1bfae41cff4a8d159d636bac740a6b46c2b29a9b3b4459e1b2439d5a16de",
        "e9375835f4ea880237fb7f859b5b3586326798f87ee4db8addb5329aeed757c3",
        "edce415ec083c116b9487b0e2ef62a83cedfa31b8083064fc0acdcf8a771a830",
        "b8af2346a6ebb9147e1b987843784aa5417977612d26304c9a5ded638c973d4d",
    ),
    6: (
        "74909bc0897205b1ae52667d9707142d22327d9bf1120ad63797489048556719",
        "1bcea8bfb6f91ab5284990065243140ddfa986e9e4583d92ffb2730717ec7993",
        "ef8558aed887b76c7b8e3069426595151bf2a9ccdf0b589516fd063fc08af298",
        "db8c6f85c640b2148e286815d5996e0fe301fa4d1f7ee7c05873d50494198646",
    ),
    7: (
        "1fae34dc2db6eba77486870c49a2a97fae3b6db4b0f1c277fe194fb7c80046ac",
        "3150db79d14156de3ded69a9b87e9a88937e4508ce579d98a124755a5d929509",
        "6c91c43ed85835a9ba4fe1607cfdb9bdd206fd3dae45d20e01b70fd46c0be5dc",
        "cdd09e7f8225a8352fa87332ebb75a797c6149e6daa28be24af29bd483dd2a23",
    ),
    8: (
        "8962411f5c8fb4bc4fe809bbc609ef21a59b9844f81a1f55159c4d06047cdc1f",
        "5343d5479e5ba22307ae255b6e5ef6f95c7e34a4df5b3b02a98277652bd3c9b8",
        "6ade5c79f8a1371e507f2e847d777ae1068740c5c58bb2bf86eb3f57a0feeaff",
        "1820b6c975095b9fed4c6981d07614a1f78925b8145e2402cffbcc6ba2565834",
    ),
    9: (
        "54f6dfe36174b1792f5d2c895b7db306c4825ec19f1555a0b010a5fa459be647",
        "aa9b42576948740b88216d2cb632648f62fa47bdcc4be830689f93a9dd589f7f",
        "1a68adaab7df36770d6c7a16023d94f6b9b3fb39c063a58281a15ddc936371f3",
        "e2dacaff242398b7ce39e9dfb03c3ffd2502ef5c8180dc324430028d5316ed20",
    ),
}


@pytest.mark.parametrize("n", range(1, 10))
@pytest.mark.parametrize("index, seed", [(0, 0), (1, 1), (2, 7), (3, 2**64 - 1), (3, -1)])
def test_random_hl_stream_is_pinned(n, index, seed):
    text = dumps_recipe(random_hl(n, seed))
    assert hashlib.sha256(text.encode()).hexdigest() == RANDOM_HL_DIGESTS[n][index]


# --- materialize ----------------------------------------------------------


@pytest.mark.parametrize("maker", [lambda n: hypercube(n), lambda n: random_hl(n, 5)])
@pytest.mark.parametrize("n", range(9))
def test_materialize_counts(maker, n):
    g = materialize(maker(n))
    assert g.vertex_count == 1 << n
    assert g.edge_count == (n * (1 << (n - 1)) if n else 0)
    assert is_simple_regular(g, n)
    assert verify_cut(g, ()).component_count == 1


def test_materialize_random_hl_10_7():
    g = materialize(random_hl(10, 7))
    assert g.vertex_count == 1024 and g.edge_count == 5120
    assert is_simple_regular(g, 10)
    assert verify_cut(g, ()).component_count == 1


def test_left_half_projects_to_left_recipe():
    left = random_hl(3, 1)
    right = random_hl(3, 2)
    m = tuple(range(8))
    g = materialize(compose(left, right, m))
    half_edges = {(u, v) for u, v in g.edges() if u < 8 and v < 8}
    assert half_edges == set(materialize(left).edges())


def reference_edges(recipe):
    """Every (offset + i, offset + half + m) pair, by a direct recipe walk."""
    edges = []

    def walk(r, offset):
        if r.is_leaf:
            return
        half = 1 << (r.dim - 1)
        walk(r.left, offset)
        walk(r.right, offset + half)
        edges.extend((offset + i, offset + half + m) for i, m in enumerate(r.matching))

    walk(recipe, 0)
    return edges


def _shared_subtree_cases():
    """Recipes whose nodes share subtree objects in other than side-by-side
    runs, so materialize builds its getters again for a repeated matching."""
    a, b = random_hl(3, 1), random_hl(3, 2)
    p = compose(a, b, range(7, -1, -1))
    alternating = compose(p, p, range(16))  # the dim-3 nodes run a, b, a, b
    x = compose(a, a, (2, 0, 3, 1, 6, 4, 7, 5))
    y = compose(b, a, range(8))
    resumed = compose(x, y, range(15, -1, -1))  # the dim-3 nodes run a, a, b, a
    return [alternating, resumed]


MATERIALIZE_CASES = (
    [g84()]
    + [hypercube(n) for n in range(9)]
    + [random_hl(n, seed) for n in range(1, 10) for seed in range(4)]
    + _shared_subtree_cases()
)


@pytest.mark.parametrize("recipe", MATERIALIZE_CASES)
def test_materialize_matches_reference_walk(recipe):
    edges = reference_edges(recipe)
    size = 1 << recipe.dim
    rows = [[] for _ in range(size)]
    for u, v in edges:
        rows[u].append(v)
        rows[v].append(u)
    g = materialize(recipe)
    assert g.vertex_count == size
    assert [g.neighbors(v) for v in range(size)] == [tuple(sorted(r)) for r in rows]
    assert list(g.edges()) == sorted(edges)
    assert g.edge_count == len(edges)
    assert verify_cut(g, ()).component_count == 1


@pytest.mark.parametrize("seed", range(2))
def test_materialize_holds_little_beyond_the_graph(seed):
    # every node of a random recipe has its own matching, so getters kept
    # past their node would cost about as much as the graph itself
    recipe = random_hl(13, seed)
    held = []

    def run():
        graph = materialize(recipe)
        held.append(tracemalloc.get_traced_memory()[0])  # what the graph keeps

    peak = traced_peak(run)
    assert peak < 1.5 * held[0]


def test_materialize_leaf_is_one_vertex_without_edges():
    g = materialize(leaf())
    assert (g.vertex_count, g.edge_count) == (1, 0)
    assert g.neighbors(0) == () and list(g.edges()) == []
    assert verify_cut(g, ()).component_count == 1


@pytest.mark.parametrize("n", range(9))
def test_hypercube_column_d_flips_bit_d(n):
    g = materialize(hypercube(n))
    for d, col in enumerate(g.columns):
        assert col == [v ^ (1 << d) for v in range(1 << n)]
    for v in range(1 << n):
        assert g.neighbors(v) == tuple(sorted(v ^ (1 << d) for d in range(n)))


def test_graph_rows_become_columns():
    # two disjoint 4-cycles: regular, but not connected
    rows = [(1, 2), (0, 3), (0, 3), (1, 2), (5, 6), (4, 7), (4, 7), (5, 6)]
    g = Graph(2, rows)
    assert [g.neighbors(v) for v in range(8)] == rows
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 7), (6, 7)]
    assert g.edge_count == 8
    assert verify_cut(g, ()).component_count == 2
    assert not g.has_edge(8, 0) and not g.has_edge(-1, 6)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([(1,), (0, 1)], "vertex 0 has degree 1, expected 2"),
        ([(1, 2), (0,), (0, 1)], "vertex 1 has degree 1, expected 2"),
        ([(1, 2), (0, 3), (0, 3), (1, 2, 0)], "vertex 3 has degree 3, expected 2"),
        ([(1, 2), (0, 3), (0, 4), (1, 2)], "neighbor 4 outside 0..3"),
        ([(1, -1), (0, 3), (0, 3), (1, 2)], "neighbor -1 outside 0..3"),
        # the first offender in column-major order, not in row order
        ([(1, 9), (0, 3), (8, 3), (1, 2)], "neighbor 8 outside 0..3"),
        ([(1, 2), (0, 3), (0, 2), (1, 2)], "vertex 2 lists itself as neighbor 2"),
        ([(1, 1), (0, 0), (3, 3), (2, 2)], "vertex 0 lists neighbor 1 twice"),
        ([(1, 2), (0, 3), (0, 3), (1, 0)], "vertex 2 lists 3, but 3 does not list 2"),
    ],
)
def test_graph_rejects_bad_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Graph(2, rows)


def test_materialize_guard(monkeypatch):
    r = hypercube(6)
    monkeypatch.setattr("hlnet.recipes.MAX_DIM", 5)
    with pytest.raises(RecipeError, match="^dimension 6 exceeds guard max_dim=5$"):
        materialize(r)


# --- induced / boundary queries -------------------------------------------


def test_induced_empty_and_singleton(q3):
    assert induced_edge_count(q3, []) == 0
    assert induced_edge_count(q3, [5]) == 0


def test_induced_left_half_of_q3_is_c4(q3):
    assert induced_edge_count(q3, range(4)) == 4


def test_induced_full_set(q3):
    assert induced_edge_count(q3, range(8)) == 12


def test_boundary_single_vertex_degree(q3):
    assert len(boundary_edges(q3, [6])) == 3


def test_boundary_full_set_empty(q3):
    assert boundary_edges(q3, range(8)) == set()


def test_foreign_vertex_rejected(q3):
    with pytest.raises(ValueError, match="vertex 8"):
        induced_edge_count(q3, [8])
    with pytest.raises(ValueError, match="vertex -1"):
        boundary_edges(q3, [-1])


@given(xs=st.sets(st.integers(0, 15)))
def test_regularity_identity(xs):
    assert 4 * len(xs) == len(boundary_edges(Q4, xs)) + 2 * induced_edge_count(Q4, xs)


@given(xs=st.sets(st.integers(0, 7), min_size=1))
def test_boundary_lower_bound(xs):
    from hlnet import extremal_edge_count

    for g in (G84, materialize(random_hl(3, 9))):
        bound = 3 * len(xs) - 2 * extremal_edge_count(len(xs))
        assert len(boundary_edges(g, xs)) >= bound


# --- serialization --------------------------------------------------------


@pytest.mark.parametrize(
    "recipe", [leaf(), hypercube(1), hypercube(4), g84(), random_hl(5, 99)]
)
def test_recipe_round_trip(recipe, tmp_path):
    path = tmp_path / "r.json"
    save_recipe(recipe, path)
    assert load_recipe(path) == recipe


def test_recipe_round_trip_stream():
    buf = io.StringIO()
    save_recipe(g84(), buf)
    assert loads_recipe(buf.getvalue()) == g84()


class _LoudInt(int):
    """An int that prints differently from int: json prints it via int.__repr__."""

    def __repr__(self):
        return f"LoudInt({int(self)})"

    __str__ = __repr__


def _reference_obj(recipe):
    if recipe.is_leaf:
        return {"dim": 0, "leaf": True}
    left, right, matching = split(recipe)
    return {
        "dim": recipe.dim,
        "node": {
            "left": _reference_obj(left),
            "right": _reference_obj(right),
            "matching": list(matching),
        },
    }


_LOUD = compose(
    compose(leaf(), leaf(), [_LoudInt(0)]),
    compose(leaf(), leaf(), [0]),
    [_LoudInt(1), _LoudInt(0)],
)


@pytest.mark.parametrize("recipe", [leaf(), _LOUD] + MATERIALIZE_CASES)
def test_recipe_document_is_the_stdlib_indent2_text(recipe, tmp_path):
    expected = json.dumps(_reference_obj(recipe), indent=2) + "\n"
    assert dumps_recipe(recipe) == expected
    path = tmp_path / "r.json"
    save_recipe(recipe, path)
    assert path.read_bytes() == expected.encode()
    buf = io.StringIO()
    save_recipe(recipe, buf)
    assert buf.getvalue() == expected


def test_loud_int_recipe_keeps_its_int_subclass():
    assert type(split(_LOUD)[2][0]) is _LoudInt
    assert "Loud" not in dumps_recipe(_LOUD)


def test_save_recipe_streams_the_document(tmp_path):
    recipe = random_hl(12, 0)
    path = tmp_path / "r12.json"
    peak = traced_peak(lambda: save_recipe(recipe, path))
    assert path.stat().st_size > 3_000_000
    assert peak < 1 << 20


def test_save_graph_streams_the_document(tmp_path):
    graph = materialize(random_hl(12, 0))
    path = tmp_path / "g12.edges"
    peak = traced_peak(lambda: save_graph(graph, path))
    assert path.stat().st_size > 200_000
    assert peak < 1 << 20


def test_load_graph_streams_the_document(tmp_path):
    path = tmp_path / "g12.edges"
    save_graph(materialize(random_hl(12, 0)), path)
    peak = traced_peak(lambda: load_graph(path))
    assert peak < 3 << 20


def test_load_rejects_documents_nested_too_deeply(deep_recipe_doc):
    with pytest.raises(RecipeError) as exc:
        loads_recipe(deep_recipe_doc)
    assert str(exc.value) == "malformed recipe document: nested too deeply"


_K2_DOC = (
    '{"dim": 1, "node": {"left": {"dim": 0, "leaf": true},'
    ' "right": {"dim": 0, "leaf": true}, "matching": [0]}}'
)


def test_load_rejects_duplicate_image():
    doc = f'{{"dim": 2, "node": {{"left": {_K2_DOC}, "right": {_K2_DOC}, "matching": [0, 0]}}}}'
    with pytest.raises(RecipeError, match="image 0 duplicated"):
        loads_recipe(doc)


def test_load_rejects_unequal_halves():
    text = """
    {"dim": 2, "node": {
        "left": {"dim": 1, "node": {"left": {"dim": 0, "leaf": true},
                                     "right": {"dim": 0, "leaf": true},
                                     "matching": [0]}},
        "right": {"dim": 0, "leaf": true},
        "matching": [0, 1]}}
    """
    with pytest.raises(RecipeError, match=r"\$: children of dim 2"):
        loads_recipe(text)


def test_load_rejects_garbage():
    with pytest.raises(RecipeError, match="malformed"):
        loads_recipe("{not json")
    with pytest.raises(RecipeError, match=r"\$.node.left"):
        loads_recipe('{"dim": 1, "node": {"left": 3, "right": {"dim": 0, "leaf": true}, "matching": [0]}}')


@pytest.mark.parametrize(
    "doc",
    [
        '{"dim": ' + "9" * 5000 + "}",
        _K2_DOC.replace("[0]", "[" + "1" * 5000 + "]"),
    ],
    ids=["dim", "matching"],
)
def test_load_rejects_integers_too_long_to_read(doc):
    with pytest.raises(RecipeError, match="^malformed recipe document: "):
        loads_recipe(doc)


# --- the lean read of recipe files ----------------------------------------
#
# load_recipe(path) reads a document in chunks without its indentation and
# builds each node as json decodes it.  The rule for a path: the same Recipe
# as the whole text through loads_recipe, or the identical error.  An open
# stream, which cannot be read twice, is read whole through loads_recipe:
# the same Recipe or the identical error.


def _outcome(load, source):
    try:
        return load(source)
    except ValueError as exc:  # RecipeError, or bytes that do not decode
        return type(exc), str(exc)


def _whole_read(path):
    return loads_recipe(path.read_text())


def _assert_lean_read_is_the_whole_read(path):
    expected = _outcome(_whole_read, path)
    assert _outcome(load_recipe, path) == expected


_CANONICAL = {
    "random_hl": dumps_recipe(random_hl(5, 3)),
    "hypercube": dumps_recipe(hypercube(4)),
    "g84": dumps_recipe(g84()),
}
_G84_OBJ = json.loads(_CANONICAL["g84"])
_LEAF_DOC = '{"dim": 0, "leaf": true}'
_LEAN_CASES = {
    **{f"canonical-{name}": text for name, text in _CANONICAL.items()},
    "one-line": json.dumps(_G84_OBJ),
    "tabs": json.dumps(_G84_OBJ, indent="\t") + "\n",
    "crlf": _CANONICAL["g84"].replace("\n", "\r\n"),
    "blank-lines": _CANONICAL["g84"].replace("\n", "\n \t\n\t  "),
    "leading-blanks": "  \n\t " + _CANONICAL["g84"],
    "duplicate-keys": _K2_DOC.replace('{"dim": 1,', '{"dim": 1, "dim": 1,', 1),
    "duplicate-child": _K2_DOC.replace('"left": ', '"left": {"dim": 7}, "left": ', 1),
    "extra-key-leaf": '{"dim": 0, "leaf": true, "note": "x"}',
    "extra-key-node": _K2_DOC.replace('"matching"', '"note": [{}], "matching"'),
    "extra-key-child": _K2_DOC.replace(_LEAF_DOC, '{"dim": 0, "leaf": true, "x": 1}', 1),
    "leaf-one": _K2_DOC.replace('"leaf": true', '"leaf": 1'),
    "leaf-false": '{"dim": 0, "leaf": false}',
    "leaf-with-node": '{"dim": 0, "leaf": true, "node": 5}',
    "bool-dim": _K2_DOC.replace('"dim": 1', '"dim": true'),
    "bool-dim-leaf": '{"dim": false, "leaf": true}',
    "float-dim": _K2_DOC.replace('"dim": 1', '"dim": 1.0'),
    "object-in-matching": _K2_DOC.replace("[0]", "[" + _LEAF_DOC + "]"),
    "node-in-matching": _K2_DOC.replace("[0]", "[" + _K2_DOC + "]"),
    "bool-in-matching": _K2_DOC.replace("[0]", "[false]"),
    "bare-node": _K2_DOC[_K2_DOC.index('{"left"') : -1],
    "bare-leaf": _LEAF_DOC,
    "array": "[" + _LEAF_DOC + "]",
    "duplicate-image": json.dumps(
        {"dim": 2, "node": {"left": json.loads(_K2_DOC), "right": json.loads(_K2_DOC),
                            "matching": [1, 1]}}, indent=2),
    "unequal-halves": json.dumps(
        {"dim": 2, "node": {"left": json.loads(_K2_DOC), "right": json.loads(_LEAF_DOC),
                            "matching": [0, 1]}}, indent=2),
    "syntax-error-after-indent": _CANONICAL["random_hl"][:-40] + "}\n",
    "newline-in-string": '{"dim": 0,\n  "leaf\n    ": true}',
    "split-token": '{"dim": 0, "leaf": tr\n  ue}',
    "split-number": _K2_DOC.replace("[0]", "[1\n  0]"),
    "bom": "\ufeff" + _LEAF_DOC,
    "integer-too-long": _K2_DOC.replace("[0]", "[" + "1" * 5000 + "]"),
    "empty": "",
    "blanks-only": "\n    \n",
}


@pytest.mark.parametrize("doc", list(_LEAN_CASES.values()), ids=list(_LEAN_CASES))
def test_lean_read_is_the_whole_read(doc, tmp_path):
    path = tmp_path / "r.json"
    path.write_bytes(doc.encode())
    _assert_lean_read_is_the_whole_read(path)


@pytest.mark.parametrize("doc", list(_LEAN_CASES.values()), ids=list(_LEAN_CASES))
def test_stream_read_is_the_whole_read(doc):
    assert _outcome(load_recipe, io.StringIO(doc)) == _outcome(loads_recipe, doc)


def test_stream_read_builds_without_the_whole_text_walk(monkeypatch):
    def no_whole_read(text):
        raise AssertionError("the stream read fell back to the whole-text walk")

    monkeypatch.setattr("hlnet.recipes.loads_recipe", no_whole_read)
    for name, recipe in (("random_hl", random_hl(5, 3)), ("g84", g84())):
        assert load_recipe(io.StringIO(_CANONICAL[name])) == recipe


def test_lean_read_of_a_document_nested_too_deeply(deep_recipe_doc, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text(deep_recipe_doc)
    _assert_lean_read_is_the_whole_read(path)
    with pytest.raises(RecipeError, match="^malformed recipe document: nested too deeply$"):
        load_recipe(path)


def test_lean_read_reports_undecodable_bytes_past_the_first_chunk(tmp_path):
    data = dumps_recipe(hypercube(11)).encode()
    assert len(data) > 1 << 20
    at = len(data) - 100
    path = tmp_path / "r.json"
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    with pytest.raises(UnicodeDecodeError) as exc:
        load_recipe(path)
    assert exc.value.start == at
    _assert_lean_read_is_the_whole_read(path)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_lean_read_across_chunk_boundaries(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr("hlnet.recipes._CHUNK", chunk)
    for name in ("canonical-g84", "blank-lines", "tabs", "syntax-error-after-indent", "leaf-one"):
        path = tmp_path / f"{name}.json"
        path.write_text(_LEAN_CASES[name])
        _assert_lean_read_is_the_whole_read(path)
        with open(path) as stream:
            lean = _lean_text(stream)
        assert lean == re.sub(r"\n[ \t]+", "\n", path.read_text())


def test_lean_read_takes_extra_keys_and_truthy_leaves(tmp_path, monkeypatch):
    def annotate(obj):
        if "leaf" in obj:
            return {"dim": 0, "leaf": 1}
        node = obj["node"]
        node.update(left=annotate(node["left"]), right=annotate(node["right"]), note=1)
        return {**obj, "note": "x"}

    text = json.dumps(annotate(json.loads(_CANONICAL["random_hl"])), indent=2) + "\n"
    path = tmp_path / "r.json"
    path.write_text(text)
    expected = loads_recipe(text)

    def no_whole_read(text):
        raise AssertionError("the lean read fell back to the whole read")

    monkeypatch.setattr("hlnet.recipes.loads_recipe", no_whole_read)
    assert load_recipe(path) == expected == random_hl(5, 3)


def test_lean_read_holds_neither_the_whole_text_nor_a_dict_tree(tmp_path):
    # the whole read peaks above twice the file's size: its bytes and its text
    recipe = hypercube(13)
    path = tmp_path / "q13.json"
    save_recipe(recipe, path)
    size = path.stat().st_size
    assert size > 6_000_000
    peak = traced_peak(lambda: load_recipe(path))
    assert peak < size
    assert load_recipe(path) == recipe


_REJECTED_DOC = _CANONICAL["random_hl"].replace('"matching": [', '"matching": [9, ', 1)


def test_lean_read_opens_a_rejected_document_once(tmp_path, monkeypatch):
    path = tmp_path / "r.json"
    path.write_text(_REJECTED_DOC)
    opened = []
    real_open = io.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    # pathlib opens through io.open, everything else through builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    outcome = _outcome(load_recipe, path)
    monkeypatch.undo()
    assert outcome == _outcome(loads_recipe, _REJECTED_DOC)
    assert outcome[0] is RecipeError
    assert opened == [path]


@pytest.mark.parametrize("doc", [_CANONICAL["g84"], _REJECTED_DOC], ids=["good", "rejected"])
def test_stream_read_starts_where_the_caller_left_the_stream(doc, tmp_path):
    # next() disables tell(), and rewinding would read the caller's line again
    path = tmp_path / "r.json"
    path.write_text("# read by the caller\n" + doc)
    expected = _outcome(loads_recipe, doc)
    with open(path) as stream:
        next(stream)
        assert _outcome(load_recipe, stream) == expected
    stream = io.StringIO("# read by the caller\n" + doc)
    next(stream)
    assert _outcome(load_recipe, stream) == expected


_MUTATION_CHARS = '{}[]",:0129 \t\nadefilmnortu\xe9'


@st.composite
def _mutated_documents(draw):
    text = draw(st.sampled_from(sorted(_CANONICAL.values()) + [_K2_DOC]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        insert = draw(st.text(st.sampled_from(_MUTATION_CHARS), max_size=4))
        text = text[:at] + insert + text[at + cut :]
    data = text.encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\r\n", b"\r"])) + data[at:]
    return data


@given(data=_mutated_documents())
@settings(max_examples=300, deadline=None)
def test_lean_read_of_mutated_documents(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("lean") / "r.json"
    path.write_bytes(data)
    _assert_lean_read_is_the_whole_read(path)


@given(data=_mutated_documents())
@settings(max_examples=300, deadline=None)
def test_stream_read_of_mutated_documents(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("stream") / "r.json"
    path.write_bytes(data)
    with open(path) as stream:
        through_stream = _outcome(load_recipe, stream)
    assert through_stream == _outcome(load_recipe, path) == _outcome(_whole_read, path)


def test_direct_recipe_validation():
    with pytest.raises(RecipeError):
        Recipe(1)  # node dim without children
    with pytest.raises(RecipeError):
        Recipe(0, leaf(), leaf(), (0,))  # dim 0 cannot be a node


def test_graph_file_round_trip(tmp_path):
    g = materialize(random_hl(4, 3))
    path = tmp_path / "g.edges"
    save_graph(g, path)
    loaded = load_graph(path)
    assert loaded.n == g.n
    assert list(loaded.edges()) == list(g.edges())
    header = path.read_text().splitlines()[0]
    assert header == "# hl-graph n=4 vertices=16 edges=32"


@pytest.mark.parametrize(
    "graph",
    [
        Graph(2, [[1, 2], [0, 2], [0, 1]]),
        Graph(3, [[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]),
    ],
    ids=["triangle", "k4"],
)
def test_save_graph_refuses_a_graph_load_graph_cannot_read(graph, tmp_path):
    # both are simple and n-regular, but not on 2^n vertices
    path = tmp_path / "g.edges"
    message = rf"^an edge list holds 2\^n vertices; got {graph.vertex_count} for dim {graph.n}$"
    with pytest.raises(ValueError, match=message):
        save_graph(graph, path)
    assert not path.exists()
    stream = io.StringIO()
    with pytest.raises(ValueError, match=message):
        save_graph(graph, stream)
    assert stream.getvalue() == ""


def test_loaded_graph_shares_one_int_per_label(tmp_path):
    # n = 9 puts labels 257..511 above the interpreter's small-int cache
    path = tmp_path / "g.edges"
    save_graph(materialize(random_hl(9, 4)), path)
    g = load_graph(path)
    assert len({id(x) for col in g.columns for x in col}) == g.vertex_count


ROUND_TRIP_RECIPES = [hypercube(n) for n in range(1, 9)] + [
    random_hl(n, seed) for n in range(1, 10) for seed in range(4)
]


@pytest.mark.parametrize("recipe", ROUND_TRIP_RECIPES)
def test_graph_file_round_trip_keeps_every_neighbor_row(recipe, tmp_path):
    graph = materialize(recipe)
    path = tmp_path / "g.edges"
    save_graph(graph, path)
    loaded = load_graph(path)
    assert (loaded.n, loaded.vertex_count) == (graph.n, graph.vertex_count)
    for v in range(graph.vertex_count):
        assert loaded.neighbors(v) == graph.neighbors(v)


@pytest.mark.parametrize(
    "loader, doc, message",
    [
        (load_graph, "# hl-graph n=2 vertices=4 edges=4\n0 1\n0 2\n1 x\n", "invalid literal"),
        (load_graph, "\n# hl-cut n=2 g=1 size=1\n0 1\n", "must start with"),
        (load_cut, "# hl-cut n=2 g=1 size=2\n0 1\n0 2 3\n", "malformed edge line"),
    ],
    ids=["graph-bad-line", "graph-bad-header", "cut-bad-line"],
)
def test_edge_list_path_that_fails_leaves_no_open_file(
    loader, doc, message, tmp_path, monkeypatch
):
    path = tmp_path / "bad.edges"
    path.write_text(doc)
    unraisable = []  # a file finalized while open warns from its finalizer
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        with pytest.raises(ValueError, match=message):
            loader(path)
        gc.collect()
    assert unraisable == []


def test_graph_load_rejects_bad_degree(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("# hl-graph n=1 vertices=2 edges=0\n")
    with pytest.raises(ValueError, match="degree"):
        load_graph(path)


# --- edge-list loader errors ------------------------------------------------

GRAPH_HEAD = "# hl-graph n=1 vertices=2 edges=1\n"
CUT_HEAD = "# hl-cut n=3 g=1 size=1\n"
NO_GRAPH_HEADER = "graph document must start with an '# hl-graph' header"
NO_CUT_HEADER = "cut document must start with an '# hl-cut' header"
GRAPH_FIELDS = "graph header needs integer n=, vertices=, edges="
CUT_FIELDS = "cut header needs integer n=, g=, size="


@pytest.mark.parametrize(
    "loader, doc, message",
    [
        (load_graph, "", NO_GRAPH_HEADER),
        (load_graph, "0 1\n", NO_GRAPH_HEADER),
        (load_graph, CUT_HEAD, NO_GRAPH_HEADER),
        (load_graph, "# hl-graph n=1 vertices=two edges=1\n0 1\n", GRAPH_FIELDS),
        (load_graph, "# hl-graph n=1 vertices=2\n0 1\n", GRAPH_FIELDS),
        (load_graph, "# hl-graph n=2 vertices=3 edges=4\n", "header claims 3 vertices for dim 2"),
        (load_graph, GRAPH_HEAD + "0 1 1\n", "malformed edge line: '0 1 1'"),
        (load_graph, GRAPH_HEAD + "0 x\n", "invalid literal for int() with base 10: 'x'"),
        (load_graph, GRAPH_HEAD + "0 2\n", "edge (0, 2) out of range or unordered"),
        (load_graph, GRAPH_HEAD + "-1 1\n", "edge (-1, 1) out of range or unordered"),
        (load_graph, GRAPH_HEAD + "1 0\n", "edge (1, 0) out of range or unordered"),
        (load_graph, GRAPH_HEAD + "0 1\n0 1\n", "duplicate edge (0, 1)"),
        (
            load_graph,
            "# hl-graph n=1 vertices=2 edges=2\n0 1\n",
            "header claims 2 edges, found 1",
        ),
        (
            load_graph,
            "# hl-graph n=2 vertices=4 edges=2\n0 1\n2 3\n",
            "vertex 0 has degree 1, expected 2",
        ),
        (
            load_graph,
            "# hl-graph n=2 vertices=4 edges=3\n0 1\n0 2\n1 3\n",
            "vertex 2 has degree 1, expected 2",
        ),
        (load_cut, "", NO_CUT_HEADER),
        (load_cut, GRAPH_HEAD, NO_CUT_HEADER),
        (load_cut, "# hl-cut n=3 g=x size=1\n", CUT_FIELDS),
        (load_cut, "# hl-cut n=3 size=1\n", CUT_FIELDS),
        (load_cut, CUT_HEAD + "0\n", "malformed edge line: '0'"),
        (load_cut, CUT_HEAD + "0 y\n", "invalid literal for int() with base 10: 'y'"),
        (load_cut, CUT_HEAD + "1 0\n", "edge (1, 0) must be written with u < v"),
        (load_cut, CUT_HEAD + "1 1\n", "edge (1, 1) must be written with u < v"),
        (load_cut, "# hl-cut n=3 g=1 size=2\n0 1\n", "cut header claims 2 edges, found 1"),
        # a repeated cut edge counts once
        (load_cut, "# hl-cut n=3 g=1 size=2\n0 1\n0 1\n", "cut header claims 2 edges, found 1"),
    ],
)
def test_edge_list_loader_error_messages(loader, doc, message):
    with pytest.raises(ValueError) as exc:
        loader(io.StringIO(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "loader, doc, message",
    [
        (load_graph, "# hl-graphite n=1 vertices=2 edges=1\n0 1\n", NO_GRAPH_HEADER),
        (load_graph, "# hl-graph-2 n=1 vertices=2 edges=1\n0 1\n", NO_GRAPH_HEADER),
        (load_cut, "# hl-cutlery n=1 g=1 size=1\n0 1\n", NO_CUT_HEADER),
        (load_cut, "# hl-cut=1 n=1 g=1 size=1\n0 1\n", NO_CUT_HEADER),
        (load_graph, "# hl-graph\n0 1\n", GRAPH_FIELDS),
        (load_cut, "# hl-cut\n0 1\n", CUT_FIELDS),
    ],
    ids=["graphite", "graph-2", "cutlery", "cut=1", "graph-alone", "cut-alone"],
)
def test_edge_list_header_names_its_kind_exactly(loader, doc, message):
    with pytest.raises(ValueError) as exc:
        loader(io.StringIO(doc))
    assert str(exc.value) == message


def test_edge_list_header_kind_ends_at_any_blank():
    graph = load_graph(io.StringIO("# hl-graph\tn=1 vertices=2 edges=1\n0 1\n"))
    assert list(graph.edges()) == [(0, 1)]
    assert load_cut(io.StringIO("# hl-cut\x0cn=3 g=1 size=1\n0 1\n")) == ({(0, 1)}, 3, 1)


def test_edge_list_loaders_skip_blank_and_comment_lines():
    graph = load_graph(io.StringIO("\n" + GRAPH_HEAD + "\n# note\n  0 1  \n"))
    assert list(graph.edges()) == [(0, 1)]
    cut = load_cut(io.StringIO(CUT_HEAD + "# note\n\n0 1\n"))
    assert cut == ({(0, 1)}, 3, 1)


@pytest.mark.parametrize(
    "header, message",
    [
        ("n=-1 vertices=0 edges=0", "header claims 0 vertices for dim -1"),
        ("n=-1 vertices=1 edges=0", "header claims 1 vertices for dim -1"),
        # 1 << n would take 125 MB here
        ("n=1000000000 vertices=2 edges=1", "header claims 2 vertices for dim 1000000000"),
        ("n=40 vertices=1099511627776 edges=0", "vertex 0 has degree 0, expected 40"),
    ],
)
def test_graph_header_dimension_costs_no_more_than_the_document(header, message):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as exc:
            load_graph(io.StringIO(f"# hl-graph {header}\n"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 1 << 20


def test_graph_with_huge_claimed_dimension_reports_first_short_vertex():
    doc = "# hl-graph n=40 vertices=1099511627776 edges=2\n0 1\n2 3\n"
    with pytest.raises(ValueError, match=r"^vertex 0 has degree 1, expected 40$"):
        load_graph(io.StringIO(doc))


@pytest.mark.parametrize("repeat", ["0 1", "0 3"])
def test_graph_duplicate_on_a_row_past_n_entries_is_still_a_duplicate(repeat):
    doc = f"# hl-graph n=2 vertices=4 edges=4\n0 1\n0 2\n0 3\n{repeat}\n"
    with pytest.raises(ValueError) as exc:
        load_graph(io.StringIO(doc))
    assert str(exc.value) == f"duplicate edge ({repeat.replace(' ', ', ')})"


def test_graph_hub_vertex_costs_time_linear_in_its_edges():
    # a duplicate scan over the whole row would compare about 1.25e9 pairs here
    m = 50_000
    doc = f"# hl-graph n=40 vertices={1 << 40} edges={m}\n" + "".join(
        f"0 {v}\n" for v in range(1, m + 1)
    )
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^vertex 0 has degree {m}, expected 40$"):
        load_graph(io.StringIO(doc))
    assert time.perf_counter() - start < 1.5


# --- the column loader of graph files ----------------------------------------
#
# load_graph(path) writes a file in save_graph's own form straight into the
# neighbor columns; any other text is read again by the exact loader, which
# a stream handed in always takes.  The rule for a path: the same columns as
# the exact loader, row order included, or the identical error.

def _graph_text(graph):
    stream = io.StringIO()
    save_graph(graph, stream)
    return stream.getvalue()


_SMALL_DOC = _graph_text(materialize(random_hl(4, 1)))
_SMALL_HEAD, _SMALL_BODY = _SMALL_DOC.split("\n", 1)
_SMALL_LINES = _SMALL_BODY.splitlines(keepends=True)


def _graph_outcome(source):
    try:
        graph = load_graph(source)
    except ValueError as exc:  # undecodable bytes too
        return type(exc), str(exc)
    return graph.n, graph.vertex_count, graph.columns


def _assert_column_read_is_the_exact_read(data, tmp_path):
    path = tmp_path / "g.edges"
    path.write_bytes(data)
    with open(path) as stream:  # handed in, so the exact loader reads it
        expected = _graph_outcome(stream)
    assert _graph_outcome(path) == expected
    return expected


def _with_lines(lines, head=_SMALL_HEAD):
    return head + "\n" + "".join(lines)


_GRAPH_CASES = {
    "canonical": _SMALL_DOC,
    "bad-line": _with_lines(_SMALL_LINES[:5] + ["3 x\n"] + _SMALL_LINES[6:]),
    "three-fields": _with_lines(_SMALL_LINES[:5] + ["3 4 5\n"] + _SMALL_LINES[6:]),
    "label-out-of-range": _with_lines(_SMALL_LINES[:-1] + ["14 16\n"]),
    "unordered-pair": _with_lines(
        [" ".join(reversed(_SMALL_LINES[0].split())) + "\n"] + _SMALL_LINES[1:]
    ),
    "duplicate": _with_lines(_SMALL_LINES[:3] + _SMALL_LINES[2:]),
    "duplicate-not-overfull": "# hl-graph n=2 vertices=4 edges=4\n0 1\n0 1\n2 3\n2 3\n",
    "row-past-n": _with_lines(_SMALL_LINES + ["14 15\n"]),
    "missing-line": _with_lines(_SMALL_LINES[:-1]),
    "wrong-edge-count": _SMALL_DOC.replace("edges=32", "edges=31", 1),
    "short-degree": _with_lines(_SMALL_LINES[:-1], _SMALL_HEAD.replace("edges=32", "edges=31")),
    "shuffled": _with_lines(sorted(_SMALL_LINES, key=lambda ln: hash(ln) % 97)),
    "comment-line": _with_lines(_SMALL_LINES[:4] + ["# note\n"] + _SMALL_LINES[4:]),
    "blank-line": _with_lines(_SMALL_LINES[:4] + ["\n"] + _SMALL_LINES[4:]),
    "padded-line": _with_lines(_SMALL_LINES[:4] + [" " + _SMALL_LINES[4]] + _SMALL_LINES[5:]),
    "leading-blank": "\n" + _SMALL_DOC,
    "no-final-newline": _SMALL_DOC[:-1],
    "trailing-text": _SMALL_DOC + "15",
    "crlf": _SMALL_DOC.replace("\n", "\r\n"),
    "leading-zero": _with_lines(["0" + _SMALL_LINES[0]] + _SMALL_LINES[1:]),
    "non-ascii-digit": _SMALL_DOC.replace("\n1 ", "\n١ ", 1),
    "header-leading-zero": _SMALL_DOC.replace("n=4", "n=04", 1),
    "header-extra-field": _SMALL_DOC.replace("edges=32", "edges=32 x=1", 1),
    "header-tab": _SMALL_DOC.replace("# hl-graph ", "# hl-graph\t", 1),
    "no-header": _SMALL_BODY,
    "cut-header": "# hl-cut n=4 g=1 size=1\n" + _SMALL_BODY,
    "header-field-missing": _SMALL_DOC.replace(" vertices=16", "", 1),
    "header-vertices": _SMALL_DOC.replace("vertices=16", "vertices=15", 1),
    "dim-zero": "# hl-graph n=0 vertices=1 edges=0\n",
    "dim-past-the-guard": "# hl-graph n=21 vertices=2097152 edges=22020096\n0 1\n",
    "empty": "",
}


@pytest.mark.parametrize("doc", list(_GRAPH_CASES.values()), ids=list(_GRAPH_CASES))
def test_column_read_is_the_exact_read(doc, tmp_path):
    expected = _assert_column_read_is_the_exact_read(doc.encode(), tmp_path)
    assert _graph_outcome(io.StringIO(doc)) == expected


def test_column_read_cases_cover_every_loader_message(tmp_path):
    messages = {
        _assert_column_read_is_the_exact_read(doc.encode(), tmp_path)[1]
        for doc in _GRAPH_CASES.values()
    }
    patterns = [
        NO_GRAPH_HEADER,
        GRAPH_FIELDS,
        r"header claims \d+ vertices for dim \d+",
        r"malformed edge line: '.*'",
        r"invalid literal for int\(\) with base 10: '.*'",
        r"edge \(\d+, \d+\) out of range or unordered",
        r"duplicate edge \(\d+, \d+\)",
        r"header claims \d+ edges, found \d+",
        r"vertex \d+ has degree \d+, expected \d+",
    ]
    for pattern in patterns:
        assert any(isinstance(m, str) and re.fullmatch(pattern, m) for m in messages), pattern


@pytest.mark.parametrize("at", [0, 40, len(_SMALL_DOC) - 2])
def test_column_read_of_undecodable_bytes(at, tmp_path):
    data = _SMALL_DOC.encode()
    expected = _assert_column_read_is_the_exact_read(data[:at] + b"\xff" + data[at:], tmp_path)
    assert expected[0] is UnicodeDecodeError


def _no_exact_read(stream):
    raise AssertionError("the column loader fell back to the exact loader")


@pytest.mark.parametrize("recipe", ROUND_TRIP_RECIPES)
def test_column_loader_serves_every_saved_graph(recipe, tmp_path, monkeypatch):
    graph = materialize(recipe)
    path = tmp_path / "g.edges"
    save_graph(graph, path)
    with open(path) as stream:
        expected = load_graph(stream)
    monkeypatch.setattr("hlnet.recipes._load_graph_whole", _no_exact_read)
    loaded = load_graph(path)
    assert (loaded.n, loaded.columns) == (expected.n, expected.columns)
    assert len({id(x) for col in loaded.columns for x in col}) == loaded.vertex_count
    for v in range(graph.vertex_count):
        assert loaded.neighbors(v) == graph.neighbors(v)


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13])
def test_column_loader_across_chunk_boundaries(chunk, tmp_path, monkeypatch):
    monkeypatch.setattr("hlnet.recipes._EDGE_CHUNK", chunk)
    path = tmp_path / "g7.edges"
    save_graph(materialize(random_hl(7, 2)), path)
    with open(path) as stream:
        expected = load_graph(stream)
    for name in ("missing-line", "trailing-text", "bad-line"):
        _assert_column_read_is_the_exact_read(_GRAPH_CASES[name].encode(), tmp_path)
    monkeypatch.setattr("hlnet.recipes._load_graph_whole", _no_exact_read)
    assert load_graph(path).columns == expected.columns


@pytest.mark.parametrize("seed", range(3))
def test_shuffled_edge_list_loads_the_same_neighbor_sets(seed, tmp_path):
    graph = materialize(random_hl(6, seed))
    head, *lines = _graph_text(graph).splitlines(keepends=True)
    random.Random(seed).shuffle(lines)
    path = tmp_path / "g.edges"
    path.write_text(head + "".join(lines))
    loaded = load_graph(path)
    for v in range(graph.vertex_count):
        assert loaded.neighbors(v) == graph.neighbors(v)


@pytest.mark.parametrize(
    "body, message",
    [
        ("0 1\n", "header claims 10485760 edges, found 1"),
        ("0 1\n1 2\n" * 40, "duplicate edge (0, 1)"),
        ("", "vertex 0 has degree 0, expected 20"),
    ],
    ids=["one-edge", "repeats", "no-edge"],
)
def test_graph_path_with_huge_claimed_dimension_costs_little(body, message, tmp_path):
    # the columns of n = 20 would take 160 MiB before the first edge is read
    header = "# hl-graph n=20 vertices=1048576 edges="
    path = tmp_path / "g.edges"
    path.write_text(header + ("0" if not body else "10485760") + "\n" + body)
    errors = []

    def run():
        try:
            load_graph(path)
        except ValueError as exc:
            errors.append(str(exc))

    assert traced_peak(run) < 1 << 20
    assert errors == [message]


_GRAPH_MUTATION_CHARS = "0123456789 \n#x"


@st.composite
def _mutated_edge_lists(draw):
    text = draw(st.sampled_from([_SMALL_DOC, _GRAPH_CASES["duplicate-not-overfull"]]))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(text)))
        cut = draw(st.integers(0, 4))
        insert = draw(st.text(st.sampled_from(_GRAPH_MUTATION_CHARS), max_size=4))
        text = text[:at] + insert + text[at + cut :]
    return text


@given(doc=_mutated_edge_lists())
@settings(max_examples=300, deadline=None)
def test_column_read_of_mutated_edge_lists(doc, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("graph")
    expected = _assert_column_read_is_the_exact_read(doc.encode(), tmp_path)
    assert _graph_outcome(io.StringIO(doc)) == expected
