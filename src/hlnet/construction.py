"""Extremal subgraph selection and component edge cuts.

The extremal g-vertex set of an HL network is its first g labels, whatever
the recipe.  Left halves hold the lower labels at every level, so those
labels split into one whole sub-network per binary digit of g: the first
2^t_0 labels, then the next 2^t_1, and so on for binary_decomposition(g).
This set always induces the extremal edge count e(g).

Cutting every edge that touches the selection isolates its g vertices and
costs exactly n*g - e(g) edges, which is the optimal (g+1)-component cut
wherever that value is exact (and an upper bound everywhere else).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import accumulate, chain, filterfalse, repeat
from operator import itemgetter
from pathlib import Path
from typing import IO, Iterable

from .formulas import binary_decomposition
from .recipes import Graph, Recipe, _read_edge_list, _write_document, split


def _check_budget(recipe: Recipe, g: int) -> None:
    if not 1 <= g < (1 << recipe.dim):
        raise ValueError(
            f"g={g} out of range 1..{(1 << recipe.dim) - 1} for dim {recipe.dim}"
        )


def select_extremal_subgraph(recipe: Recipe, g: int) -> tuple[range, ...]:
    """Pick g vertices whose induced subgraph attains the extremal count.

    One label range per binary-decomposition term of g, in order, tiling
    range(g); block i has 2^t_i labels, induces a t_i-dimensional
    subnetwork, and sends exactly 2^t_j matching edges to each later
    block j.
    """
    _check_budget(recipe, g)
    sizes = [1 << t for t in binary_decomposition(g)]
    return tuple(range(end - size, end) for size, end in zip(sizes, accumulate(sizes)))


def build_component_cut(recipe: Recipe, g: int) -> set[tuple[int, int]]:
    """Every edge touching the extremal selection: a (g+1)-component cut.

    The selection is labels 0..g-1, so the cut is read off the recipe
    without building the graph.  A matching edge's left end has the lower
    label, so the edge touches the selection iff its left end does: only
    nodes whose label range meets 0..g-1 are visited, and each contributes
    the edges at its first g - offset left-half vertices.  The cut has size
    n*g - e(g) and its removal leaves the g selected vertices isolated plus
    at least one more component.
    """
    _check_budget(recipe, g)
    cut: set[tuple[int, int]] = set()

    def walk(r: Recipe, offset: int) -> None:
        if r.is_leaf or offset >= g:
            return
        left, right, matching = split(r)
        base = offset + (1 << (r.dim - 1))
        for i, m in enumerate(matching[: g - offset]):
            cut.add((offset + i, base + m))
        walk(left, offset)
        walk(right, base)

    walk(recipe, 0)
    return cut


@dataclass(frozen=True)
class CutReport:
    """What verify_cut counts; the CLI compares cut_size with n*g - e(g)."""

    cut_size: int
    component_count: int
    isolated_count: int


def verify_cut(graph: Graph, cut_edges: Iterable[tuple[int, int]]) -> CutReport:
    """Count components and isolated vertices of the graph minus the cut.

    Each component grows by whole frontiers: the next frontier is the image
    of the current one under every neighbor column, less the vertices marked
    so far.  Only the endpoints of cut edges take a filtered neighbor list
    instead.  One byte per vertex marks the visited ones, so beside the
    graph the walk holds its marks, one frontier and that frontier's image,
    never a set of every vertex; each component starts at the first
    unmarked label.  Every vertex is visited.  The tests cross-check this
    against tests/helpers.components_after, a separate traversal with its
    own edge check.  A pair that is not an edge raises ValueError, and a
    pair given in both orders counts once.
    """
    cut_at: defaultdict[int, set[int]] = defaultdict(set)
    for u, v in cut_edges:
        if not graph.has_edge(u, v):
            raise ValueError(f"pair ({u}, {v}) is not an edge of the graph")
        cut_at[u].add(v)
        cut_at[v].add(u)
    kept = {
        u: [col[u] for col in graph.columns if col[u] not in out]
        for u, out in cut_at.items()
    }
    ends = set(kept)
    visited = bytearray(graph.vertex_count)
    components = isolated = 0
    start = visited.find(0)
    while start >= 0:
        visited[start] = 1
        frontier = {start}
        size = 1
        while frontier:
            grown: set[int] = set()
            free = frontier - ends
            if len(free) > 1:  # one getter per frontier reads every column
                pick = itemgetter(*free)
                for col in graph.columns:
                    grown.update(pick(col))
            else:  # itemgetter of one index returns the entry, not a tuple
                for col in graph.columns:
                    grown.update(map(col.__getitem__, free))
            for u in frontier & ends:
                grown.update(kept[u])
            frontier = set(filterfalse(visited.__getitem__, grown))
            # mark the frontier by one C-level pass, no Python loop per vertex
            deque(map(visited.__setitem__, frontier, repeat(1)), maxlen=0)
            size += len(frontier)
        components += 1
        if size == 1:
            isolated += 1
        start = visited.find(0, start)
    # each distinct unordered pair is entered at both of its ends
    return CutReport(sum(map(len, cut_at.values())) // 2, components, isolated)


def save_cut(
    edges: Iterable[tuple[int, int]],
    n: int,
    g: int,
    destination: "str | Path | IO[str]",
) -> None:
    """Write a cut under an '# hl-cut' header, each unordered pair once as u < v."""
    ordered = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    if loops := [e for e in ordered if e[0] == e[1]]:
        raise ValueError(f"cut edge {loops[0]} is a self-loop; a cut holds pairs u < v only")
    header = f"# hl-cut n={n} g={g} size={len(ordered)}\n"
    lines = (f"{u} {v}\n" for u, v in ordered)
    _write_document(destination, chain([header], lines))


def load_cut(source: "str | Path | IO[str]") -> tuple[set[tuple[int, int]], int, int]:
    """Parse a cut document; returns (edges, n, g)."""
    (n, g, size), pairs = _read_edge_list(source, "cut", ("n", "g", "size"))
    edges = set()
    for u, v in pairs:
        if not u < v:
            raise ValueError(f"edge ({u}, {v}) must be written with u < v")
        edges.add((u, v))
    if len(edges) != size:
        raise ValueError(f"cut header claims {size} edges, found {len(edges)}")
    return edges, n, g
