"""Vertex-set queries on materialized graphs, used by the tests as
independent counts next to the library's cut construction and oracles, and
the tracemalloc peak that the memory tests bound."""

import tracemalloc
from typing import Callable, Iterable

from hlnet import Graph


def _check_vertices(graph: Graph, vertices: Iterable[int]) -> set[int]:
    xs = set(vertices)
    total = graph.vertex_count
    for v in xs:
        if not 0 <= v < total:
            raise ValueError(f"vertex {v} not in graph with {total} vertices")
    return xs


def induced_edge_count(graph: Graph, vertices: Iterable[int]) -> int:
    """Number of edges with both endpoints inside the vertex set."""
    xs = _check_vertices(graph, vertices)
    inside = 0
    for v in xs:
        for w in graph.neighbors(v):
            if w in xs:
                inside += 1
    return inside // 2


def boundary_edges(graph: Graph, vertices: Iterable[int]) -> set[tuple[int, int]]:
    """Edges with exactly one endpoint inside the vertex set.

    For an n-regular graph, n*|X| = |boundary| + 2*|induced| always holds.
    """
    xs = _check_vertices(graph, vertices)
    out: set[tuple[int, int]] = set()
    for v in xs:
        for w in graph.neighbors(v):
            if w not in xs:
                out.add((v, w) if v < w else (w, v))
    return out


def traced_peak(run: Callable[[], object]) -> int:
    """Peak bytes that tracemalloc sees allocated while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
