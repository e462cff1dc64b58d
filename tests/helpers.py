"""Reference code that the tests check the library against, kept out of the
package because no command runs it:

* the inequalities of e(g) one case at a time (check_superadditive,
  check_slack, check_merge, check_strict_increase), which the property
  suite's reference sweep and the unit tests use;
* vertex-set queries on materialized graphs (induced_edge_count,
  boundary_edges), independent counts next to the cut construction and the
  oracles;
* components_after, the traversal that cross-checks verify_cut, with its
  own edge check; neighbor_masks, bit-mask adjacency rows for small graphs;
  and isomorphic_small, an exact isomorphism test for small graphs;
* traced_peak, the tracemalloc peak that the memory tests bound.
"""

import tracemalloc
from typing import Callable, Iterable

from hlnet import Graph, formulas
from hlnet.oracles import PartitionWitness, _partition_witness


# ---------------------------------------------------------------------------
# machine-checkable inequalities for e(g); each reads
# formulas.extremal_edge_count at call time, so a test that patches it
# moves these checks along with the property suite


def check_superadditive(g0: int, g1: int) -> bool:
    """True iff e(g0 + g1) >= e(g0) + e(g1) + g0, for 1 <= g0 <= g1."""
    if not 1 <= g0 <= g1:
        raise ValueError(f"need 1 <= g0 <= g1, got g0={g0}, g1={g1}")
    e = formulas.extremal_edge_count
    return e(g0 + g1) >= e(g0) + e(g1) + g0


def check_slack(n: int, g: int) -> bool:
    """True iff (n - 2)*g - 2*e(g) >= 0, for 1 <= g <= 2^(n-2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= g <= (1 << (n - 2)):
        raise ValueError(f"g={g} out of range 1..2^(n-2) for n={n}")
    return (n - 2) * g - 2 * formulas.extremal_edge_count(g) >= 0


def check_merge(i: int, j: int) -> bool:
    """True iff e(i + 1) + e(j) <= e(i + j), for 1 <= i <= j."""
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    e = formulas.extremal_edge_count
    return e(i + 1) + e(j) <= e(i + j)


def check_strict_increase(n: int, g: int) -> bool:
    """True iff n*(g+1) - e(g+1) > n*g - e(g), for 1 <= g < 2^ceil(n/2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= g < (1 << ((n + 1) // 2)):
        raise ValueError(f"g={g} out of range 1..2^ceil(n/2)-1 for n={n}")
    e = formulas.extremal_edge_count
    return n * (g + 1) - e(g + 1) > n * g - e(g)


# ---------------------------------------------------------------------------
# graph queries


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


def components_after(
    graph: Graph, removed: Iterable[tuple[int, int]]
) -> PartitionWitness:
    """Connected components of the graph minus the removed edges.

    Blocks come out ordered by their minimum label.  Raises if a removed
    pair is not an actual edge.
    """
    gone = set()
    for u, v in removed:
        e = (u, v) if u < v else (v, u)
        if not graph.has_edge(*e):
            raise ValueError(f"pair ({u}, {v}) is not an edge of the graph")
        gone.add(e)
    total = graph.vertex_count
    comp = [-1] * total
    count = 0
    for start in range(total):
        if comp[start] >= 0:
            continue
        comp[start] = count
        stack = [start]
        while stack:
            u = stack.pop()
            for w in graph.neighbors(u):
                if comp[w] < 0 and ((u, w) if u < w else (w, u)) not in gone:
                    comp[w] = count
                    stack.append(w)
        count += 1
    return _partition_witness(graph, comp, count)


def neighbor_masks(graph: Graph) -> list[int]:
    """Adjacency rows as bit masks, for small graphs."""
    masks = [0] * graph.vertex_count
    for col in graph.columns:
        for u, v in enumerate(col):
            masks[u] |= 1 << v
    return masks


def isomorphic_small(a: Graph, b: Graph) -> bool:
    """Exact isomorphism test for graphs on at most 16 vertices.

    Backtracks over vertex maps in a connectivity-first order, pruning with
    adjacency-row consistency on bit masks.  Every Graph is n-regular, so
    equal vertex and edge counts already make the degrees compatible.
    """
    va, vb = a.vertex_count, b.vertex_count
    if va > 16 or vb > 16:
        raise ValueError("isomorphic_small handles at most 16 vertices")
    if va != vb or a.edge_count != b.edge_count:
        return False
    if va == 0:
        return True

    bmask = neighbor_masks(b)

    # visit each component of `a` in BFS order so every vertex after the
    # first has a mapped neighbor constraining its candidates
    order = []
    seen = [False] * va
    for root in range(va):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        while queue:
            u = queue.pop(0)
            order.append(u)
            for w in a.neighbors(u):
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)

    image = [-1] * va
    full = (1 << vb) - 1

    def extend(pos: int, used: int) -> bool:
        if pos == va:
            return True
        v = order[pos]
        required = 0
        for w in a.neighbors(v):
            if image[w] >= 0:
                required |= 1 << image[w]
        allowed = full & ~used
        while allowed:
            low = allowed & -allowed
            allowed ^= low
            cand = low.bit_length() - 1
            # cand must see exactly the images of v's mapped neighbors
            if bmask[cand] & used != required:
                continue
            image[v] = cand
            if extend(pos + 1, used | low):
                return True
            image[v] = -1
        return False

    return extend(0, 0)


def traced_peak(run: Callable[[], object]) -> int:
    """Peak bytes that tracemalloc sees allocated while run() executes."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
