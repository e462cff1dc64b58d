"""Brute-force ground truth for small graphs.

Everything here is deliberately independent of the closed-form machinery:
the subset search and the partition search use only structural bounds read
from adjacency (a future pick gains its edges to the chosen set plus at most
min(picks left - 1, its degree into the undecided vertices) edges among the
other picks, each counted at half weight; opening a new partition block at
vertex v costs exactly v's back-edges; an undecided vertex u pays at least
its edges to decided vertices outside the block holding most of them), so
their answers can validate the formulas without circularity.

Both searches are anytime.  When a node or time budget runs out they return
the incumbent with status "incomplete": a lower bound for the subset search
and an upper bound for the cut search, never a silently wrong answer.
Witness ties break toward the lexicographically smallest subset, or the
lexicographically smallest block-assignment string for partitions.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from itertools import chain
from operator import add
from pathlib import Path
from typing import IO, NamedTuple

from .recipes import Graph, _write_document

COMPLETE = "complete"
INCOMPLETE = "incomplete"

_TIME_CHECK_INTERVAL = 4096

#: Frames kept free for the searches' callers; the rest of the interpreter's
#: recursion limit bounds how deep the recursive DFS may go.
_CALLER_FRAMES = 100


@dataclass(frozen=True)
class SearchLimits:
    """Optional budgets; None means unlimited."""

    max_nodes_expanded: "int | None" = None
    time_budget: "float | None" = None

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if value is not None and not value >= 0:  # NaN fails >= too
                raise ValueError(f"{name} must be non-negative, got {value}")


class _Budget:
    __slots__ = ("max_nodes", "deadline", "nodes", "exhausted")

    def __init__(self, limits: "SearchLimits | None") -> None:
        limits = limits or SearchLimits()
        # an absent limit is an infinite one, so spend() compares every limit
        self.max_nodes, seconds = (math.inf if x is None else x for x in vars(limits).values())
        self.deadline = time.monotonic() + seconds
        self.nodes = 0
        self.exhausted = False

    def spend(self) -> bool:
        """Count one expanded node; True while the budget holds."""
        if self.exhausted:
            return False
        self.nodes += 1
        if self.nodes > self.max_nodes:
            self.exhausted = True
            return False
        if (
            self.nodes == 1 or self.nodes % _TIME_CHECK_INTERVAL == 0
        ) and time.monotonic() > self.deadline:
            self.exhausted = True
            return False
        return True


def _check_search_depth(total: int) -> None:
    # both DFSs recurse once per vertex, plus one frame for the budget check
    reach = sys.getrecursionlimit() - _CALLER_FRAMES - 2
    if total > reach:
        raise ValueError(
            f"graph has {total} vertices, more than the {reach} levels the "
            f"recursive search reaches under recursion limit {sys.getrecursionlimit()}"
        )


class MaxEdgesResult(NamedTuple):
    value: int
    witness: tuple[int, ...]
    status: str


@dataclass(frozen=True)
class PartitionWitness:
    """Disjoint blocks covering V, plus the edges running between blocks."""

    blocks: tuple[tuple[int, ...], ...]
    cross_edges: frozenset[tuple[int, int]]


class MinCutResult(NamedTuple):
    value: int
    witness: PartitionWitness
    status: str


def max_induced_edges(
    graph: Graph, k: int, limits: "SearchLimits | None" = None
) -> MaxEdgesResult:
    """Exact maximum of |E(G[X])| over all |X| = k, by pruned subset DFS.

    Vertices are considered in label order, include-branch first, so the
    reported witness is the lexicographically smallest optimum.  One bound
    prunes, reading only degrees, never the closed-form value under test:
    with r picks left, undecided w scores 2a + min(r - 1, p), a and p being
    its degrees into the chosen and undecided vertices, and the picks gain
    at most half the sum of the r largest scores.  As a <= c (the picks
    made) and a + p <= n (rows of n distinct other vertices, as materialize
    and load_graph give), that half-sum is at most sum_{j<r} min(c + j, n):
    charging the j-th future pick min(c + j, n) edges prunes nothing more.
    It prunes only branches that cannot strictly beat the incumbent, so the
    witness stays the smallest optimum.
    """
    total = graph.vertex_count
    if not 1 <= k <= total:
        raise ValueError(f"k={k} out of range 1..{total}")
    if k == total:
        return MaxEdgesResult(graph.edge_count, tuple(range(total)), COMPLETE)

    _check_search_depth(total)
    rows = list(zip(*graph.columns))
    # pool_degree[v][w - v] = |N(w) ∩ {v..total-1}|: the undecided vertices
    # at depth v are the pool a pick w shares edges with (a degree is at most
    # n, so each row fits in bytes)
    degree = [len(row) for row in rows]
    pool_degree = []
    for v, row in enumerate(rows):
        pool_degree.append(bytes(degree[v:]))
        for w in row:  # v leaves the pool of every later depth
            degree[w] -= 1
    # capped[c][v] = min(c, pool_degree[v]); with r picks left the bound caps
    # at c = r - 1, which changes a row only while c < n
    capped = []
    for c in range(min(k, graph.n)):
        cap = bytes(min(c, d) for d in range(256))
        capped.append([row.translate(cap) for row in pool_degree])
    # twice[w] = 2|N(w) ∩ chosen|, kept in step with `chosen`
    twice = [0] * total

    # the first k labels seed the incumbent; they are also the smallest
    # possible witness, so later strict improvements keep the tie-break
    best = sum(w < k for v in range(k) for w in rows[v]) // 2
    best_mask = (1 << k) - 1
    budget = _Budget(limits)

    def dfs(v: int, chosen: int, count: int, value: int) -> None:
        nonlocal best, best_mask
        if count == k:
            if value > best:
                best = value
                best_mask = chosen
            return
        if total - v < k - count:
            return
        # r pool picks F gain sum_{w in F} (2|N(w) ∩ chosen| + |N(w) ∩ F|) / 2
        # edges, and each |N(w) ∩ F| <= min(r - 1, |N(w) ∩ pool|)
        r = k - count
        pool = capped[r - 1][v] if r <= len(capped) else pool_degree[v]
        gains = sorted(map(add, twice[v:], pool), reverse=True)
        if value + sum(gains[:r]) // 2 <= best:
            return
        if not budget.spend():
            return
        for w in rows[v]:
            twice[w] += 2
        dfs(v + 1, chosen | (1 << v), count + 1, value + twice[v] // 2)
        for w in rows[v]:
            twice[w] -= 2
        dfs(v + 1, chosen, count, value)

    dfs(0, 0, 0, 0)
    witness = tuple(v for v in range(total) if best_mask >> v & 1)
    return MaxEdgesResult(best, witness, INCOMPLETE if budget.exhausted else COMPLETE)


def min_component_edge_cut(
    graph: Graph, parts: int, limits: "SearchLimits | None" = None
) -> MinCutResult:
    """Exact minimum cross-edge count over partitions into `parts` blocks.

    Minimizing over exactly-k-block partitions equals minimizing over cuts
    leaving at least k components: merging surplus components into blocks
    never adds a cross edge.  Enumeration follows restricted-growth strings
    (block ids appear in first-use order).  The committed cross-edge count
    is raised by the larger of two admissible bounds:

    * the cost of the block openings still owed, each of which is exactly
      the opening vertex's back-edge count;
    * the sum over undecided vertices u of dD(u) - max_b cnt_b(u), where
      dD(u) counts u's decided neighbors and cnt_b(u) those in block b.
      Whichever block u joins, its edges to decided vertices in other
      blocks are cut, and a new block cuts all dD(u) of them.  These edges
      are distinct for distinct u and none joins two decided vertices, so
      the sum adds to the committed count without overlap.

    The two bounds may count the same edges, so only their maximum is
    added.  Like the committed count, they prune only branches that cannot
    strictly beat the incumbent, so the witness stays the lexicographically
    smallest optimal assignment string.
    """
    total = graph.vertex_count
    if not 1 <= parts <= total:
        raise ValueError(f"parts={parts} out of range 1..{total}")
    if parts == 1:
        witness = _partition_witness(graph, [0] * total, 1)
        return MinCutResult(0, witness, COMPLETE)

    _check_search_depth(total)
    # forward[v]: v's neighbors above v, the undecided ones that v's
    # assignment touches; the rest of the row are v's back-edges
    rows = list(zip(*graph.columns))
    forward = [[u for u in row if u > v] for v, row in enumerate(rows)]
    backdeg = [len(row) - len(ahead) for row, ahead in zip(rows, forward)]

    # open_tail[i][u]: cheapest total back-edge cost of opening u more blocks
    # using only vertices >= i
    open_tail = []
    for i in range(total + 1):
        tail = sorted(backdeg[i:])
        sums = [0]
        for val in tail[:parts]:
            sums.append(sums[-1] + val)
        open_tail.append(sums)

    assign = [0] * total

    # incumbent: the first leaf of the search order (everything in block 0,
    # then the forced chain of new singletons), which is also the smallest
    # restricted-growth string with the right block count
    for v in range(total):
        assign[v] = max(0, parts - (total - v))
    best = sum(1 for u, v in graph.edges() if assign[u] != assign[v])
    best_assign = assign.copy()
    budget = _Budget(limits)

    # cnt[u][b] = |N(u) ∩ block b| and top[u] = max_b cnt[u][b], over the
    # decided vertices; lb sums term(u) = |N(u) ∩ decided| - top[u] over the
    # undecided u (at depth v, term(v) = backdeg[v] - top[v])
    cnt = [[0] * parts for _ in range(total)]
    top = [0] * total

    def dfs(v: int, used: int, cost: int, lb: int) -> None:
        nonlocal best, best_assign
        if v == total:
            if used == parts and cost < best:
                best = cost
                best_assign = assign.copy()
            return
        remaining = total - v
        need = parts - used
        if need > remaining:
            return
        if cost + max(lb, open_tail[v][need]) >= best:
            return
        if not budget.spend():
            return
        counts = cnt[v]
        back = backdeg[v]
        # lb without term(v) bounds every child's lb: deciding v raises an
        # undecided neighbor's term by 1 unless its top rises with it
        rest = lb - (back - top[v])
        ahead = forward[v]
        top_block = used if used < parts else parts - 1
        for b in range(top_block + 1):
            # block `used` is still empty, so counts[b] is 0 when v opens it
            add = back - counts[b]
            if cost + add + rest >= best:
                continue
            assign[v] = b
            raised = []
            for u in ahead:
                c = cnt[u][b] + 1
                cnt[u][b] = c
                if c > top[u]:
                    top[u] = c
                    raised.append(u)
            dfs(
                v + 1,
                used + 1 if b == used else used,
                cost + add,
                rest + len(ahead) - len(raised),
            )
            for u in ahead:
                cnt[u][b] -= 1
            for u in raised:
                top[u] -= 1

    dfs(0, 0, 0, 0)
    witness = _partition_witness(graph, best_assign, parts)
    return MinCutResult(best, witness, INCOMPLETE if budget.exhausted else COMPLETE)


def _partition_witness(graph: Graph, assign: list[int], parts: int) -> PartitionWitness:
    blocks: list[list[int]] = [[] for _ in range(parts)]
    for v, b in enumerate(assign):
        blocks[b].append(v)
    cross = frozenset((u, v) for u, v in graph.edges() if assign[u] != assign[v])
    return PartitionWitness(tuple(tuple(b) for b in blocks), cross)


def save_partition(
    witness: PartitionWitness, destination: "str | Path | IO[str]"
) -> None:
    """Write a witness as text: header, then one block per line."""
    header = f"# partition blocks={len(witness.blocks)} cross={len(witness.cross_edges)}\n"
    lines = (" ".join(str(v) for v in block) + "\n" for block in witness.blocks)
    _write_document(destination, chain([header], lines))
