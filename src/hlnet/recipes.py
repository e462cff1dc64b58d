"""Recursive matched-pair network recipes and the graphs they build.

A recipe is a binary construction tree.  A leaf is a single vertex; a node
joins two equal-dimension subnetworks by a perfect matching between their
vertex sets.  Materializing a dim-n recipe yields an n-regular connected
graph on 2^n vertices with n*2^(n-1) edges.  Labels follow the prefix rule:
at every node the left subnetwork occupies the lower half of the label
range (top bit 0), the right subnetwork the upper half.
"""

from __future__ import annotations

import json
import os
import re
from collections import defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import chain
from pathlib import Path
from operator import itemgetter
from typing import IO, Callable, Collection, Iterable, Iterator, TypeVar

#: Cap on the dimension of every built or materialized recipe (2^20
#: vertices), read at each check.
MAX_DIM = 20

_T = TypeVar("_T")
_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class RecipeError(ValueError):
    """Invalid recipe structure, matching, or recipe document."""


# ---------------------------------------------------------------------------
# recipes


@dataclass(frozen=True, slots=True)
class Recipe:
    """Construction tree node.  Leaves have dim 0 and no children.

    Instances are immutable values with no ``__dict__``; equal trees compare
    equal.  Use
    ``leaf()``, ``compose()``, ``hypercube()``, ``random_hl()`` or
    ``load_recipe()`` to build them.
    """

    dim: int
    left: "Recipe | None" = None
    right: "Recipe | None" = None
    matching: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        if self.matching is not None and not isinstance(self.matching, tuple):
            object.__setattr__(self, "matching", tuple(self.matching))
        if self.left is None:
            if self.right is not None or self.matching is not None:
                raise RecipeError("leaf recipe cannot carry a child or matching")
            if self.dim != 0:
                raise RecipeError(f"leaf recipe must have dim 0, got {self.dim}")
            return
        if self.right is None or self.matching is None:
            raise RecipeError("node recipe needs left, right and matching")
        if self.left.dim != self.right.dim:
            raise RecipeError(
                f"subrecipe dimension mismatch: left dim {self.left.dim}, "
                f"right dim {self.right.dim}"
            )
        if self.dim != self.left.dim + 1:
            raise RecipeError(
                f"node dim {self.dim} inconsistent with subrecipe dim {self.left.dim}"
            )
        _check_permutation(self.matching, 1 << self.left.dim)

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def _check_permutation(matching: tuple[int, ...], size: int) -> None:
    if len(matching) != size:
        raise RecipeError(
            f"matching length {len(matching)} does not match half size {size}"
        )
    seen = bytearray(size)
    for v in matching:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size:
            raise RecipeError(f"matching image {v!r} outside 0..{size - 1}")
        if seen[v]:
            raise RecipeError(f"matching is not a permutation: image {v} duplicated")
        seen[v] = 1


_LEAF = Recipe(0)


def leaf() -> Recipe:
    """The dim-0 recipe: a single vertex."""
    return _LEAF


def compose(left: Recipe, right: Recipe, matching: Iterable[int]) -> Recipe:
    """Join two equal-dimension recipes with a perfect matching.

    ``matching[i]`` is the local right-half index matched to local left-half
    index ``i``.  Raises RecipeError on dimension mismatch or when the
    matching is not a permutation of the half's index range.
    """
    return Recipe(left.dim + 1, left, right, tuple(matching))


def split(recipe: Recipe) -> tuple[Recipe, Recipe, tuple[int, ...]]:
    """Inverse of compose: return (left, right, matching) of a node recipe."""
    if recipe.is_leaf:
        raise RecipeError("cannot split a leaf recipe")
    assert recipe.left is not None and recipe.right is not None
    assert recipe.matching is not None
    return recipe.left, recipe.right, recipe.matching


def _check_dim(n: int) -> None:
    if n < 0:
        raise RecipeError(f"dimension must be non-negative, got {n}")
    if n > MAX_DIM:
        raise RecipeError(f"dimension {n} exceeds guard max_dim={MAX_DIM}")


def hypercube(n: int) -> Recipe:
    """Recipe for the n-cube: identity matchings at every level.

    The materialization has an edge between u and v iff their labels differ
    in exactly one bit.
    """
    _check_dim(n)
    # every level's matching is a prefix of the top one, so all share its ints
    identity = tuple(range(1 << n >> 1))
    r = _LEAF
    for dim in range(1, n + 1):
        r = Recipe(dim, r, r, identity[: 1 << (dim - 1)])
    return r


def g84() -> Recipe:
    """The non-cube dim-3 network G(8,4): two 4-cycles under a twisted matching.

    The matching (0, 1, 3, 2) creates an odd cycle, so the result cannot be
    the bipartite 3-cube; the classification of dim-3 networks then pins it
    to G(8,4).  Tests establish the non-isomorphism explicitly.
    """
    c4 = hypercube(2)
    return compose(c4, c4, (0, 1, 3, 2))


# deterministic permutation sampling (fixed 64-bit mixing generator, so the
# same seed gives bit-identical recipes on every platform)


def _mix64(x: int) -> int:
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _random_permutation(perm: list[int], seed: int, position: int) -> tuple[int, ...]:
    """Fisher-Yates shuffle, in place, of perm, a list of range(len(perm)),
    drawn from the SplitMix64 substream of (seed, position).  Each draw below
    a bound rejects the top 2^64 mod bound outputs, which keeps it exactly
    uniform."""
    state = _mix64(seed & _MASK64) ^ _mix64(position * _GOLDEN)
    size = len(perm)
    # every limit 2^64 - (2^64 mod bound) exceeds 2^64 - size, so a draw
    # below that is accepted without computing the limit
    sure = (_MASK64 + 1) - size
    for i in range(size - 1, 0, -1):
        while True:
            state = (state + _GOLDEN) & _MASK64
            v = _mix64(state)
            if v < sure or v < (_MASK64 + 1) - (_MASK64 + 1) % (i + 1):
                break
        j = v % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


def random_hl(n: int, seed: int) -> Recipe:
    """Sample a dim-n recipe with every matching drawn uniformly.

    Each tree node gets its own substream derived from (seed, heap position
    of the node), so the draw is independent per node and reproducible:
    equal arguments give bit-identical recipes.  Every permutation is a
    shuffled slice of one label list, so the matchings hold one int object
    per index, 2^(n-1) in all.
    """
    _check_dim(n)
    labels = list(range(1 << n >> 1))

    def build(dim: int, position: int) -> Recipe:
        if dim == 0:
            return _LEAF
        left = build(dim - 1, 2 * position)
        right = build(dim - 1, 2 * position + 1)
        perm = _random_permutation(labels[: 1 << (dim - 1)], seed, position)
        return Recipe(dim, left, right, perm)

    return build(n, 1)


# ---------------------------------------------------------------------------
# materialized graphs


class Graph:
    """Immutable n-regular graph on labels 0..2^n - 1, stored as n neighbor columns.

    Vertex v's neighbors are ``columns[0][v], ..., columns[n-1][v]``.  In a
    materialized network column d holds each vertex's level-d matching
    partner; a graph built from rows keeps each row's order instead.  The
    columns are shared by every query: never mutate them.
    """

    __slots__ = ("n", "vertex_count", "columns")

    def __init__(self, n: int, rows: Iterable[Collection[int]]) -> None:
        """Turn the neighbor rows of a simple undirected n-regular graph into columns."""
        checked = []
        for v, row in enumerate(rows):
            if len(row) != n:
                raise ValueError(f"vertex {v} has degree {len(row)}, expected {n}")
            checked.append(tuple(row))
        columns = tuple(map(list, zip(*checked)))
        last = len(checked) - 1
        for col in columns:  # column by column, so the first offender is column-major
            if min(col) < 0 or max(col) > last:
                bad = next(u for u in col if not 0 <= u <= last)
                raise ValueError(f"neighbor {bad!r} outside 0..{last}")
        for v, row in enumerate(checked):
            for i, w in enumerate(row):
                if w == v:
                    raise ValueError(f"vertex {v} lists itself as neighbor {w}")
                if w in row[:i]:
                    raise ValueError(f"vertex {v} lists neighbor {w} twice")
                if v not in checked[w]:
                    raise ValueError(f"vertex {v} lists {w}, but {w} does not list {v}")
        self.n = n
        self.vertex_count = len(checked)
        self.columns = columns

    @classmethod
    def _from_columns(cls, n: int, columns: Iterable[list[int]]) -> "Graph":
        graph = cls.__new__(cls)
        graph.n, graph.vertex_count, graph.columns = n, 1 << n, tuple(columns)
        return graph

    @property
    def edge_count(self) -> int:
        return self.n * self.vertex_count // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        """v's neighbors in increasing order."""
        return tuple(sorted([col[v] for col in self.columns]))

    def has_edge(self, u: int, v: int) -> bool:
        """True iff u and v are adjacent; out-of-range labels are never adjacent."""
        return 0 <= u < self.vertex_count and any(col[u] == v for col in self.columns)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) pairs with u < v, in sorted order."""
        for u, row in enumerate(map(sorted, zip(*self.columns))):
            for v in row:
                if u < v:
                    yield (u, v)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, vertices={self.vertex_count}, edges={self.edge_count})"


def materialize(recipe: Recipe) -> Graph:
    """Build the labelled graph a recipe describes.

    Left halves take the lower label range at every level; the matching of
    the dim-(d+1) node at offset o puts the edge (o + i, o + 2^d + matching[i])
    into column d.  Each column is filled by slice copies from one shared
    label list.  Where every node of the level carries the same matching,
    and it has no more entries than the level has nodes, one strided slice
    pair per matching entry covers all nodes at once; otherwise each node
    gets one contiguous slice pair, gathered through itemgetter.
    """
    _check_dim(recipe.dim)
    labels = list(range(1 << recipe.dim))
    columns = []
    last = None  # the previous node's matching, whose getters a shared subtree reuses
    nodes = [recipe]
    for d in reversed(range(recipe.dim)):
        half = 1 << d
        step = 2 * half
        col = [0] * len(labels)
        first: tuple[int, ...] = nodes[0].matching  # type: ignore[assignment]
        if half <= len(nodes) and all(r.matching == first for r in nodes):
            for i, m in enumerate(first):
                col[i::step] = labels[half + m :: step]
                col[half + m :: step] = labels[i::step]
        else:
            for lo, r in zip(range(0, len(labels), step), nodes):
                m: tuple[int, ...] = r.matching  # type: ignore[assignment]
                if m is not last:
                    # the label ints, not fresh ones: labels[i] is i
                    inverse = sorted(labels[:half], key=m.__getitem__)
                    to_right, to_left, last = itemgetter(*m), itemgetter(*inverse), m
                mid = lo + half
                col[lo:mid] = to_right(labels[mid : mid + half])
                col[mid : mid + half] = to_left(labels[lo:mid])
        columns.append(col)
        if d:
            nodes = [child for r in nodes for child in (r.left, r.right)]
    return Graph._from_columns(recipe.dim, reversed(columns))


# ---------------------------------------------------------------------------
# serialization

# Recipe documents are JSON: {"dim": 0, "leaf": true} at leaves and
# {"dim": d, "node": {"left": ..., "right": ..., "matching": [...]}} at
# nodes, matchings given as local right-half indices.

_CHUNK = 1 << 20  # characters per read of a recipe document
_INDENT = re.compile(r"\n[ \t]+")


def _recipe_from_obj(obj: object, path: str, labels: list[int]) -> Recipe:
    """The Recipe of a decoded recipe object, or a RecipeError that names the
    JSON path of the first fault.  These are the one set of per-node rules;
    children are read the same way, depth first.  A Recipe passes through
    unchanged: load_recipe's build has already made it by these rules.

    labels is one document's table of index ints, grown as needed.  Each
    matching is mapped through it once its node passes every check, so the
    tree holds one int object per index, not one per entry as decoded.
    """
    if isinstance(obj, Recipe):
        return obj
    if not isinstance(obj, dict):
        raise RecipeError(f"{path}: expected an object, got {type(obj).__name__}")
    dim = obj.get("dim")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise RecipeError(f"{path}: missing or invalid 'dim'")
    if obj.get("leaf"):
        if dim != 0:
            raise RecipeError(f"{path}: leaf must have dim 0, got {dim}")
        return _LEAF
    node = obj.get("node")
    if not isinstance(node, dict):
        raise RecipeError(f"{path}: dim {dim} recipe needs a 'node' object")
    if dim == 0:
        raise RecipeError(f"{path}: dim 0 recipe must be a leaf")
    left = _recipe_from_obj(node.get("left"), path + ".node.left", labels)
    right = _recipe_from_obj(node.get("right"), path + ".node.right", labels)
    if left.dim != dim - 1 or right.dim != dim - 1:
        raise RecipeError(
            f"{path}: children of dim {dim} node must have dim {dim - 1}, "
            f"got {left.dim} and {right.dim}"
        )
    matching = node.get("matching")
    if not isinstance(matching, list):
        raise RecipeError(f"{path}.node.matching: expected an array")
    try:
        recipe = Recipe(dim, left, right, tuple(matching))
    except RecipeError as exc:
        raise RecipeError(f"{path}.node.matching: {exc}") from None
    labels.extend(range(len(labels), len(matching)))
    # the checked entries are exact ints in 0..len - 1, each a table index
    object.__setattr__(recipe, "matching", tuple(map(labels.__getitem__, matching)))
    return recipe


def _build_as_decoded(labels: list[int], obj: dict) -> object:
    """object_hook of load_recipe's build, given one table of index ints per
    document.  json decodes bottom-up, so a recipe object's children are
    Recipes by the time it closes.  Every object with a 'dim' key becomes its
    Recipe by _recipe_from_obj's rules; the others, a node's {"left",
    "right", "matching"} objects, stay dicts."""
    return _recipe_from_obj(obj, "$", labels) if "dim" in obj else obj


def _recipe_chunks(recipe: Recipe) -> Iterator[str]:
    """Yield the recipe document in pieces: byte for byte the text of
    ``json.dumps(document, indent=2)`` plus a final newline.

    Each matching is one piece with its entries one per line, printed by
    ``int.__repr__`` as ``json`` prints them.  The walk keeps an explicit
    stack, so each piece passes through one generator frame.
    """
    stack: list = [(recipe, "")]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            yield item
            continue
        node, pad = item
        if node.left is None:
            yield f'{{\n{pad}  "dim": 0,\n{pad}  "leaf": true\n{pad}}}'
            continue
        inner = pad + "    "
        yield (
            f'{{\n{pad}  "dim": {int.__repr__(node.dim)},\n'
            f'{pad}  "node": {{\n{inner}"left": '
        )
        stack += (
            f"\n{inner}]\n{pad}  }}\n{pad}}}",
            (",\n" + inner + "  ").join(map(int.__repr__, node.matching)),
            f',\n{inner}"matching": [\n{inner}  ',
            (node.right, inner),
            f',\n{inner}"right": ',
            (node.left, inner),
        )
    yield "\n"


def dumps_recipe(recipe: Recipe) -> str:
    return "".join(_recipe_chunks(recipe))


def loads_recipe(text: str) -> Recipe:
    try:
        return _recipe_from_obj(json.loads(text), "$", [])
    except RecipeError:
        raise
    except ValueError as exc:  # bad JSON, or an integer too long for int()
        raise RecipeError(f"malformed recipe document: {exc}") from None
    except RecursionError:
        raise RecipeError("malformed recipe document: nested too deeply") from None


def _write_document(destination: "str | Path | IO[str]", pieces: Iterable[str]) -> None:
    """Write the text pieces in order to a path or an open stream, one at a
    time, so the whole document never exists as one string."""
    if hasattr(destination, "write"):
        destination.writelines(pieces)  # type: ignore[union-attr]
    else:
        with open(destination, "w") as stream:
            stream.writelines(pieces)


def _lines(source: "str | Path | IO[str]") -> Iterator[str]:
    """Yield the lines of an open stream, or of a path inside its open file."""
    if hasattr(source, "read"):
        yield from source  # type: ignore[misc]
    else:
        with open(source) as stream:
            yield from stream


def _read_lean_or_whole(
    source: "str | Path | IO[str]",
    lean: "Callable[[IO[str]], _T | None]",
    whole: "Callable[[IO[str]], _T]",
) -> _T:
    """Read a document from a path or an open text stream.  A path is opened
    once: a file that can seek goes to lean(stream), and when that returns
    None, whole(stream) reads the same open file again from its start, so
    every error is whole's.  A stream handed in, a pipe or a FIFO goes to
    whole alone, from where it stands, and is never rewound."""
    handed = hasattr(source, "read")
    with nullcontext(source) if handed else open(source) as stream:  # type: ignore[arg-type]
        if not handed and stream.seekable():
            done = lean(stream)
            if done is not None:
                return done
            stream.seek(0)
        return whole(stream)


def _read_edge_list(
    source: "str | Path | IO[str]", kind: str, keys: tuple[str, ...]
) -> tuple[list[int], Iterator[tuple[int, int]]]:
    """Parse an '# hl-<kind> key=value ...' document: the integer values of
    ``keys`` in order, and a lazy iterator over its 'u v' pairs (blank and
    '#' lines skipped).  The lines are read as the pairs are drawn.  Range,
    order, duplicate and count checks are the loader's."""
    lines = filter(None, map(str.strip, _lines(source)))
    header = next(lines, "")
    if not re.match(rf"# hl-{kind}(?!\S)", header):  # a blank or the end follows the kind
        raise ValueError(f"{kind} document must start with an '# hl-{kind}' header")
    fields = dict(part.split("=", 1) for part in header.split() if "=" in part)
    try:
        values = [int(fields[key]) for key in keys]
    except (KeyError, ValueError):
        names = ", ".join(f"{key}=" for key in keys)
        raise ValueError(f"{kind} header needs integer {names}") from None

    def pairs() -> Iterator[tuple[int, int]]:
        for ln in lines:
            if ln.startswith("#"):
                continue
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"malformed edge line: {ln!r}")
            yield int(parts[0]), int(parts[1])

    return values, pairs()


def save_recipe(recipe: Recipe, destination: "str | Path | IO[str]") -> None:
    _write_document(destination, _recipe_chunks(recipe))


def _lean_text(stream: IO[str]) -> str:
    """The rest of a stream's text without the blanks that open its lines,
    read in chunks of _CHUNK characters, so a file's bytes and its whole text
    never coexist.  Each newline stays: line numbers hold, and a raw newline
    inside a string is still an error."""
    pieces: list[str] = []
    for chunk in iter(partial(stream.read, _CHUNK), ""):
        if pieces and pieces[-1].endswith("\n"):  # the blanks run on from a chunk
            chunk = chunk.lstrip(" \t")
        if chunk:
            pieces.append(_INDENT.sub("\n", chunk))
    return "".join(pieces)


def _built(text: str) -> "Recipe | None":
    """The Recipe that load_recipe's build makes of a text, or None where
    the build rejects it."""
    try:
        recipe = json.loads(text, object_hook=partial(_build_as_decoded, []))
    except (ValueError, RecursionError):  # RecipeError too
        return None
    return recipe if isinstance(recipe, Recipe) else None


def _load_recipe_whole(stream: IO[str]) -> Recipe:
    text = stream.read()
    return _built(text) or loads_recipe(text)


def _load_recipe_lean(stream: IO[str]) -> "Recipe | None":
    try:
        text = _lean_text(stream)
    except UnicodeDecodeError:
        return None
    return _built(text)


def load_recipe(source: "str | Path | IO[str]") -> Recipe:
    """Read a recipe document from a path or an open text stream.

    json.loads builds each Recipe as its object closes, by loads_recipe's
    rules, so no dict tree is ever held, and each matching is mapped
    through one table of index ints for the whole document.  A path is
    opened once: a file that can seek is read in chunks without its
    indentation, and a document this rejects, undecodable bytes included,
    is read whole again from its start, where loads_recipe names its fault.
    A stream handed in, a pipe or a FIFO is read whole once, and a stream
    is never rewound.
    """
    return _read_lean_or_whole(source, _load_recipe_lean, _load_recipe_whole)


_GRAPH_N = re.compile(r"# hl-graph n=([0-9]+) ")
_EDGE_LINES = re.compile(r"(?:[0-9]+ [0-9]+\n)*")
_EDGE_CHUNK = 1 << 16  # characters per read of an edge list in save_graph's form


def _graph_header(n: int) -> str:
    """save_graph's header line for a graph on 2^n vertices."""
    return f"# hl-graph n={n} vertices={1 << n} edges={n << n >> 1}\n"


def save_graph(graph: Graph, destination: "str | Path | IO[str]") -> None:
    """Write the plain-text edge list with its counting header.  Only a graph
    on 2^n vertices is written, since load_graph reads no other."""
    if graph.n < 0 or graph.vertex_count != 1 << graph.n:
        raise ValueError(
            f"an edge list holds 2^n vertices; got {graph.vertex_count} for dim {graph.n}"
        )
    header = _graph_header(graph.n)
    # one piece per vertex: its edges to higher labels, in the order of edges()
    lines = (
        "".join([f"{u} {v}\n" for v in row if u < v])
        for u, row in enumerate(map(sorted, zip(*graph.columns)))
    )
    _write_document(destination, chain([header], lines))


def _load_columns(stream: IO[str]) -> "Graph | None":
    """The graph of an edge list in save_graph's own form, written straight
    into its neighbor columns, or None for any other text.

    The form: save_graph's header with 1 <= n <= MAX_DIM, then one ASCII
    'u v' line per edge with u < v, the pairs strictly increasing, and every
    vertex of degree n.  Each chunk of _EDGE_CHUNK characters is checked by
    one regex match before it is split.  Each edge fills the next slot of
    both its rows, and one byte per vertex counts them, so the columns, row
    order included, are the exact loader's.  A file smaller than the least
    document its header allows is never allocated for.
    """
    header = stream.readline(len(_graph_header(MAX_DIM)))
    claim = _GRAPH_N.match(header)
    n = int(claim[1]) if claim else 0
    if not 1 <= n <= MAX_DIM or header != _graph_header(n):
        return None
    vertices = 1 << n
    # every edge line takes at least 4 characters, as "0 1\n"
    if os.fstat(stream.fileno()).st_size < len(header) + 4 * (n << n >> 1):
        return None
    labels = list(range(vertices))  # one int per label, shared by the columns
    columns = [[0] * vertices for _ in range(n)]
    degree = bytearray(vertices)
    widest = 2 * len(str(vertices)) + 1  # a line of save_graph's, without its newline
    last = -1  # (u, v) of the previous edge as u << n | v
    rest = ""
    try:
        for chunk in iter(partial(stream.read, _EDGE_CHUNK), ""):
            chunk = rest + chunk
            end = chunk.rfind("\n") + 1
            rest = chunk[end:]
            if len(rest) > widest or not _EDGE_LINES.fullmatch(chunk, 0, end):
                return None
            numbers = map(int, chunk[:end].split())
            for u, v in zip(numbers, numbers):
                key = u << n | v
                if u >= v or key <= last:
                    return None
                last = key
                u, v = labels[u], labels[v]
                columns[degree[u]][u] = v
                degree[u] += 1
                columns[degree[v]][v] = u
                degree[v] += 1
    # a label past 2^n - 1 or a row past n, undecodable bytes, or digits
    # too many for int()
    except (IndexError, ValueError):
        return None
    if rest or min(degree) < n:
        return None
    return Graph._from_columns(n, columns)


def _load_graph_whole(stream: IO[str]) -> Graph:
    """The exact loader: every edge list it accepts, and every message.
    Adjacency is kept only for the vertices the listed edges touch."""
    (n, vertices, edges), pairs = _read_edge_list(
        stream, "graph", ("n", "vertices", "edges")
    )
    # bit_length first: then 1 << n never outgrows the header's vertex count
    if n < 0 or vertices.bit_length() != n + 1 or vertices != 1 << n:
        raise ValueError(f"header claims {vertices} vertices for dim {n}")
    neighbors: defaultdict[int, list[int]] = defaultdict(list)
    # one shared int object per label, as in materialize; the columns keep them
    label: dict[int, int] = {}
    overfull: set[tuple[int, int]] = set()  # edges past the n-th entry of their row
    for u, v in pairs:
        if not (0 <= u < v < vertices):
            raise ValueError(f"edge ({u}, {v}) out of range or unordered")
        u, v = label.setdefault(u, u), label.setdefault(v, v)
        row = neighbors[u]
        if (v in row[:n] or (u, v) in overfull) if len(row) > n else v in row:
            raise ValueError(f"duplicate edge ({u}, {v})")
        if len(row) >= n:  # such a row fails the degree check; its scans stop at n
            overfull.add((u, v))
        row.append(v)
        neighbors[v].append(u)
    count = sum(map(len, neighbors.values())) // 2
    if count != edges:
        raise ValueError(f"header claims {edges} edges, found {count}")
    # the pairs were ordered, in range, distinct and entered at both ends, so
    # only degrees remain; with n >= 1 the first vertex no edge touches ends this
    for v in range(vertices):
        if len(neighbors[v]) != n:
            raise ValueError(f"vertex {v} has degree {len(neighbors[v])}, expected {n}")
    return Graph._from_columns(n, map(list, zip(*map(neighbors.get, range(vertices)))))


def load_graph(source: "str | Path | IO[str]") -> Graph:
    """Parse an edge-list document written by save_graph.

    A path is opened once.  A file that can seek and is in save_graph's own
    form is read in chunks straight into the neighbor columns; any other
    text, from the same open file read again from its start, and a stream
    handed in, a pipe or a FIFO, go through the exact loader, which gives
    every message.  Either way a header claiming a huge dimension costs no
    more than a constant times the document's size.
    """
    return _read_lean_or_whole(source, _load_columns, _load_graph_whole)
