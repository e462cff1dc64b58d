"""Closed-form extremal edge counts and component edge connectivity.

Write a vertex budget g in binary, g = sum(2^t_i) with strictly decreasing
exponents t_0 > t_1 > ... > t_s.  The densest g-vertex induced subgraph of
any dim-n matched-pair network then has exactly

    sum_i t_i * 2^(t_i - 1)  +  sum_i i * 2^t_i

edges, regardless of which network it is.  Cutting every edge that touches
such a subgraph splinters off its g vertices, and for g <= 2^ceil(n/2) with
n >= 8 the cut size n*g - e(g) is exactly the (g+1)-component edge
connectivity; outside that window it is still a valid upper bound because
the cut construction never needs the window.

run_property_suite sweeps the inequalities of e(g) that this rests on,
case by case in meaning but not in execution: superadditive row g0 = a and
merge row i = a both bound the differences D_a[j] = e(2a + j) - e(a + j)
from below, and one packed pass tests every such row with a few operations
on one integer that holds e(0..g_max) in fixed-width fields.  Only a row
that fails is expanded into lists to find its first failing case.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import eq, ge, gt, le, sub
from typing import Callable, Iterable, NamedTuple


def binary_decomposition(g: int) -> tuple[int, ...]:
    """Exponent list of the binary expansion of g, strictly decreasing.

    binary_decomposition(13) == (3, 2, 0) since 13 = 8 + 4 + 1.
    """
    if g < 1:
        raise ValueError(f"no binary decomposition for g={g}, need g >= 1")
    exponents = []
    remaining = g
    while remaining:
        t = remaining.bit_length() - 1
        exponents.append(t)
        remaining -= 1 << t
    return tuple(exponents)


def extremal_edge_count(g: int) -> int:
    """Maximum induced edge count over all g-vertex sets, e(0) = 0."""
    if g < 0:
        raise ValueError(f"vertex budget must be non-negative, got {g}")
    if g == 0:
        return 0
    total = 0
    for i, t in enumerate(binary_decomposition(g)):
        total += ((t << t) >> 1) + (i << t)
    return total


def extremal_edge_increment(i: int) -> int:
    """The step e(i+1) - e(i), counted as the set bits of i.

    Equals the number of terms in the binary expansion of i.  Counting them
    rather than subtracting keeps the step identity a testable fact instead
    of a tautology.
    """
    if i < 1:
        raise ValueError(f"increment defined for i >= 1, got {i}")
    return i.bit_count()


class ConnectivityBound(NamedTuple):
    """ng - e(g) together with whether the value is exact in this regime."""

    value: int
    proven: bool


def component_edge_connectivity(
    n: int, g: int, mode: str = "strict"
) -> ConnectivityBound:
    """The (g+1)-component edge connectivity value n*g - e(g).

    Strict mode enforces the exactness window (n >= 8 and g <= 2^ceil(n/2))
    and raises outside it.  Permissive mode evaluates the expression for any
    n >= 1 and 0 <= g < 2^n; the ``proven`` flag is False outside the
    window, where the value is only an upper bound from the explicit cut.
    """
    if mode not in ("strict", "permissive"):
        raise ValueError(f"mode must be 'strict' or 'permissive', got {mode!r}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= g < (1 << n):
        raise ValueError(f"g={g} out of range for dimension {n}")
    proven = g == 0 or (n >= 8 and g <= (1 << ((n + 1) // 2)))
    if mode == "strict" and not proven:
        raise ValueError(
            f"strict mode needs n >= 8 and g <= 2^ceil(n/2) "
            f"(= {1 << ((n + 1) // 2)} here); got n={n}, g={g}"
        )
    return ConnectivityBound(n * g - extremal_edge_count(g), proven)


# ---------------------------------------------------------------------------
# exhaustive property suite


@dataclass(frozen=True)
class PropertyCheck:
    """Result of sweeping one inequality over its configured range."""

    name: str
    cases: int
    passed: bool
    witness: str = ""
    lhs: "int | None" = None
    rhs: "int | None" = None


#: The most work run_property_suite takes on, in packed cases.  A case
#: tested from lists costs about 24 of them (130 ns against 5.3 ns on
#: 2 vCPU), so the work is about g_max^2/2 + 24*((slack_n_max +
#: monotone_n_max)*g_max + increment_max).  g_max = 65536 with the other
#: defaults weighs 2.29e9 and takes 11.5 s; the largest monotone_n_max the
#: limit admits with the defaults, about 25000, takes about 14 s.
SUITE_WORK_LIMIT = 2_500_000_000


def run_property_suite(
    g_max: int = 4096,
    slack_n_max: int = 24,
    increment_max: int = 65536,
    monotone_n_max: int = 64,
) -> list[PropertyCheck]:
    """Sweep every formula inequality exhaustively over its range.

    Pairwise checks run over all pairs summing to at most g_max; the step
    identity runs to increment_max; the degree-slack check covers dimensions
    up to slack_n_max and the monotonicity check up to monotone_n_max, each
    with the per-dimension g window capped at g_max.  Raises ValueError
    for ranges too small to give every check a case, and for ranges whose
    work exceeds SUITE_WORK_LIMIT, before any of it starts.
    """
    if g_max < 2 or increment_max < 1 or slack_n_max < 2 or monotone_n_max < 2:
        raise ValueError(
            "every check needs a case: g_max, slack_n_max and monotone_n_max must "
            f"be at least 2 and increment_max at least 1; got g_max={g_max}, "
            f"increment_max={increment_max}, slack_n_max={slack_n_max}, "
            f"monotone_n_max={monotone_n_max}"
        )
    work = g_max * g_max // 2 + 24 * (
        (slack_n_max + monotone_n_max) * g_max + increment_max
    )
    if work > SUITE_WORK_LIMIT:
        raise ValueError(
            f"suite ranges weigh {work} packed cases, over the limit "
            f"{SUITE_WORK_LIMIT}: g_max^2/2 + 24*((slack_n_max + monotone_n_max)"
            "*g_max + increment_max)"
        )
    table = [extremal_edge_count(g) for g in range(max(g_max, increment_max) + 2)]

    def slack_row(n: int) -> tuple:
        top = min(1 << (n - 2), g_max)
        lhs = [(n - 2) * g for g in range(1, top + 1)]
        return f"n={n}, g=", 1, top, (lhs, [2 * t for t in table[1 : top + 1]])

    def monotone_row(n: int) -> tuple:
        # value[g] = n*g - e(g); case g compares value[g + 1] with value[g]
        top = min((1 << ((n + 1) // 2)) - 1, g_max)
        value = [n * g - t for g, t in enumerate(table[: top + 2])]
        return f"n={n}, g=", 1, top, (value[2:], value[1:-1])

    # superadditive row g0 = a and merge row i = a both bound the differences
    # D_a[j] = e(2a + j) - e(a + j) from below, so one packed pass tests both
    floors = [(table[a] + a, table[a + 1]) for a in range(1, g_max // 2 + 1)]
    reached = _rows_reaching(table[: g_max + 1], floors)
    superadditive = (
        (f"g0={a}, g1=", a, g_max - 2 * a + 1, None if ok else (
            table[2 * a : g_max + 1],
            [table[a] + a + t for t in table[a : g_max - a + 1]]))
        for a, (ok, _) in enumerate(reached, 1)
    )
    merge = (
        (f"i={a}, j=", a, g_max - 2 * a + 1, None if ok else (
            [table[a + 1] + t for t in table[a : g_max - a + 1]],
            table[2 * a : g_max + 1]))
        for a, (_, ok) in enumerate(reached, 1)
    )
    increment = [("i=", 1, increment_max, (
        list(map(sub, table[2 : increment_max + 2], table[1 : increment_max + 1])),
        list(map(extremal_edge_increment, range(1, increment_max + 1))),
    ))]
    return [
        _sweep("superadditive", ge, superadditive),
        _sweep("merge", le, merge),
        _sweep("increment", eq, increment),
        _sweep("slack", ge, map(slack_row, range(2, slack_n_max + 1))),
        _sweep("monotone", gt, map(monotone_row, range(2, monotone_n_max + 1))),
    ]


def _sweep(
    name: str, holds: Callable[[int, int], bool], rows: Iterable[tuple]
) -> PropertyCheck:
    """Check holds(lhs[k], rhs[k]) row by row and stop at the first failure.

    Each row is (head, first, size, sides): a run of size cases, where case
    k has the witness f"({head}{first + k})".  sides holds the two sides of
    the run as aligned lists, or is None for a row already known to pass.
    """
    cases = 0
    for head, first, size, sides in rows:
        if sides is not None and not all(map(holds, *sides)):
            lhs, rhs = sides
            k = list(map(holds, lhs, rhs)).index(False)
            witness = f"({head}{first + k})"
            return PropertyCheck(name, cases + k + 1, False, witness, lhs[k], rhs[k])
        cases += size
    return PropertyCheck(name, cases, True)


def _rows_reaching(
    values: list[int], floors: list[tuple[int, ...]]
) -> list[tuple[bool, ...]]:
    """Whether row a of D_a[j] = values[2a + j] - values[a + j], for
    j = 0..len(values) - 1 - 2a, stays at or above each of floors[a - 1].

    values is packed once into one integer of equal byte-aligned fields,
    each offset to be non-negative.  Two shifts and one subtraction give a
    row's differences in every field at once; adding TOP - c to every field
    leaves its top bit set iff that field's difference is at least c.  The
    field width comes from the data: TOP exceeds every |x - y - c|, so no
    field carries into or borrows from its neighbour, whatever the values.
    The shifted operands keep fields above the row's last; those only
    change bits above the row, which the test masks off.
    """
    low = min(values)
    bound = max(values) - low + max(abs(c) for row in floors for c in row)
    size = (bound.bit_length() + 8) // 8  # bytes per field, so that TOP > bound
    width = 8 * size
    top = 1 << (width - 1)
    packed = int.from_bytes(
        b"".join((v - low).to_bytes(size, "little") for v in values), "little"
    )
    ones = int.from_bytes(b"\x01".ljust(size, b"\0") * len(values), "little")
    reached = []
    for a, row in enumerate(floors, 1):
        diff = (packed >> (2 * a * width)) - (packed >> (a * width))
        unit = ones >> (2 * a * width)  # 1 in each of the row's fields
        tops = unit << (width - 1)

        def reaches(c: int) -> bool:
            return ((top - c) * unit + diff) & tops == tops

        # a row that reaches its highest floor reaches them all
        ok = reaches(max(row))
        reached.append((True,) * len(row) if ok else tuple(map(reaches, row)))
    return reached
