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
    """The step e(i+1) - e(i), computed from the decomposition of i.

    Equals the number of terms in the binary expansion of i.  Deriving it
    from the decomposition rather than by subtraction keeps the step
    identity a testable fact instead of a tautology.
    """
    if i < 1:
        raise ValueError(f"increment defined for i >= 1, got {i}")
    return len(binary_decomposition(i))


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
# machine-checkable inequalities for e(g)


def check_superadditive(g0: int, g1: int) -> bool:
    """True iff e(g0 + g1) >= e(g0) + e(g1) + g0, for 1 <= g0 <= g1."""
    if not 1 <= g0 <= g1:
        raise ValueError(f"need 1 <= g0 <= g1, got g0={g0}, g1={g1}")
    return extremal_edge_count(g0 + g1) >= (
        extremal_edge_count(g0) + extremal_edge_count(g1) + g0
    )


def check_slack(n: int, g: int) -> bool:
    """True iff (n - 2)*g - 2*e(g) >= 0, for 1 <= g <= 2^(n-2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= g <= (1 << (n - 2)):
        raise ValueError(f"g={g} out of range 1..2^(n-2) for n={n}")
    return (n - 2) * g - 2 * extremal_edge_count(g) >= 0


def check_merge(i: int, j: int) -> bool:
    """True iff e(i + 1) + e(j) <= e(i + j), for 1 <= i <= j."""
    if not 1 <= i <= j:
        raise ValueError(f"need 1 <= i <= j, got i={i}, j={j}")
    return extremal_edge_count(i + 1) + extremal_edge_count(j) <= extremal_edge_count(
        i + j
    )


def check_strict_increase(n: int, g: int) -> bool:
    """True iff n*(g+1) - e(g+1) > n*g - e(g), for 1 <= g < 2^ceil(n/2)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if not 1 <= g < (1 << ((n + 1) // 2)):
        raise ValueError(f"g={g} out of range 1..2^ceil(n/2)-1 for n={n}")
    return n * (g + 1) - extremal_edge_count(g + 1) > n * g - extremal_edge_count(g)


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
    for ranges too small to give every check a case.
    """
    if g_max < 2 or increment_max < 1 or slack_n_max < 2 or monotone_n_max < 2:
        raise ValueError(
            "every check needs a case: g_max, slack_n_max and monotone_n_max must "
            f"be at least 2 and increment_max at least 1; got g_max={g_max}, "
            f"increment_max={increment_max}, slack_n_max={slack_n_max}, "
            f"monotone_n_max={monotone_n_max}"
        )
    table = [extremal_edge_count(g) for g in range(max(g_max, increment_max) + 2)]

    def slack_row(n: int) -> tuple:
        top = min(1 << (n - 2), g_max)
        lhs = [(n - 2) * g for g in range(1, top + 1)]
        return f"n={n}, g=", 1, lhs, [2 * t for t in table[1 : top + 1]]

    def monotone_row(n: int) -> tuple:
        # value[g] = n*g - e(g); case g compares value[g + 1] with value[g]
        top = min((1 << ((n + 1) // 2)) - 1, g_max)
        value = [n * g - t for g, t in enumerate(table[: top + 2])]
        return f"n={n}, g=", 1, value[2:], value[1:-1]

    superadditive = (
        (f"g0={g0}, g1=", g0, table[2 * g0 : g_max + 1],
         [table[g0] + g0 + t for t in table[g0 : g_max - g0 + 1]])
        for g0 in range(1, g_max // 2 + 1)
    )
    merge = (
        (f"i={i}, j=", i, [table[i + 1] + t for t in table[i : g_max - i + 1]],
         table[2 * i : g_max + 1])
        for i in range(1, g_max // 2 + 1)
    )
    increment = [(
        "i=", 1, list(map(sub, table[2 : increment_max + 2], table[1 : increment_max + 1])),
        list(map(extremal_edge_increment, range(1, increment_max + 1))),
    )]
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

    Each row is (head, first, lhs, rhs): the two sides of a run of cases as
    aligned lists, where case k has the witness f"({head}{first + k})".
    """
    cases = 0
    for head, first, lhs, rhs in rows:
        if not all(map(holds, lhs, rhs)):
            k = list(map(holds, lhs, rhs)).index(False)
            witness = f"({head}{first + k})"
            return PropertyCheck(name, cases + k + 1, False, witness, lhs[k], rhs[k])
        cases += len(lhs)
    return PropertyCheck(name, cases, True)
