import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlnet.formulas
from hlnet import (
    PropertyCheck,
    binary_decomposition,
    component_edge_connectivity,
    extremal_edge_count,
    extremal_edge_increment,
    run_property_suite,
)

from helpers import check_merge, check_slack, check_strict_increase, check_superadditive

# frozen from the brute-force searches in test_oracles / test_acceptance
EXTREMAL_VALUES = {0: 0, 1: 0, 2: 1, 3: 2, 4: 4, 5: 5, 6: 7, 7: 9, 8: 12, 16: 32}


# --- binary decomposition ---------------------------------------------------


def test_decomposition_examples():
    assert binary_decomposition(1) == (0,)
    assert binary_decomposition(13) == (3, 2, 0)


@pytest.mark.parametrize("k", range(20))
def test_decomposition_pure_power(k):
    assert binary_decomposition(1 << k) == (k,)


def test_decomposition_rejects_zero():
    with pytest.raises(ValueError):
        binary_decomposition(0)


@given(g=st.integers(1, 2**60))
def test_decomposition_reconstructs(g):
    exps = binary_decomposition(g)
    assert sum(1 << t for t in exps) == g
    assert list(exps) == sorted(exps, reverse=True)
    assert len(set(exps)) == len(exps)
    assert exps[0] == g.bit_length() - 1


# --- extremal edge count ----------------------------------------------------


@pytest.mark.parametrize("g,expected", sorted(EXTREMAL_VALUES.items()))
def test_extremal_known_values(g, expected):
    assert extremal_edge_count(g) == expected


@pytest.mark.parametrize("k", range(31))
def test_extremal_full_subnetwork(k):
    expected = k * (1 << (k - 1)) if k else 0
    assert extremal_edge_count(1 << k) == expected


@given(g=st.integers(1, 2**40))
def test_extremal_bounds(g):
    # 2*e(g) <= g*ceil(log2 g); the floor variant already fails at g=3
    value = extremal_edge_count(g)
    assert 0 <= 2 * value <= g * (g - 1).bit_length()


def test_increment_examples():
    assert extremal_edge_increment(7) == 3
    assert extremal_edge_count(8) - extremal_edge_count(7) == 3
    for k in range(1, 16):
        assert extremal_edge_increment(1 << k) == 1


@given(i=st.integers(1, 2**20))
def test_increment_matches_difference(i):
    assert extremal_edge_count(i + 1) - extremal_edge_count(i) == (
        extremal_edge_increment(i)
    )


@pytest.mark.parametrize("n", range(2, 17))
def test_increment_stays_below_dimension(n):
    # feeds the monotonicity of n*g - e(g)
    for i in range(1, (1 << ((n + 1) // 2)) + 1):
        assert extremal_edge_increment(i) < n


def test_extremal_complement_identity():
    # e(2^n - g) = n*2^(n-1) - n*g + e(g): in an n-regular network the other
    # 2^n - g vertices induce |E| - n*g + e(g) edges
    table = list(map(extremal_edge_count, range((1 << 16) + 1)))
    cases = 0
    for n in range(17):
        size = 1 << n
        expected = [(n << n >> 1) - n * g + e for g, e in enumerate(table[: size + 1])]
        assert table[size::-1] == expected, f"n={n}"
        cases += size + 1
    assert cases == 131_088


# --- component edge connectivity ---------------------------------------------


def test_connectivity_single_vertex_strict():
    assert component_edge_connectivity(8, 1, "strict") == (8, True)


def test_connectivity_boundary_strict():
    assert component_edge_connectivity(8, 16, "strict") == (96, True)


def test_connectivity_strict_rejects_beyond_window():
    with pytest.raises(ValueError, match="strict"):
        component_edge_connectivity(8, 17, "strict")
    with pytest.raises(ValueError, match="strict"):
        component_edge_connectivity(4, 2, "strict")


def test_connectivity_permissive_flags():
    value, proven = component_edge_connectivity(8, 17, "permissive")
    assert value == 8 * 17 - extremal_edge_count(17)
    assert not proven
    assert component_edge_connectivity(4, 2, "permissive") == (7, False)


def test_connectivity_zero_convention():
    assert component_edge_connectivity(8, 0, "strict") == (0, True)
    assert component_edge_connectivity(3, 0, "permissive") == (0, True)


def test_connectivity_domain():
    with pytest.raises(ValueError, match="out of range"):
        component_edge_connectivity(3, 8, "permissive")
    with pytest.raises(ValueError, match="mode"):
        component_edge_connectivity(8, 1, "loose")


# --- inequality checks --------------------------------------------------------


def test_superadditive_examples():
    assert check_superadditive(1, 1)
    assert check_superadditive(4, 4)  # equality: 12 >= 4 + 4 + 4
    assert check_superadditive(3, 5)
    with pytest.raises(ValueError):
        check_superadditive(5, 3)


def test_slack_examples():
    for n in range(3, 12):
        assert check_slack(n, 1 << (n - 2))
    assert check_slack(8, 7)  # 42 - 18 >= 0
    assert check_slack(10, 100)
    with pytest.raises(ValueError):
        check_slack(8, 65)


def test_merge_examples():
    assert check_merge(1, 1)
    assert check_merge(3, 4)  # 8 <= 9
    assert check_merge(7, 9)
    with pytest.raises(ValueError):
        check_merge(9, 7)


def test_strict_increase_examples():
    assert check_strict_increase(8, 4)  # 35 > 28
    assert check_strict_increase(2, 1)
    with pytest.raises(ValueError):
        check_strict_increase(8, 16)


@given(
    n=st.integers(2, 32),
    data=st.data(),
)
def test_strict_increase_holds_in_window(n, data):
    g = data.draw(st.integers(1, (1 << ((n + 1) // 2)) - 1))
    assert check_strict_increase(n, g)


@given(g0=st.integers(1, 1024), g1=st.integers(1, 1024))
def test_superadditive_holds(g0, g1):
    lo, hi = sorted((g0, g1))
    assert check_superadditive(lo, hi)


# --- property suite -----------------------------------------------------------


def test_property_suite_small_ranges_pass():
    checks = run_property_suite(
        g_max=256, slack_n_max=10, increment_max=512, monotone_n_max=16
    )
    assert [c.name for c in checks] == [
        "superadditive",
        "merge",
        "increment",
        "slack",
        "monotone",
    ]
    for c in checks:
        assert c.passed, (c.name, c.witness, c.lhs, c.rhs)
        assert c.cases > 0


def test_property_suite_smallest_ranges_give_every_check_a_case():
    checks = run_property_suite(
        g_max=2, slack_n_max=2, increment_max=1, monotone_n_max=2
    )
    assert [c.cases for c in checks] == [1, 1, 1, 1, 1]
    assert all(c.passed for c in checks)


@pytest.mark.parametrize(
    "ranges",
    [
        {"g_max": 1},
        {"g_max": 0},
        {"increment_max": 0},
        {"slack_n_max": 1},
        {"monotone_n_max": 1},
        {"g_max": 0, "increment_max": 0, "slack_n_max": 1, "monotone_n_max": 1},
    ],
)
def test_property_suite_rejects_ranges_with_an_empty_check(ranges):
    full = {"g_max": 2, "slack_n_max": 2, "increment_max": 1, "monotone_n_max": 2}
    with pytest.raises(ValueError, match="^every check needs a case: "):
        run_property_suite(**{**full, **ranges})


def test_property_suite_rejects_ranges_over_its_work_limit():
    with pytest.raises(ValueError, match="^suite ranges weigh 551971979264 packed cases"):
        run_property_suite(g_max=1 << 20)
    # the empty-check rule comes first
    with pytest.raises(ValueError, match="^every check needs a case: "):
        run_property_suite(g_max=1 << 20, slack_n_max=1)


# The suite's failure path.  Each case moves e(g) by delta for start <= g <
# stop, which makes the named check fail first in the given row (first
# coordinate of the witness) of these ranges; the expected results come from
# a plain loop over the public predicates, which read the moved e as well.
FAILURE_RANGES = {"g_max": 17, "slack_n_max": 6, "increment_max": 16, "monotone_n_max": 9}


def _reference_suite(g_max, slack_n_max, increment_max, monotone_n_max):
    e = hlnet.formulas.extremal_edge_count

    def sweep(name, cases):
        count = 0
        for witness, ok, lhs, rhs in cases:
            count += 1
            if not ok:
                return PropertyCheck(name, count, False, witness, lhs, rhs)
        return PropertyCheck(name, count, True)

    superadditive = (
        (f"(g0={a}, g1={b})", check_superadditive(a, b), e(a + b), e(a) + e(b) + a)
        for a in range(1, g_max // 2 + 1)
        for b in range(a, g_max - a + 1)
    )
    merge = (
        (f"(i={i}, j={j})", check_merge(i, j), e(i + 1) + e(j), e(i + j))
        for i in range(1, g_max // 2 + 1)
        for j in range(i, g_max - i + 1)
    )
    increment = (
        (f"(i={i})", e(i + 1) - e(i) == extremal_edge_increment(i),
         e(i + 1) - e(i), extremal_edge_increment(i))
        for i in range(1, increment_max + 1)
    )
    slack = (
        (f"(n={n}, g={g})", check_slack(n, g), (n - 2) * g, 2 * e(g))
        for n in range(2, slack_n_max + 1)
        for g in range(1, min(1 << (n - 2), g_max) + 1)
    )
    monotone = (
        (f"(n={n}, g={g})", check_strict_increase(n, g),
         n * (g + 1) - e(g + 1), n * g - e(g))
        for n in range(2, monotone_n_max + 1)
        for g in range(1, min((1 << ((n + 1) // 2)) - 1, g_max) + 1)
    )
    return [
        sweep("superadditive", superadditive),
        sweep("merge", merge),
        sweep("increment", increment),
        sweep("slack", slack),
        sweep("monotone", monotone),
    ]


@pytest.mark.parametrize(
    "name, row, start, stop, delta",
    [
        ("superadditive", 1, 1, 2, 1),
        ("superadditive", 2, 3, 4, 1),
        ("superadditive", 8, 9, 10, 1),
        ("merge", 1, 1, 2, 1),
        ("merge", 2, 3, 4, 1),
        ("merge", 8, 9, 18, 8),
        # increment is one row; these are its first, a middle and its last case
        ("increment", 1, 1, 2, 1),
        ("increment", 8, 9, 10, 1),
        ("increment", 16, 17, 18, 1),
        ("slack", 2, 1, 2, 1),
        ("slack", 3, 2, 3, 1),
        ("slack", 6, 16, 17, 1),
        ("monotone", 2, 1, 2, -1),
        ("monotone", 3, 3, 4, -1),
        ("monotone", 9, 16, 17, -8),
    ],
)
def test_property_suite_reports_the_first_failure(name, row, start, stop, delta, monkeypatch):
    def moved(g, e=extremal_edge_count):
        return e(g) + (delta if start <= g < stop else 0)

    monkeypatch.setattr(hlnet.formulas, "extremal_edge_count", moved)
    expected = _reference_suite(**FAILURE_RANGES)
    failed = next(c for c in expected if c.name == name)
    assert not failed.passed
    assert int(re.match(r"\(\w+=(\d+)", failed.witness)[1]) == row
    assert run_property_suite(**FAILURE_RANGES) == expected


# --- the packed row test against the case-by-case reference ------------------


def _moved_suites(monkeypatch, moves, ranges=FAILURE_RANGES):
    """The suite and its reference, with e(g) moved by moves.get(g, 0)."""

    def moved(g, e=extremal_edge_count):
        return e(g) + moves.get(g, 0)

    monkeypatch.setattr(hlnet.formulas, "extremal_edge_count", moved)
    return run_property_suite(**ranges), _reference_suite(**ranges)


@pytest.mark.parametrize("g_max", [17, 33, 65])
def test_packed_sweep_finds_a_failure_in_a_rows_last_case(g_max, monkeypatch):
    # e(g_max) enters only the last case of each row, never a row's floor
    got, expected = _moved_suites(monkeypatch, {g_max: -1}, {**FAILURE_RANGES, "g_max": g_max})
    assert got == expected
    for check in expected[:2]:
        assert not check.passed
        assert sum(map(int, re.findall(r"=(\d+)", check.witness))) == g_max


@pytest.mark.parametrize("delta", [-(1 << 40), -1, 1, 1 << 40])
def test_moves_above_g_max_leave_superadditive_and_merge_alone(delta, monkeypatch):
    got, expected = _moved_suites(monkeypatch, {FAILURE_RANGES["g_max"] + 1: delta})
    assert got == expected
    assert got[0].passed and got[1].passed


@pytest.mark.parametrize("g", [0, 1, 2, 5, 8, 9, 16, 17])
@pytest.mark.parametrize("delta", [-(1 << 40), 1 << 40])
def test_packed_sweep_matches_the_reference_under_huge_moves(g, delta, monkeypatch):
    # a field as wide as the unmoved values needs would borrow across fields
    got, expected = _moved_suites(monkeypatch, {g: delta})
    assert got == expected


@settings(max_examples=150, deadline=None)
@given(
    g_max=st.integers(2, 40),
    moves=st.dictionaries(
        st.integers(0, 42),
        st.one_of(st.integers(-3, 3), st.integers(-(1 << 45), 1 << 45)),
        max_size=3,
    ),
)
def test_packed_sweep_matches_the_reference_on_random_moves(g_max, moves):
    with pytest.MonkeyPatch.context() as monkeypatch:
        got, expected = _moved_suites(monkeypatch, moves, {**FAILURE_RANGES, "g_max": g_max})
    assert got == expected
