"""Workloads of the hlnet CLI benchmark and the checks on their outputs.

An op is a short chain of ``hlnet`` commands, given as argument lists, plus
a check that reads the files the chain wrote.  The checks are independent
of the package: they recompute e(g) here and never import ``hlnet``.

Why these workloads:

* ``cut-cube18`` builds, cuts and verifies an n = 18 hypercube in memory.
  Materialization runs twice per op, the hypercube build runs its
  permutation checks, and no file is read or written.
* ``roundtrip-crossval`` chains two parts in one op.  The roundtrip writes
  a random n = 15 recipe and its edge list, cuts from the recipe file and
  verifies the saved cut against the saved graph: random recipes and the
  file I/O the first workload never touches.  The crossval part runs both
  brute-force oracles on a random n = 5 network and the property suite,
  which touch no large graph.  The two parts are one workload, not two,
  so that each run can be long: the speed of a shared host drifts over
  minutes, and short runs spread more than the bounds allow.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


def e(g: int) -> int:
    """Maximum induced edge count of g vertices, from the binary expansion of g."""
    total = 0
    i = 0
    for t in range(g.bit_length() - 1, -1, -1):
        if g >> t & 1:
            total += (t << t) // 2 + (i << t)
            i += 1
    return total


def window(n: int) -> int:
    """Largest g for which n*g - e(g) is proven exact: 2^ceil(n/2)."""
    return 1 << ((n + 1) // 2)


@dataclass(frozen=True)
class Op:
    """One closed-loop request: commands run in order, then ``check(workdir)``.

    ``check`` returns a list of problems; an empty list means the outputs
    are correct.
    """

    commands: tuple[tuple[str, ...], ...]
    check: Callable[[Path], list[str]]


@dataclass(frozen=True)
class Part:
    """An op generator and the n it runs at, full size and in the self-test."""

    make: Callable[[random.Random, int], Op]
    n: int
    tiny_n: int


@dataclass(frozen=True)
class Workload:
    """Each op runs one op of every part, in order, in one work directory."""

    name: str
    parts: tuple[Part, ...]

    def make(self, rng: random.Random, tiny: bool = False) -> Op:
        ops = [p.make(rng, p.tiny_n if tiny else p.n) for p in self.parts]
        return Op(
            tuple(c for op in ops for c in op.commands),
            lambda work: [problem for op in ops for problem in op.check(work)],
        )


# ---------------------------------------------------------------------------
# checks


def _rows(path: Path, problems: list[str]) -> list[dict]:
    try:
        rows = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable report ({exc})")
        return []
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        problems.append(f"{path.name}: report is not a list of rows")
        return []
    return rows


def check_cut_report(path: Path, n: int, g: int) -> list[str]:
    """A cut/verify row: both values equal n*g - e(g), status ok, g+1 components."""
    problems: list[str] = []
    rows = _rows(path, problems)
    if problems:
        return problems
    if len(rows) != 1:
        return [f"{path.name}: expected 1 row, got {len(rows)}"]
    row = rows[0]
    want = n * g - e(g)
    try:
        token, *fields = str(row["status"]).split(";")
        components = int(dict(f.split("=", 1) for f in fields)["components"])
        if (row["n"], row["g"]) != (n, g):
            problems.append(f"{path.name}: row is for n={row['n']} g={row['g']}")
        if not row["construction_value"] == row["formula_value"] == want:
            problems.append(
                f"{path.name}: construction {row['construction_value']}, "
                f"formula {row['formula_value']}, expected {want}"
            )
        if token != "ok":
            problems.append(f"{path.name}: status {row['status']!r}")
        if components < g + 1:
            problems.append(f"{path.name}: {components} components < g+1 = {g + 1}")
    except (KeyError, ValueError, TypeError) as exc:
        problems.append(f"{path.name}: malformed row ({exc!r})")
    return problems


def check_cut_file(path: Path, n: int, g: int) -> list[str]:
    """Header '# hl-cut n= g= size=n*g-e(g)' and that many edge lines."""
    want = n * g - e(g)
    try:
        lines = path.read_text().split("\n")
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    header = f"# hl-cut n={n} g={g} size={want}"
    if lines[0] != header:
        problems.append(f"{path.name}: header {lines[0]!r}, expected {header!r}")
    edges = sum(1 for ln in lines[1:] if ln.strip())
    if edges != want:
        problems.append(f"{path.name}: {edges} edge lines, expected {want}")
    return problems


def check_graph_file(path: Path, n: int) -> list[str]:
    """Header of an n-regular graph on 2^n vertices and one line per edge."""
    edges = n << (n - 1)
    try:
        data = path.read_bytes()
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    problems = []
    header = f"# hl-graph n={n} vertices={1 << n} edges={edges}".encode()
    if data.split(b"\n", 1)[0] != header:
        problems.append(f"{path.name}: unexpected header")
    found = data.count(b"\n") - 1
    if found != edges:
        problems.append(f"{path.name}: {found} edge lines, expected {edges}")
    return problems


def check_nonempty(path: Path) -> list[str]:
    try:
        if path.stat().st_size > 0:
            return []
    except OSError as exc:
        return [f"{path.name}: missing ({exc})"]
    return [f"{path.name}: empty"]


def check_oracle_eg(path: Path, n: int, g_max: int) -> list[str]:
    """One row per g = 1..g_max, each with oracle_value == e(g)."""
    problems: list[str] = []
    rows = _rows(path, problems)
    if problems:
        return problems
    if [r.get("g") for r in rows] != list(range(1, g_max + 1)):
        return [f"{path.name}: rows are not g = 1..{g_max}"]
    for row in rows:
        g = row["g"]
        if row.get("n") != n or row.get("oracle_value") != e(g) or row.get("status") != "ok":
            problems.append(
                f"{path.name}: g={g} oracle {row.get('oracle_value')} "
                f"status {row.get('status')!r}, expected {e(g)} ok"
            )
    return problems


def check_oracle_clambda(path: Path, n: int, g_max: int) -> list[str]:
    """One row per g = 1..g_max with oracle_value <= n*g - e(g), equal or gap."""
    problems: list[str] = []
    rows = _rows(path, problems)
    if problems:
        return problems
    if [r.get("g") for r in rows] != list(range(1, g_max + 1)):
        return [f"{path.name}: rows are not g = 1..{g_max}"]
    for row in rows:
        g = row["g"]
        bound = n * g - e(g)
        value = row.get("oracle_value")
        status = "equal" if value == bound else "gap"
        if (
            row.get("n") != n
            or not isinstance(value, int)
            or value > bound
            or row.get("formula_value") != bound
            or row.get("status") != status
        ):
            problems.append(
                f"{path.name}: g={g} oracle {value} status {row.get('status')!r}, "
                f"bound {bound}"
            )
    return problems


def check_suite(path: Path) -> list[str]:
    """Every property check passes."""
    problems: list[str] = []
    rows = _rows(path, problems)
    if problems:
        return problems
    if not rows:
        return [f"{path.name}: no checks"]
    return [
        f"{path.name}: check {row.get('check')!r} status {row.get('status')!r}"
        for row in rows
        if row.get("status") != "pass"
    ]


# ---------------------------------------------------------------------------
# op generators: every random choice comes from the workload's rng

JSON_OUT = ("--format", "json", "--out")


def cut_cube(rng: random.Random, n: int) -> Op:
    g = rng.randint(1, window(n))
    command = ("cut", "--n", str(n), "--recipe", "hypercube", "--g", str(g),
               "--mode", "strict", *JSON_OUT, "cut.json")
    return Op((command,), lambda work: check_cut_report(work / "cut.json", n, g))


def roundtrip_random(rng: random.Random, n: int) -> Op:
    seed = rng.randrange(1 << 31)
    g = rng.randint(1, window(n))
    commands = (
        ("gen", "--n", str(n), "--recipe", f"random:seed={seed}",
         "--recipe-out", "recipe.json", "--graph-out", "graph.edges"),
        ("cut", "--recipe", "file:recipe.json", "--g", str(g),
         "--cut-out", "cut.edges", *JSON_OUT, "cut.json"),
        ("verify", "--graph", "graph.edges", "--cut", "cut.edges",
         *JSON_OUT, "verify.json"),
    )

    def check(work: Path) -> list[str]:
        return (
            check_nonempty(work / "recipe.json")
            + check_graph_file(work / "graph.edges", n)
            + check_cut_report(work / "cut.json", n, g)
            + check_cut_file(work / "cut.edges", n, g)
            + check_cut_report(work / "verify.json", n, g)
        )

    return Op(commands, check)


ORACLE_EG_G_MAX = 8
ORACLE_CLAMBDA_G_MAX = 3


def crossval(rng: random.Random, n: int) -> Op:
    recipe = f"random:seed={rng.randrange(1 << 31)}"
    commands = (
        ("oracle-eg", "--n", str(n), "--recipe", recipe,
         "--g-max", str(ORACLE_EG_G_MAX), *JSON_OUT, "oracle-eg.json"),
        ("oracle-clambda", "--n", str(n), "--recipe", recipe,
         "--g-max", str(ORACLE_CLAMBDA_G_MAX), *JSON_OUT, "oracle-clambda.json"),
        ("suite", *JSON_OUT, "suite.json"),
    )

    def check(work: Path) -> list[str]:
        return (
            check_oracle_eg(work / "oracle-eg.json", n, ORACLE_EG_G_MAX)
            + check_oracle_clambda(work / "oracle-clambda.json", n, ORACLE_CLAMBDA_G_MAX)
            + check_suite(work / "suite.json")
        )

    return Op(commands, check)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("cut-cube18", (Part(cut_cube, 18, 10),)),
        Workload("roundtrip-crossval", (Part(roundtrip_random, 15, 8), Part(crossval, 5, 3))),
    )
}

#: The command timed for setup_s: a fresh process that imports every module.
SETUP_COMMAND = ("eg", "--g", "1", *JSON_OUT, "setup.json")


def check_setup(work: Path) -> list[str]:
    problems: list[str] = []
    rows = _rows(work / "setup.json", problems)
    if not problems and [(r.get("g"), r.get("formula_value")) for r in rows] != [(1, e(1))]:
        problems.append("setup.json: expected one row g=1 with e(1) = 0")
    return problems
