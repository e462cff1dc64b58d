"""Self-test of the benchmark at tiny sizes.

    python -m pytest perfbench -q

Runs every workload once at its tiny size (cut at n = 10; the roundtrip at
n = 8 followed by crossval at n = 3), untraced and through the traced
launcher, with all output checks.  Also checks that the output checks reject wrong
values and that a run without the package fails without a result.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from workloads import (
    WORKLOADS,
    check_cut_file,
    check_cut_report,
    check_oracle_clambda,
    check_oracle_eg,
    check_suite,
    e,
)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_e_small_values():
    assert [e(g) for g in range(1, 9)] == [0, 1, 2, 4, 5, 7, 9, 12]


def _write(path: Path, rows) -> Path:
    path.write_text(json.dumps(rows))
    return path


def test_cut_checks_reject_wrong_outputs(tmp_path):
    n, g = 10, 5
    good = {"n": n, "g": g, "formula_value": n * g - e(g),
            "construction_value": n * g - e(g), "oracle_value": None,
            "status": "ok;components=6;isolated=5"}
    assert check_cut_report(_write(tmp_path / "r.json", [good]), n, g) == []
    for bad in (
        {"construction_value": good["construction_value"] + 1},
        {"status": "size-mismatch;components=6;isolated=5"},
        {"status": "ok;components=5;isolated=5"},
        {"g": g + 1},
    ):
        assert check_cut_report(_write(tmp_path / "r.json", [{**good, **bad}]), n, g)
    assert check_cut_report(tmp_path / "missing.json", n, g)

    size = n * g - e(g)
    cut = tmp_path / "cut.edges"
    cut.write_text(f"# hl-cut n={n} g={g} size={size}\n" + "0 1\n" * size)
    assert check_cut_file(cut, n, g) == []
    cut.write_text(f"# hl-cut n={n} g={g} size={size}\n" + "0 1\n" * (size - 1))
    assert check_cut_file(cut, n, g)


def test_oracle_and_suite_checks_reject_wrong_outputs(tmp_path):
    n = 3
    eg = [{"n": n, "g": g, "oracle_value": e(g), "status": "ok"} for g in (1, 2, 3)]
    assert check_oracle_eg(_write(tmp_path / "eg.json", eg), n, 3) == []
    eg[2] = {**eg[2], "oracle_value": e(3) - 1}
    assert check_oracle_eg(_write(tmp_path / "eg.json", eg), n, 3)

    cl = [{"n": n, "g": 1, "formula_value": n, "oracle_value": n + 1, "status": "equal"}]
    assert check_oracle_clambda(_write(tmp_path / "cl.json", cl), n, 1)
    cl = [{"n": n, "g": 1, "formula_value": n, "oracle_value": n - 1, "status": "gap"}]
    assert check_oracle_clambda(_write(tmp_path / "cl.json", cl), n, 1) == []

    assert check_suite(_write(tmp_path / "s.json", [{"check": "a", "status": "pass"}])) == []
    assert check_suite(_write(tmp_path / "s.json", [{"check": "a", "status": "fail"}]))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload(name):
    plain = run.run_workload(name, seed=0, seconds=0, trace=False, tiny=True)
    assert plain["failures"] == []
    assert plain["attempted"] == 1
    for metric in SPEC["end_to_end"]:
        assert plain["metrics"][metric["name"]] > 0, metric["name"]

    traced = run.run_workload(name, seed=0, seconds=0, trace=True, tiny=True)
    assert traced["failures"] == []
    assert traced["attempted"] == 2
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared <= set(traced["known_metrics"])
    metrics = traced["metrics"]
    assert metrics["cli.main.calls"] == len(WORKLOADS[name].make(random.Random(0), True).commands)
    if name == "cut-cube18":
        assert metrics["recipes.materialize.calls"] == 2
        assert metrics["recipes.hypercube.calls"] == 1
        assert metrics["recipes.materialize.vertices"] == 2 << WORKLOADS[name].parts[0].tiny_n
    if name == "roundtrip-crossval":
        assert metrics["recipes.hypercube.calls"] == 0
        assert metrics["recipes.bytes_written"] == metrics["recipes.bytes_read"] > 0
        assert metrics["construction.bytes_written"] == metrics["construction.bytes_read"] > 0
        assert metrics["oracles.complete_ratio"] == 1.0
        assert metrics["formulas.suite_cases"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cut-cube18",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
