import argparse
import gc
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hlnet

from hlnet.cli import _build_parser, _cell_row, _exit_code, main
from hlnet.formulas import SUITE_WORK_LIMIT, extremal_edge_count
from hlnet.oracles import MinCutResult, PartitionWitness
from hlnet.recipes import RecipeError, _write_document, dumps_recipe, loads_recipe, random_hl
from hlnet.reports import CELL_COLUMNS, emit_report

from helpers import traced_peak


# --- report emission ----------------------------------------------------------


ROW = _cell_row(3, 2, 5, 5, None, "ok")


def test_emit_empty_csv_is_header_only():
    out = "".join(emit_report([], "csv"))
    assert out == "n,g,formula_value,construction_value,oracle_value,status,elapsed_ms\n"


@pytest.mark.parametrize(
    "fmt, out",
    [
        ("text", "n  g  formula_value  construction_value  oracle_value  status  elapsed_ms\n"),
        ("json", "[]\n"),
    ],
)
def test_emit_empty_report_is_its_header_or_no_rows(fmt, out):
    assert "".join(emit_report([], fmt)) == out


def test_emit_single_row_json_has_all_fields():
    data = json.loads("".join(emit_report([ROW], "json")))
    assert data == [
        {
            "n": 3,
            "g": 2,
            "formula_value": 5,
            "construction_value": 5,
            "oracle_value": None,
            "status": "ok",
            "elapsed_ms": 0,
        }
    ]


@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_emit_is_byte_stable(fmt):
    rows = [ROW, _cell_row(4, 7, 9, None, 9, "ok")]
    assert "".join(emit_report(rows, fmt)) == "".join(emit_report(rows, fmt))


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        emit_report([ROW], "xml")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_report_is_written_in_pieces(fmt):
    rows = [_cell_row(15, g, extremal_edge_count(g), None, None, "ok") for g in range(1 << 15)]
    with open(os.devnull, "w") as sink:
        peak = traced_peak(lambda: _write_document(sink, emit_report(rows, fmt)))
    assert peak < 1 << 20


def test_text_report_holds_no_copy_of_its_cells():
    rows = [_cell_row(15, g, extremal_edge_count(g), None, None, "ok") for g in range(1 << 15)]
    with open(os.devnull, "w") as sink:
        peak = traced_peak(lambda: _write_document(sink, emit_report(rows, "text")))
    assert peak < 1 << 20


def _text_layout_reference(rows):
    """The text layout as first written: every row's cells held, then the widths taken."""
    columns = list(rows[0]) if rows else list(CELL_COLUMNS)
    cells = [columns] + [[("-" if d[c] is None else str(d[c])) for c in columns] for d in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "".join(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n" for row in cells
    )


_SUITE_COLUMNS = ("check", "cases", "status", "witness", "lhs", "rhs")
_CELL_VALUES = st.one_of(
    st.none(),
    st.integers(-(10**20), 10**20),
    st.text(max_size=3),
    st.text(min_size=20, max_size=40),
)


@st.composite
def _report_rows(draw):
    columns = draw(st.sampled_from([CELL_COLUMNS, _SUITE_COLUMNS, ("x",)]))
    values = st.tuples(*[_CELL_VALUES] * len(columns))
    return [dict(zip(columns, row)) for row in draw(st.lists(values, max_size=6))]


@given(rows=_report_rows())
@settings(max_examples=300, deadline=None)
def test_text_layout_is_the_reference_layout(rows):
    assert "".join(emit_report(rows, "text")) == _text_layout_reference(rows)


# --- exit codes ---------------------------------------------------------------


def _row(status):
    return _cell_row(3, 2, None, None, None, status)


@pytest.mark.parametrize(
    "statuses, code",
    [
        ([], 0),
        (["ok"], 0),
        (["ok;components=3;isolated=2"], 0),
        (["equal", "gap"], 0),
        (["pass", "pass"], 0),
        (["fail"], 1),
        (["mismatch"], 1),
        (["size-mismatch;components=2;isolated=1"], 1),
        (["components-short;components=1;isolated=0"], 1),
        (["bound-violated"], 1),
        (["incomplete"], 3),
        (["ok", "incomplete", "equal"], 3),
        (["incomplete", "mismatch"], 1),
        (["bound-violated", "incomplete"], 1),
        (["incomplete", "components-short;components=1;isolated=0"], 1),
    ],
)
def test_exit_code_reads_the_status_token(statuses, code):
    assert _exit_code([_row(s) for s in statuses]) == code
    assert _exit_code([{"check": "x", "status": s} for s in statuses]) == code


# --- commands -----------------------------------------------------------------


def test_eg_command(capsys):
    assert main(["eg", "--g-max", "8", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("n,g,formula_value")
    assert lines[1] == "0,1,0,,,ok,0"
    assert lines[8] == "0,8,12,,,ok,0"


def test_gen_and_verify_round_trip(tmp_path, capsys):
    recipe_path = tmp_path / "r.json"
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    assert (
        main(
            [
                "gen",
                "--n",
                "4",
                "--recipe",
                "random:seed=7",
                "--recipe-out",
                str(recipe_path),
                "--graph-out",
                str(graph_path),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "cut",
                "--recipe",
                f"file:{recipe_path}",
                "--g",
                "3",
                "--mode",
                "permissive",
                "--cut-out",
                str(cut_path),
                "--format",
                "json",
            ]
        )
        == 0
    )
    row = json.loads(capsys.readouterr().out)[0]
    assert row["formula_value"] == row["construction_value"] == 4 * 3 - 2
    assert row["status"].startswith("ok;components=")

    assert (
        main(
            ["verify", "--graph", str(graph_path), "--cut", str(cut_path), "--format", "json"]
        )
        == 0
    )
    row = json.loads(capsys.readouterr().out)[0]
    assert row["construction_value"] == 10
    assert row["status"].split(";")[0] == "ok"


def test_verify_detects_mismatched_target(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    main(["gen", "--n", "3", "--graph-out", str(graph_path)])
    main(
        [
            "cut",
            "--n",
            "3",
            "--g",
            "2",
            "--mode",
            "permissive",
            "--cut-out",
            str(cut_path),
        ]
    )
    capsys.readouterr()
    # claim the cut was built for g=3: size check must fail, exit 1
    assert (
        main(["verify", "--graph", str(graph_path), "--cut", str(cut_path), "--g", "3"])
        == 1
    )
    assert "size-mismatch" in capsys.readouterr().out


def test_verify_reports_a_cut_of_the_right_size_that_leaves_too_few_components(
    tmp_path, capsys
):
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    main(["gen", "--n", "3", "--graph-out", str(graph_path)])
    # three parallel level-0 edges: 3*1 - e(1) = 3 edges, but Q3 stays connected
    cut_path.write_text("# hl-cut n=3 g=1 size=3\n0 1\n2 3\n4 5\n")
    argv = ["verify", "--graph", str(graph_path), "--cut", str(cut_path)]
    assert main(argv + ["--format", "csv"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "3,1,3,3,,components-short;components=1;isolated=0,0"


@pytest.fixture
def dim4_graph_and_cut(tmp_path, capsys):
    """An n = 4 edge list and the g = 3 cut of it, as verify arguments."""
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    main(["gen", "--n", "4", "--graph-out", str(graph_path)])
    main(["cut", "--n", "4", "--g", "3", "--mode", "permissive", "--cut-out", str(cut_path)])
    capsys.readouterr()
    return ["verify", "--graph", str(graph_path), "--cut", str(cut_path)]


@pytest.mark.parametrize(
    "header_g, argv, g",
    [
        ("3", ["--g", "16"], "16"),
        ("3", ["--g", "-1"], "-1"),
        ("3", ["--g", "100000"], "100000"),
        ("-3", [], "-3"),
    ],
    ids=["flag-2^n", "flag-negative", "flag-huge", "header-negative"],
)
def test_verify_rejects_g_outside_the_dimension(
    header_g, argv, g, dim4_graph_and_cut, capsys
):
    cut_path = dim4_graph_and_cut[-1]
    with open(cut_path) as fh:
        text = fh.read()
    with open(cut_path, "w") as fh:
        fh.write(text.replace(" g=3 ", f" g={header_g} ", 1))
    assert main(dim4_graph_and_cut + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: g={g} out of range for dimension 4\n"


def test_verify_g_zero_is_a_size_mismatch(dim4_graph_and_cut, capsys):
    assert main(dim4_graph_and_cut + ["--g", "0", "--format", "csv"]) == 1
    assert capsys.readouterr().out.splitlines()[1] == (
        "4,0,0,10,,size-mismatch;components=4;isolated=3,0"
    )


def test_verify_rejects_a_dimension_zero_graph(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    graph_path.write_text("# hl-graph n=0 vertices=1 edges=0\n")
    cut_path.write_text("# hl-cut n=0 g=0 size=0\n")
    assert main(["verify", "--graph", str(graph_path), "--cut", str(cut_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension must be >= 1, got 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["eg", "--n", "4", "--g-max", "8"],
        ["cut", "--n", "8", "--recipe", "random:seed=7", "--g", "16"],
        ["oracle-eg", "--n", "3", "--recipe", "g84", "--g-all"],
        ["oracle-clambda", "--n", "3", "--g-max", "2"],
        ["verify", "--graph", "{tmp}/g.edges", "--cut", "{tmp}/c.edges"],
    ],
)
def test_timing_only_fills_elapsed_ms(argv, tmp_path, capsys):
    main(["gen", "--n", "4", "--graph-out", str(tmp_path / "g.edges")])
    cut_out = str(tmp_path / "c.edges")
    main(["cut", "--n", "4", "--g", "3", "--mode", "permissive", "--cut-out", cut_out])
    capsys.readouterr()
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--format", "json"]
    assert main(argv) == 0
    untimed = json.loads(capsys.readouterr().out)
    assert main(argv + ["--timing"]) == 0
    timed = json.loads(capsys.readouterr().out)
    assert len(timed) == len(untimed) > 0
    for row, plain in zip(timed, untimed):
        elapsed = row.pop("elapsed_ms")
        assert type(elapsed) is int and elapsed >= 0
        assert plain.pop("elapsed_ms") == 0
        assert row == plain


@pytest.mark.parametrize(
    "argv",
    [
        ["gen", "--n", "3", "--recipe", "random:seed=4"],
        ["suite", "--g-max", "64", "--i-max", "128", "--format", "json"],
    ],
    ids=["gen", "suite"],
)
def test_timing_leaves_reports_without_elapsed_ms_alone(argv, capsys):
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--timing"]) == 0
    assert capsys.readouterr().out == plain != ""


def test_cut_strict_mode_rejects_small_dims(capsys):
    assert main(["cut", "--n", "3", "--g", "2"]) == 2
    assert "strict" in capsys.readouterr().err


def test_cut_dim8_boundary_of_window(capsys):
    assert (
        main(["cut", "--n", "8", "--recipe", "random:seed=7", "--g", "16", "--format", "csv"])
        == 0
    )
    out = capsys.readouterr().out.splitlines()
    assert out[1].startswith("8,16,96,96,,ok;components=17;isolated=16")


def test_oracle_eg_matches_formula(capsys):
    assert main(["oracle-eg", "--n", "3", "--recipe", "g84", "--g-all", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 9
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[2] == cells[4]
        assert cells[5] == "ok"


def test_oracle_eg_budget_exhaustion(capsys):
    code = main(
        ["oracle-eg", "--n", "4", "--g", "8", "--max-nodes", "2", "--format", "csv"]
    )
    assert code == 3
    assert "incomplete" in capsys.readouterr().out


@pytest.mark.parametrize(
    "budget, message",
    [
        (["--time-budget", "nan"], "time_budget must be non-negative, got nan"),
        (["--time-budget", "-1"], "time_budget must be non-negative, got -1.0"),
        (["--max-nodes", "-5"], "max_nodes_expanded must be non-negative, got -5"),
    ],
)
@pytest.mark.parametrize("command", ["oracle-eg", "oracle-clambda"])
def test_invalid_search_budget_is_a_usage_error(command, budget, message, capsys):
    assert main([command, "--n", "3", "--g", "2"] + budget) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "budget, code",
    [
        (["--time-budget", "inf"], 0),
        (["--time-budget", "0"], 3),
        (["--max-nodes", "0"], 3),
    ],
)
def test_zero_and_infinite_search_budgets_keep_their_meaning(budget, code):
    assert main(["oracle-eg", "--n", "3", "--g", "4"] + budget) == code


def test_oracle_clambda_reports_gap_or_equal(tmp_path, capsys):
    witness_path = tmp_path / "w.txt"
    code = main(
        [
            "oracle-clambda",
            "--n",
            "3",
            "--g",
            "2",
            "--witness-out",
            str(witness_path),
            "--format",
            "json",
        ]
    )
    assert code == 0
    row = json.loads(capsys.readouterr().out)[0]
    assert row["oracle_value"] <= row["formula_value"]
    assert row["status"] in ("equal", "gap")
    assert witness_path.read_text().startswith("# partition blocks=3")


def test_suite_small(capsys):
    assert main(["suite", "--g-max", "64", "--i-max", "128", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "check,cases,status,witness,lhs,rhs"
    assert len(lines) == 6
    assert all(",pass," in line for line in lines[1:])


def test_suite_reports_are_reproducible(tmp_path):
    for fmt in ("csv", "json"):
        paths = [tmp_path / f"suite-{fmt}-{i}.txt" for i in (1, 2)]
        for p in paths:
            assert (
                main(
                    [
                        "suite",
                        "--g-max",
                        "128",
                        "--i-max",
                        "256",
                        "--format",
                        fmt,
                        "--out",
                        str(p),
                    ]
                )
                == 0
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_usage_errors(capsys):
    assert main(["eg"]) == 2  # missing --g selector
    assert main(["cut", "--n", "3", "--g", "2", "--recipe", "nonsense"]) == 2
    assert main(["oracle-eg", "--n", "4", "--recipe", "g84", "--g", "1"]) == 2
    capsys.readouterr()


def test_verify_rejects_out_of_range_cut_edge(tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    main(["gen", "--n", "3", "--graph-out", str(graph_path)])
    cut_path.write_text("# hl-cut n=3 g=1 size=1\n5000 5001\n")
    capsys.readouterr()
    assert main(["verify", "--graph", str(graph_path), "--cut", str(cut_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: pair (5000, 5001) is not an edge of the graph\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-eg", "--n", "10", "--g", "5", "--max-nodes", "100000"],
        ["oracle-clambda", "--n", "10", "--g", "1", "--max-nodes", "1000"],
    ],
)
def test_oracle_rejects_graph_deeper_than_recursion_limit(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: graph has 1024 vertices, more than the ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle-eg", "--n", "20", "--g", "5"],
        ["oracle-eg", "--n", "10", "--g-all"],
        ["oracle-clambda", "--n", "18", "--g", "1"],
    ],
)
def test_oracle_depth_is_checked_before_the_graph_is_built(argv, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the graph is built before its depth is checked")

    monkeypatch.setattr("hlnet.cli.materialize", fail)
    assert main(argv) == 2
    captured = capsys.readouterr()
    vertices = 1 << int(argv[2])
    assert captured.out == ""
    assert captured.err.startswith(f"error: graph has {vertices} vertices, more than the ")
    assert captured.err.count("\n") == 1


def test_oracle_eg_taking_every_vertex_runs_no_search_at_any_depth(capsys):
    assert main(["oracle-eg", "--n", "10", "--g", "1024", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "10,1024,5120,,5120,ok,0"


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [(["eg", "--g-max", "3"], 0), (["eg", "--g", "-5"], 2), (["eg", "--bogus"], 2)],
)
def test_main_runs_without_the_collector_and_restores_the_callers_setting(
    enabled, argv, code, monkeypatch, capsys
):
    during = []
    monkeypatch.setattr(
        "hlnet.cli.extremal_edge_count", lambda g: during.append(gc.isenabled()) or 0
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert main(argv) == code
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([False] * 3 if code == 0 else [])
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [["eg"], ["oracle-eg", "--n", "3"]],
)
@pytest.mark.parametrize("g_max", ["0", "-1"])
def test_g_max_below_one_is_a_usage_error(argv, g_max, capsys):
    assert main(argv + ["--g-max", g_max]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: --g-max must be at least 1, got {g_max}\n"


def test_gen_writes_recipe_to_stdout(capsys):
    assert main(["gen", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dim"] == 2 and "node" in doc


def test_gen_writes_recipe_to_out_instead_of_stdout(tmp_path, capsys):
    main(["gen", "--n", "3", "--recipe", "random:seed=4"])
    stdout_doc = capsys.readouterr().out
    out = tmp_path / "x.txt"
    assert main(["gen", "--n", "3", "--recipe", "random:seed=4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout_doc


def test_gen_writes_out_alongside_the_graph(tmp_path, capsys):
    main(["gen", "--n", "3", "--recipe", "random:seed=4"])
    stdout_doc = capsys.readouterr().out
    out, graph = tmp_path / "o.json", tmp_path / "g.edges"
    argv = ["gen", "--n", "3", "--recipe", "random:seed=4", "--out", str(out)]
    assert main(argv + ["--graph-out", str(graph)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == stdout_doc
    assert graph.read_text().startswith("# hl-graph n=3 ")


def test_gen_takes_one_recipe_destination(tmp_path, capsys):
    out, recipe_out = tmp_path / "o.json", tmp_path / "r.json"
    # checked before the recipe is built, so the dimension guard does not speak
    argv = ["gen", "--n", "21", "--out", str(out), "--recipe-out", str(recipe_out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --out and --recipe-out both name the recipe document; give one\n"
    )
    assert not out.exists() and not recipe_out.exists()


def test_recipe_seed_forms_agree(capsys):
    # random:seed=S is the one way to give a seed, and random alone is seed 0
    main(["gen", "--n", "4", "--recipe", "random:seed=0"])
    inline = capsys.readouterr().out
    main(["gen", "--n", "4", "--recipe", "random"])
    assert capsys.readouterr().out == inline
    assert main(["gen", "--n", "4", "--recipe", "random", "--seed", "7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --seed 7" in captured.err


@pytest.mark.parametrize("seed", ["--5", "\u00b2", "", "-", "5x"])
def test_unparsable_recipe_seed_is_a_usage_error(seed, capsys):
    assert main(["gen", "--n", "2", "--recipe", f"random:seed={seed}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: cannot parse 'random:seed={seed}'; use random:seed=INT\n"
    )


def test_negative_recipe_seed_is_accepted(capsys):
    assert main(["gen", "--n", "2", "--recipe", "random:seed=-5"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 2


def test_suite_rejects_vacuous_ranges(capsys):
    argv = ["suite", "--g-max", "0", "--i-max", "0", "--n-max", "1", "--n-max-mono", "1"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: every check needs a case: g_max, slack_n_max and monotone_n_max "
        "must be at least 2 and increment_max at least 1; got g_max=0, "
        "increment_max=0, slack_n_max=1, monotone_n_max=1\n"
    )


def test_eg_rejects_negative_dimension(capsys):
    assert main(["eg", "--n", "-3", "--g", "1"]) == 2
    assert capsys.readouterr().err == "error: --n must be non-negative, got -3\n"


def test_eg_range_check_does_not_shift_by_a_huge_dimension(capsys):
    n = str(10**12)
    assert main(["eg", "--n", n, "--g", "5", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"{n},5,5,,,ok,0"
    assert main(["eg", "--n", "2", "--g", "5"]) == 2
    assert capsys.readouterr().err == "error: g=5 out of range for dimension 2\n"


@pytest.mark.parametrize(
    "header, message",
    [
        ("n=-1 vertices=0 edges=0", "header claims 0 vertices for dim -1"),
        ("n=40 vertices=1099511627776 edges=0", "vertex 0 has degree 0, expected 40"),
    ],
)
def test_verify_rejects_bad_graph_header(header, message, tmp_path, capsys):
    graph_path = tmp_path / "g.edges"
    cut_path = tmp_path / "c.edges"
    graph_path.write_text(f"# hl-graph {header}\n")
    cut_path.write_text("# hl-cut n=1 g=1 size=1\n0 1\n")
    assert main(["verify", "--graph", str(graph_path), "--cut", str(cut_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cut_rejects_recipe_document_with_an_integer_too_long_to_read(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"dim": ' + "9" * 5000 + "}")
    assert main(["cut", "--recipe", f"file:{path}", "--g", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: malformed recipe document: ")
    assert captured.err.count("\n") == 1


def test_recipe_file_above_the_dimension_guard_is_a_usage_error(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "r.json"
    main(["gen", "--n", "2", "--recipe-out", str(path)])
    monkeypatch.setattr("hlnet.recipes.MAX_DIM", 1)
    assert main(["oracle-eg", "--recipe", f"file:{path}", "--g", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: dimension 2 exceeds guard max_dim=1\n"


def test_cut_rejects_recipe_document_nested_too_deeply(deep_recipe_doc, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(deep_recipe_doc)
    assert main(["cut", "--recipe", f"file:{path}", "--g", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed recipe document: nested too deeply\n"


# A recipe document given as a pipe on /dev/stdin or as a FIFO is read once,
# whole: its fault is the one loads_recipe names, and a FIFO is never opened
# a second time (which would wait for a writer that never comes).

_GOOD_DOC = dumps_recipe(random_hl(3, 7))
_BAD_DOC = _GOOD_DOC.replace('"matching": [', '"matching": [9, ', 1)


def _hlnet_through(route, doc, tmp_path, *argv):
    """Run ``python -m hlnet ARGV --recipe file:...`` with doc handed over by route."""
    src = str(Path(hlnet.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    command = [sys.executable, "-m", "hlnet", *argv, "--recipe"]
    if route == "stdin":
        command.append("file:/dev/stdin")
        return subprocess.run(
            command, input=doc, capture_output=True, text=True, env=env, timeout=60
        )
    fifo = tmp_path / "recipe.fifo"
    os.mkfifo(fifo)
    # the writer's open waits for the run's; as a daemon it never holds up the tests
    threading.Thread(target=fifo.write_text, args=(doc,), daemon=True).start()
    command.append(f"file:{fifo}")
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=60)


_ROUTES = pytest.mark.skipif(
    not (hasattr(os, "mkfifo") and os.path.exists("/dev/stdin")),
    reason="needs FIFOs and /dev/stdin",
)


@_ROUTES
@pytest.mark.parametrize("route", ["stdin", "fifo"])
def test_bad_recipe_through_a_pipe_is_named_by_the_whole_read(route, tmp_path):
    with pytest.raises(RecipeError) as exc:
        loads_recipe(_BAD_DOC)
    done = _hlnet_through(route, _BAD_DOC, tmp_path, "cut", "--g", "1", "--mode", "permissive")
    assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {exc.value}\n")


@_ROUTES
@pytest.mark.parametrize("route", ["stdin", "fifo"])
def test_good_recipe_through_a_pipe_loads_as_its_file(route, tmp_path, capsys):
    # gen writes back the recipe it read, so equal output is an equal Recipe
    path = tmp_path / "r.json"
    path.write_text(_GOOD_DOC)
    assert main(["gen", "--recipe", f"file:{path}"]) == 0
    by_path = capsys.readouterr().out
    done = _hlnet_through(route, _GOOD_DOC, tmp_path, "gen")
    assert (done.returncode, done.stdout, done.stderr) == (0, by_path, "")
    assert by_path == _GOOD_DOC


@pytest.mark.parametrize("g", ["0", "-2"])
def test_oracle_clambda_single_g_below_one_is_a_usage_error(g, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the graph is built before g is checked")

    monkeypatch.setattr("hlnet.cli.materialize", fail)
    assert main(["oracle-clambda", "--n", "4", "--g", g]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: g={g} out of range for dimension 4\n"


def test_g_zero_keeps_its_meaning_outside_oracle_clambda(capsys):
    assert main(["eg", "--g", "0", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,0,0,,,ok,0"
    assert main(["oracle-eg", "--n", "3", "--g", "0"]) == 2
    assert capsys.readouterr().err == "error: g=0 out of range for dimension 3\n"


@pytest.mark.parametrize("n", ["21", "30", "40", str(10**6)])
def test_eg_g_all_above_the_dimension_guard_is_a_usage_error(n, capsys):
    assert main(["eg", "--n", n, "--g-all"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dimension {n} exceeds guard max_dim=20\n"


def test_eg_g_all_within_the_guard_still_tabulates(capsys):
    assert main(["eg", "--n", "4", "--g-all", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 16
    assert main(["eg", "--n", "40", "--g-max", "8", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "40,8,12,,,ok,0"



HUGE = str(10**12)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eg", "--g-max", HUGE], f"--g-max {HUGE} exceeds the guard 2^20 = 1048576"),
        (["eg", "--n", "40", "--g-max", HUGE],
         f"--g-max {HUGE} exceeds the guard 2^20 = 1048576"),
        (["eg", "--g-max", "1048577"], "--g-max 1048577 exceeds the guard 2^20 = 1048576"),
        (["oracle-eg", "--n", "3", "--g-max", HUGE],
         "g=9 out of range for dimension 3"),
        (["oracle-clambda", "--n", "3", "--g-max", HUGE],
         "g=8 out of range for dimension 3"),
        (["suite", "--g-max", HUGE], f"--g-max {HUGE} exceeds the guard 2^20 = 1048576"),
        (["suite", "--i-max", HUGE], f"--i-max {HUGE} exceeds the guard 2^20 = 1048576"),
        (["suite", "--n-max", HUGE], f"--n-max {HUGE} exceeds the guard 2^20 = 1048576"),
        (["suite", "--n-max-mono", HUGE],
         f"--n-max-mono {HUGE} exceeds the guard 2^20 = 1048576"),
        (["suite", "--g-max", "1048577"],
         "--g-max 1048577 exceeds the guard 2^20 = 1048576"),
    ],
    ids=[
        "eg", "eg-n40", "eg-above-guard", "oracle-eg", "oracle-clambda",
        "suite-g-max", "suite-i-max", "suite-n-max", "suite-n-max-mono",
        "suite-above-guard",
    ],
)
def test_g_max_too_large_is_one_usage_error_line(argv, message, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError("the property suite starts before its ranges are checked")

    monkeypatch.setattr("hlnet.cli.run_property_suite", fail)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


_OVER_THE_WORK_LIMIT = (
    "suite ranges weigh {} packed cases, over the limit 2500000000: "
    "g_max^2/2 + 24*((slack_n_max + monotone_n_max)*g_max + increment_max)"
)


@pytest.mark.parametrize(
    "flags, work",
    [
        (["--g-max", "1048576"], 549755813888 + 24 * (88 * 1048576 + 65536)),
        (["--n-max-mono", "1048576"], 8388608 + 24 * (1048600 * 4096 + 65536)),
        (["--n-max", "1048576"], 8388608 + 24 * (1048640 * 4096 + 65536)),
        (["--g-max", "65536", "--n-max", "512"], 2147483648 + 24 * (576 * 65536 + 65536)),
        (["--n-max-mono", "26000"], 8388608 + 24 * (26024 * 4096 + 65536)),
    ],
    ids=["g-max", "n-max-mono", "n-max", "g-max-and-n-max", "n-max-mono-26000"],
)
def test_suite_over_its_work_limit_is_one_usage_error_line(flags, work, monkeypatch, capsys):
    """Every flag within its own guard, but their work together over the
    limit: exit 2 with one line, before the table of e is built."""
    def fail(*args, **kwargs):
        raise AssertionError("the suite built its table before checking its work")

    monkeypatch.setattr("hlnet.formulas.extremal_edge_count", fail)
    assert main(["suite", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {_OVER_THE_WORK_LIMIT.format(work)}\n"


def test_suite_work_limit_admits_the_ci_run():
    """The limit sits above the work of `suite --g-max 65536` with the
    other defaults, which CI runs; the run itself is left to CI."""
    ci_work = 65536**2 // 2 + 24 * ((24 + 64) * 65536 + 65536)
    assert ci_work <= SUITE_WORK_LIMIT < 65536**2 // 2 + 24 * ((512 + 64) * 65536 + 65536)


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eg", "--g", "-5"], "g=-5 must be non-negative"),
        (["eg", "--n", "3", "--g", "-5"], "g=-5 out of range for dimension 3"),
    ],
    ids=["without-n", "with-n"],
)
def test_eg_negative_g_is_reported_as_g(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_eg_reads_n_zero_as_given(capsys):
    assert main(["eg", "--n", "0", "--g", "5"]) == 2
    assert capsys.readouterr().err == "error: g=5 out of range for dimension 0\n"
    for g in ("0", "1"):
        assert main(["eg", "--n", "0", "--g", g, "--format", "csv"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == f"0,{g},0,,,ok,0"


# command -> (argv before the g flags, dimension, lowest g, highest g or None);
# verify's argv and its n = 4 files come from the dim4_graph_and_cut fixture
G_DOMAINS = {
    "eg": (["eg", "--n", "3"], 3, 0, 8),
    "eg-without-n": (["eg"], None, 0, None),
    "cut": (["cut", "--n", "4", "--mode", "permissive"], 4, 1, 15),
    "verify": (None, 4, 0, 15),
    "oracle-eg": (["oracle-eg", "--n", "3"], 3, 1, 8),
    "oracle-clambda": (["oracle-clambda", "--n", "3"], 3, 1, 7),
}


@pytest.mark.parametrize("name", list(G_DOMAINS))
def test_g_outside_the_domain_exits_before_any_work(
    name, dim4_graph_and_cut, monkeypatch, capsys
):
    """One step past either end of the domain, through every flag that sets g,
    exits 2 with one line before a graph is built or loaded or a search runs;
    both ends themselves still reach the library and report."""
    prefix, n, lo, hi = G_DOMAINS[name]
    prefix = prefix or dim4_graph_and_cut
    cut_path = dim4_graph_and_cut[-1]
    with open(cut_path) as fh:
        cut_text = fh.read()
    has_g_max = name not in ("cut", "verify")

    def run(argv, header_g):
        with open(cut_path, "w") as fh:
            fh.write(cut_text.replace(" g=3 ", f" g={header_g} ", 1))
        return main(prefix + argv + ["--format", "csv"]), capsys.readouterr()

    def out_of_range(g):
        if n is None:
            return f"g={g} must be non-negative"
        return f"g={g} out of range for dimension {n}"

    # (argv, cut header g, expected error); header g 3 is the fixture's own
    inside = [(["--g", str(lo)], 3)]
    outside = [(["--g", str(lo - 1)], 3, out_of_range(lo - 1))]
    if has_g_max:
        outside.append(
            (["--g-max", str(lo - 1)], 3, f"--g-max must be at least 1, got {lo - 1}")
        )
    if hi is not None:
        inside.append((["--g", str(hi)], 3))
        outside.append((["--g", str(hi + 1)], 3, out_of_range(hi + 1)))
        if has_g_max:
            inside.append((["--g-max", str(hi)], 3))
            outside.append((["--g-max", str(hi + 1)], 3, out_of_range(hi + 1)))
    if name == "verify":
        inside += [([], lo), ([], hi)]
        outside += [([], lo - 1, out_of_range(lo - 1)), ([], hi + 1, out_of_range(hi + 1))]

    # both ends reach the library, which takes them and reports
    for argv, header_g in inside:
        code, captured = run(argv, header_g)
        assert code in (0, 1), (argv, header_g, captured.err)
        assert "error: " not in captured.err
        assert len(captured.out.splitlines()) >= 2

    def no_work(*args, **kwargs):
        raise AssertionError("work started before g was checked")

    for worker in ("materialize", "load_graph", "max_induced_edges", "min_component_edge_cut"):
        monkeypatch.setattr(f"hlnet.cli.{worker}", no_work)
    for argv, header_g, message in outside:
        code, captured = run(argv, header_g)
        assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n"), argv


# every integer flag of every subcommand, and what keeps it from sizing
# unbounded work: a guard, or the reason it needs none
GUARD = "_check_guard"
DIMENSION = "the dimension guard"
G_TABLE = "the g table"
SUITE_WORK = "SUITE_WORK_LIMIT on the work of all four together"
INT_FLAG_GUARDS = {
    ("eg", "--n"): f"{DIMENSION} with --g-all; otherwise it only bounds g, in {G_TABLE}",
    ("eg", "--g"): G_TABLE,
    ("eg", "--g-max"): GUARD,
    ("cut", "--g"): G_TABLE,
    ("verify", "--g"): G_TABLE,
    ("oracle-eg", "--g"): G_TABLE,
    ("oracle-eg", "--g-max"): G_TABLE,
    ("oracle-clambda", "--g"): G_TABLE,
    ("oracle-clambda", "--g-max"): G_TABLE,
    **{("suite", flag): f"{GUARD}, then {SUITE_WORK}"
       for flag in ("--g-max", "--n-max", "--i-max", "--n-max-mono")},
    **{
        (command, "--n"): DIMENSION
        for command in ("gen", "cut", "oracle-eg", "oracle-clambda")
    },
    **{
        (command, "--max-nodes"): "exempt: it is itself a search budget"
        for command in ("oracle-eg", "oracle-clambda")
    },
}


def test_every_integer_flag_has_a_guard_or_a_stated_exemption():
    sub = next(
        action
        for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    int_flags = {
        (command, flag)
        for command, parser in sub.choices.items()
        for action in parser._actions
        if action.type is int
        for flag in action.option_strings
    }
    assert int_flags == set(INT_FLAG_GUARDS)


@pytest.mark.parametrize(
    "n, g, row, code",
    [("8", "1", "8,1,8,,7,mismatch,0", 1), ("4", "2", "4,2,7,,6,gap,0", 0)],
    ids=["proven", "unproven"],
)
def test_oracle_clambda_below_the_bound_fails_only_where_it_is_proven(
    n, g, row, code, monkeypatch, capsys
):
    # a complete search one edge below n*g - e(g) refutes the theorem inside
    # the window (n >= 8, g <= 2^ceil(n/2)) and is only a gap outside it
    def one_below(graph, parts, limits):
        value = graph.n * (parts - 1) - extremal_edge_count(parts - 1) - 1
        return MinCutResult(value, PartitionWitness((), frozenset()), "complete")

    monkeypatch.setattr("hlnet.cli.min_component_edge_cut", one_below)
    assert main(["oracle-clambda", "--n", n, "--g", g, "--format", "csv"]) == code
    assert capsys.readouterr().out.splitlines()[1] == row
