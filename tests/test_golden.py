"""Golden bytes: every subcommand's report in each format, and every file written.

The expected bytes live in ``tests/golden``: ``<case>.<format>`` holds the
report a case prints, and the other files there are the documents the
cases write (or, for ``verify``, read).  A change to the CLI or to the file
formats must leave all of them unchanged.
"""

from pathlib import Path

import pytest

from hlnet.cli import main

GOLDEN = Path(__file__).parent / "golden"

# {tmp} is a fresh directory per run; {golden} holds the expected files, so
# cut and verify read the documents that gen-files pins.
CASES = {
    "gen": "gen --n 3 --recipe random:seed=7",
    "gen-files": "gen --n 4 --recipe random:seed=7"
    " --recipe-out {tmp}/recipe.json --graph-out {tmp}/graph.edges",
    "eg": "eg --n 4 --g-max 8",
    "cut": "cut --recipe file:{golden}/recipe.json --g 3 --mode permissive"
    " --cut-out {tmp}/cut.edges",
    "verify": "verify --graph {golden}/graph.edges --cut {golden}/cut.edges",
    "oracle-eg": "oracle-eg --n 3 --recipe g84 --g-all",
    "oracle-clambda": "oracle-clambda --n 3 --recipe g84 --g 2"
    " --witness-out {tmp}/witness.txt",
    "suite": "suite --g-max 64 --n-max 8 --i-max 128 --n-max-mono 16",
}

WARNING = (
    "warning: outside the proven regime (need n >= 8 and g <= 2^ceil(n/2)); "
    "the value is an upper bound only\n"
)

SUBCOMMANDS = ["gen", "eg", "cut", "verify", "oracle-eg", "oracle-clambda", "suite"]


def run_case(case: str, fmt: str, tmp: Path, capsys) -> tuple[int, str, str]:
    argv = [t.format(tmp=tmp, golden=GOLDEN) for t in CASES[case].split()]
    code = main(argv + ["--format", fmt])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
@pytest.mark.parametrize("case", list(CASES))
def test_report_and_files_are_golden(case, fmt, tmp_path, capsys):
    code, out, err = run_case(case, fmt, tmp_path, capsys)
    assert code == 0
    assert err == (WARNING if case == "cut" else "")
    assert out == (GOLDEN / f"{case}.{fmt}").read_text()
    for written in tmp_path.iterdir():
        assert written.read_bytes() == (GOLDEN / written.name).read_bytes(), written.name


def test_cases_cover_every_subcommand_and_written_file():
    assert {c.split()[0] for c in CASES.values()} == set(SUBCOMMANDS)
    flags = " ".join(CASES.values())
    for flag in ("--recipe-out", "--graph-out", "--cut-out", "--witness-out"):
        assert flag in flags


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_help_exits_zero(command, capsys):
    assert main([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: hlnet {command}")
