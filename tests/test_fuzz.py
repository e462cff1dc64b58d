"""Arbitrary text into the document loaders: each either returns a value or
raises ValueError (RecipeError for recipe documents), never anything else.
Hostile but well-formed argv into the CLI: every run ends in exit code 0-3,
and a usage error prints exactly one error line."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlnet import Recipe, RecipeError, load_cut, load_graph, loads_recipe
from hlnet.cli import main

LONG = "1" * 5000  # more digits than int() reads by default

_SMALL = st.none() | st.booleans() | st.integers(-2, 3) | st.text(max_size=3)
_DIM = st.integers(0, 2) | _SMALL
# recipe-shaped objects with every field open to a wrong value
_RECIPES = st.recursive(
    st.fixed_dictionaries({"dim": _DIM}, optional={"leaf": st.just(True) | _SMALL}),
    lambda inner: st.fixed_dictionaries(
        {"dim": _DIM},
        optional={
            "node": st.fixed_dictionaries(
                {},
                optional={
                    "left": inner,
                    "right": inner,
                    "matching": st.lists(st.integers(0, 1) | _SMALL, max_size=2),
                },
            )
        },
    ),
    max_leaves=8,
)
_HEADERS = [
    "# hl-graph ",
    "# hl-graph n=1 vertices=2 edges=1\n",
    "# hl-graph n=2 vertices=4 edges=4\n",
    "# hl-cut ",
    "# hl-cut n=3 g=1 size=1\n",
    "# hl-cut n=2 g=1 size=2\n",
]
_EDGE_LISTS = st.builds(
    str.__add__,
    st.sampled_from(_HEADERS),
    st.text(alphabet="0123456789 -=#\nabdeghilnprstuvxz", max_size=120),
)


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200) | _RECIPES.map(json.dumps))
@example('{"dim": ' + LONG + "}")
@example(
    '{"dim": 1, "node": {"left": {"dim": 0, "leaf": true}, '
    '"right": {"dim": 0, "leaf": true}, "matching": [' + LONG + "]}}"
)
def test_loads_recipe_raises_only_recipe_errors(text):
    try:
        assert isinstance(loads_recipe(text), Recipe)
    except RecipeError:
        pass


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200) | _EDGE_LISTS)
@example(f"# hl-graph n={LONG} vertices=2 edges=1\n")
@example(f"# hl-cut n=3 g=1 size={LONG}\n")
@example(f"# hl-graph n=1 vertices=2 edges=1\n{LONG} 1\n")
@example(f"# hl-cut n=3 g=1 size=1\n0 {LONG}\n")
def test_edge_list_loaders_raise_only_value_errors(text):
    for loader in (load_graph, load_cut):
        try:
            loader(io.StringIO(text))
        except ValueError:
            pass


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Good, bad and mismatched input files, plus places to write to."""
    root = tmp_path_factory.mktemp("cli-fuzz")
    (root / "malformed").write_text('{"dim": 1, "node": ')
    (root / "deep").write_text("[" * 100000 + "]" * 100000)
    (root / "nonedge").write_text("# hl-cut n=3 g=1 size=1\n0 7\n")
    (root / "badgraph").write_text("# hl-graph n=3 vertices=8 edges=1\n0 1\n")
    (root / "dir").mkdir()
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        for argv in (
            ["gen", "--n", "3", "--recipe", "random:seed=2", "--recipe-out",
             str(root / "recipe"), "--graph-out", str(root / "graph3")],
            ["gen", "--n", "2", "--graph-out", str(root / "graph2")],
            ["cut", "--n", "3", "--g", "2", "--mode", "permissive",
             "--cut-out", str(root / "cut3")],
            ["cut", "--n", "2", "--g", "1", "--mode", "permissive",
             "--cut-out", str(root / "cut2")],
        ):
            assert main(argv) == 0
    return root


# argv strategies; an argument "@/name" is the file "name" of cli_files


def _optional(strategy):
    return st.just([]) | strategy


def _flag(name, values):
    return values.map(lambda v: [name, v])


def _cat(*parts):
    return st.tuples(*parts).map(lambda t: [arg for part in t for arg in part])


def _path(*names):
    return st.sampled_from([f"@/{name}" for name in names])


# each value in range, or not: --n above the guard, g <= 0 or above 2^n
_N = st.sampled_from(["-1", "0", "1", "2", "3", "4", "40", str(10**6)])
_G = st.integers(1, 7).map(str) | st.sampled_from(
    ["-1", "0", "16", "17", str(1 << 40), str(10**6)]
)
_G_MAX = st.integers(1, 7).map(str) | st.sampled_from(
    ["-1", "0", "20", str(10**12), str(2**63)]
)
_G_OR_G_MAX = _flag("--g", _G) | _flag("--g-max", _G_MAX)
_G_ARGS = _G_OR_G_MAX | st.just(["--g-all"])

_BAD_RECIPES = (
    st.sampled_from(["hypercube", "g84", "random", "random:sed=1", "nonsense", "file:"])
    | _path("missing", "malformed", "deep", "dir", "graph3").map("file:".__add__)
    | st.text(max_size=4).map("random:seed=".__add__)
)
_RECIPE_ARGS = (
    _cat(
        _flag("--recipe", st.sampled_from(
            ["hypercube", "random", "random:seed=5", "random:seed=-1"])),
        _flag("--n", st.sampled_from(["0", "1", "2", "3", "4"])),
    )
    | _cat(
        _flag("--recipe", st.just("g84") | _path("recipe").map("file:".__add__)),
        _optional(st.just(["--n", "3"])),
    )
    | _cat(
        _flag("--recipe", _BAD_RECIPES),
        _optional(_flag("--n", _N)),
    )
)
_LIMITS = _cat(
    _flag("--max-nodes", st.integers(-1, 5000).map(str)),
    _optional(_flag("--time-budget", st.sampled_from(["0.5", "inf", "-1", "0", "nan"]))),
)
_OUT = _path("out", "dir")
_EDGE_FILES = _path(
    "graph3", "graph2", "cut3", "cut2", "nonedge", "badgraph", "missing", "malformed", "dir"
)
_GRAPH_AND_CUT = (
    st.sampled_from([["@/graph3", "@/cut3"], ["@/graph2", "@/cut2"], ["@/graph3", "@/cut2"]])
    | st.lists(_EDGE_FILES, min_size=2, max_size=2)
).map(lambda files: ["--graph", files[0], "--cut", files[1]])

_ARGV = _cat(
    st.one_of(
        _cat(st.just(["gen"]), _RECIPE_ARGS,
             _optional(_flag("--recipe-out", _OUT)), _optional(_flag("--graph-out", _OUT))),
        _cat(st.just(["eg"]), _optional(_flag("--n", _N)), _G_ARGS),
        _cat(st.just(["cut"]), _RECIPE_ARGS, _flag("--g", _G),
             _optional(st.just(["--mode", "permissive"])),
             _optional(_flag("--cut-out", _OUT))),
        _cat(st.just(["verify"]), _GRAPH_AND_CUT, _optional(_flag("--g", _G))),
        _cat(st.just(["oracle-eg"]), _RECIPE_ARGS, _G_ARGS, _LIMITS),
        _cat(st.just(["oracle-clambda"]), _RECIPE_ARGS, _G_OR_G_MAX, _LIMITS,
             _optional(_flag("--witness-out", _OUT))),
        _cat(st.just(["suite"]),
             *(_flag(name, st.integers(-1, 64).map(str))
               for name in ("--g-max", "--n-max", "--i-max", "--n-max-mono"))),
    ),
    _optional(st.sampled_from([["--format", "csv"], ["--format", "json"]])),
    _optional(st.just(["--timing"])),
    _optional(_flag("--out", _OUT)),
)


@settings(max_examples=150, deadline=None)
@given(_ARGV)
@example(["eg", "--n", "40", "--g-all"])
@example(["eg", "--n", str(10**6), "--g-all"])
@example(["oracle-clambda", "--n", "3", "--g", "0", "--max-nodes", "5000"])
@example(["eg", "--g-max", str(10**12)])
@example(["oracle-eg", "--recipe", "hypercube", "--n", "3", "--g-max", str(10**12),
          "--max-nodes", "5000"])
@example(["oracle-clambda", "--recipe", "hypercube", "--n", "3", "--g-max", str(10**12),
          "--max-nodes", "5000"])
def test_main_ends_in_an_exit_code_and_one_error_line(cli_files, argv):
    argv = [arg.replace("@/", f"{cli_files}/") for arg in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        errors = [line for line in stderr.getvalue().splitlines()
                  if line.startswith("error: ")]
        assert len(errors) == 1, stderr.getvalue()
