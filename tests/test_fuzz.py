"""Arbitrary text into the document loaders: each either returns a value or
raises ValueError (RecipeError for recipe documents), never anything else."""

import io
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hlnet import Recipe, RecipeError, load_cut, load_graph, loads_recipe

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
