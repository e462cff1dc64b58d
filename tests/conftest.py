import pytest

from hlnet import g84, hypercube, materialize


@pytest.fixture(scope="session")
def q3():
    return materialize(hypercube(3))


@pytest.fixture(scope="session")
def q4():
    return materialize(hypercube(4))


@pytest.fixture(scope="session")
def g84_graph():
    return materialize(g84())


def _deep_chain_doc(levels):
    doc = '{"dim": 0, "leaf": true}'
    for dim in range(1, levels + 1):
        doc = f'{{"dim": {dim}, "node": {{"left": {doc}}}}}'
    return doc


@pytest.fixture(
    params=[_deep_chain_doc(3000), "[" * 100000 + "]" * 100000],
    ids=["node-chain", "brackets"],
)
def deep_recipe_doc(request):
    """Recipe documents nested deeper than json.loads can recurse."""
    return request.param
