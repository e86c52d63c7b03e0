import pytest

from satedge.constructions import h1
from satedge.graph import build_graph
from satedge.packing import max_packing, refine_packing


@pytest.fixture(scope="session")
def h1_310():
    """The smallest full-size construction: 66 vertices, extremal edge count."""
    return h1(3, 1, 0)


@pytest.fixture(scope="session")
def h1_310_packing(h1_310):
    return refine_packing(max_packing(h1_310.graph, 3))


@pytest.fixture(scope="session")
def deep_host():
    """1100 vertices, one triangle on the top labels: the search must drop
    1097 vertices one by one before it reaches the only clique."""
    return build_graph(1100, [(1097, 1098), (1097, 1099), (1098, 1099)])


@pytest.fixture
def triangle():
    return build_graph(3, [(0, 1), (0, 2), (1, 2)])


@pytest.fixture
def c5():
    return build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


@pytest.fixture
def prism():
    # two triangles joined by a perfect matching
    return build_graph(
        6,
        [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3), (1, 4), (2, 5)],
    )


@pytest.fixture
def k33():
    return build_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
