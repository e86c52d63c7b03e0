import pytest
from hypothesis import strategies as st

from satedge.constructions import h1
from satedge.graph import build_graph, contains_clique
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
    """1100 vertices, one triangle on the top labels: the greedy packing
    drops 1097 vertices one by one before it reaches the only clique, the
    packing walk drops them as one twin class."""
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


def kpfree_graph_strategy(max_n=12, p_range=(3, 5)):
    @st.composite
    def graphs(draw):
        p = draw(st.integers(min_value=p_range[0], max_value=p_range[1]))
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = build_graph(n, [])
        for u, v in chosen:
            cand = g.with_edge(u, v)
            if not contains_clique(cand, p):
                g = cand
        return g, p

    return graphs()


def planted_twin_strategy(max_base=6):
    """A K_p-free base graph with each vertex copied 1..4 times into an
    independent set of false twins, the copies' labels shuffled."""

    @st.composite
    def graphs(draw):
        base, p = draw(kpfree_graph_strategy(max_n=max_base))
        copies = [b for b in range(base.n) for _ in range(draw(st.integers(min_value=1, max_value=4)))]
        owner = draw(st.permutations(copies))
        n = len(owner)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if base.has_edge(owner[u], owner[v])]
        return build_graph(n, edges), p

    return graphs()
