import random

import pytest
from hypothesis import given, settings, strategies as st

from satedge.graph import (
    DEFAULT_VERTEX_CAP,
    build_graph,
    common_neighborhood,
    contains_clique,
    edges_between,
    enumerate_cliques,
    find_clique,
    format_edge_list,
    from_adjacency,
    graph6_decode,
    graph6_encode,
    induced_edges,
    mask_of,
    parse_edge_list,
)

from conftest import kpfree_graph_strategy, planted_twin_strategy


def random_graph_strategy(max_n=12):
    """Graphs as (n, edge subset) pairs drawn from the full pair list."""

    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(n, chosen)

    return graphs()


def test_build_and_degree(triangle):
    assert triangle.n == 3
    assert triangle.m == 3
    assert all(triangle.degree(v) == 2 for v in range(3))
    assert triangle.has_edge(0, 1) and triangle.has_edge(1, 0)


def test_build_rejects_bad_edges():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(1, 1)])
    with pytest.raises(ValueError):
        build_graph(DEFAULT_VERTEX_CAP + 1, [], cap=DEFAULT_VERTEX_CAP)


def test_edges_iterates_lexicographically(prism):
    es = list(prism.edges())
    assert es == sorted(es)
    assert len(es) == prism.m


def test_non_edges_complement(c5):
    non = set(c5.non_edges())
    assert len(non) == 5
    assert non.isdisjoint(set(c5.edges()))


def test_with_and_without_edge(c5):
    g = c5.with_edge(0, 2)
    assert g.m == 6 and g.has_edge(0, 2)
    assert not c5.has_edge(0, 2)  # original untouched
    h = g.without_edge(0, 2)
    assert h.m == 5 and not h.has_edge(0, 2)
    assert c5.with_edge(0, 1).adj == c5.adj  # adding an existing edge is a no-op
    with pytest.raises(ValueError):
        c5.without_edge(0, 2)
    with pytest.raises(ValueError):
        c5.with_edge(1, 1)


def test_from_adjacency_round_trip(prism):
    g = from_adjacency(prism.adj)
    assert g.adj == prism.adj
    with pytest.raises(ValueError):
        from_adjacency([0b10, 0b00])  # asymmetric
    with pytest.raises(ValueError):
        from_adjacency([0b01])  # loop


def test_clique_finding(prism, c5, k33):
    assert find_clique(prism, 3) == (0, 1, 2)
    assert find_clique(prism, 4) is None
    assert not contains_clique(c5, 3)
    assert contains_clique(k33, 2)
    assert not contains_clique(k33, 3)


def test_find_clique_trivial_sizes(c5):
    assert find_clique(c5, 1) == (0,)
    with pytest.raises(ValueError):
        find_clique(c5, 0)
    with pytest.raises(ValueError):
        c5.clique_in(c5.vertices_mask(), 0)


def test_enumerate_cliques_counts():
    k5 = build_graph(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
    triangles = list(enumerate_cliques(k5, 3))
    assert len(triangles) == 10
    assert triangles == sorted(triangles)
    assert all(t == tuple(sorted(t)) for t in triangles)


def test_twin_classes_on_blowup():
    # 0,1 see {2,3,4}; 2,3,4 all see exactly {0,1}: two false-twin classes
    g = build_graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)])
    classes = g.twin_classes()
    assert sorted(c.bit_count() for c in classes) == [2, 3]


def test_quotient_is_the_twin_class_spec(prism):
    g = build_graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)])
    q = g.quotient()
    assert q.sizes == (2, 3)
    assert q.base.adj == (0b10, 0b01)
    assert prism.quotient().base is prism  # twin-free: its own base
    assert prism.quotient().sizes == (1,) * 6


def test_common_neighborhood(k33):
    assert common_neighborhood(k33, mask_of([0, 1])) == mask_of([3, 4, 5])
    with pytest.raises(ValueError):
        common_neighborhood(k33, 0)


def test_edges_between_and_induced(prism):
    top = mask_of([0, 1, 2])
    bottom = mask_of([3, 4, 5])
    assert edges_between(prism, top, bottom) == 3
    assert induced_edges(prism, top) == 3
    assert induced_edges(prism, prism.vertices_mask()) == prism.m
    with pytest.raises(ValueError):
        edges_between(prism, top, top)


def test_graph6_known_values():
    c5 = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    assert graph6_encode(c5) == "Dhc"
    back = graph6_decode("Dhc")
    assert back.adj == c5.adj


@settings(max_examples=80, deadline=None)
@given(random_graph_strategy())
def test_graph6_matches_networkx(g):
    nx = pytest.importorskip("networkx")
    mine = graph6_encode(g)
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    theirs = nx.to_graph6_bytes(h, header=False).decode().strip()
    assert mine == theirs


@settings(max_examples=150, deadline=None)
@given(random_graph_strategy())
def test_graph6_round_trip(g):
    assert graph6_decode(graph6_encode(g)).adj == g.adj


@settings(max_examples=100, deadline=None)
@given(random_graph_strategy())
def test_edge_list_round_trip(g):
    assert parse_edge_list(format_edge_list(g)).adj == g.adj


def test_parse_edge_list_validates():
    with pytest.raises(ValueError):
        parse_edge_list("2 2\n0 1\n")  # header claims two edges, one given
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 1 2\n")  # malformed edge line
    with pytest.raises(ValueError):
        parse_edge_list("")


@settings(max_examples=60, deadline=None)
@given(random_graph_strategy(max_n=10), st.integers(min_value=1, max_value=5))
def test_find_clique_agrees_with_enumeration(g, k):
    witness = find_clique(g, k)
    enumerated = next(iter(enumerate_cliques(g, k)), None)
    assert (witness is None) == (enumerated is None)
    if witness is not None:
        members = mask_of(witness)
        assert members.bit_count() == k
        assert induced_edges(g, members) == k * (k - 1) // 2


def recursive_cliques(g, p, mask=None):
    """The recursive generator that enumerate_cliques replaced, kept as the
    reference: ordered expansion with a population-count prune."""
    adj = g.adj

    def rec(prefix, cand):
        need = p - len(prefix)
        if need == 0:
            yield prefix
            return
        while cand:
            if cand.bit_count() < need:
                return
            low = cand & -cand
            v = low.bit_length() - 1
            cand ^= low
            yield from rec(prefix + (v,), cand & adj[v])

    yield from rec((), g.vertices_mask() if mask is None else mask)


def recursive_clique_in(g, mask, k):
    """The recursive probe that Graph.clique_in replaced (k >= 1)."""
    adj = g.adj
    out = []

    def rec(cand, need):
        if need == 0:
            return True
        while cand:
            if cand.bit_count() < need:
                return False
            low = cand & -cand
            v = low.bit_length() - 1
            out.append(v)
            if rec(cand & adj[v], need - 1):
                return True
            out.pop()
            cand ^= low
        return False

    return tuple(out) if rec(g.twin_representatives(mask), k) else None


@settings(max_examples=150, deadline=None)
@given(st.one_of(kpfree_graph_strategy(), planted_twin_strategy()), st.integers(min_value=0, max_value=2**32 - 1))
def test_enumerate_cliques_matches_recursive_reference(graph_and_p, seed):
    g, _ = graph_and_p
    rng = random.Random(seed)
    masks = [None] + [rng.getrandbits(g.n) for _ in range(3)]
    for k in range(1, 6):
        for mask in masks:
            assert list(enumerate_cliques(g, k, mask)) == list(recursive_cliques(g, k, mask)), (g.adj, k, mask)
            probe = g.vertices_mask() if mask is None else mask
            assert g.clique_in(probe, k) == recursive_clique_in(g, probe, k), (g.adj, k, mask)
