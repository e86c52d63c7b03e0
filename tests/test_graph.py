import random

import pytest
from hypothesis import given, settings, strategies as st

from satedge.constructions import h1
from satedge.graph import (
    DEFAULT_VERTEX_CAP,
    Graph,
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


def class_walk_twin_representatives(g, mask):
    """twin_representatives as it was before it walked the mask: every twin
    class of the graph visited on every call."""
    classes = g.twin_classes()
    if len(classes) == g.n:
        return mask
    out = 0
    for cls in classes:
        hit = cls & mask
        if hit:
            out |= hit & -hit
    return out


def test_twin_representatives_match_the_class_walk():
    rng = random.Random(7)
    twinned = 0
    for _ in range(400):
        k = rng.randint(1, 10)
        density = rng.random()
        base = build_graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < density])
        # each base vertex copied 1..4 times into false twins, labels shuffled
        owner = [b for b in range(k) for _ in range(rng.randint(1, 4))]
        rng.shuffle(owner)
        n = len(owner)
        g = build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if base.has_edge(owner[u], owner[v])])
        twinned += len(g.twin_classes()) < n
        for mask in [0, g.vertices_mask()] + [rng.getrandbits(n) for _ in range(20)]:
            reps = g.twin_representatives(mask)
            assert reps == class_walk_twin_representatives(g, mask), (g.adj, mask)
    assert twinned > 300


def test_quotient_is_the_twin_class_spec(prism):
    g = build_graph(5, [(0, 2), (0, 3), (1, 2), (1, 3), (0, 4), (1, 4)])
    q = g.quotient()
    assert q.sizes == (2, 3)
    assert q.base.adj == (0b10, 0b01)
    assert prism.quotient().base is prism  # twin-free: its own base
    assert prism.quotient().sizes == (1,) * 6


def test_quotient_is_cached_and_equals_a_fresh_build(prism):
    # a fresh Graph on the same rows holds no cache, so its quotient is
    # built anew; a twin-free graph's quotient, its own base, is not cached
    rng = random.Random(11)
    hosts = [h1(3, 1, 0).graph, h1(4, 1, 0).graph, prism]
    for _ in range(200):
        k = rng.randint(1, 8)
        base = build_graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < 0.5])
        owner = [b for b in range(k) for _ in range(rng.randint(1, 3))]
        rng.shuffle(owner)
        n = len(owner)
        hosts.append(build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if base.has_edge(owner[u], owner[v])]))
    cached = 0
    for g in hosts:
        q = g.quotient()
        assert q == Graph(g.n, g.adj).quotient(), g.adj
        if len(g.twin_classes()) < g.n:
            assert g.quotient() is q
            cached += 1
        else:
            assert q.base is g and g.quotient() is not q
    assert cached > 100


def test_packing_record_lives_on_the_object(prism):
    # one record per p, empty until filled, and never shared with an equal
    # graph built anew
    record = prism.packing_record(3)
    assert (record.cliques, record.nu) == (None, None)
    assert prism.packing_record(3) is record
    assert prism.packing_record(4) is not record
    record.nu = 2
    twin = Graph(prism.n, prism.adj)
    assert twin == prism
    assert twin.packing_record(3).nu is None


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


def per_bit_graph6_encode(g):
    """The per-bit encoder that graph6_encode replaced, kept as the reference."""
    n = g.n
    if n < 63:
        head = chr(n + 63)
    elif n <= 258047:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for supported graph6 forms")
    chunks, acc, nbits = [], 0, 0
    for col in range(1, n):
        for row in range(col):
            acc = (acc << 1) | (g.adj[col] >> row & 1)
            nbits += 1
            if nbits == 6:
                chunks.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        chunks.append(chr((acc << (6 - nbits)) + 63))
    return head + "".join(chunks)


def per_bit_graph6_decode(text, cap=DEFAULT_VERTEX_CAP):
    """The per-bit decoder that graph6_decode replaced, kept as the reference
    with its error messages."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(c) - 63 for c in s]
    if any(d < 0 or d > 63 for d in data):
        raise ValueError("malformed graph6: byte out of printable range")
    if data[0] == 63:
        if len(data) >= 2 and data[1] == 63:
            raise ValueError("graph6 8-byte order form not supported")
        if len(data) < 4:
            raise ValueError("malformed graph6: truncated long-form order")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    else:
        n = data[0]
        body = data[1:]
    if n > cap:
        raise ValueError(f"graph6 order {n} exceeds cap {cap}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("malformed graph6: wrong body length")
    adj = [0] * n
    idx = 0
    for col in range(1, n):
        for row in range(col):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                adj[row] |= 1 << col
                adj[col] |= 1 << row
            idx += 1
    while idx < 6 * len(body):
        if body[idx // 6] >> (5 - idx % 6) & 1:
            raise ValueError("malformed graph6: nonzero padding")
        idx += 1
    return tuple(adj)


def seeded_graphs(orders, seed):
    """One random graph per order, each with its own edge density."""
    rng = random.Random(seed)
    for n in orders:
        density = rng.random()
        yield build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])


def networkx_graph6(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.to_graph6_bytes(h, header=False).decode().strip()


# the long form starts at n = 63; 62 is the last short-form order
LONG_FORM_ORDERS = [0, 1, 62] + list(range(63, 131))


def test_graph6_matches_networkx_in_the_long_form():
    nx = pytest.importorskip("networkx")
    for g in seeded_graphs(LONG_FORM_ORDERS, seed=63):
        text = graph6_encode(g)
        assert text == networkx_graph6(g), g.n
        assert text.startswith("~") == (g.n >= 63)
        h = nx.from_graph6_bytes(text.encode())
        assert sorted(tuple(sorted(e)) for e in h.edges()) == list(g.edges())
        assert graph6_decode(text).adj == g.adj


@pytest.mark.parametrize("y", range(4))
def test_graph6_matches_networkx_on_h1_hosts(y):
    g = h1(4, 1, y).graph  # n = 336 + y
    text = graph6_encode(g)
    assert text == networkx_graph6(g)
    assert graph6_decode(text).adj == g.adj


@settings(max_examples=150, deadline=None)
@given(random_graph_strategy())
def test_graph6_matches_per_bit_reference(g):
    text = graph6_encode(g)
    assert text == per_bit_graph6_encode(g)
    assert graph6_decode(text).adj == per_bit_graph6_decode(text) == g.adj


def test_graph6_matches_per_bit_reference_up_to_130():
    for g in seeded_graphs(range(131), seed=130):
        text = graph6_encode(g)
        assert text == per_bit_graph6_encode(g), g.n
        assert graph6_decode(text).adj == per_bit_graph6_decode(text) == g.adj, g.n


# surrounding space, the optional header, and the long form used for n < 63
@pytest.mark.parametrize("text", ["  Dhc\n", ">>graph6<<Dhc", "~???", "~??@", "~??Dhc"])
def test_graph6_unusual_but_valid_inputs_match_per_bit_reference(text):
    assert graph6_decode(text).adj == per_bit_graph6_decode(text)


@pytest.mark.parametrize(
    "text,cap,message",
    [
        ("", DEFAULT_VERTEX_CAP, "empty graph6 string"),
        (">>graph6<<", DEFAULT_VERTEX_CAP, "empty graph6 string"),
        ("Dh c", DEFAULT_VERTEX_CAP, "malformed graph6: byte out of printable range"),
        ("Dh\x7f", DEFAULT_VERTEX_CAP, "malformed graph6: byte out of printable range"),
        ("Dh\u00e9", DEFAULT_VERTEX_CAP, "malformed graph6: byte out of printable range"),
        ("Dh\ud800", DEFAULT_VERTEX_CAP, "malformed graph6: byte out of printable range"),
        ("~~??????", DEFAULT_VERTEX_CAP, "graph6 8-byte order form not supported"),
        ("~??", DEFAULT_VERTEX_CAP, "malformed graph6: truncated long-form order"),
        ("D??", 4, "graph6 order 5 exceeds cap 4"),
        ("Dh", DEFAULT_VERTEX_CAP, "malformed graph6: wrong body length"),
        ("Dhcc", DEFAULT_VERTEX_CAP, "malformed graph6: wrong body length"),
        ("Dh@", DEFAULT_VERTEX_CAP, "malformed graph6: nonzero padding"),
        ("A`", DEFAULT_VERTEX_CAP, "malformed graph6: nonzero padding"),
    ],
)
def test_graph6_decode_rejects_malformed_input(text, cap, message):
    for decode in (graph6_decode, per_bit_graph6_decode):
        with pytest.raises(ValueError) as exc:
            decode(text, cap=cap)
        assert str(exc.value) == message


def test_graph6_encode_rejects_orders_past_the_long_form():
    n = 258048
    with pytest.raises(ValueError, match="graph too large for supported graph6 forms"):
        graph6_encode(Graph(n, (0,) * n))


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
