import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from satedge.constructions import blow_up, h0, h1, h2, modulus, trim_to_target, turan_graph, turan_number
from satedge.formulas import exact_minimum_divisible, h1_saturating_count, h1_saturating_count_binomial
from satedge.graph import BlowupSpec, build_graph, contains_clique
from satedge import saturation
from satedge.saturation import CliquePresentError, count_saturating, is_saturating
from satedge.verify import random_kpfree_graph

from conftest import kpfree_graph_strategy, planted_twin_strategy


def spec_strategy(max_base=7):
    """Any base graph on up to `max_base` vertices, sizes 0..3, p in 3..5."""

    @st.composite
    def specs(draw):
        k = draw(st.integers(min_value=0, max_value=max_base))
        pairs = [(u, v) for u in range(k) for v in range(u + 1, k)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        sizes = draw(st.lists(st.integers(min_value=0, max_value=3), min_size=k, max_size=k))
        return BlowupSpec(build_graph(k, chosen), tuple(sizes)), draw(st.integers(min_value=3, max_value=5))

    return specs()


def test_is_saturating_path():
    path = build_graph(3, [(0, 1), (1, 2)])
    assert is_saturating(path, 3, 0, 2)


def test_is_saturating_validates():
    path = build_graph(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        is_saturating(path, 2, 0, 2)
    with pytest.raises(ValueError):
        is_saturating(path, 3, 0, 1)  # existing edge
    with pytest.raises(ValueError):
        is_saturating(path, 3, 0, 0)
    with pytest.raises(ValueError):
        is_saturating(path, 3, 0, 5)


def test_count_on_balanced_bipartite(k33):
    # adding any same-side pair creates a triangle through the other side
    report = count_saturating(k33, 3)
    assert report.total == 6
    # but never a K4
    assert count_saturating(k33, 4).total == 0


def test_count_on_prism(prism):
    assert count_saturating(prism, 4).total == 0
    assert count_saturating(prism, 4, edges=True).edges == ()


def test_count_rejects_hosts_with_clique(triangle):
    with pytest.raises(CliquePresentError):
        count_saturating(triangle, 3)


def test_edge_list_is_lexicographic(k33):
    report = count_saturating(k33, 3, edges=True)
    assert report.edges == tuple(sorted(report.edges))
    assert len(report.edges) == report.total


def test_report_json_round_trip(k33):
    data = json.loads(count_saturating(k33, 3, edges=True).to_json())
    assert data == {"p": 3, "n": 6, "total": 6, "edges": [[0, 1], [0, 2], [1, 2], [3, 4], [3, 5], [4, 5]]}
    assert "edges" not in json.loads(count_saturating(k33, 3).to_json())


def test_one_step_smaller_clique_freedom_gives_zero():
    # a K_{p-1}-free host can never gain a K_p from one added edge
    for n, p in [(6, 4), (9, 4), (9, 5), (12, 5)]:
        g = turan_graph(n, p - 2)
        assert count_saturating(g, p).total == 0


@settings(max_examples=200, deadline=None)
@given(st.one_of(kpfree_graph_strategy(), planted_twin_strategy()))
def test_count_matches_add_edge_oracle(gp):
    g, p = gp
    report = count_saturating(g, p, edges=True)
    oracle = [
        (u, v)
        for u, v in g.non_edges()
        if contains_clique(g.with_edge(u, v), p)
    ]
    assert list(report.edges) == oracle
    assert report.total == len(oracle)
    assert count_saturating(g.quotient(), p).total == len(oracle)


@settings(max_examples=300, deadline=None)
@given(spec_strategy())
def test_spec_count_matches_blown_up_graph(sp):
    spec, p = sp
    g, _ = blow_up(spec)
    try:
        want = count_saturating(g, p, edges=True)
    except CliquePresentError:
        with pytest.raises(CliquePresentError):
            count_saturating(spec, p, edges=True)
        return
    assert count_saturating(spec, p, edges=True) == want


def per_pair_class_pairs(q, live, p, lo, hi):
    """The counter's part pairs as it first found them: one clique probe per
    part pair on the base restricted to the live parts."""
    base, size = q.base, q.sizes
    adj = base.adj
    found = []
    for i in range(lo, hi):
        if not size[i]:
            continue
        nbhd = adj[i] & live
        if size[i] >= 2 and base.clique_in(nbhd, p - 2) is not None:
            found.append((i, i))
        for j in range(i + 1, len(size)):
            if size[j] and not nbhd >> j & 1 and base.clique_in(nbhd & adj[j], p - 2) is not None:
                found.append((i, j))
    return found


def counted_or_refused(host, p):
    try:
        return count_saturating(host, p, edges=True)
    except CliquePresentError as exc:
        return repr(exc)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_count_matches_per_pair_probes(monkeypatch, p):
    # twin-free random hosts, their blow-ups (twin-rich) and the specs
    # themselves, some with parts of size 0 and some holding a p-clique
    rng = random.Random(p)
    hosts = []
    for seed in range(40):
        n = rng.randint(1, 30)
        base = random_kpfree_graph(n, p + seed % 2, seed, target_edges=rng.randint(0, turan_number(n, p + 1)))
        spec = BlowupSpec(base, tuple(rng.randint(0, 3) for _ in range(n)))
        hosts += [base, spec, blow_up(spec)[0]]
    reports = [counted_or_refused(host, p) for host in hosts]
    assert any(isinstance(r, str) for r in reports) and any(not isinstance(r, str) for r in reports)
    monkeypatch.setattr(saturation, "_class_pairs", per_pair_class_pairs)
    assert [counted_or_refused(host, p) for host in hosts] == reports


def test_threads_match_single():
    g = random_kpfree_graph(72, 4, seed=0, target_edges=turan_number(72, 4) // 2)
    assert len(g.twin_classes()) >= 64  # enough classes to take the process pool
    one = count_saturating(g, 4, edges=True, threads=1)
    many = count_saturating(g, 4, edges=True, threads=2)
    assert one.total == many.total == len(one.edges)
    assert one.edges == many.edges


# every h0/h1/h2 cell the suite builds, and the trimmed h2 hosts
BLOWUP_CELLS = (
    [(h0, cell, False) for cell in [(3, 1), (4, 1), (5, 1), (3, 2)]]
    + [(h1, (p, x, y), False) for p in (3, 4, 5) for x in (1, 2) for y in (0, 1, 2)]
    + [(h2, cell, False) for cell in [(3, 1, 0), (3, 1, 1), (4, 1, 0)]]
    + [(h2, cell, True) for cell in [(3, 1, 0), (3, 1, 1), (4, 1, 0), (4, 1, 2)]]
)


@pytest.mark.parametrize(
    "family,cell,trimmed",
    BLOWUP_CELLS,
    ids=[f"{f.__name__}-{'.'.join(map(str, cell))}{'-trimmed' if t else ''}" for f, cell, t in BLOWUP_CELLS],
)
def test_blowup_count_matches_pair_scan(family, cell, trimmed):
    bu = family(*cell)
    g = trim_to_target(bu, turan_number(bu.graph.n, bu.p) + 1) if trimmed else bu.graph
    p = bu.p + 1
    report = count_saturating(g, p, edges=True)
    scan = tuple((u, v) for u, v in g.non_edges() if is_saturating(g, p, u, v))
    assert report.total == len(scan)
    assert report.edges == scan
    if not trimmed:
        assert count_saturating(bu.spec, p, edges=True) == report


def test_blowup_count_matches_brute_force():
    # the twin-class count against the binomial closed form over the V parts
    for p, x, y in [(3, 1, 0), (3, 1, 1), (3, 1, 2), (4, 1, 0)]:
        assert count_saturating(h1(p, x, y).graph, p + 1).total == h1_saturating_count_binomial(p, x, y)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_spec_count_past_vertex_cap(p):
    # about a million vertices: counted on the spec, the graph is never built
    x = 10**6 // modulus(p)
    for y in (0, 1, 2, 7, p * (p - 1) * (3 * p - 4) * x - 1):
        bu = h1(p, x, y)
        total = count_saturating(bu.spec, p + 1).total
        assert total == h1_saturating_count(p, x, y) == h1_saturating_count_binomial(p, x, y)
        if y == 0:
            assert total == exact_minimum_divisible(bu.spec.n, p)
        assert "graph" not in vars(bu)
