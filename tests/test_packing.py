import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from itertools import chain, combinations
from pathlib import Path

import pytest

from satedge import graph, packing
from satedge.constructions import blow_up, h0, h1, h2, turan_graph, turan_number
from satedge.formulas import CheckFailedError
from satedge.graph import (
    BlowupSpec,
    bits,
    build_graph,
    common_neighborhood,
    edges_between,
    enumerate_cliques,
    induced_edges,
    mask_of,
)
from satedge.packing import (
    DEFAULT_PACKING_BUDGET,
    BudgetExceededError,
    analyze,
    best_r_star,
    certify_remainder_maximal,
    check_switch_inequality,
    ell_split,
    make_packing,
    max_packing,
    max_remainder_packing,
    packing_from_json,
    refine_packing,
    switch,
    switch_candidates,
)
from satedge.saturation import CliquePresentError, count_saturating, is_saturating
from satedge.verify import random_kpfree_graph


def complete_graph(n):
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def test_max_packing_complete_graph():
    pk = max_packing(complete_graph(6), 3)
    assert pk.size == 2
    assert pk.certified
    assert pk.cliques == ((0, 1, 2), (3, 4, 5))
    assert pk.remainder == 0


def test_max_packing_triangle_free(c5):
    pk = max_packing(c5, 3)
    assert pk.size == 0
    assert pk.certified
    assert pk.remainder == c5.vertices_mask()


def test_max_packing_prism(prism):
    pk = max_packing(prism, 3)
    assert pk.size == 2
    assert pk.cliques == ((0, 1, 2), (3, 4, 5))


def test_max_packing_h1(h1_310_packing):
    pk = h1_310_packing
    assert pk.size == 4
    assert pk.density == Fraction(2, 33)
    assert pk.certified


def test_max_packing_budget_error(h1_310):
    # the search certifies h1(3,1,0) in 7 nodes: 1 quotient triangle, 6 search nodes
    with pytest.raises(BudgetExceededError):
        max_packing(h1_310.graph, 3, budget=3)


def test_certify_shares_the_packing_budget():
    # 16 listed quotient triangles and 20 search nodes find the optimum;
    # walking all the maximum packings takes 98 more, 12 of them nodes whose
    # (pool, packed set) state was visited before.  On a fresh copy of the
    # host, certify lists the 16 triangles and probes for 5 cliques in 1 node
    # (12 vertices hold at most 4); on the host max_packing ran on, it takes
    # the 16 triangles from the host's record, still charged one node each,
    # and the recorded packing number replaces the probe.  The optimum packs
    # all 12 vertices, so its remainder meets the Turán cap of 0 edges and no
    # walk follows
    g = random_kpfree_graph(12, 4, seed=0)
    search = packing._PackSearch(g, 3, DEFAULT_PACKING_BUDGET)
    target = len(search.optimum())
    assert (search.nodes, search.repeats) == (36, 0)
    assert len(list(search.packings(target))) == 1
    assert (search.nodes, search.repeats) == (36 + 98, 12)
    pk = max_packing(g, 3, budget=100)
    assert certify_remainder_maximal(pk, budget=16) == (True, 0)
    with pytest.raises(BudgetExceededError, match="packing search exceeded 15 nodes"):
        certify_remainder_maximal(pk, budget=16 - 1)
    fresh = make_packing(_fresh_copy(g), 3, pk.cliques, certified=True)
    assert certify_remainder_maximal(fresh, budget=16 + 1) == (True, 0)
    with pytest.raises(BudgetExceededError, match="packing search exceeded 16 nodes"):
        certify_remainder_maximal(fresh, budget=16 + 1 - 1)


def test_packing_search_work_is_pinned(h1_310, deep_host):
    # one node per listed quotient clique, then one per search node and per
    # bound step; every blow-up of base_graph(p) has one quotient p-clique
    search = packing._PackSearch(h1_310.graph, 3, DEFAULT_PACKING_BUDGET)
    assert len(search.optimum()) == 4
    assert (len(search.class_cliques), search.nodes) == (1, 1 + 6)

    search = packing._PackSearch(h1(4, 1, 0).graph, 4, DEFAULT_PACKING_BUDGET)
    assert len(search.optimum()) == 24
    assert (len(search.class_cliques), search.nodes) == (1, 1 + 26)

    # the 1097 isolated vertices are one twin class, dropped in one step
    search = packing._PackSearch(deep_host, 3, DEFAULT_PACKING_BUDGET)
    assert list(search.packings(len(search.optimum()))) == [((1097, 1098, 1099),)]
    assert (len(search.class_cliques), search.nodes) == (1, 1 + 9)


def test_deep_host_needs_no_recursion(deep_host):
    pk = max_packing(deep_host, 3)
    assert pk.cliques == ((1097, 1098, 1099),)
    assert pk.certified
    assert certify_remainder_maximal(pk) == (True, 0)


def test_max_packing_is_lex_least():
    # two optimal packings exist; the lowest sorted family wins
    g = build_graph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (4, 5), (4, 6), (5, 6)])
    pk = max_packing(g, 3)
    assert pk.cliques == ((0, 1, 2), (4, 5, 6))


def _max_triangle_families(g):
    """Every maximum family of disjoint triangles, each a sorted tuple, by
    trying all combinations of triangles."""
    triangles = [t for t in combinations(range(g.n), 3) if all(g.has_edge(u, v) for u, v in combinations(t, 2))]
    best = [()]
    for k in range(1, g.n // 3 + 1):
        families = [f for f in combinations(triangles, k) if len(set(chain(*f))) == 3 * k]
        if not families:
            break
        best = families
    return best


def _planted_twin_host(seed, k, p, max_n=None):
    """A K_{p+1}-free base on k vertices, one to three edges short of the
    Turán count so that it is rarely complete multipartite, with each vertex
    copied 1..3 times into an independent set of false twins, the copies'
    labels shuffled.  With max_n, the largest copy counts shrink until at
    most max_n vertices remain."""
    rng = random.Random(seed)
    base = random_kpfree_graph(k, p + 1, seed=seed, target_edges=turan_number(k, p + 1) - rng.randint(1, 3))
    copies = [rng.randint(1, 3) for _ in range(k)]
    while max_n is not None and sum(copies) > max_n:
        copies[copies.index(max(copies))] -= 1
    owner = [b for b in range(k) for _ in range(copies[b])]
    rng.shuffle(owner)
    n = len(owner)
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if base.has_edge(owner[u], owner[v])])


def _atlas():
    nx = pytest.importorskip("networkx")
    for nxg in nx.graph_atlas_g():
        yield build_graph(nxg.number_of_nodes(), nxg.edges())


def _oracle_hosts():
    yield from _atlas()
    for seed in range(30):
        yield random_kpfree_graph(9 + seed % 3, 4, seed=seed)
    for seed in range(20):
        yield _planted_twin_host(seed, 5 + seed % 3, 3, max_n=11)


def test_packings_match_brute_force_oracle():
    checked = 0
    for g in _oracle_hosts():
        families = _max_triangle_families(g)

        def remainder_edges(family):
            return induced_edges(g, g.vertices_mask() & ~mask_of(chain(*family)))

        best = max(remainder_edges(f) for f in families)
        pk = max_packing(g, 3)
        assert pk.cliques == min(families), g.adj
        assert max_remainder_packing(g, 3).cliques == min(f for f in families if remainder_edges(f) == best), g.adj
        assert certify_remainder_maximal(pk) == (remainder_edges(pk.cliques) == best, best), g.adj
        checked += 1
    assert checked == 1253 + 30 + 20


def _cliques_through_lowest(g, p, pool):
    v = (pool & -pool).bit_length() - 1
    return ((v,) + rest for rest in enumerate_cliques(g, p - 1, pool & g.adj[v]))


def _all_packings(search, target, twin_canonical=False):
    """Every family of `target` disjoint p-cliques in lexicographic order, as
    the enumerator walked them before it skipped repeated states, charged to
    the search's node counter.

    By default, as it walked them before it also skipped twin swaps: each
    clique through the pool's lowest vertex over the whole pool, then the
    branch that drops that vertex alone.  With twin_canonical, each clique
    takes twin representatives only and the drop branch drops the whole
    twin class, so every family up to twin swaps comes out."""
    g, p = search.g, search.p
    acc = []
    frames = []
    pool = g.vertices_mask()
    while True:
        search._tick()
        need = target - len(acc)
        if need == 0:
            yield tuple(acc)
        elif pool.bit_count() // p >= need and search.upper_bound(pool, need - 1) >= need:
            cliques = search._cliques_through_lowest(pool) if twin_canonical else _cliques_through_lowest(g, p, pool)
            frames.append((pool, cliques))
        if not frames:
            return
        top, cliques = frames[-1]
        del acc[len(frames) - 1:]
        c = next(cliques, None)
        if c is None:
            frames.pop()
            pool = top & ~(search.twin_class[(top & -top).bit_length() - 1] if twin_canonical else top & -top)
        else:
            acc.append(c)
            pool = top & ~mask_of(c)


def _walk_over_all_packings(g, p, twin_canonical=False):
    """(optimum, (size, best remainder edges, witness), nodes, least) from
    the greedy packing and _all_packings, as optimum() and
    _best_remainder_walk computed them before; least maps each packed
    vertex set of a maximum family walked to its first family."""
    search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
    best = []
    pool = g.vertices_mask()
    while pool.bit_count() >= p:
        c = next(_cliques_through_lowest(g, p, pool), None)
        if c is None:
            pool ^= pool & -pool
        else:
            best.append(c)
            pool &= ~mask_of(c)
    best = tuple(best)
    while (larger := next(_all_packings(search, len(best) + 1, twin_canonical), None)) is not None:
        best = larger
    best_edges, witness = -1, ()
    least = {}
    for family in _all_packings(search, len(best), twin_canonical):
        least.setdefault(mask_of(chain(*family)), family)
        e = induced_edges(g, g.vertices_mask() & ~mask_of(chain(*family)))
        if e > best_edges:
            best_edges, witness = e, family
    return best, (len(best), best_edges, witness), search.nodes, least


def _walk_hosts(p):
    yield from _atlas()
    for seed in range(20):
        yield random_kpfree_graph(9 + seed % 4, p + 1, seed=seed)
        yield _planted_twin_host(seed, 5 + seed % 3, p, max_n=14)


def _cap_side(g, p, walk, sides):
    """Check the walk's best against the Turán cap on its remainder and
    count the host as stopping at the cap or walking in full below it."""
    size, best, _ = walk
    cap = turan_number(g.n - size * p, p)
    assert best <= cap, g.adj
    sides[best == cap] += 1


@pytest.mark.parametrize("p", [3, 4])
def test_twin_walk_matches_walk_over_all_packings(p):
    # same optimum, same (size, best, witness), and never more nodes; the
    # walks compared never stop early, and hosts both at and below the cap
    # are among those checked
    sides = [0, 0]
    for g in _walk_hosts(p):
        optimum, walk, slow_nodes, _ = _walk_over_all_packings(g, p)
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        assert search.optimum() == optimum, g.adj
        for _ in search.packings(len(optimum)):
            pass
        assert search.nodes <= slow_nodes, g.adj
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        assert (len(optimum),) + packing._best_remainder_walk(search, len(optimum)) == walk, g.adj
        _cap_side(g, p, walk, sides)
    assert min(sides) > 0, sides


def _bench_recipe_hosts():
    """Hosts built as the packing-certify benchmark builds its own:
    K4-free on n = 12..16 vertices at the Turán count."""
    for i in range(40):
        n = 12 + i % 5
        yield random_kpfree_graph(n, 4, seed=1000 + i, target_edges=turan_number(n, 4))


@pytest.mark.parametrize("p", [3, 4])
def test_state_table_walk_matches_twin_walk(p):
    # against the twin-canonical walk without the (pool, packed set) table:
    # same optimum, walk and certificate, never more nodes, and the least
    # family of every packed vertex set, one per set, in the same order;
    # hosts both at and below the Turán cap are among those checked
    hosts = chain(_walk_hosts(p), _bench_recipe_hosts() if p == 3 else ())
    repeats = 0
    sides = [0, 0]
    for g in hosts:
        optimum, walk, slow_nodes, least = _walk_over_all_packings(g, p, twin_canonical=True)
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        assert search.optimum() == optimum, g.adj
        assert list(search.packings(len(optimum))) == list(least.values()), g.adj
        assert search.nodes <= slow_nodes, g.adj
        repeats += search.repeats
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        assert (len(optimum),) + packing._best_remainder_walk(search, len(optimum)) == walk, g.adj
        remainder = g.vertices_mask() & ~mask_of(chain(*optimum))
        _, best, _ = walk
        assert certify_remainder_maximal(max_packing(g, p)) == (induced_edges(g, remainder) == best, best), g.adj
        _cap_side(g, p, walk, sides)
    assert repeats > 0
    assert min(sides) > 0, sides


def _optimum_walk(g, p):
    """(size, best remainder edges, witness) as the best-remainder walk
    found them before the probe: optimum() on a fresh search, then the
    maximum packings up to the first whose remainder meets the Turán cap."""
    search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
    target = len(search.optimum())
    cap = turan_number(g.n - target * p, p)
    best_edges, witness = -1, ()
    for family in search.packings(target):
        e = induced_edges(g, g.vertices_mask() & ~mask_of(chain(*family)))
        if e > best_edges:
            best_edges, witness = e, family
            if e == cap:
                break
    return target, best_edges, witness


def _certify_via_optimum(pk):
    """certify_remainder_maximal as it was: a packing short of optimum()'s
    size raises ValueError."""
    size, best, _ = _optimum_walk(pk.host, pk.p)
    if size != pk.size:
        raise ValueError(f"packing has size {pk.size}, maximum is {size}")
    return induced_edges(pk.host, pk.remainder) == best, best


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("p", [3, 4])
def test_probe_certificate_matches_optimum_walk(p):
    # raw and refined maximum packings, and each one-clique-short
    # sub-packing, on hosts both at and below the Turán cap
    sides = [0, 0]
    short = 0
    for seed in range(16):
        n = 9 + seed % 7
        for g in (
            random_kpfree_graph(n, p + 1, seed=seed),
            random_kpfree_graph(n, p + 1, seed=50 + seed, target_edges=turan_number(n, p)),
            _planted_twin_host(seed, 5 + seed % 3, p, max_n=14),
        ):
            walk = _optimum_walk(g, p)
            _cap_side(g, p, walk, sides)
            assert max_remainder_packing(g, p).cliques == walk[2], g.adj
            raw = max_packing(g, p)
            subs = [make_packing(g, p, raw.cliques[:k] + raw.cliques[k + 1:]) for k in range(raw.size)]
            for pk in [raw, refine_packing(raw)] + subs:
                got = _outcome(certify_remainder_maximal, pk)
                assert got == _outcome(_certify_via_optimum, pk), g.adj
                short += got is ValueError
    assert short > 0
    assert min(sides) > 0, sides


# (h1 cell, nodes of certify on the host max_packing ran on, on a fresh
# copy of it): V0..V_{p-1} are twin classes and every maximum packing takes
# one vertex of each per clique, so all maximum packings are twin swaps of
# one another.  The remainder is the Turán graph on its vertices (729, 600,
# 484, 380, 2916 and 19200 edges), which meets the cap, so no walk follows.
# On the host max_packing ran on, certify is charged only the one quotient
# clique it takes from the host's record; the recorded packing number
# replaces the probe.  On a fresh copy it lists that clique and probes for
# one more packed clique
BLOWUP_CERTIFY_NODES = [((3, 1, y), 1, nodes) for y, nodes in enumerate((7, 9, 11, 13))] + [
    ((3, 2, 0), 1, 11),
    ((4, 1, 0), 1, 27),
]


@pytest.mark.parametrize(
    "cell,recorded,fresh",
    BLOWUP_CERTIFY_NODES,
    ids=[".".join(map(str, cell)) for cell, _, _ in BLOWUP_CERTIFY_NODES],
)
def test_blowups_certify_within_budget(cell, recorded, fresh):
    g = h1(*cell).graph
    p = cell[0]
    pk = max_packing(g, p)
    edges = induced_edges(g, pk.remainder)
    assert edges == turan_number(g.n - pk.size * p, p)
    copy = make_packing(_fresh_copy(g), p, pk.cliques, certified=True)
    for packed, nodes in ((pk, recorded), (copy, fresh)):
        assert certify_remainder_maximal(packed, budget=nodes) == (True, edges)
        with pytest.raises(BudgetExceededError):
            certify_remainder_maximal(packed, budget=nodes - 1)
    assert max_remainder_packing(g, p).cliques == pk.cliques


def _certify_by_walk(pk):
    """certify_remainder_maximal without the cap test: _refute_larger, then
    the best-remainder walk at the packing's size."""
    search = packing._PackSearch(pk.host, pk.p, DEFAULT_PACKING_BUDGET)
    packing._refute_larger(search, pk)
    best, _ = packing._best_remainder_walk(search, pk.size)
    return induced_edges(pk.host, pk.remainder) == best, best


def _certify_hosts(p):
    yield from _walk_hosts(p)
    if p == 3:
        yield from _bench_recipe_hosts()
        for y in range(4):
            yield h1(3, 1, y).graph
        yield h1(3, 2, 0).graph
    else:
        yield h1(4, 1, 0).graph


@pytest.mark.parametrize("p", [3, 4])
def test_certify_by_the_cap_matches_the_walk(p):
    # raw and refined maximum packings; packings whose remainder meets the
    # Turán cap and packings that walk are both among those checked
    sides = [0, 0]
    for g in _certify_hosts(p):
        raw = max_packing(g, p)
        cap = turan_number(g.n - raw.size * p, p)
        for pk in (raw, refine_packing(raw)):
            assert certify_remainder_maximal(pk) == _certify_by_walk(pk), g.adj
            sides[induced_edges(g, pk.remainder) == cap] += 1
    assert min(sides) > 0, sides


def _fresh_copy(g):
    """An equal graph decoded anew: a host object no packing search has
    run on."""
    return graph.graph6_decode(graph.graph6_encode(g))


@pytest.mark.parametrize("p", [3, 4])
def test_recorded_packing_number_certifies_as_the_probe_does(p):
    # certify on the host max_packing ran on, where the recorded packing
    # number stands in for the probe and the quotient cliques come from the
    # host's record, against certify on a fresh decode, which lists the
    # cliques and probes: raw and refined packings.  Every packing one
    # clique short is refused with one message on both hosts, by certify
    # and by packing_from_json with "certified": true
    short = 0
    for g in _certify_hosts(p):
        raw = max_packing(g, p)
        record = g.packing_record(p)
        assert record.nu == raw.size and record.cliques is not None, g.adj
        for pk in (raw, refine_packing(raw)):
            copy = make_packing(_fresh_copy(g), p, pk.cliques, certified=True)
            assert copy.host.packing_record(p).nu is None
            assert certify_remainder_maximal(pk) == certify_remainder_maximal(copy), g.adj
        for k in range(raw.size):
            cliques = raw.cliques[:k] + raw.cliques[k + 1:]
            text = json.dumps({"p": p, "cliques": [list(c) for c in cliques], "certified": True})
            messages = set()
            for host in (g, _fresh_copy(g)):
                with pytest.raises(ValueError) as certified:
                    certify_remainder_maximal(make_packing(host, p, cliques, certified=True))
                with pytest.raises(ValueError) as loaded:
                    packing_from_json(host, text)
                messages |= {str(certified.value), str(loaded.value)}
            assert messages == {f"packing has size {raw.size - 1}, but a packing of size {raw.size} exists"}, g.adj
            short += 1
    assert short > 100, short


def _listed_ell_split(pk):
    """ell_split as it was: every saturating vertex pair listed by
    count_saturating(edges=True), split by whether it meets a packed
    vertex."""
    report = count_saturating(pk.host, pk.p + 1, edges=True)
    packed = pk.packed_mask
    ell1 = sum(1 for u, v in report.edges if (1 << u | 1 << v) & packed)
    return ell1, report.total - ell1


def _split_or_refusal(split, pk):
    try:
        return split(pk)
    except CliquePresentError as refusal:
        return str(refusal)


def _ell_split_hosts(p):
    if p < 5:
        yield from _certify_hosts(p)
    for seed in range(15):
        n = 8 + seed % 8
        yield random_kpfree_graph(n, p + 1, seed=400 + seed)
        yield random_kpfree_graph(n, p + 1, seed=500 + seed, target_edges=turan_number(n, p + 1))
        yield _planted_twin_host(seed, 5 + seed % 3, p, max_n=16)
        # K_{p+2}-free, so often holding a K_{p+1}: ell_split refuses it
        yield random_kpfree_graph(n, p + 2, seed=600 + seed, target_edges=turan_number(n, p + 2))


@pytest.mark.parametrize("p", [3, 4, 5])
def test_ell_split_on_part_pairs_matches_the_vertex_pair_listing(p):
    # raw, refined and empty packings on the walk and certify hosts (the
    # atlas, random and planted-twin hosts, the bench-recipe hosts and the
    # h1 blow-ups) and on random hosts; a host holding a K_{p+1} raises
    # CliquePresentError with the listing's message
    refused = split = 0
    for g in _ell_split_hosts(p):
        raw = max_packing(g, p)
        for pk in (raw, refine_packing(raw), make_packing(g, p, [])):
            got = _split_or_refusal(ell_split, pk)
            assert got == _split_or_refusal(_listed_ell_split, pk), g.adj
            if isinstance(got, str):
                refused += 1
            else:
                split += 1
    assert refused > 0 and split > 0, (refused, split)


def _dict_upper_bound(search, pool, cutoff):
    """_PackSearch.upper_bound as it was: counts in a dict, the winner by
    max() over (count, -lowest live member).  Returns (bound, steps), one
    step per node the search charges."""
    live = [cls & pool for cls in search.classes]
    alive = 0
    for i, members in enumerate(live):
        if members:
            alive |= 1 << i
    cliques = [c for cm, c in search.class_cliques if cm & alive == cm]
    sizes = [members.bit_count() for members in live]
    hits = steps = 0
    while hits <= cutoff:
        steps += 1
        if not cliques:
            return hits, steps
        if hits == cutoff:
            break
        counts = {}
        for c in cliques:
            prod = 1
            for i in c:
                prod *= sizes[i]
            for i in c:
                counts[i] = counts.get(i, 0) + prod // sizes[i]
        best = max(counts, key=lambda i: (counts[i], -(live[i] & -live[i])))
        live[best] &= live[best] - 1
        sizes[best] -= 1
        if not sizes[best]:
            cliques = [c for c in cliques if best not in c]
        hits += 1
    return cutoff + 1, steps


@pytest.mark.parametrize("p", [3, 4])
def test_upper_bound_matches_the_dict_bound_call_by_call(monkeypatch, p):
    # every bound the packing search asks for while it finds, refines and
    # certifies packings, and bounds on random pools: same value, same nodes
    calls = [0]
    bound = packing._PackSearch.upper_bound

    def checked(search, pool, cutoff):
        before = search.nodes
        got = bound(search, pool, cutoff)
        assert (got, search.nodes - before) == _dict_upper_bound(search, pool, cutoff), (search.g.adj, pool)
        calls[0] += 1
        return got

    monkeypatch.setattr(packing._PackSearch, "upper_bound", checked)
    rng = random.Random(p)
    for g in chain(_walk_hosts(p), _bench_recipe_hosts() if p == 3 else ()):
        certify_remainder_maximal(max_packing(g, p))
        max_remainder_packing(g, p)
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        for _ in range(3):
            search.upper_bound(g.vertices_mask() & rng.getrandbits(g.n), rng.randrange(4))
    assert calls[0] > 1000, calls


def test_one_quotient_per_host(monkeypatch):
    # max_packing, the count behind ell_split and analyze, and certify all
    # read the host's one cached quotient
    built = []
    spec = graph.BlowupSpec

    def counted(*args):
        built.append(args)
        return spec(*args)

    monkeypatch.setattr(graph, "BlowupSpec", counted)
    g = h1(3, 1, 0).graph
    pk = refine_packing(max_packing(g, 3))
    assert sum(ell_split(pk)) == count_saturating(g, 4).total
    analyze(pk, 0)
    assert certify_remainder_maximal(pk)[0]
    assert len(built) == 1


def _vertex_upper_bound(search, pool, cutoff, cap=512):
    """The greedy hitting-set bound ranked vertex by vertex, as before the
    quotient ranking: at every step each live vertex's p-cliques are
    enumerated again and counted up to `cap`, and the lowest vertex of
    maximum count is deleted.  Returns (bound, steps)."""
    g, p = search.g, search.p
    live = pool
    hits = steps = 0
    while hits <= cutoff:
        steps += 1
        if next(enumerate_cliques(g, p, live), None) is None:
            return hits, steps
        best_v, best_c = -1, -1
        for v in bits(live):
            c = 0
            for _ in enumerate_cliques(g, p - 1, live & g.adj[v]):
                c += 1
                if c >= cap:
                    break
            if c > best_c:
                best_c, best_v = c, v
        live ^= 1 << best_v
        hits += 1
    return cutoff + 1, steps


def _bound_hosts(p):
    yield from _atlas()
    for seed in range(20):
        yield random_kpfree_graph(8 + seed % 8, p + 1, seed=seed)
        yield _planted_twin_host(seed, 5 + seed % 5, p)


@pytest.mark.parametrize("p", [3, 4])
def test_upper_bound_matches_vertex_ranking(p):
    # same bound and one node per step, on whole and random pools
    rng = random.Random(p)
    for g in _bound_hosts(p):
        search = packing._PackSearch(g, p, DEFAULT_PACKING_BUDGET)
        full = g.vertices_mask()
        pools = (full, full & rng.getrandbits(g.n), full & (rng.getrandbits(g.n) | rng.getrandbits(g.n)))
        for pool in pools:
            for cutoff in range(4):
                before = search.nodes
                bound = search.upper_bound(pool, cutoff)
                assert (bound, search.nodes - before) == _vertex_upper_bound(search, pool, cutoff), (g.adj, pool)


def test_make_packing_validation(prism):
    with pytest.raises(ValueError):
        make_packing(prism, 3, [(0, 1, 3)])  # not a clique
    with pytest.raises(ValueError):
        make_packing(prism, 3, [(0, 1, 2), (2, 3, 4)])  # overlap
    with pytest.raises(ValueError):
        make_packing(prism, 3, [(0, 1)])  # wrong size
    with pytest.raises(ValueError):
        make_packing(prism, 3, [(0, 1, 9)])  # out of range


def test_packing_json_round_trip(prism):
    pk = max_packing(prism, 3)
    back = packing_from_json(prism, pk.to_json())
    assert back.cliques == pk.cliques
    assert back.remainder == pk.remainder
    assert back.certified
    broken = json.loads(pk.to_json())
    broken["remainder"] = [0]
    with pytest.raises(ValueError):
        packing_from_json(prism, json.dumps(broken))


def test_packing_json_reproves_a_certified_claim(h1_310, h1_310_packing):
    # one clique of the four a maximum packing holds; loaded as certified,
    # best_r_star would check its bounds on it and return (0, 96)
    g = h1_310.graph
    forged = {"p": 3, "cliques": [list(h1_310_packing.cliques[0])], "certified": True}
    with pytest.raises(ValueError, match="packing has size 1, but a packing of size 2 exists"):
        packing_from_json(g, json.dumps(forged))
    honest = packing_from_json(g, json.dumps({**forged, "certified": False}))
    assert not honest.certified
    with pytest.raises(ValueError, match="certified maximum"):
        best_r_star(honest)


def test_switch_vertex_swap(h1_310, h1_310_packing):
    pk = h1_310_packing
    # swap the packed second-part vertex 4 for its unpacked twin 8
    moved = switch(pk, 0, (4,), (8,))
    assert moved.size == pk.size
    assert (0, 8, 20) in moved.cliques
    assert moved.remainder != pk.remainder


def test_switch_rejects_bad_moves(h1_310_packing):
    pk = h1_310_packing  # clique 0 is (0, 4, 20)
    for move in (switch, check_switch_inequality):
        with pytest.raises(ValueError, match="not contained in the remainder"):
            move(pk, 0, (4,), (5,))  # 5 is inside another packed clique
        with pytest.raises(ValueError, match="not a clique"):
            move(pk, 0, (4,), (36,))
        with pytest.raises(ValueError, match="equal size"):
            move(pk, 0, (4,), (8, 9))
        with pytest.raises(ValueError, match="not a subset"):
            move(pk, 0, (5,), (8,))  # 5 is not in clique 0


def test_empty_switch_is_identity(h1_310_packing):
    pk = h1_310_packing
    same = switch(pk, 0, (), ())
    assert same.cliques == pk.cliques
    lhs, rhs, holds = check_switch_inequality(pk, 0, (), ())
    assert lhs == rhs and holds


def test_refine_packing_never_decreases_remainder_edges():
    for seed in range(12):
        g = random_kpfree_graph(14, 4, seed=seed)
        pk = max_packing(g, 3)
        before = induced_edges(g, pk.remainder)
        refined = refine_packing(pk)
        after = induced_edges(g, refined.remainder)
        assert refined.size == pk.size
        assert after >= before


def _recount_first_improving_switch(pk):
    """refine_packing's scan as it was: every candidate switch recounts the
    edges of the whole new remainder."""
    g = pk.host
    h_edges = induced_edges(g, pk.remainder)
    for index, r_old in enumerate(pk.cliques):
        for c_size in range(1, pk.p + 1):
            for c_out in combinations(r_old, c_size):
                for c_in in switch_candidates(pk, index, c_out):
                    if induced_edges(g, (pk.remainder & ~mask_of(c_in)) | mask_of(c_out)) > h_edges:
                        return index, c_out, c_in
    return None


def _refine_hosts():
    for g in _oracle_hosts():
        yield g, 3
    for seed in range(10):
        yield random_kpfree_graph(14, 4, seed=seed, target_edges=turan_number(14, 4)), 3
        yield random_kpfree_graph(14, 5, seed=seed, target_edges=turan_number(14, 5)), 4


def test_improving_switch_matches_remainder_recount():
    # the same move at every step of every refinement
    moves = 0
    for g, p in _refine_hosts():
        pk = max_packing(g, p)
        while (move := packing._first_improving_switch(pk)) is not None:
            assert move == _recount_first_improving_switch(pk), g.adj
            pk = switch(pk, *move)
            moves += 1
        assert _recount_first_improving_switch(pk) is None, g.adj
    assert moves > 0


def _full_pool_first_improving_switch(pk):
    """refine_packing's scan before it skipped twins: every c_in that
    switch_candidates lists, compared by the local edge delta."""
    g = pk.host
    for index, r_old in enumerate(pk.cliques):
        for c_size in range(1, pk.p + 1):
            for c_out in combinations(r_old, c_size):
                out_mask = mask_of(c_out)
                for c_in in switch_candidates(pk, index, c_out):
                    in_mask = mask_of(c_in)
                    rest = pk.remainder & ~in_mask
                    if edges_between(g, out_mask, rest) > edges_between(g, in_mask, rest):
                        return index, c_out, c_in
    return None


def _twin_rich_refine_hosts():
    """Blow-ups of seeded random K_{p+1}-free bases, parts of 1..3 twins."""
    for seed in range(24):
        p = 3 + seed % 2
        rng = random.Random(seed)
        base = random_kpfree_graph(6 + seed % 3, p + 1, seed=seed)
        yield blow_up(BlowupSpec(base, tuple(rng.randint(1, 3) for _ in range(base.n))))[0], p
    for cell in ((3, 1, 0), (3, 1, 1)):
        yield h1(*cell).graph, 3


def test_twin_representative_switch_scan_matches_full_pool_scan():
    # the same move at every step of every refinement, from greedy packings
    # and from every single switch away from them
    moves = 0
    for g, p in chain(_refine_hosts(), _twin_rich_refine_hosts()):
        pk = max_packing(g, p)
        away = [switch(pk, i, r[:1], c) for i, r in enumerate(pk.cliques) for c in switch_candidates(pk, i, r[:1])]
        for pk in [pk] + away[:3]:
            while (move := packing._first_improving_switch(pk)) is not None:
                assert move == _full_pool_first_improving_switch(pk), g.adj
                pk = switch(pk, *move)
                moves += 1
            assert _full_pool_first_improving_switch(pk) is None, g.adj
    assert moves > 0


def test_refine_packing_h1_p4_finishes():
    # one scan over 24 packed 4-cliques; the remainder's 4-cliques are
    # scanned over its twin representatives only
    pk = max_packing(h1(4, 1, 0).graph, 4)
    refined = refine_packing(pk)
    assert refined.size == pk.size
    assert induced_edges(pk.host, refined.remainder) >= induced_edges(pk.host, pk.remainder)


def test_refine_packing_fixed_point():
    for seed in range(6):
        g = random_kpfree_graph(12, 4, seed=seed)
        refined = refine_packing(max_packing(g, 3))
        again = refine_packing(refined)
        assert again.cliques == refined.cliques


def test_ell_split_sums_to_count(h1_310, h1_310_packing):
    l1, l2 = ell_split(h1_310_packing)
    assert (l1, l2) == (114, 132)
    assert l1 + l2 == count_saturating(h1_310.graph, 4).total


def test_ell_split_extremal_bipartite():
    g = turan_graph(6, 2)
    pk = max_packing(g, 3)  # empty: the host is triangle-free
    assert pk.size == 0
    assert ell_split(pk) == (0, 0)


def test_analyze_identities_random_suite():
    cases = [(n, 3) for n in (8, 12, 16, 20)] + [(14, 4), (25, 4), (18, 5)]
    for n, p in cases:
        g = random_kpfree_graph(n, p + 1, seed=n * 31 + p)
        pk = refine_packing(max_packing(g, p))
        total = count_saturating(g, p + 1).total
        for index in range(pk.size):
            an = analyze(pk, index)
            assert sum(an.z) == 1 - p * an.r
            assert an.Z[p] == 0
            assert an.ell1 + an.ell2 == total
            for a in an.A:
                assert induced_edges(g, a) == 0


def fraction_analyze(pk, index):
    """analyze as it was before it checked its two identities on vertex
    counts: both sums taken over Fractions."""
    g = pk.host
    p = pk.p
    n = g.n
    ell1, ell2 = ell_split(pk)
    clique = pk.cliques[index]
    r_mask = mask_of(clique)
    z_masks = packing._z_masks(pk, r_mask)
    if z_masks[p]:
        raise CheckFailedError(f"remainder vertices {sorted(bits(z_masks[p]))} see all of {clique}")
    z = tuple(Fraction(m.bit_count(), n) for m in z_masks)
    r = pk.density
    if sum(z[:p]) != 1 - p * r:
        raise CheckFailedError(f"sum z_j = {sum(z[:p])} differs from 1 - p r = {1 - p * r}")
    a_masks = []
    for i in range(p):
        rest = r_mask ^ (1 << clique[i])
        a_masks.append(common_neighborhood(g, rest) & pk.remainder)
    seen = 0
    for i, a in enumerate(a_masks):
        if a & seen:
            raise CheckFailedError(f"A_{i} meets an earlier attachment set")
        if a & ~z_masks[p - 1]:
            raise CheckFailedError(f"A_{i} is not inside Z_{p - 1}")
        if induced_edges(g, a):
            raise CheckFailedError(f"A_{i} is not independent")
        seen |= a
    a_total = sum(Fraction(a.bit_count(), n) for a in a_masks)
    if a_total != z[p - 1]:
        raise CheckFailedError(f"sum |A_i|/n = {a_total} differs from z_{p - 1} = {z[p - 1]}")
    for i, a in enumerate(a_masks):
        for u, v in combinations(bits(a), 2):
            if not is_saturating(g, p + 1, u, v):
                raise CheckFailedError(f"pair ({u},{v}) inside A_{i} is not saturating")
    return packing.PackingAnalysis(clique=clique, Z=tuple(z_masks), z=z, A=tuple(a_masks), r=r, ell1=ell1, ell2=ell2)


def _bench_hosts_seed_1():
    """The packing-certify benchmark's 100 hosts at its seed 1: K4-free on
    n = 12..16 vertices at the Turán count, each relabeled by a seeded
    shuffle."""
    rng = random.Random(1)
    for i in range(100):
        n = 12 + i % 5
        g = random_kpfree_graph(n, 4, seed=1000 + i, target_edges=turan_number(n, 4))
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [0] * n
        for v, row in enumerate(g.adj):
            adj[perm[v]] = mask_of(perm[u] for u in bits(row))
        yield build_graph(n, [(u, v) for u in range(n) for v in bits(adj[u]) if u < v])


def _analyzed_packings():
    yield from (refine_packing(max_packing(g, 3)) for g in _bench_hosts_seed_1())
    yield from (refine_packing(max_packing(h1(3, x, y).graph, 3)) for x in (1, 2) for y in range(4))


def test_analyze_on_counts_matches_the_fraction_sums():
    analyses = 0
    for pk in _analyzed_packings():
        for index in range(pk.size):
            assert analyze(pk, index) == fraction_analyze(pk, index), (pk.host.adj, index)
            analyses += 1
    assert analyses > 100


@pytest.mark.parametrize("forge", ["drop", "move"])
def test_analyze_on_counts_keeps_its_failure_messages(monkeypatch, h1_310_packing, forge):
    # a forged partition fails the first identity ("drop": a vertex left out
    # of the first nonempty Z_j, j < p - 1) or only the second ("move": that
    # vertex moved into Z_{p-1}, outside every A_i); both versions give the
    # same message
    z_masks = packing._z_masks

    def forged(pk, clique_mask):
        masks = z_masks(pk, clique_mask)
        j = next(j for j in range(pk.p - 1) if masks[j])
        low = masks[j] & -masks[j]
        masks[j] ^= low
        if forge == "move":
            masks[pk.p - 1] |= low
        return masks

    monkeypatch.setattr(packing, "_z_masks", forged)
    with pytest.raises(CheckFailedError) as new:
        analyze(h1_310_packing, 0)
    with pytest.raises(CheckFailedError) as old:
        fraction_analyze(h1_310_packing, 0)
    assert str(new.value) == str(old.value)
    assert str(new.value).startswith("sum z_j" if forge == "drop" else "sum |A_i|/n")


def test_analyze_n40_sparse():
    g = random_kpfree_graph(40, 4, seed=5, target_edges=70)
    pk = refine_packing(max_packing(g, 3))
    assert pk.size > 0
    for index in range(pk.size):
        analyze(pk, index)


def test_analyze_counts_once_per_packing(monkeypatch):
    pk = refine_packing(max_packing(h1(3, 1, 0).graph, 3))
    calls = []
    pairs = packing.saturating_part_pairs
    monkeypatch.setattr(packing, "saturating_part_pairs", lambda *args: calls.append(args) or pairs(*args))
    for index in range(pk.size):
        analyze(pk, index)
    assert pk.size == 4
    assert len(calls) == 1


# base_graph(p) has one p-clique, {v0, ..., v_{p-1}}, so every p-clique of
# an h0/h1/h2 host takes one vertex from each of V0..V_{p-1}.
QUOTIENT_PACKING_CELLS = (
    [(h0, (3, x)) for x in (1, 2)]
    + [(h1, (3, 1, y)) for y in range(4)]
    + [(h1, (3, 2, 0)), (h2, (3, 1, 0)), (h2, (3, 1, 1))]
    + [(h0, (4, 1))]
    + [(h1, (4, 1, y)) for y in range(4)]
)


@pytest.mark.parametrize(
    "family,cell",
    QUOTIENT_PACKING_CELLS,
    ids=[f"{f.__name__}-{'.'.join(map(str, cell))}" for f, cell in QUOTIENT_PACKING_CELLS],
)
def test_max_packing_matches_quotient_oracle(family, cell):
    bu = family(*cell)
    p = cell[0]
    pk = max_packing(bu.graph, p)
    assert pk.certified
    assert pk.size == min(bu.spec.sizes[:p])


def test_analyze_rejects_clique_host():
    g = complete_graph(4)
    pk = make_packing(g, 3, [(0, 1, 2)], certified=False)
    with pytest.raises(CliquePresentError):
        analyze(pk, 0)


def test_analyze_isolated_remainder():
    # one triangle plus isolated vertices: everything else has zero neighbors
    g = build_graph(7, [(0, 1), (0, 2), (1, 2)])
    pk = max_packing(g, 3)
    an = analyze(pk, 0)
    assert an.z[0] == Fraction(4, 7)
    assert sum(an.z) == 1 - 3 * Fraction(1, 7)
    assert all(a == 0 for a in an.A)


def test_best_r_star_on_h1(h1_310, h1_310_packing):
    index, value = best_r_star(h1_310_packing)
    assert index == 0
    assert value == 78


def test_best_r_star_prism_meets_vacuous_bounds(prism):
    # 9 edges is exactly the extremal count at n=6, so the hypothesis holds
    # and the empty remainder satisfies both bounds trivially
    index, value = best_r_star(max_packing(prism, 3))
    assert (index, value) == (0, 0)


def test_best_r_star_hypotheses(h1_310, h1_310_packing, prism):
    pk = max_packing(prism.without_edge(0, 3), 3)
    with pytest.raises(ValueError):
        best_r_star(pk)  # 8 edges: one short of the extremal count
    uncertified = make_packing(h1_310.graph, 3, h1_310_packing.cliques, certified=False)
    with pytest.raises(ValueError):
        best_r_star(uncertified)
    empty = max_packing(turan_graph(6, 2), 3)
    with pytest.raises(ValueError):
        best_r_star(empty)


def test_switch_inequality_on_certified_instances():
    held = 0
    for seed in range(25):
        n = 10 + seed % 5
        g = random_kpfree_graph(n, 4, seed=seed)
        pk = refine_packing(max_packing(g, 3))
        ok, best = certify_remainder_maximal(pk)
        cert = pk if ok else max_remainder_packing(g, 3)
        assert induced_edges(g, cert.remainder) == best
        for index, clique in enumerate(cert.cliques):
            for size in (1, 2, 3):
                for c_out in combinations(clique, size):
                    kept = set(clique) - set(c_out)
                    cand = cert.remainder
                    for k in kept:
                        cand &= g.adj[k]
                    options = [
                        c_in
                        for c_in in combinations(sorted(v for v in range(n) if cand >> v & 1), size)
                        if all(g.has_edge(u, v) for u, v in combinations(c_in, 2))
                    ]
                    assert list(switch_candidates(cert, index, c_out)) == options
                    for c_in in options:
                        lhs, rhs, holds = check_switch_inequality(cert, index, c_out, c_in)
                        assert holds, (seed, index, c_out, c_in, lhs, rhs)
                        assert (lhs, rhs, holds) == _switch_inequality_via_packing(cert, index, c_out, c_in)
                        held += 1
    assert held > 50


def _switch_inequality_via_packing(pk, index, c_out, c_in):
    """check_switch_inequality as it was: it builds the whole switched
    packing to read the new remainder."""
    g = pk.host
    r_old = pk.cliques[index]
    rhs = edges_between(g, mask_of(r_old), pk.remainder)
    switched = switch(pk, index, c_out, c_in)
    r_new = tuple(sorted((set(r_old) - set(c_out)) | set(c_in)))
    lhs = edges_between(g, mask_of(r_new), switched.remainder)
    return lhs, rhs, lhs >= rhs


def test_switch_inequality_matches_whole_packing_on_unrefined_packings():
    # maximum packings before refinement, where some switches lose edges
    lost = 0
    for seed in range(12):
        pk = max_packing(random_kpfree_graph(14, 4, seed=seed), 3)
        for index, clique in enumerate(pk.cliques):
            for c_out in chain.from_iterable(combinations(clique, size) for size in (1, 2, 3)):
                for c_in in switch_candidates(pk, index, c_out):
                    got = check_switch_inequality(pk, index, c_out, c_in)
                    assert got == _switch_inequality_via_packing(pk, index, c_out, c_in), (seed, index, c_out, c_in)
                    lost += not got[2]
    assert lost > 0


def test_max_remainder_packing_dominates_refinement():
    for seed in range(10):
        g = random_kpfree_graph(13, 4, seed=100 + seed)
        local = refine_packing(max_packing(g, 3))
        best = max_remainder_packing(g, 3)
        assert best.size == local.size
        assert induced_edges(g, best.remainder) >= induced_edges(g, local.remainder)


def test_certify_remainder_maximal_rejects_non_maximum(prism):
    sub = make_packing(prism, 3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        certify_remainder_maximal(sub)


def test_density_and_masks(h1_310_packing):
    pk = h1_310_packing
    packed = pk.packed_mask
    assert packed.bit_count() == 12
    assert packed & pk.remainder == 0
    assert packed | pk.remainder == pk.host.vertices_mask()


PROFILE_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "packing_profile.py"


@pytest.mark.parametrize("p", [3, 4])
def test_packing_profile_script_meets_its_bounds(p):
    # h1(p, 1, 0) has the divisible extremal count, delta = 0, where every
    # bound the script prints holds, and with equality
    src = str(PROFILE_SCRIPT.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(PROFILE_SCRIPT), "--p", str(p)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert re.search(r"^bounds at delta=(-?\d+):$", run.stdout, re.M).group(1) == "0"
    bounds = re.findall(r"^  .* (\S+) >= (\S+)$", run.stdout, re.M)
    assert len(bounds) == 4, run.stdout
    for lhs, rhs in bounds:
        assert Fraction(lhs) == Fraction(rhs)


@pytest.mark.parametrize(
    "args,message",
    [
        (("--p", "2"), "need p >= 3, x >= 1, y >= 0"),
        (("--x", "0"), "need p >= 3, x >= 1, y >= 0"),
        (("--y", "-1"), "need p >= 3, x >= 1, y >= 0"),
        (("--y", "30"), "infeasible remainder: need p(p-1)(3p-4)x > y"),
    ],
)
def test_packing_profile_script_refuses_bad_arguments(args, message):
    src = str(PROFILE_SCRIPT.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(PROFILE_SCRIPT), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 2 and run.stdout == "", (args, run.stdout)
    assert message in run.stderr
