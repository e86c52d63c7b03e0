import itertools
import multiprocessing.pool

import pytest
from hypothesis import given, settings, strategies as st

from satedge.constructions import turan_number
from satedge.graph import Graph, bits, build_graph, contains_clique, graph6_decode
from satedge.saturation import count_saturating
from satedge.search import (
    InfeasibleError,
    _Budget,
    _extend,
    _extend_batch,
    _generate_classes,
    _refined_colors,
    canonical_graph,
    canonical_key,
    min_saturating,
    min_saturating_at_jump,
    min_saturating_constrained,
    min_saturating_table,
)

nx = pytest.importorskip("networkx")


def small_graph_strategy(max_n=9):
    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(n, chosen)

    return graphs()


@settings(max_examples=120, deadline=None)
@given(small_graph_strategy(), st.randoms(use_true_random=False))
def test_canonical_key_is_isomorphism_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    relabeled = build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert canonical_key(relabeled) == canonical_key(g)


@settings(max_examples=80, deadline=None)
@given(small_graph_strategy())
def test_canonical_graph_is_idempotent(g):
    cg = canonical_graph(g)
    assert canonical_graph(cg).adj == cg.adj
    assert canonical_key(cg) == canonical_key(g)


def atlas_by_size(n):
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def to_bitset_graph(nxg):
    return build_graph(nxg.number_of_nodes(), list(nxg.edges()))


def test_canonical_key_separates_atlas_classes():
    # the atlas lists pairwise non-isomorphic graphs; keys must be injective
    for n in (4, 5, 6):
        keys = [canonical_key(to_bitset_graph(g)) for g in atlas_by_size(n)]
        assert len(set(keys)) == len(keys)


def nx_clique_free(nxg, p):
    return all(len(c) < p for c in nx.find_cliques(nxg)) if nxg.number_of_nodes() else True


@pytest.mark.parametrize("n,p", [(5, 3), (6, 3), (6, 4), (7, 4)])
def test_generation_matches_atlas_class_counts(n, p):
    e_max = turan_number(n, p)
    reps, exact = _generate_classes(n, p, 0, e_max, _Budget(10**9), threads=1)
    assert exact
    mine = {}
    for g in reps:
        mine[g.m] = mine.get(g.m, 0) + 1
    theirs = {}
    for nxg in atlas_by_size(n):
        if nx_clique_free(nxg, p):
            m = nxg.number_of_edges()
            theirs[m] = theirs.get(m, 0) + 1
    assert mine == theirs


def nx_saturating_count(nxg, p):
    total = 0
    nodes = sorted(nxg.nodes())
    for u, v in itertools.combinations(nodes, 2):
        if nxg.has_edge(u, v):
            continue
        nxg.add_edge(u, v)
        if not nx_clique_free(nxg, p):
            total += 1
        nxg.remove_edge(u, v)
    return total


@pytest.mark.parametrize("n,e,p", [(5, 6, 3), (5, 7, 4), (6, 8, 3), (6, 10, 4), (7, 11, 4)])
def test_min_saturating_matches_atlas_oracle(n, e, p):
    values = [
        nx_saturating_count(nxg, p)
        for nxg in atlas_by_size(n)
        if nxg.number_of_edges() == e and nx_clique_free(nxg, p)
    ]
    result = min_saturating(n, e, p)
    assert result.exact
    assert result.minimum == min(values)
    assert len(result.witnesses) == sum(1 for v in values if v == min(values))


def test_min_saturating_known_values():
    assert min_saturating(4, 4, 3).minimum == 2  # the 4-cycle
    assert min_saturating(5, 7, 4).minimum == 1
    assert min_saturating(6, 9, 4).minimum == 0
    assert min_saturating(6, 10, 4).minimum == 1


def test_witnesses_have_the_claimed_properties():
    result = min_saturating(6, 10, 4)
    assert result.witnesses
    for key in result.witnesses:
        g = graph6_decode(key)
        assert g.n == 6 and g.m == 10
        assert not contains_clique(g, 4)
        assert count_saturating(g, 4).total == result.minimum
        assert canonical_key(g) == key  # witnesses are emitted in canonical form


def test_infeasible_instances_raise():
    with pytest.raises(InfeasibleError):
        min_saturating(5, 11, 4)  # more edges than pairs
    with pytest.raises(InfeasibleError):
        min_saturating(6, 13, 4)  # above the extremal count


def test_zero_edge_graph():
    result = min_saturating(4, 0, 3)
    assert result.minimum == 0
    assert result.witnesses == (canonical_key(build_graph(4, [])),)


def test_budget_exhaustion_is_reported():
    result = min_saturating(7, 13, 4, budget=40)
    assert not result.exact


def test_thread_invariance(monkeypatch):
    # the n = 8 jump's last level has 504 candidates, above the pool's cut-off
    sent = []
    pool_map = multiprocessing.pool.Pool.map

    def counting_map(self, func, tasks, *args, **kwargs):
        if func is _extend_batch:
            sent.extend(tasks)
        return pool_map(self, func, tasks, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "map", counting_map)
    one = min_saturating_at_jump(8, 3, threads=1)
    assert not sent
    two = min_saturating_at_jump(8, 3, threads=2)
    assert sum(len(nbhds) for _, nbhds in sent) > 256
    assert one.to_dict() == two.to_dict()


@pytest.mark.parametrize("n,explored", [(5, 11), (6, 39), (7, 174), (8, 744)])
def test_jump_search_work_counter(n, explored):
    assert min_saturating_at_jump(n, 3).explored == explored


def old_refined_colors(g):
    """The refinement by sorted neighbor colors that _refined_colors replaced."""
    colors = [g.degree(v) for v in range(g.n)]
    while True:
        sig = [
            (colors[v], tuple(sorted(colors[u] for u in bits(g.adj[v]))))
            for v in range(g.n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[sig[v]] for v in range(g.n)]
        if new == colors:
            return colors
        colors = new


@settings(max_examples=200, deadline=None)
@given(small_graph_strategy())
def test_refined_colors_match_sorted_neighbor_oracle(g):
    assert _refined_colors(g) == old_refined_colors(g)


def old_class_keys(n, p, e_min, e_max):
    """Canonical keys from the level-wise generator the min-degree path
    replaced: every K_p-free extension within the edge window, no
    min-degree or density filter."""
    reps = [Graph(1, (0,))]
    for k in range(1, n):
        future = sum(range(k + 1, n))
        keys = set()
        for g in reps:
            for s in range(1 << k):
                m2 = g.m + s.bit_count()
                if m2 > e_max or m2 + future < e_min:
                    continue
                if g.clique_in(s, p - 1) is None:
                    keys.add(canonical_key(_extend(g, s)))
        reps = [graph6_decode(key) for key in sorted(keys)]
    return keys


def new_class_keys(n, p, e_min, e_max):
    reps, exact = _generate_classes(n, p, e_min, e_max, _Budget(10**9), threads=1)
    assert exact
    return {canonical_key(g) for g in reps}


@pytest.mark.parametrize(
    "n,p,e_min,e_max",
    [(n, 4, turan_number(n, 3) + 1, turan_number(n, 3) + 1) for n in (5, 6, 7, 8)]
    + [(n, 4, turan_number(n, 3), turan_number(n, 3)) for n in (6, 7, 8)]
    + [(7, 4, 0, 12)],
)
def test_min_degree_path_matches_old_generator(n, p, e_min, e_max):
    assert new_class_keys(n, p, e_min, e_max) == old_class_keys(n, p, e_min, e_max)


def test_triangle_free_class_counts_match_oeis():
    # OEIS A006785: triangle-free graphs on n unlabeled nodes
    counts = [1, 2, 3, 7, 14, 38, 107, 410, 1897]
    for n, expected in enumerate(counts, start=1):
        reps, exact = _generate_classes(n, 3, 0, turan_number(n, 3), _Budget(10**9), threads=1)
        assert exact and len(reps) == expected


def test_table_agrees_with_single_queries():
    table = min_saturating_table(6, 4, e_max=10)
    for e in (0, 5, 9, 10):
        single = min_saturating(6, e, 4)
        assert table[e].minimum == single.minimum
        assert table[e].witnesses == single.witnesses


def test_at_jump_equals_direct_call():
    direct = min_saturating(6, turan_number(6, 3) + 1, 4)
    jumped = min_saturating_at_jump(6, 3)
    assert jumped.minimum == direct.minimum
    assert jumped.witnesses == direct.witnesses


def test_constrained_excludes_the_balanced_graph(prism):
    result = min_saturating_constrained(6, 3)
    assert result.minimum == 0
    assert canonical_key(prism) in result.witnesses
    from satedge.constructions import turan_graph

    assert canonical_key(turan_graph(6, 2)) not in result.witnesses
