import itertools
import os
import random
import subprocess
import sys
from pathlib import Path
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from satedge.constructions import base_graph, blow_up, turan_graph, turan_number
from satedge.formulas import CheckFailedError
from satedge.graph import (
    BlowupSpec,
    Graph,
    bits,
    build_graph,
    contains_clique,
    enumerate_cliques,
    from_adjacency,
    graph6_decode,
    graph6_encode,
    mask_of,
)
from satedge import search as search_module
from satedge.saturation import count_saturating
from satedge.search import (
    InfeasibleError,
    _Levels,
    _count_delta,
    _deepen,
    _extend,
    _extensions,
    _minimise,
    _refined_cells,
    _saturating_masks,
    canonical_graph,
    canonical_key,
    canonical_ordering,
    min_saturating,
    min_saturating_at_jump,
    min_saturating_constrained,
    min_saturating_table,
)
from satedge.verify import random_kpfree_graph

from conftest import planted_twin_strategy
from test_acceptance import JUMP_MINIMA, JUMP_WITNESSES

nx = pytest.importorskip("networkx")


def small_graph_strategy(max_n=9):
    @st.composite
    def graphs(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        return build_graph(n, chosen)

    return graphs()


def complement(g):
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~a & ~(1 << v) for v, a in enumerate(g.adj)))


def relabeled(g, perm):
    return build_graph(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def twin_rich_strategy():
    """Planted false twins, and their complements for true twins."""
    planted = planted_twin_strategy().map(lambda gp: gp[0])
    return st.one_of(planted, planted.map(complement))


@settings(max_examples=120, deadline=None)
@given(st.one_of(small_graph_strategy(), twin_rich_strategy()), st.randoms(use_true_random=False))
def test_canonical_key_is_isomorphism_invariant(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    assert canonical_key(relabeled(g, perm)) == canonical_key(g)


@settings(max_examples=80, deadline=None)
@given(st.one_of(small_graph_strategy(), twin_rich_strategy()))
def test_canonical_graph_is_idempotent(g):
    cg = canonical_graph(g)
    assert canonical_graph(cg).adj == cg.adj
    assert canonical_key(cg) == canonical_key(g)


def test_canonical_key_of_symmetric_graphs():
    assert canonical_ordering(Graph(0, ())) == ()
    assert canonical_key(Graph(0, ())) == "?"
    assert canonical_key(Graph(1, (0,))) == "@"
    n = 10
    assert canonical_key(build_graph(n, [])) == "I????????"
    assert canonical_key(build_graph(n, itertools.combinations(range(n), 2))) == "I~~~~~~~w"
    # 16 vertices in five twin classes of the p = 3 base
    host, _ = blow_up(BlowupSpec(base_graph(3), (4, 3, 3, 3, 3)))
    key = canonical_key(host)
    rng = random.Random(0)
    for _ in range(5):
        perm = list(range(host.n))
        rng.shuffle(perm)
        assert canonical_key(relabeled(host, perm)) == key


def cell_colors(cells):
    """Vertex -> the index of its cell."""
    colors = [0] * sum(len(cell) for cell in cells)
    for c, cell in enumerate(cells):
        for v in cell:
            colors[v] = c
    return colors


def backtracking_refined_colors(g):
    """Full-round refinement: every round reads each vertex's neighbour
    counts to every colour class."""
    n = g.n
    adj = g.adj
    colors = [g.degree(v) for v in range(n)]
    while True:
        masks = {}
        for v, c in enumerate(colors):
            masks[c] = masks.get(c, 0) | 1 << v
        class_masks = [masks[c] for c in sorted(masks)]
        sig = [
            (colors[v], tuple(-(adj[v] & m).bit_count() for m in class_masks))
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[sig[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def backtracking_canonical_ordering(g):
    """Prefix-pruned backtracking over every class-respecting ordering,
    keeping the first ordering with the least column-order bit string."""
    n = g.n
    if n == 0:
        return ()
    adj = g.adj
    colors = backtracking_refined_colors(g)
    by_class = {}
    for v, c in enumerate(colors):
        by_class.setdefault(c, []).append(v)
    class_seq = []
    for c in sorted(by_class):
        class_seq.extend([c] * len(by_class[c]))

    best_key: Optional[list[int]] = None
    best_perm: Optional[tuple[int, ...]] = None
    placed: list[int] = []
    key: list[int] = []
    used = 0

    def rec(pos, tight):
        nonlocal best_key, best_perm, used
        if pos == n:
            if best_key is None or key < best_key:
                best_key = key.copy()
                best_perm = tuple(placed)
            return
        for v in by_class[class_seq[pos]]:
            if used >> v & 1:
                continue
            new_bits = [adj[v] >> placed[i] & 1 for i in range(pos)]
            t = tight
            if t and best_key is not None:
                seg = best_key[len(key):len(key) + pos]
                if new_bits > seg:
                    continue
                if new_bits < seg:
                    t = False
            placed.append(v)
            key.extend(new_bits)
            used |= 1 << v
            rec(pos + 1, t)
            used ^= 1 << v
            del key[len(key) - pos:]
            placed.pop()

    rec(0, True)
    if best_perm is None:
        raise CheckFailedError(f"no canonical ordering found for a {n}-vertex graph")
    return best_perm


def seeded_random_graph(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5])


def seeded_planted_twin_graph(seed):
    """A random base on 2..5 vertices, each vertex copied 1..3 times into
    false twins (at most 9 vertices), the copies' labels shuffled."""
    rng = random.Random(seed)
    k = rng.randint(2, 5)
    base = build_graph(k, [(u, v) for u, v in itertools.combinations(range(k), 2) if rng.random() < 0.5])
    copies = [rng.randint(1, 3) for _ in range(k)]
    while sum(copies) > 9:
        copies[copies.index(max(copies))] -= 1
    owner = [b for b in range(k) for _ in range(copies[b])]
    rng.shuffle(owner)
    n = len(owner)
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if base.has_edge(owner[u], owner[v])])


def test_canonical_ordering_matches_backtracking_oracle():
    twins = [seeded_planted_twin_graph(seed) for seed in range(150)]
    inputs = (
        [to_bitset_graph(nxg) for nxg in nx.graph_atlas_g()]
        + [seeded_random_graph(seed) for seed in range(1500)]
        + twins
        + [complement(g) for g in twins]
    )
    for g in inputs:
        perm = canonical_ordering(g)
        assert perm == backtracking_canonical_ordering(g), g.adj
        assert cell_colors(_refined_cells(g)) == backtracking_refined_colors(g), g.adj


def atlas_by_size(n):
    return [g for g in nx.graph_atlas_g() if g.number_of_nodes() == n]


def to_bitset_graph(nxg):
    return build_graph(nxg.number_of_nodes(), list(nxg.edges()))


def test_canonical_key_separates_atlas_classes():
    # the atlas lists pairwise non-isomorphic graphs; keys must be injective
    for n in (4, 5, 6):
        keys = [canonical_key(to_bitset_graph(g)) for g in atlas_by_size(n)]
        assert len(set(keys)) == len(keys)


def unpruned_pass(n, p, e_min, e_max):
    """The level store after one pass at a bound no count can exceed, so
    nothing is pruned, and that pass's (classes, exact)."""
    levels = _Levels(n, p, e_min, e_max, 10**9)
    return levels, levels.classes(n * (n - 1) // 2)


def unpruned_classes(n, p, e_min, e_max):
    """Every class in the edge window as key -> (graph, count), and the exact
    flag, from one unpruned pass."""
    return unpruned_pass(n, p, e_min, e_max)[1]


def nx_clique_free(nxg, p):
    return all(len(c) < p for c in nx.find_cliques(nxg)) if nxg.number_of_nodes() else True


@pytest.mark.parametrize("n,p", [(5, 3), (6, 3), (6, 4), (7, 4)])
def test_generation_matches_atlas_class_counts(n, p):
    e_max = turan_number(n, p)
    reps, exact = unpruned_classes(n, p, 0, e_max)
    assert exact
    mine = {}
    for g, _ in reps.values():
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
    # the search labels 36 candidates in all
    result = min_saturating(7, 13, 4, budget=30)
    assert not result.exact


def test_searches_take_no_thread_count():
    # the search has one serial path, and a thread count is no accepted no-op
    for search in (
        lambda: min_saturating(5, 7, 4, threads=1),
        lambda: min_saturating_table(5, 3, 4, threads=1),
        lambda: min_saturating_at_jump(5, 3, threads=1),
        lambda: min_saturating_constrained(6, 3, threads=1),
    ):
        with pytest.raises(TypeError):
            search()


# each candidate once over all deepening passes, one per orbit of twin swaps
@pytest.mark.parametrize("n,explored", [(5, 6), (6, 13), (7, 36), (8, 136)])
def test_jump_search_work_counter(n, explored):
    assert min_saturating_at_jump(n, 3).explored == explored


# the witnesses the full-round backtracking labelling gave.  At n = 11 and 12
# a check without the count prune (every class on n - 1 vertices in the
# density window, each top-level candidate counted) found the same minima and
# witnesses; it shares the generator and `_count_delta`, so it is not
# independent of them
P3_JUMP_PINS = [
    (9, 3, ("H@QF~z{", "HxHYs}]")),
    (10, 5, ("IG?Wv~}~_", "IWA[r|}^_", "Io@zrq^fo", "Is_ZB|}^_", "IxGayy^fo")),
    (11, 6, ("J?CaF~}~f{?", "J]Kpe^Mr_^_", "J]TQd]mj_^_", "Jr?C[X~^r}?", "J}Kpa\\Mb{^?")),
    (12, 7, ("K]?@xw{r}^X{", "K]?Ayx[j|^T{")),
]


@pytest.mark.parametrize("n,minimum,witnesses", P3_JUMP_PINS)
def test_jump_minima_past_the_atlas(n, minimum, witnesses):
    result = min_saturating_at_jump(n, 3)
    assert result.exact
    assert (result.minimum, result.witnesses) == (minimum, witnesses)


# p = 4 jump minima and their witnesses, each re-checked on its own below;
# the witnesses are graph6 strings, so these also pin the codec
P4_JUMP_PINS = {
    5: (1, ("D^{",)),
    6: (2, ("E]~w",)),
    7: (2, ("Fvxzw",)),
    8: (2, ("GK~v~w",)),
    9: (4, ("HBZ~v~}", "HFznf~}")),
    10: (5, ("I_~v`~~~o", "I}pzt}}Nw")),
    11: (6, ("J@R~vr~~v}?", "J_Kv~z{~~~?", "J_~vb|}n|~?")),
    12: (
        8,
        (
            "K?Kv~z{~~~^{",
            "K?NF~z{~~~^{",
            "K_Cn~z{~~~^{",
            "KeKo~~}~f^|}",
            "KhGxv~}~e~z}",
            "KiOxv~}~d~v}",
            "K}Kpxz^vv^|}",
        ),
    ),
    13: (9, ("L@QF~z{~F~~}~{", "LW?Wv~}~f~~}~{", "LzXd|y{v}~Z{F~", "L~zf@{}Vy~R~f}")),
    14: (10, ("Mw@zrq~nt}Z~v}v}?",)),
    15: (
        13,
        (
            "N?KuEB~~v}^w~~~~^~_",
            "NK??^~}~f{^~~}~}^~?",
            "NXG_wz~~v}^wv~v~Z~_",
            "N[a?wz~~v}^w^~^~N~_",
            "NxGayx[~~~^{~wf~r~o",
            "NzXb?{]n|~V{v~v~Z~_",
        ),
    ),
}
# the work counter of the deepest p = 4 cells
P4_JUMP_EXPLORED = {14: 33876, 15: 111289}


@pytest.mark.parametrize("n", sorted(P4_JUMP_PINS))
def test_p4_jump_minima_and_witnesses(n):
    minimum, witnesses = P4_JUMP_PINS[n]
    result = min_saturating_at_jump(n, 4)
    assert result.exact
    assert (result.minimum, result.witnesses) == (minimum, witnesses)
    assert result.explored == P4_JUMP_EXPLORED.get(n, result.explored)
    for key in witnesses:
        g = graph6_decode(key)
        assert g.n == n and g.m == turan_number(n, 4) + 1
        assert not contains_clique(g, 5)
        assert count_saturating(g, 5).total == minimum
        assert graph6_encode(g) == key


def old_refined_colors(g):
    """The refinement by sorted neighbor colors that _refined_cells replaced."""
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
    cells = _refined_cells(g)
    # the cells partition the vertices, each cell in increasing order
    assert sorted(v for cell in cells for v in cell) == list(range(g.n))
    assert all(cell == sorted(cell) for cell in cells)
    assert cell_colors(cells) == old_refined_colors(g)


def tuple_signature_refined_cells(g):
    """The refinement _refined_cells replaced: each member's signature is
    the tuple of its negated counts against every piece of every cell that
    split in the last round (every degree cell in round one), sorted
    ascending."""
    adj = g.adj
    by_degree = {}
    for v, a in enumerate(adj):
        by_degree.setdefault(a.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    pieces = cells
    while pieces:
        splitters = [mask_of(piece) for piece in pieces]
        refined, pieces = [], []
        for cell in cells:
            groups = {}
            if len(cell) > 1:
                for v in cell:
                    groups.setdefault(tuple(-(adj[v] & s).bit_count() for s in splitters), []).append(v)
            if len(groups) > 1:
                split = [groups[sig] for sig in sorted(groups)]
                refined.extend(split)
                pieces.extend(split)
            else:
                refined.append(cell)
        cells = refined
    return cells


def seeded_random_graph_upto_14(seed, n_min=1):
    rng = random.Random(seed)
    n = rng.randint(n_min, 14)
    density = rng.choice((0.2, 0.5, 0.8))
    return build_graph(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < density])


def seeded_blow_up(seed):
    """A random base on 2..6 vertices, each vertex copied 1..5 times (at most
    14 vertices) into false twins, or into true twins when the copies of
    that vertex are joined; the copies' labels shuffled."""
    rng = random.Random(seed)
    k = rng.randint(2, 6)
    base = build_graph(k, [(u, v) for u, v in itertools.combinations(range(k), 2) if rng.random() < 0.5])
    copies = [rng.randint(1, 5) for _ in range(k)]
    while sum(copies) > 14:
        copies[copies.index(max(copies))] -= 1
    joined = [rng.random() < 0.5 for _ in range(k)]
    owner = [b for b in range(k) for _ in range(copies[b])]
    rng.shuffle(owner)
    n = len(owner)
    return build_graph(
        n,
        [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if base.has_edge(owner[u], owner[v]) or (owner[u] == owner[v] and joined[owner[u]])
        ],
    )


def test_refined_cells_match_tuple_signature_refinement():
    # the packed signatures and the dropped last pieces give the same cells
    # in the same order, so every canonical key stays the same
    inputs = (
        [to_bitset_graph(nxg) for nxg in nx.graph_atlas_g()]
        + [seeded_random_graph_upto_14(seed) for seed in range(1500)]
        + [seeded_blow_up(seed) for seed in range(600)]
        + [blow_up(BlowupSpec(base_graph(3), sizes))[0] for sizes in [(1, 2, 3, 4, 4), (3, 3, 3, 2, 2), (2, 1, 1, 1, 1)]]
    )
    for g in inputs:
        assert _refined_cells(g) == tuple_signature_refined_cells(g), g.adj


def round_by_round_refined_cells(g):
    """_refined_cells as it was before its fast paths: every round reads
    every cell, singletons included, and refinement stops only when no cell
    splits."""
    adj = g.adj
    width = g.n.bit_length()
    by_degree = {}
    for v, a in enumerate(adj):
        by_degree.setdefault(a.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    splitters = [sum(1 << v for v in cell) for cell in cells[:-1]]
    while splitters:
        refined = []
        next_splitters = []
        for cell in cells:
            groups = {}
            if len(cell) > 1:
                for v in cell:
                    a = adj[v]
                    sig = 0
                    for s in splitters:
                        sig = sig << width | (a & s).bit_count()
                    groups.setdefault(sig, []).append(v)
            if len(groups) > 1:
                split = [groups[sig] for sig in sorted(groups, reverse=True)]
                refined.extend(split)
                next_splitters.extend(sum(1 << v for v in piece) for piece in split[:-1])
            else:
                refined.append(cell)
        cells, splitters = refined, next_splitters
    return cells


def test_refined_cells_fast_paths_match_round_by_round_refinement():
    inputs = [to_bitset_graph(nxg) for nxg in nx.graph_atlas_g()]
    inputs += [seeded_random_graph_upto_14(seed, n_min=5) for seed in range(3000)]
    discrete = 0
    for g in inputs:
        cells = _refined_cells(g)
        assert cells == round_by_round_refined_cells(g), g.adj
        discrete += len(cells) == g.n
    # both the early return on a discrete partition and the full rounds run
    assert 500 < discrete < len(inputs) - 500, discrete


def long_header_graphs():
    """Graphs on 63..90 vertices, past graph6's one-byte header, whose
    refinement leaves cells to search: random graphs with planted false and
    true twins, and complete bipartite graphs."""
    rng = random.Random(63)
    graphs = []
    for _ in range(12):
        k = rng.randint(30, 50)
        density = rng.choice((0.2, 0.5, 0.8))
        base = build_graph(k, [(u, v) for u, v in itertools.combinations(range(k), 2) if rng.random() < density])
        owner = list(range(k)) + [rng.randrange(k) for _ in range(rng.randint(63 - k, 90 - k))]
        joined = [rng.random() < 0.5 for _ in range(k)]
        rng.shuffle(owner)
        n = len(owner)
        edges = [
            (u, v)
            for u, v in itertools.combinations(range(n), 2)
            if base.has_edge(owner[u], owner[v]) or (owner[u] == owner[v] and joined[owner[u]])
        ]
        graphs.append(build_graph(n, edges))
    graphs += [to_bitset_graph(nx.complete_bipartite_graph(a, 70 - a)) for a in (1, 20, 35)]
    return graphs


def test_key_read_off_the_columns_matches_relabel_and_encode():
    # the key is cut from the winning ordering's columns unless the refined
    # cells are discrete; either way it is the graph6 of the relabeled copy
    rng = random.Random(12)
    inputs = [to_bitset_graph(nxg) for nxg in nx.graph_atlas_g()]
    for _ in range(1500):
        n = rng.randint(0, 12)
        density = rng.choice((0.2, 0.5, 0.8))
        inputs.append(build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]))
    inputs += long_header_graphs()
    perm = list(range(1200))
    rng.shuffle(perm)
    inputs.append(build_graph(1200, [(perm[0], perm[v]) for v in range(1, 1200)]))
    for g in inputs:
        assert canonical_key(g) == graph6_encode(canonical_graph(g)), g.adj
    # the long-header graphs all leave cells to search, and many of the
    # small ones are discrete
    discrete = [len(_refined_cells(g)) == g.n for g in inputs]
    assert sum(g.n >= 63 and not d for g, d in zip(inputs, discrete)) == 16
    assert 200 < sum(discrete) < len(inputs) - 200, sum(discrete)


def test_canonical_key_past_the_recursion_limit():
    # 1 200 positions in one cell: deeper than the interpreter's call stack
    n = 1200
    assert canonical_key(build_graph(n, [])) == graph6_encode(build_graph(n, []))
    perm = list(range(n))
    random.Random(4).shuffle(perm)
    star = build_graph(n, [(perm[0], perm[v]) for v in range(1, n)])
    assert canonical_key(star) == graph6_encode(build_graph(n, [(v, n - 1) for v in range(n - 1)]))


def column_list_canonical_ordering(g, cells, leaves):
    """The ordering search the mask filter replaced: a column per vertex,
    rebuilt for every child, a path of least columns and a recursive
    descent.  `leaves` counts the leaves that replace an earlier best
    ("replaced") and those equal to the best ("equal")."""
    n = g.n
    adj = g.adj
    if len(cells) == n:
        return tuple(cell[0] for cell in cells)
    slots = [cell for cell in cells for _ in cell]
    twins = search_module._twin_masks(adj, range(n))
    best_cols = None
    best_perm = None
    placed = []
    path = []

    def descend(pos, cols, used, tight):
        nonlocal best_cols, best_perm
        if pos == n:
            if tight and best_cols is not None:
                leaves["equal"] += 1
                return False
            if best_cols is not None:
                leaves["replaced"] += 1
            best_cols, best_perm = path.copy(), tuple(placed)
            return True
        cands = [v for v in slots[pos] if not used >> v & 1]
        low = min(cols[v] for v in cands)
        if tight and best_cols is not None:
            if low > best_cols[pos]:
                return False
            tight = low == best_cols[pos]
        found = False
        path.append(low)
        for v in cands:
            if cols[v] != low or twins[v] & ~used & ((1 << v) - 1):
                continue
            placed.append(v)
            if descend(pos + 1, [c << 1 | (a >> v & 1) for c, a in zip(cols, adj)], used | 1 << v, tight):
                found = tight = True
            placed.pop()
        path.pop()
        return found

    descend(0, [0] * n, 0, True)
    return best_perm


def symmetric_graphs():
    """Cycles C_5..C_12, Petersen, Paley(13), K_{3,3,3} and the 4-cube."""
    graphs = [nx.cycle_graph(n) for n in range(5, 13)]
    graphs += [nx.petersen_graph(), nx.paley_graph(13).to_undirected(), nx.complete_multipartite_graph(3, 3, 3)]
    graphs.append(nx.convert_node_labels_to_integers(nx.hypercube_graph(4)))
    return [to_bitset_graph(nxg) for nxg in graphs]


def test_mask_filter_ordering_matches_column_lists():
    rng = random.Random(3)
    inputs = []
    for g in symmetric_graphs():
        for h in (g, complement(g)):
            perm = list(range(h.n))
            rng.shuffle(perm)
            inputs += [h, relabeled(h, perm)]
    for seed in range(300):
        seeded = random.Random(seed)
        n = seeded.randint(10, 14)
        density = seeded.choice((0.2, 0.5, 0.8))
        inputs.append(build_graph(n, [e for e in itertools.combinations(range(n), 2) if seeded.random() < density]))
    inputs += [g for g, _ in unpruned_classes(7, 4, 0, 12)[0].values()]
    leaves = {"replaced": 0, "equal": 0}
    for g in inputs:
        cells = _refined_cells(g)
        assert search_module._canonical_ordering(g, cells)[0] == column_list_canonical_ordering(g, cells, leaves), g.adj
    # both ways a leaf can end against an earlier best are taken
    assert leaves["replaced"] > 0 and leaves["equal"] > 0, leaves


def test_cell_twins_label_as_whole_graph_twins(monkeypatch):
    # twins share a refined cell, so the twins the labeller finds within the
    # non-singleton cells are each such vertex's whole twin class (a
    # singleton cell's vertex is never looked up), and the ordering and its
    # columns equal those of a search handed the whole graph's twins
    inputs = [to_bitset_graph(nxg) for nxg in nx.graph_atlas_g()]
    inputs += [seeded_random_graph_upto_14(seed, n_min=5) for seed in range(1500)]
    inputs += [seeded_blow_up(seed) for seed in range(600)]
    whole_twins = search_module._twin_masks
    built = [0, 0]

    def checked(adj, vertices):
        twins = whole_twins(adj, vertices)
        whole = whole_twins(adj, range(len(adj)))
        cells = _refined_cells(Graph(len(adj), adj))
        for cell in cells:
            for v in cell:
                assert twins[v] == (whole[v] if len(cell) > 1 else 0), adj
        built[0] += 1
        built[1] += any(len(cell) == 1 for cell in cells)
        return twins

    monkeypatch.setattr(search_module, "_twin_masks", checked)
    labels = [search_module._canonical_ordering(g, _refined_cells(g)) for g in inputs]
    # builds with singleton cells left out, and others, are among those checked
    assert built[0] > built[1] > 300, built
    monkeypatch.setattr(search_module, "_twin_masks", lambda adj, vertices: whole_twins(adj, range(len(adj))))
    for g, label in zip(inputs, labels):
        assert search_module._canonical_ordering(g, _refined_cells(g)) == label, g.adj


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
    reps, exact = unpruned_classes(n, p, e_min, e_max)
    assert exact
    assert all(canonical_key(g) == key for key, (g, _) in reps.items())
    return set(reps)


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
    counts = [1, 2, 3, 7, 14, 38, 107, 410, 1897, 12172]
    for n, expected in enumerate(counts, start=1):
        reps, exact = unpruned_classes(n, 3, 0, turan_number(n, 3))
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
    assert canonical_key(turan_graph(6, 2)) not in result.witnesses


def unpruned_search(n, e, p, excluded=None):
    """The one-pass search the deepening replaced: every class with e edges,
    no bound on the saturating count."""
    levels, (classes, exact) = unpruned_pass(n, p, e, e)
    return _minimise(classes, n, e, p, levels.spent, exact, excluded)


def seeded_search_cells(count, seed=11):
    rng = random.Random(seed)
    cells = []
    for _ in range(count):
        p = rng.randint(3, 5)
        n = rng.randint(5, 8)
        cells.append((n, rng.randint(0, turan_number(n, p)), p, None))
    return cells


@pytest.mark.parametrize(
    "n,e,p,excluded",
    [(n, turan_number(n, 3) + 1, 4, None) for n in range(5, 10)]
    + [(n, turan_number(n, 4) + 1, 5, None) for n in range(6, 11)]
    + [(n, turan_number(n, 3), 4, canonical_key(turan_graph(n, 2))) for n in range(6, 9)]
    + seeded_search_cells(10),
)
def test_deepening_matches_unpruned_search(n, e, p, excluded):
    pruned = _deepen(n, p, e, e, 10**9, excluded)[e]
    full = unpruned_search(n, e, p, excluded)
    assert pruned.exact and full.exact
    assert pruned.minimum is not None
    assert (pruned.minimum, pruned.witnesses) == (full.minimum, full.witnesses)


@pytest.mark.parametrize("n,p,e_min,e_max", [(7, 4, 0, 12), (8, 4, 17, 17), (8, 3, 10, 12)])
def test_count_bound_keeps_exactly_the_classes_within_it(n, p, e_min, e_max):
    # heredity: a class within the bound keeps every min-degree deletion
    # ancestor, so the pruned generator loses none of them
    full, exact = unpruned_classes(n, p, e_min, e_max)
    assert exact
    counts = {key: count_saturating(g, p).total for key, (g, _) in full.items()}
    assert counts == {key: count for key, (_, count) in full.items()}
    for bound in range(max(counts.values()) + 1):
        pruned, exact = _Levels(n, p, e_min, e_max, 10**9).classes(bound)
        assert exact
        assert set(pruned) == {key for key, c in counts.items() if c <= bound}


def test_deepening_budget_is_shared_across_passes():
    spent = min_saturating_at_jump(8, 3).explored
    assert min_saturating_at_jump(8, 3, budget=spent).exact
    cut = min_saturating_at_jump(8, 3, budget=spent - 1)
    assert not cut.exact and cut.explored == spent - 1


@pytest.mark.parametrize(
    "search,full_spend",
    [
        (lambda budget: [min_saturating_at_jump(8, 3, budget=budget)], 136),
        (lambda budget: list(min_saturating_table(7, 4, 12, budget=budget).values()), 703),
        (lambda budget: [min_saturating_constrained(8, 3, budget=budget)], 163),
    ],
    ids=["jump-8-3", "table-7-4-12", "constrained-8-3"],
)
def test_budget_spends_at_most_its_value_and_is_exact_only_in_full(search, full_spend):
    # a budget below 1 labels nothing; one at least the full spend is exact
    for budget in (-5, -1, 0, 1, full_spend - 1, full_spend, full_spend + 1):
        for row in search(budget):
            assert row.explored == min(max(budget, 0), full_spend), budget
            assert row.exact == (budget >= full_spend), budget


@pytest.mark.parametrize("n,p,e_max", [(7, 4, 12), (6, 4, 12), (7, 4, 16), (7, 3, 12), (8, 3, 12)])
def test_table_deepening_matches_unpruned_pass(n, p, e_max):
    levels, (classes, exact) = unpruned_pass(n, p, 0, e_max)
    assert exact
    table = min_saturating_table(n, p, e_max)
    assert sorted(table) == list(range(e_max + 1))
    for e, row in table.items():
        full = _minimise(classes, n, e, p, levels.spent, exact)
        assert row.exact and row.minimum is not None
        assert (row.minimum, row.witnesses) == (full.minimum, full.witnesses)
        assert row.explored <= full.explored


@pytest.mark.parametrize("n", range(5, 10))
def test_deepening_labels_each_candidate_once(n):
    # the passes together expand the parents within the final bound, each
    # once, which is what a fresh pass at that bound alone labels
    result = min_saturating_at_jump(n, 3)
    e = turan_number(n, 3) + 1
    final = _Levels(n, 4, e, e, 10**9)
    final.classes(result.minimum)
    assert result.explored == final.spent


def saturating_masks_oracle(g, p):
    """Per-vertex masks of the saturating non-edges count_saturating lists."""
    sat = [0] * g.n
    for u, v in count_saturating(g, p, edges=True).edges:
        sat[u] |= 1 << v
        sat[v] |= 1 << u
    return sat


@pytest.mark.parametrize(
    "search",
    [lambda n=n: [min_saturating_at_jump(n, 3)] for n in range(3, 10)]
    + [lambda n=n: [min_saturating_constrained(n, 3)] for n in range(3, 9)]
    + [lambda: list(min_saturating_table(7, 4, 12).values()), lambda: list(min_saturating_table(7, 3, 12).values())],
    ids=[f"jump-{n}-3" for n in range(3, 10)]
    + [f"constrained-{n}-3" for n in range(3, 9)]
    + ["table-7-4-12", "table-7-3-12"],
)
def test_delta_count_matches_count_saturating(monkeypatch, search):
    # every generated candidate is counted by its parent's count plus the
    # delta, and that sum must be the count of the candidate itself
    counted = []

    def checked_delta(g, sat, s, cover, p):
        assert sat == saturating_masks_oracle(g, p), g.adj
        delta = _count_delta(g, sat, s, cover, p)
        child = count_saturating(_extend(g, s), p).total
        assert child == count_saturating(g, p).total + delta, (g.adj, s, p)
        counted.append(s)
        return delta

    monkeypatch.setattr(search_module, "_count_delta", checked_delta)
    rows = search()
    assert all(row.exact for row in rows)
    assert len(counted) == rows[0].explored > 0


def saturating_masks_by_pair(g, p):
    """_saturating_masks as it was written before the row unions: one
    clique probe per non-edge."""
    adj = g.adj
    full = (1 << g.n) - 1
    sat = [0] * g.n
    for a in range(g.n):
        for b in bits(full & ~adj[a] & -(2 << a)):
            if g.clique_in(adj[a] & adj[b], p - 2) is not None:
                sat[a] |= 1 << b
                sat[b] |= 1 << a
    return sat


def count_delta_by_pair(g, sat, s, p):
    """_count_delta as it was written before the row unions: one clique
    probe per pair inside s and per vertex outside it."""
    adj = g.adj
    delta = 0
    for a in bits(s):
        fresh = s & ~adj[a] & ~sat[a] & -(2 << a)
        if p == 3:
            delta += fresh.bit_count()
        else:
            delta += sum(1 for b in bits(fresh) if g.clique_in(adj[a] & adj[b] & s, p - 3) is not None)
    outside = ((1 << g.n) - 1) & ~s
    return delta + sum(1 for b in bits(outside) if g.clique_in(s & adj[b], p - 2) is not None)


@pytest.mark.parametrize("n,p", [(n, 3) for n in range(3, 12)] + [(n, 4) for n in range(4, 12)])
def test_row_union_counts_match_per_pair_probes_on_the_jumps(monkeypatch, n, p):
    # every parent the jump search expands and every candidate mask it counts
    parents, masks = {}, []
    count_delta = search_module._count_delta

    def recorded_delta(g, sat, s, cover, q):
        parents.setdefault(g.adj, g)
        masks.append((g, s, cover))
        return count_delta(g, sat, s, cover, q)

    monkeypatch.setattr(search_module, "_count_delta", recorded_delta)
    result = min_saturating_at_jump(n, p)
    assert result.exact and len(masks) == result.explored > 0
    q = p + 1
    sats = {}
    for adj, g in parents.items():
        sats[adj] = saturating_masks_by_pair(g, q)
        assert _saturating_masks(g, q) == sats[adj], adj
    for g, s, cover in masks:
        assert _count_delta(g, sats[g.adj], s, cover, q) == count_delta_by_pair(g, sats[g.adj], s, q), (g.adj, s)


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_row_union_counts_match_per_pair_probes_on_random_masks(p):
    rng = random.Random(p)
    for seed in range(60):
        n = rng.randint(1, 16)
        g = random_kpfree_graph(n, p, seed, target_edges=rng.randint(0, turan_number(n, p)))
        sat = saturating_masks_by_pair(g, p)
        assert _saturating_masks(g, p) == sat, (g.adj, p)
        for _ in range(25):
            s = rng.getrandbits(n)
            cover = g.cover(s, p - 2, g.vertices_mask())
            assert _count_delta(g, sat, s, cover, p) == count_delta_by_pair(g, sat, s, p), (g.adj, s, p)


def clique_probe_extensions(g, p, m_lo, e_max):
    """_extensions as it was before it kept each mask's cover: the masks
    alone, each kept when a clique probe finds no (p-1)-clique in it."""
    degrees = [a.bit_count() for a in g.adj]
    delta = min(degrees)
    low = sum(1 << v for v, d in enumerate(degrees) if d == delta)
    d_lo, d_hi = m_lo - g.m, min(e_max - g.m, delta + 1)
    twins = search_module._twin_masks(g.adj, range(g.n))
    partial = [(0, 0)]
    left = g.n
    for v, members in enumerate(twins):
        if members & -members != 1 << v:
            continue
        left -= members.bit_count()
        prefixes = [0]
        for u in bits(members):
            prefixes.append(prefixes[-1] | 1 << u)
        partial = [
            (s | prefix, d + j)
            for s, d in partial
            for j, prefix in enumerate(prefixes)
            if d_lo <= d + j + left and d + j <= d_hi
        ]
    return sorted(s for s, d in partial if (d <= delta or s & low == low) and g.clique_in(s, p - 1) is None)


def clique_listed_covered(g, mask, k):
    """The union of the common neighbourhoods of every k-clique listed on
    the mask's twin representatives, for every k >= 1: the cover as the
    search first computed it, with no early stop and no `want`."""
    if k == 0:
        return (1 << g.n) - 1
    out = 0
    for clique in enumerate_cliques(g, k, g.twin_representatives(mask)):
        common = -1
        for v in clique:
            common &= g.adj[v]
        out |= common
    return out


@pytest.mark.parametrize("n,p", [(n, 3) for n in range(3, 12)] + [(n, 4) for n in range(4, 12)])
def test_extensions_pair_each_mask_with_its_cover_on_the_jumps(monkeypatch, n, p):
    # every parent the jump search expands: the kept masks are the clique
    # probe's, each with the union `_count_delta` reads as its term (ii)
    calls = []
    extensions = search_module._extensions

    def recorded(g, q, m_lo, e_max):
        kept = extensions(g, q, m_lo, e_max)
        calls.append((g, q, m_lo, e_max, kept))
        return kept

    monkeypatch.setattr(search_module, "_extensions", recorded)
    result = min_saturating_at_jump(n, p)
    assert result.exact and calls
    assert sum(len(kept) for *_, kept in calls) == result.explored
    for g, q, m_lo, e_max, kept in calls:
        masks = clique_probe_extensions(g, q, m_lo, e_max)
        assert kept == [(s, clique_listed_covered(g, s, q - 2)) for s in masks], (g.adj, q, m_lo, e_max)


def test_covered_matches_clique_listing_on_random_masks():
    rng = random.Random(5)
    graphs = [seeded_planted_twin_graph(seed) for seed in range(40)]
    graphs += [seeded_random_graph_upto_14(seed, n_min=5) for seed in range(60)]
    for g in graphs:
        full = g.vertices_mask()
        for mask in [0, full] + [rng.getrandbits(g.n) for _ in range(10)]:
            for k in range(5):
                whole = clique_listed_covered(g, mask, k)
                assert g.cover(mask, k, full) == whole, (g.adj, mask, k)
                # stopped at `mask`: part of the union that still meets it,
                # or the whole union when that misses it
                part = g.cover(mask, k, full, mask)
                assert part | whole == whole and bool(part & mask) == bool(whole & mask), (g.adj, mask, k)
                assert part & mask or part == whole, (g.adj, mask, k)


@pytest.mark.parametrize("p", [5, 6])
def test_cover_within_want_matches_clique_listing(p):
    # the listed union masked to `want`, with and without `stop`, on
    # twin-rich graphs and K_p-free hosts: a result that meets `stop` need
    # only be part of the whole, and one that misses it is the whole
    rng = random.Random(p)
    twins = [seeded_planted_twin_graph(seed) for seed in range(30)]
    graphs = twins + [complement(g) for g in twins]
    for seed in range(30):
        n = rng.randint(1, 24)
        graphs.append(random_kpfree_graph(n, p, seed, target_edges=rng.randint(0, turan_number(n, p))))
    for g in graphs:
        full = g.vertices_mask()
        for _ in range(12):
            mask = rng.choice([full, rng.getrandbits(g.n)])
            want = rng.choice([full, rng.getrandbits(g.n), 1 << rng.randrange(g.n)])
            stop = rng.choice([0, rng.getrandbits(g.n)])
            for k in range(6):
                whole = clique_listed_covered(g, mask, k) & want
                assert g.cover(mask, k, want) == whole, (g.adj, mask, k, want)
                part = g.cover(mask, k, want, stop)
                assert part | whole == whole and bool(part & stop) == bool(whole & stop), (g.adj, mask, k, want, stop)
                assert part & stop or part == whole, (g.adj, mask, k, want, stop)


class LevelLog(list):
    """A store's levels that log, as (level, {key: count}), each level a pass
    empties after expanding it."""

    def __init__(self, levels):
        super().__init__(levels)
        self.log = []

    def __setitem__(self, k, level):
        self.log.append((k, {key: count for key, (_, count) in self[k].items()}))
        super().__setitem__(k, level)


def deepening_store(monkeypatch, search, store_class=_Levels):
    """The search's rows and the one level store its deepening built; the
    store records each pass's bound and labels, and its levels log every
    pass's classes (the top level's as each pass ends)."""
    stores = []

    class RecordedLevels(store_class):
        def __init__(self, *args):
            super().__init__(*args)
            self.bounds, self.labels = [], []
            self.levels = LevelLog(self.levels)
            stores.append(self)

        def classes(self, bound):
            self.bounds.append(bound)
            before = self.labelled
            result = super().classes(bound)
            self.labels.append(self.labelled - before)
            self.levels.log.append((self.n - 1, {key: count for key, (_, count) in self.levels[-1].items()}))
            return result

    monkeypatch.setattr(search_module, "_Levels", RecordedLevels)
    result = search()
    (store,) = stores
    return result, store


# the labelled candidates are those whose count is within the final bound
# and whose new vertex lies in the first refined cell; every candidate
# generated is charged to the budget as `explored`
@pytest.mark.parametrize(
    "search,explored,labelled",
    [(lambda n=n: [min_saturating_at_jump(n, 3)], spent, lab) for n, spent, lab in
     [(9, 185, 65), (10, 1001, 204), (11, 2929, 683), (12, 7001, 1271)]]
    + [(lambda n=n: [min_saturating_at_jump(n, 4)], spent, lab) for n, spent, lab in
       [(10, 187, 75), (11, 839, 331), (12, 2519, 638)]]
    + [(lambda: list(min_saturating_table(7, 4, 12).values()), 703, 443)],
    ids=[f"jump-{n}-3" for n in (9, 10, 11, 12)] + [f"jump-{n}-4" for n in (10, 11, 12)] + ["table-7-4-12"],
)
def test_search_labels_only_candidates_within_the_final_bound(monkeypatch, search, explored, labelled):
    rows, store = deepening_store(monkeypatch, search)
    assert all(row.exact and row.explored == store.spent == explored for row in rows)
    assert store.labelled == labelled
    # the last pass's bound is the largest minimum; a fresh store at that
    # bound alone generates and labels the same candidates
    final = _Levels(store.n, store.p, store.e_min, store.e_max, 10**9)
    final.classes(max(row.minimum for row in rows))
    assert (final.spent, final.labelled) == (explored, labelled)


class UnfilteredLevels(_Levels):
    """The level store without the first-cell deletion test: it labels every
    waiting child within the bound."""

    def classes(self, bound):
        n, p = self.n, self.p
        exact = True
        for k in range(1, n):
            m_lo = -(-self.e_min * (k + 1) * k // (n * (n - 1)))
            parents, self.levels[k - 1] = self.levels[k - 1], {}
            waiting, children = self.waiting[k], self.levels[k]
            for key in sorted(parents):
                g, count = parents[key]
                nbhds = _extensions(g, p, m_lo, self.e_max)
                left = max(self.budget - self.spent, 0)
                if left < len(nbhds):
                    exact = False
                    nbhds = nbhds[:left]
                self.spent += len(nbhds)
                sat = _saturating_masks(g, p)
                for s, cover in nbhds:
                    waiting.setdefault(count + _count_delta(g, sat, s, cover, p), []).append((g, s))
                if not exact:
                    break
            for count in sorted(c for c in waiting if c <= bound):
                for g, s in waiting.pop(count):
                    cg = canonical_graph(_extend(g, s))
                    self.labelled += 1
                    children.setdefault(graph6_encode(cg), (cg, count))
            if not exact:
                return (dict(sorted(children.items())) if k == n - 1 else {}), False
        return dict(sorted(self.levels[n - 1].items())), True


@pytest.mark.parametrize(
    "search",
    [lambda n=n: [min_saturating_at_jump(n, 3)] for n in range(3, 11)]
    + [lambda n=n: [min_saturating_at_jump(n, 4)] for n in range(4, 11)]
    + [lambda n=n: [min_saturating_constrained(n, 3)] for n in range(3, 10)]
    + [lambda: list(min_saturating_table(7, 4, 12).values()), lambda: list(min_saturating_table(7, 3, 12).values())],
    ids=[f"jump-{n}-3" for n in range(3, 11)]
    + [f"jump-{n}-4" for n in range(4, 11)]
    + [f"constrained-{n}-3" for n in range(3, 10)]
    + ["table-7-4-12", "table-7-3-12"],
)
def test_first_cell_test_keeps_every_class(monkeypatch, search):
    # skipping a child whose new vertex is outside the first refined cell
    # loses no class: every pass puts the same classes with the same counts
    # on every level as a store that labels every child within the bound
    rows, store = deepening_store(monkeypatch, search)
    full_rows, full = deepening_store(monkeypatch, search, UnfilteredLevels)
    assert [row.to_dict() for row in rows] == [row.to_dict() for row in full_rows]
    assert store.spent == full.spent
    assert store.bounds == full.bounds
    # each pass empties the n - 1 levels below the top, then logs the top
    assert len(store.levels.log) == len(store.bounds) * store.n
    assert store.levels.log == full.levels.log
    assert store.waiting == full.waiting
    assert store.labelled <= full.labelled


@pytest.mark.parametrize(
    "search,bounds",
    [
        (lambda: [min_saturating(7, 12, 3)], [0, 1, 2, 4, 6, 9]),
        (lambda: [min_saturating_at_jump(12, 3)], list(range(8))),
        (lambda: list(min_saturating_table(7, 4, 12).values()), None),
    ],
    ids=["min-7-12-3", "jump-12-3", "table-7-4-12"],
)
def test_deepening_jumps_to_the_least_waiting_count(monkeypatch, search, bounds):
    # each pass after the first takes the least count of a waiting child,
    # so every pass labels a class, and the bounds increase
    rows, store = deepening_store(monkeypatch, search)
    assert all(row.exact for row in rows)
    if bounds is not None:
        assert store.bounds == bounds
    assert store.bounds[0] == 0 and store.bounds == sorted(set(store.bounds))
    assert all(store.labels)


def test_deepening_ends_when_no_child_waits(monkeypatch):
    # the one 3-vertex graph with 2 edges is the excluded path, so no pass
    # covers the window, and the search ends once nothing waits
    (row,), store = deepening_store(monkeypatch, lambda: [min_saturating_constrained(3, 3)])
    assert store.bounds == [0] and store.next_bound() is None
    assert (row.minimum, row.witnesses, row.exact, row.explored) == (None, (), True, 2)


# p = 3 jump pins past n = 12: minimum, witnesses and `explored`
P3_DEEP_JUMP_PINS = {
    13: (
        9,
        (
            "LNG`A\\MRc~r}f{",
            "LNPA?{]Fd^t}j{",
            "L]??@{}Ne^x}r{",
            "L]??A|]Vd^t}j{",
            "L]PAC]Mb`~f}N{",
            "L]oxpowp}NW{@~",
            "L_K??KE~~~^{~w",
            "LfxACMENx~F{Nw",
            "LlPAC]Mb`~f}N{",
            "LsK?CME^z~N{^w",
            "LvwWopfXrMO~`}",
        ),
        78171,
    ),
    14: (10, ("M]o?@{}N`{W~p}p}?",), 141018),
}


def check_deep_jump_pin(n):
    minimum, witnesses, explored = P3_DEEP_JUMP_PINS[n]
    result = min_saturating_at_jump(n, 3)
    assert result.exact and result.explored == explored
    assert result.minimum == minimum
    assert result.witnesses == witnesses


def test_jump_minimum_at_13():
    """A regression pin of the deepening search at n = 13, p = 3, which no
    unpruned run has checked."""
    check_deep_jump_pin(13)


def test_jump_minimum_at_14():
    """A regression pin of the deepening search at n = 14, p = 3, which no
    unpruned run has checked; the seed-host oracle below meets it from
    above."""
    check_deep_jump_pin(14)


# An upper-bound oracle for the pinned jump minima that shares nothing with
# the search's generator or `_count_delta`.  A pinned witness on n - 1
# vertices, joined by a new vertex to a K_p-free set of ex(n, K_p) -
# ex(n - 1, K_p) of its vertices, is a K_{p+1}-free host with ex(n, K_p) + 1
# edges, so each such host's count bounds the minimum at n from above.  In
# every cell below some host meets the pinned minimum.
JUMP_SEEDS = {
    3: (
        {
            **JUMP_MINIMA,
            **{n: minimum for n, minimum, _ in P3_JUMP_PINS},
            **{n: pin[0] for n, pin in P3_DEEP_JUMP_PINS.items()},
        },
        {
            **JUMP_WITNESSES,
            **{n: witnesses for n, _, witnesses in P3_JUMP_PINS},
            **{n: pin[1] for n, pin in P3_DEEP_JUMP_PINS.items()},
        },
    ),
    4: ({n: pin[0] for n, pin in P4_JUMP_PINS.items()}, {n: pin[1] for n, pin in P4_JUMP_PINS.items()}),
}


@pytest.mark.parametrize("p,n", [(3, n) for n in range(6, 15)] + [(4, n) for n in range(6, 16)])
def test_seed_hosts_meet_the_pinned_jump_minima(p, n):
    minima, witnesses = JUMP_SEEDS[p]
    joined = turan_number(n, p) - turan_number(n - 1, p)
    counts = []
    for key in witnesses[n - 1]:
        seed = graph6_decode(key)
        for chosen in itertools.combinations(range(n - 1), joined):
            mask = mask_of(chosen)
            if seed.clique_in(mask, p) is not None:
                continue
            host = from_adjacency([a | (mask >> v & 1) << (n - 1) for v, a in enumerate(seed.adj)] + [mask])
            assert host.m == turan_number(n, p) + 1
            assert not contains_clique(host, p + 1)
            counts.append(count_saturating(host, p + 1).total)
    assert counts and minima[n] <= min(counts)
    assert min(counts) == minima[n]


def naive_twin_classes(g):
    """Vertex classes of u ~ v when N(u) - v == N(v) - u: false twins
    (non-adjacent) and true twins (adjacent) alike."""
    classes = []
    for v in range(g.n):
        for cls in classes:
            u = cls[0]
            if g.adj[u] & ~(1 << v) == g.adj[v] & ~(1 << u):
                cls.append(v)
                break
        else:
            classes.append([v])
    return classes


def filtered_extensions(g, p, m_lo, e_max):
    """Every mask the min-degree, edge-window and clique filters keep."""
    degrees = [a.bit_count() for a in g.adj]
    delta = min(degrees)
    low = sum(1 << v for v, d in enumerate(degrees) if d == delta)
    kept = []
    for s in range(1 << g.n):
        d = s.bit_count()
        if d > delta and (d > delta + 1 or s & low != low):
            continue
        if m_lo <= g.m + d <= e_max and g.clique_in(s, p - 1) is None:
            kept.append(s)
    return kept


def test_extensions_take_the_lowest_twins_of_each_orbit():
    twins = [seeded_planted_twin_graph(seed) for seed in range(40)]
    graphs = twins + [complement(g) for g in twins] + [seeded_random_graph(seed) for seed in range(40)]
    for i, g in enumerate(graphs):
        classes = naive_twin_classes(g)
        for p, m_lo, e_max in [(3, 0, g.m + g.n), (4, g.m + 1, g.m + 2), (5, g.m, g.m + 3)]:
            every = filtered_extensions(g, p, m_lo, e_max)
            lowest = [
                s
                for s in every
                if all(s & mask_of(cls) == mask_of(cls[: (s & mask_of(cls)).bit_count()]) for cls in classes)
            ]
            kept = [s for s, _ in _extensions(g, p, m_lo, e_max)]
            assert kept == lowest, (g.adj, p, m_lo, e_max)
            if i % 4 == 0:  # one kept set per orbit loses no child class
                assert {canonical_key(_extend(g, s)) for s in kept} == {canonical_key(_extend(g, s)) for s in every}


JUMP_TABLE = Path(__file__).resolve().parent.parent / "scripts" / "jump_table.py"


def test_jump_table_script_rows():
    src = str(JUMP_TABLE.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def jump_table(*args):
        return subprocess.run(
            [sys.executable, str(JUMP_TABLE), *args], capture_output=True, text=True, env=env, timeout=120
        )

    for budget in ("0", "-3"):
        refused = jump_table("--budget", budget)
        assert refused.returncode == 2 and refused.stdout == "", (budget, refused.stdout)
        assert "--budget must be positive" in refused.stderr
    for args, message in [
        (("--n-min", "0"), "--n-min must be at least --p"),
        (("--p", "1"), "--p must be at least 2"),
        (("--n-min", "9", "--n-max", "6"), "--n-max must be at least --n-min"),
    ]:
        refused = jump_table(*args)
        assert refused.returncode == 2 and refused.stdout == "", (args, refused.stdout)
        assert message in refused.stderr
    run = jump_table("--n-min", "5", "--n-max", "8")
    assert run.returncode == 0, run.stderr
    header, *rows = [line.split() for line in run.stdout.splitlines()]
    assert header == ["n", "e", "minimum", "explored", "exact"]
    assert [(int(n), int(e), int(minimum), exact) for n, e, minimum, _, exact in rows] == [
        (n, turan_number(n, 3) + 1, minimum, "True") for n, minimum in zip(range(5, 9), (1, 1, 2, 3))
    ]
    assert [int(row[3]) for row in rows] == [min_saturating_at_jump(n, 3).explored for n in range(5, 9)]
