"""Exact maximum vertex-disjoint clique packings and their local analysis.

A packing is a family of pairwise disjoint p-cliques; the remainder is the
rest of the host.  One depth-first enumerator yields the packings of a given
size in lexicographic order, up to twin swaps the least family of every
packed vertex set, pruned by a greedy hitting-set bound and visiting each
(pool, packed set) state once; the maximum packing, the best-remainder
packing and its certificate all walk it.  A certificate proves its packing
maximum by one probe for a packing of one more clique.  A maximum packing's
remainder has no p-clique, else one more would fit, so Turán's bound caps
its edges: a packing whose remainder meets the cap is certified after the
probe, with no walk, and the best-remainder walk stops at the first family
that meets the cap.
It keeps an explicit stack, so host size does not bound its depth.  The
bound ranks false-twin classes, not vertices, over the p-cliques of the
host's twin-class quotient (built once per host and cached on it), which
each search lists once.
Beyond maximum cardinality, the machinery here supports
the remainder-edge refinement (switch a packed clique with an equal-size
clique outside and keep only strict remainder-edge gains), the neighbor-count
partition Z_j of the remainder relative to one packed clique, the attachment
sets A_i, and the split of saturating edges into packed-touching and
remainder-internal parts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator, Optional

from .graph import (
    Graph,
    VertexSet,
    bits,
    common_neighborhood,
    edges_between,
    enumerate_cliques,
    induced_edges,
    mask_of,
)
from .constructions import turan_defect, turan_number
from .formulas import CheckFailedError, attachment_fraction_bound, best_clique_edge_bound
from .saturation import count_saturating, is_saturating

DEFAULT_PACKING_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The exact search hit its node budget before certifying a result."""


@dataclass(frozen=True)
class CliquePacking:
    host: Graph
    p: int
    cliques: tuple[tuple[int, ...], ...]
    remainder: VertexSet
    certified: bool

    @property
    def size(self) -> int:
        return len(self.cliques)

    @property
    def packed_mask(self) -> VertexSet:
        return self.host.vertices_mask() & ~self.remainder

    @property
    def density(self) -> Fraction:
        """r = |packing| / n."""
        return Fraction(len(self.cliques), self.host.n)

    @cached_property
    def _ell_split(self) -> tuple[int, int]:
        report = count_saturating(self.host, self.p + 1, edges=True)
        packed = self.packed_mask
        ell1 = sum(1 for u, v in report.edges if (1 << u | 1 << v) & packed)
        return ell1, report.total - ell1

    def to_json(self) -> str:
        return json.dumps(
            {
                "p": self.p,
                "cliques": [list(c) for c in self.cliques],
                "remainder": sorted(bits(self.remainder)),
                "certified": self.certified,
            }
        )


def make_packing(host: Graph, p: int, cliques: Iterable[Iterable[int]], certified: bool = False) -> CliquePacking:
    """Validate and normalize a packing: disjointness, cliqueness, remainder."""
    if p < 2:
        raise ValueError("need p >= 2")
    normalized = sorted(tuple(sorted(c)) for c in cliques)
    used = 0
    for c in normalized:
        if len(c) != p or len(set(c)) != p:
            raise ValueError(f"{c} is not a set of {p} vertices")
        cm = mask_of(c)
        if cm & used:
            raise ValueError(f"clique {c} overlaps another packed clique")
        if cm & ~host.vertices_mask():
            raise ValueError(f"clique {c} leaves the vertex range")
        for u, v in combinations(c, 2):
            if not host.has_edge(u, v):
                raise ValueError(f"{c} is not a clique: missing edge {u}-{v}")
        used |= cm
    return CliquePacking(
        host=host,
        p=p,
        cliques=tuple(normalized),
        remainder=host.vertices_mask() & ~used,
        certified=certified,
    )


def packing_from_json(host: Graph, text: str) -> CliquePacking:
    """Load CliquePacking.to_json's text; a packing marked certified is
    proved maximum again by _refute_larger."""
    data = json.loads(text)
    packing = make_packing(host, data["p"], data["cliques"], bool(data.get("certified", False)))
    if "remainder" in data and mask_of(data["remainder"]) != packing.remainder:
        raise ValueError("remainder field disagrees with the clique list")
    if packing.certified:
        _refute_larger(_PackSearch(host, packing.p, DEFAULT_PACKING_BUDGET), packing)
    return packing


class _PackSearch:
    """Exact packing search: one depth-first enumerator of fixed-size packings.

    Every listed quotient clique, every node and every upper-bound step is
    charged to one node counter against one budget, whichever caller drives
    the enumerator.
    """

    def __init__(self, g: Graph, p: int, budget: int):
        if p < 2:
            raise ValueError("need p >= 2")
        self.g = g
        self.p = p
        self.budget = budget
        self.nodes = 0
        self.repeats = 0  # nodes of packings() whose state was visited before
        # the host's p-cliques up to twins, as (mask, tuple) over the class
        # indices of the twin-class quotient, class i being g.twin_classes()[i]
        self.classes = g.twin_classes()
        self.twin_class = [0] * g.n  # vertex -> mask of its twin class
        for cls in self.classes:
            for v in bits(cls):
                self.twin_class[v] = cls
        self.class_cliques: list[tuple[int, tuple[int, ...]]] = []
        for c in enumerate_cliques(g.quotient().base, p):
            self._tick()
            self.class_cliques.append((mask_of(c), c))

    def _tick(self):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceededError(
                f"packing search exceeded {self.budget} nodes on n={self.g.n}"
            )

    def _cliques_through_lowest(self, pool: VertexSet) -> Iterator[tuple[int, ...]]:
        # pool's lowest vertex is the branch vertex; all other members are
        # above it, each the lowest pool member of its twin class
        low = pool & -pool
        v = low.bit_length() - 1
        for rest in enumerate_cliques(self.g, self.p - 1, self.g.twin_representatives(pool) & self.g.adj[v]):
            yield (v,) + rest

    def upper_bound(self, pool: VertexSet, cutoff: int) -> int:
        """An upper bound on the packing size inside `pool`, at most cutoff+1.

        Greedily deletes the vertex lying on the most p-cliques until none
        remain.  Disjoint cliques must contain distinct deleted vertices, so
        the number of deletions bounds any packing.  Gives up (returning
        cutoff + 1) once the bound can no longer prune.

        Counts run over the quotient's cliques: a vertex of class i lies on
        the product of the other classes' live sizes per clique through i.
        Twins tie, so the bound ranks classes and deletes the best class's
        lowest live member; ties go to the lowest such member, which is the
        lowest vertex of maximum count.  Every class on a kept clique meets
        the pool, so its count is positive and a class of count 0 never
        wins.  The live sizes are taken only once a deletion step runs.
        """
        live = [cls & pool for cls in self.classes]
        alive = 0  # the classes that meet the pool, as a mask over indices
        for i, members in enumerate(live):
            if members:
                alive |= 1 << i
        cliques = [c for cm, c in self.class_cliques if cm & alive == cm]
        sizes: list[int] = []
        hits = 0
        while hits <= cutoff:
            self._tick()
            if not cliques:
                return hits
            if hits == cutoff:
                break  # one more deletion gives cutoff + 1 whichever it is
            if not sizes:
                sizes = [members.bit_count() for members in live]
            counts = [0] * len(sizes)
            for c in cliques:
                prod = 1
                for i in c:
                    prod *= sizes[i]
                for i in c:
                    counts[i] += prod // sizes[i]
            best = top = low = 0
            for i, count in enumerate(counts):
                if count > top:
                    best, top, low = i, count, live[i] & -live[i]
                elif count == top and count and live[i] & -live[i] < low:
                    best, low = i, live[i] & -live[i]
            live[best] &= live[best] - 1
            sizes[best] -= 1
            if not sizes[best]:
                cliques = [c for c in cliques if best not in c]
            hits += 1
        return cutoff + 1

    def greedy(self) -> list[tuple[int, ...]]:
        pool = self.g.vertices_mask()
        out: list[tuple[int, ...]] = []
        while pool.bit_count() >= self.p:
            c = next(self._cliques_through_lowest(pool), None)
            if c is None:
                pool ^= pool & -pool
            else:
                out.append(c)
                pool &= ~mask_of(c)
        return out

    def packings(self, target: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        """Families of `target` disjoint p-cliques, as sorted tuples in
        lexicographic order: up to twin swaps, the least family of every
        packed vertex set, one family per set.

        Depth first: at each node, every clique through the pool's lowest
        vertex v in lexicographic order, then the branch that drops v's
        whole twin class.  So families come in lexicographic order.  Besides
        v, a clique takes only the lowest pool member of each twin class.
        Swapping two false twins is an automorphism, and putting a lower
        twin in place of a higher one never makes a family larger, so the
        least family of every orbit meets both rules.

        A node's state is its pool and its packed union; a leaf's is its
        packed union alone, since nothing is left to pack.  Two nodes in
        one state have the same completions, each leaving the same
        remainder, and the first one visited is lexicographically earlier.
        So a repeated state is charged its node but neither bounded nor
        expanded, and only the least family of each packed vertex set is
        yielded: the first family, and the first family of best remainder,
        are the same as over all families.  The table of visited states
        holds at most one entry per charged node, so the node budget bounds
        its memory.  The stack holds one clique iterator per packed clique
        and the drop branch replaces the top frame, so it never holds more
        than `target` frames.
        """
        acc: list[tuple[int, ...]] = []
        frames: list[tuple[VertexSet, VertexSet, Iterator[tuple[int, ...]]]] = []
        seen: set[tuple[VertexSet, VertexSet]] = set()
        pool = self.g.vertices_mask()
        used = 0
        while True:
            self._tick()
            need = target - len(acc)
            state = (pool if need else 0, used)
            if state in seen:
                self.repeats += 1
            else:
                seen.add(state)
                if need == 0:
                    yield tuple(acc)
                elif pool.bit_count() // self.p >= need and self.upper_bound(pool, need - 1) >= need:
                    frames.append((pool, used, self._cliques_through_lowest(pool)))
            if not frames:
                return
            top, used, cliques = frames[-1]
            del acc[len(frames) - 1:]  # frame i was pushed with i cliques packed
            c = next(cliques, None)
            if c is None:
                frames.pop()
                pool = top & ~self.twin_class[(top & -top).bit_length() - 1]
            else:
                acc.append(c)
                cm = mask_of(c)
                pool = top & ~cm
                used |= cm

    def optimum(self) -> tuple[tuple[int, ...], ...]:
        """The first maximum packing in enumeration order.

        The greedy packing is the first family of its own size; then each
        larger size is tried until none exists.
        """
        best = tuple(self.greedy())
        while (larger := next(self.packings(len(best) + 1), None)) is not None:
            best = larger
        return best


def _refute_larger(search: _PackSearch, packing: CliquePacking) -> None:
    """Raise ValueError if the search finds a packing of one more clique."""
    if next(search.packings(packing.size + 1), None) is not None:
        raise ValueError(f"packing has size {packing.size}, but a packing of size {packing.size + 1} exists")


def max_packing(g: Graph, p: int, budget: int = DEFAULT_PACKING_BUDGET) -> CliquePacking:
    """A maximum packing of p-cliques, exact and certified.

    The witness is the lexicographically least optimum (cliques as sorted
    tuples, the family sorted).  Raises BudgetExceededError instead of ever
    returning an uncertified answer.
    """
    return make_packing(g, p, _PackSearch(g, p, budget).optimum(), certified=True)


def switch(packing: CliquePacking, index: int, c_out: Iterable[int], c_in: Iterable[int]) -> CliquePacking:
    """Replace part of one packed clique with an equal-size outside clique.

    The clique at `index` loses the subset c_out and gains c_in, which must
    lie entirely in the remainder; the result must again be a p-clique.
    """
    cliques = list(packing.cliques)
    cliques[index], _ = _switched(packing, index, c_out, c_in)
    return make_packing(packing.host, packing.p, cliques, certified=packing.certified)


def _switched(
    packing: CliquePacking, index: int, c_out: Iterable[int], c_in: Iterable[int]
) -> tuple[tuple[int, ...], VertexSet]:
    """The switched clique and the new remainder, after checking the move
    as switch() documents it."""
    g = packing.host
    r_old = packing.cliques[index]
    out_set = tuple(sorted(set(c_out)))
    in_set = tuple(sorted(set(c_in)))
    if len(out_set) != len(in_set):
        raise ValueError("switched sets must have equal size")
    if not set(out_set) <= set(r_old):
        raise ValueError(f"{out_set} is not a subset of the packed clique {r_old}")
    in_mask = mask_of(in_set)
    if in_mask & ~packing.remainder:
        raise ValueError(f"{in_set} is not contained in the remainder")
    r_new = tuple(sorted((set(r_old) - set(out_set)) | set(in_set)))
    for u, v in combinations(r_new, 2):
        if not g.has_edge(u, v):
            raise ValueError(f"replacement {r_new} is not a clique: missing edge {u}-{v}")
    return r_new, packing.remainder & ~in_mask | mask_of(out_set)


def switch_candidates(packing: CliquePacking, index: int, c_out: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """Every c_in that switch(packing, index, c_out, c_in) accepts, in
    lexicographic order; c_out must be a subset of the indexed clique."""
    out = mask_of(c_out)
    yield from enumerate_cliques(packing.host, out.bit_count(), _switch_pool(packing, index, out))


def _switch_pool(packing: CliquePacking, index: int, out: VertexSet) -> VertexSet:
    """The remainder vertices adjacent to all of the indexed clique but `out`."""
    kept = mask_of(packing.cliques[index]) & ~out
    return packing.remainder & common_neighborhood(packing.host, kept) if kept else packing.remainder


def check_switch_inequality(
    packing: CliquePacking, index: int, c_out: Iterable[int], c_in: Iterable[int]
) -> tuple[int, int, bool]:
    """Edge counts (new clique to new remainder, old clique to old remainder).

    Under remainder-edge local maximality the first never drops below the
    second; returns (lhs, rhs, lhs >= rhs).
    """
    g = packing.host
    r_new, remainder = _switched(packing, index, c_out, c_in)
    lhs = edges_between(g, mask_of(r_new), remainder)
    rhs = edges_between(g, mask_of(packing.cliques[index]), packing.remainder)
    return lhs, rhs, lhs >= rhs


def refine_packing(packing: CliquePacking) -> CliquePacking:
    """Drive the packing to a local maximum of remainder edges.

    Scans switches in a fixed order (clique index, swapped-out subset size
    and members, swapped-in clique, all lexicographic) and applies the first
    one that strictly increases remainder edges, restarting until none
    applies.  Size never changes; remainder edges never decrease.
    """
    current = packing
    while (move := _first_improving_switch(current)) is not None:
        current = switch(current, *move)
    return current


def _first_improving_switch(
    packing: CliquePacking,
) -> Optional[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """The first (index, c_out, c_in) in refine_packing's scan order that
    strictly increases remainder edges, or None.

    The switch turns the remainder h into rest + c_out, rest = h - c_in, so
    its edge count goes from e(rest) + e(c_in) + e(c_in, rest) to e(rest) +
    e(c_out) + e(c_out, rest).  Both sets are cliques of one size, so it
    gains exactly when e(c_out, rest) > e(c_in, rest).

    Only c_in drawn from the pool's twin representatives is scanned.
    Swapping a member of c_in with a lower false twin in the remainder is
    an automorphism fixing c_out and the remainder, so it keeps both edge
    counts and gives a lexicographically smaller c_in: the first improving
    c_in has no such member.
    """
    g = packing.host
    for index, r_old in enumerate(packing.cliques):
        for c_size in range(1, packing.p + 1):
            for c_out in combinations(r_old, c_size):
                out_mask = mask_of(c_out)
                pool = g.twin_representatives(_switch_pool(packing, index, out_mask))
                for c_in in enumerate_cliques(g, c_size, pool):
                    in_mask = mask_of(c_in)
                    rest = packing.remainder & ~in_mask
                    if edges_between(g, out_mask, rest) > edges_between(g, in_mask, rest):
                        return index, c_out, c_in
    return None


@dataclass(frozen=True)
class PackingAnalysis:
    """Remainder structure relative to one packed clique."""

    clique: tuple[int, ...]
    Z: tuple[VertexSet, ...]
    z: tuple[Fraction, ...]
    A: tuple[VertexSet, ...]
    r: Fraction
    ell1: int
    ell2: int


def ell_split(packing: CliquePacking) -> tuple[int, int]:
    """Saturating edges split: (touching packed vertices, inside remainder).

    Counts (p+1)-clique-saturating edges of the host, so the host must be
    K_{p+1}-free; the two parts always sum to the full count.  Counted once
    per packing.
    """
    return packing._ell_split


def _z_masks(packing: CliquePacking, clique_mask: VertexSet) -> list[VertexSet]:
    """Z_0..Z_p of one packed clique: the remainder by neighbor count in it."""
    z_masks = [0] * (packing.p + 1)
    for v in bits(packing.remainder):
        z_masks[(packing.host.adj[v] & clique_mask).bit_count()] |= 1 << v
    return z_masks


def analyze(packing: CliquePacking, index: int) -> PackingAnalysis:
    """Partition the remainder by neighbor count into the indexed clique.

    Z_j holds remainder vertices with exactly j neighbors in the clique
    (Z_p empty by K_{p+1}-freeness); A_i is the common neighborhood of the
    clique minus its i-th vertex.  Verifies the exact identities
    sum z_j = 1 - p r and sum |A_i|/n = z_{p-1}, that the A_i are disjoint
    independent subsets of Z_{p-1}, and that every pair inside an A_i is a
    saturating edge.  A host with a (p+1)-clique raises CliquePresentError
    from the count, before any check.  The two identities are checked on
    vertex counts, times n: |Z_0| + ... + |Z_{p-1}| = n - p |packing|, and,
    the A_i being disjoint, their union has |Z_{p-1}| members.
    """
    g = packing.host
    p = packing.p
    n = g.n
    ell1, ell2 = ell_split(packing)
    clique = packing.cliques[index]
    r_mask = mask_of(clique)
    z_masks = _z_masks(packing, r_mask)
    if z_masks[p]:
        raise CheckFailedError(f"remainder vertices {sorted(bits(z_masks[p]))} see all of {clique}")
    z = tuple(Fraction(m.bit_count(), n) for m in z_masks)
    r = packing.density
    if sum(m.bit_count() for m in z_masks[:p]) != n - p * packing.size:
        raise CheckFailedError(f"sum z_j = {sum(z[:p])} differs from 1 - p r = {1 - p * r}")

    a_masks = []
    for i in range(p):
        rest = r_mask ^ (1 << clique[i])
        a_masks.append(common_neighborhood(g, rest) & packing.remainder)
    seen = 0
    for i, a in enumerate(a_masks):
        if a & seen:
            raise CheckFailedError(f"A_{i} meets an earlier attachment set")
        if a & ~z_masks[p - 1]:
            raise CheckFailedError(f"A_{i} is not inside Z_{p - 1}")
        if induced_edges(g, a):
            raise CheckFailedError(f"A_{i} is not independent")
        seen |= a
    if seen.bit_count() != z_masks[p - 1].bit_count():
        a_total = sum(Fraction(a.bit_count(), n) for a in a_masks)
        raise CheckFailedError(f"sum |A_i|/n = {a_total} differs from z_{p - 1} = {z[p - 1]}")

    for i, a in enumerate(a_masks):
        for u, v in combinations(bits(a), 2):
            if not is_saturating(g, p + 1, u, v):
                raise CheckFailedError(f"pair ({u},{v}) inside A_{i} is not saturating")

    return PackingAnalysis(
        clique=clique,
        Z=tuple(z_masks),
        z=z,
        A=tuple(a_masks),
        r=r,
        ell1=ell1,
        ell2=ell2,
    )


def best_r_star(packing: CliquePacking) -> tuple[int, int]:
    """The packed clique with the most edges to the remainder.

    Requires a certified maximum packing on a host with exactly the
    extremal K_p-free edge count; under that hypothesis the returned count
    meets best_clique_edge_bound and the clique's attachment fraction meets
    attachment_fraction_bound, both verified here in exact arithmetic.
    Ties resolve to the lowest index.
    """
    g = packing.host
    p = packing.p
    n = g.n
    if not packing.certified:
        raise ValueError("packing must be a certified maximum")
    if not packing.cliques:
        raise ValueError("empty packing: no clique to select")
    if g.m != turan_number(n, p):
        raise ValueError(
            f"host has {g.m} edges; the bound needs exactly turan_number({n},{p}) = {turan_number(n, p)}"
        )
    values = [edges_between(g, mask_of(c), packing.remainder) for c in packing.cliques]
    best_index = max(range(len(values)), key=lambda i: (values[i], -i))
    best_value = values[best_index]

    delta = turan_defect(n, p)
    r = packing.density
    edge_bound = best_clique_edge_bound(n, p, r, delta)
    if best_value < edge_bound:
        raise CheckFailedError(f"best clique has {best_value} remainder edges, below the bound {edge_bound}")
    z_top = Fraction(_z_masks(packing, mask_of(packing.cliques[best_index]))[p - 1].bit_count(), n)
    z_bound = attachment_fraction_bound(n, p, r, delta)
    if z_top < z_bound:
        raise CheckFailedError(f"attachment fraction {z_top} is below the bound {z_bound}")
    return best_index, best_value


def _best_remainder_walk(search: _PackSearch, target: int) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(best remainder edges, the first family attaining them) over the
    packings of `target` cliques, the maximum size.

    Remainder edges depend on the packed vertex set alone and twin swaps
    keep them, so the least family of each set that search.packings yields
    suffices.  A maximum packing's remainder R has no p-clique, else one
    more would fit, so by Turán's theorem it has at most
    turan_number(|R|, p) edges: the walk stops at the first family that
    meets this cap, since no later one beats it.  Exponential in general; a
    blow-up of base_graph(p), whose remainder is the Turán graph on its
    vertices, stops within a few hundred nodes.
    """
    g = search.g
    cap = turan_number(g.n - target * search.p, search.p)
    full = g.vertices_mask()
    best_edges = -1
    best_family: tuple[tuple[int, ...], ...] = ()
    for family in search.packings(target):
        e = induced_edges(g, full & ~mask_of(v for c in family for v in c))
        if e > best_edges:
            best_edges = e
            best_family = family
            if e == cap:
                break
    return best_edges, best_family


def max_remainder_packing(g: Graph, p: int, budget: int = DEFAULT_PACKING_BUDGET) -> CliquePacking:
    """The lexicographically first maximum packing of most remainder edges
    over all maximum packings, by _best_remainder_walk at optimum()'s size:
    the strong form of the remainder condition, not just switch-stability.
    """
    search = _PackSearch(g, p, budget)
    _, family = _best_remainder_walk(search, len(search.optimum()))
    return make_packing(g, p, family, certified=True)


def certify_remainder_maximal(packing: CliquePacking, budget: int = DEFAULT_PACKING_BUDGET) -> tuple[bool, int]:
    """Compare this packing's remainder edges with the best over all
    maximum packings; return (is_globally_maximal, best_remainder_edges).

    One search on one budget proves the packing maximum by _refute_larger.
    A maximum packing's remainder has no p-clique, so Turán's bound caps
    every maximum packing's remainder edges: a packing whose own remainder
    meets the cap is certified then, with no walk.  Otherwise the search
    runs _best_remainder_walk at its size.  Blow-ups of base_graph(p), whose
    remainder is a Turán graph, certify in the few dozen nodes of the probe.
    """
    g = packing.host
    p = packing.p
    search = _PackSearch(g, p, budget)
    _refute_larger(search, packing)
    edges = induced_edges(g, packing.remainder)
    if edges == turan_number(g.n - packing.size * p, p):
        return True, edges
    best_edges, _ = _best_remainder_walk(search, packing.size)
    return edges == best_edges, best_edges
