"""Counting p-clique-saturating edges.

A non-edge (u, v) of a K_p-free graph G is saturating when G + uv contains
a p-clique, i.e. when the common neighborhood of u and v holds a (p-2)-clique.
The count over all non-edges is the graph's saturating-edge number.

Every count runs on a quotient (`graph.BlowupSpec`): a base graph plus one
part size per base vertex.  A graph's quotient has one base vertex per twin
class; a blow-up spec is its own.  Parts are independent sets that share
their neighborhood, so one decision on the base settles every vertex pair
between two parts, and the sizes supply the weights.  The decisions for all
the pairs of one part come from one `Graph.cover` of its neighborhood.  A
spec host is never materialised, so hosts far past the vertex cap can be
counted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graph import BlowupSpec, Graph, VertexSet, bits, mask_of


class CliquePresentError(ValueError):
    """The host graph already contains the forbidden clique."""


@dataclass(frozen=True)
class SaturationReport:
    p: int
    n: int
    total: int
    edges: Optional[tuple[tuple[int, int], ...]] = None

    def to_json(self) -> str:
        payload: dict = {"p": self.p, "n": self.n, "total": self.total}
        if self.edges is not None:
            payload["edges"] = [list(e) for e in self.edges]
        return json.dumps(payload)


def is_saturating(g: Graph, p: int, u: int, v: int) -> bool:
    """Whether adding the non-edge (u, v) would create a p-clique."""
    if p < 3:
        raise ValueError("need p >= 3")
    if not (0 <= u < g.n and 0 <= v < g.n) or u == v:
        raise ValueError(f"invalid vertex pair ({u},{v})")
    if g.has_edge(u, v):
        raise ValueError(f"({u},{v}) is an edge, not a candidate pair")
    return g.clique_in(g.adj[u] & g.adj[v], p - 2) is not None


def _class_pairs(q: BlowupSpec, live: VertexSet, p: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Saturating part pairs (i, j) of q with lo <= i < hi and i <= j, decided
    on the base restricted to the non-empty parts `live`: (i, i) inside a
    part of two or more, and (i, j) for every later part not adjacent to i.

    (i, j) is saturating when N(i) & N(j) & live holds a (p-2)-clique, that
    is when j is in the cover of N(i) & live; so is (i, i) when i is, since
    N(i) & live then holds one.  So one cover per part decides all its pairs.
    """
    base, size = q.base, q.sizes
    adj = base.adj
    found: list[tuple[int, int]] = []
    for i in range(lo, hi):
        if not size[i]:
            continue
        nbhd = adj[i] & live
        want = live & ~nbhd & -(2 << i)
        if size[i] >= 2:
            want |= 1 << i
        found += [(i, j) for j in bits(base.cover(nbhd, p - 2, want))]
    return found


def _parts(host: Graph | BlowupSpec) -> tuple[VertexSet, ...]:
    """The host's vertex masks per quotient vertex: twin classes or blow-up ranges."""
    return host.twin_classes() if isinstance(host, Graph) else host.parts


def _vertex_pairs(parts: tuple[VertexSet, ...], n: int, class_pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The vertex pairs (u, v), u < v, of the given part pairs, lex-sorted."""
    owner = {u: i for i, part in enumerate(parts) for u in bits(part)}
    partners = [0] * len(parts)
    for i, j in class_pairs:
        partners[i] |= parts[j]
        partners[j] |= parts[i]
    return tuple((u, v) for u in range(n) for v in bits(partners[owner[u]] >> (u + 1) << (u + 1)))


def count_saturating(host: Graph | BlowupSpec, p: int, *, edges: bool = False, threads: int = 1) -> SaturationReport:
    """Count (optionally list) all p-clique-saturating edges of a host.

    The host is a graph, counted on its twin-class quotient, or a blow-up
    spec, counted on its base without building the graph; listed vertices
    are those of blow_up(spec).  Refuses hosts that already contain a
    p-clique.  Each part's saturating pairs are one `Graph.cover` of its
    neighborhood on the base.  A saturating part pair adds C(s, 2) inside a
    part of size s and |A|*|B| between parts A and B.  With threads > 1 the
    part range is split across worker processes, which receive only the
    quotient; results are identical, and listed edges are in lexicographic
    order.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    q = host.quotient() if isinstance(host, Graph) else host
    size = q.sizes
    k = len(size)
    live = mask_of(i for i in range(k) if size[i])
    witness = q.base.clique_in(live, p)
    if witness is not None:
        parts = _parts(host)
        lowest = tuple((parts[i] & -parts[i]).bit_length() - 1 for i in witness)
        raise CliquePresentError(f"graph already contains a {p}-clique {lowest}")
    if threads == 1 or k < 64:
        found = _class_pairs(q, live, p, 0, k)
    else:
        chunks = min(threads * 4, k)
        bounds = [k * i // chunks for i in range(chunks + 1)]
        args = [(q, live, p, bounds[i], bounds[i + 1]) for i in range(chunks)]
        import multiprocessing  # loaded only where a pool starts

        with multiprocessing.get_context().Pool(processes=threads) as pool:
            found = [pair for pairs in pool.starmap(_class_pairs, args) for pair in pairs]
    total = sum(size[i] * (size[i] - 1) // 2 if i == j else size[i] * size[j] for i, j in found)
    listed = _vertex_pairs(_parts(host), q.n, found) if edges else None
    return SaturationReport(p=p, n=q.n, total=total, edges=listed)
