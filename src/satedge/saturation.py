"""Counting p-clique-saturating edges.

A non-edge (u, v) of a K_p-free graph G is saturating when G + uv contains
a p-clique, i.e. when the common neighborhood of u and v holds a (p-2)-clique.
The count over all non-edges is the graph's saturating-edge number.  False
twins share their neighborhood, so the count runs over twin classes: one
probe on two representatives decides every pair between their classes.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from typing import Optional

from .graph import Graph, bits


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


def _class_pairs(g: Graph, p: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Saturating twin-class pairs (i, j) with lo <= i < hi and i <= j.

    Each class is probed through its lowest member: the pair (i, i) inside a
    class of two or more, and (i, j) for every later class not adjacent to i.
    """
    classes = g.twin_classes()
    reps = [(cls & -cls).bit_length() - 1 for cls in classes]
    adj = g.adj
    found: list[tuple[int, int]] = []
    for i in range(lo, hi):
        u = reps[i]
        if classes[i] != 1 << u and g.clique_in(adj[u], p - 2) is not None:
            found.append((i, i))
        for j in range(i + 1, len(reps)):
            v = reps[j]
            if not adj[u] >> v & 1 and g.clique_in(adj[u] & adj[v], p - 2) is not None:
                found.append((i, j))
    return found


def _vertex_pairs(g: Graph, class_pairs: list[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The vertex pairs (u, v), u < v, of the given class pairs, lex-sorted."""
    classes = g.twin_classes()
    owner = {u: i for i, cls in enumerate(classes) for u in bits(cls)}
    partners = [0] * len(classes)
    for i, j in class_pairs:
        partners[i] |= classes[j]
        partners[j] |= classes[i]
    return tuple((u, v) for u in range(g.n) for v in bits(partners[owner[u]] >> (u + 1) << (u + 1)))


def count_saturating(g: Graph, p: int, *, edges: bool = False, threads: int = 1) -> SaturationReport:
    """Count (optionally list) all p-clique-saturating edges of g.

    Refuses graphs that already contain a p-clique.  A saturating class pair
    adds C(s, 2) inside a class of size s and |A|*|B| between classes A and
    B.  With threads > 1 the class range is split across worker processes;
    results are identical, and listed edges are in lexicographic order.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    witness = g.clique_in(g.vertices_mask(), p)
    if witness is not None:
        raise CliquePresentError(f"graph already contains a {p}-clique {witness}")
    size = [cls.bit_count() for cls in g.twin_classes()]
    k = len(size)
    if threads == 1 or k < 64:
        found = _class_pairs(g, p, 0, k)
    else:
        chunks = min(threads * 4, k)
        bounds = [k * i // chunks for i in range(chunks + 1)]
        args = [(g, p, bounds[i], bounds[i + 1]) for i in range(chunks)]
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=threads) as pool:
            found = [pair for pairs in pool.starmap(_class_pairs, args) for pair in pairs]
    total = sum(size[i] * (size[i] - 1) // 2 if i == j else size[i] * size[j] for i, j in found)
    return SaturationReport(p=p, n=g.n, total=total, edges=_vertex_pairs(g, found) if edges else None)
