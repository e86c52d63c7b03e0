"""Counting p-clique-saturating edges.

A non-edge (u, v) of a K_p-free graph G is saturating when G + uv contains
a p-clique, i.e. when the common neighborhood of u and v holds a (p-2)-clique.
The count over all non-edges is the graph's saturating-edge number.
"""

from __future__ import annotations

import json
import multiprocessing
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .graph import Graph

if TYPE_CHECKING:
    from .constructions import Blowup


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


def _count_range(g: Graph, p: int, lo: int, hi: int, want_edges: bool):
    """Count saturating pairs (u, v) with lo <= u < hi, u < v."""
    full = g.vertices_mask()
    adj = g.adj
    total = 0
    found: list[tuple[int, int]] = []
    for u in range(lo, hi):
        above = full >> (u + 1) << (u + 1)
        cand = above & ~adj[u]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if g.clique_in(adj[u] & adj[v], p - 2) is not None:
                total += 1
                if want_edges:
                    found.append((u, v))
    return total, found


def count_saturating(g: Graph, p: int, *, edges: bool = False, threads: int = 1) -> SaturationReport:
    """Count (optionally list) all p-clique-saturating edges of g.

    Refuses graphs that already contain a p-clique.  With threads > 1 the
    vertex range is split across worker processes; results are identical to
    the sequential scan, and listed edges stay in lexicographic order.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    witness = g.clique_in(g.vertices_mask(), p)
    if witness is not None:
        raise CliquePresentError(f"graph already contains a {p}-clique {witness}")
    if threads == 1 or g.n < 64:
        total, found = _count_range(g, p, 0, g.n, edges)
    else:
        # contiguous u-ranges keep the concatenated edge lists lex-sorted
        chunks = min(threads * 4, g.n)
        bounds = [g.n * i // chunks for i in range(chunks + 1)]
        args = [(g, p, bounds[i], bounds[i + 1], edges) for i in range(chunks)]
        ctx = multiprocessing.get_context()
        with ctx.Pool(processes=threads) as pool:
            results = pool.starmap(_count_range, args)
        total = sum(t for t, _ in results)
        found = [e for _, es in results for e in es]
    return SaturationReport(p=p, n=g.n, total=total, edges=tuple(found) if edges else None)


def count_saturating_blowup(bu: Blowup, p: int) -> SaturationReport:
    """Closed-form saturating count for the h0/h1/h2 family.

    For these graphs the (bu.p + 1)-saturating edges are exactly the pairs
    inside V0 and inside each V_i, so the count is a sum of binomials over
    the V part sizes.  The U parts contribute nothing: a pair inside U_i has
    no common neighbor in V0 or U_i, leaving at most p-2 usable parts.
    """
    if p != bu.p + 1:
        raise ValueError(f"closed form is for p = {bu.p + 1}, got {p}")
    sizes = bu.spec.sizes[: bu.p]
    total = sum(s * (s - 1) // 2 for s in sizes)
    return SaturationReport(p=p, n=bu.graph.n, total=total)
