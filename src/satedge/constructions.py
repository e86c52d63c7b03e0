"""Turán graphs and the extremal blow-up constructions h0 / h1 / h2.

The base pattern: a complete (p-1)-partite graph with parts {v_i, u_i} plus
an apex v0 adjacent to every v_i.  Blowing the base up with part sizes

    |V0| = 2(p-1)(p-2)^2 x,   |V_i| = 4(p-1)^2(p-2) x,   |U_i| = p(3p-4) x

gives h0, a K_{p+1}-free graph on modulus(p) * x vertices where
modulus(p) = p(p-1)(4p^2-11p+8).  h1 stretches V0 by 2y and shrinks the
U side by a balanced y vertices, landing exactly on the Turán edge count
for n = modulus(p)*x + y; h2 does the same with 2y+1 / y+1 and overshoots
by a small surplus that trim_to_target removes by walking the U-incident
edges in order, keeping each removal that leaves the saturating count.

Vertex labels in every blow-up run V0 first, then V_1..V_{p-1}, then
U_1..U_{p-1}, each part a contiguous range.  A `Blowup` builds its graph
only when `.graph` is first read; `count_saturating(bu.spec, p + 1)` counts
from the spec alone, far past the vertex cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from .graph import BlowupSpec, Graph, VertexSet, bits, build_graph
from .saturation import count_saturating


def turan_graph(n: int, r: int) -> Graph:
    """Complete r-partite graph on n vertices with balanced parts, larger first."""
    if n < 0 or r < 1:
        raise ValueError("need n >= 0 and r >= 1")
    complete = build_graph(r, combinations(range(r), 2))
    return blow_up(BlowupSpec(complete, tuple(_balanced_split(n, r))))[0]


def turan_number(n: int, p: int) -> int:
    """Maximum edge count of an n-vertex graph with no p-clique."""
    if n < 0:
        raise ValueError("need n >= 0")
    if p < 2:
        raise ValueError("forbidden clique size must be >= 2")
    r = p - 1
    q, t = divmod(n, r)
    # complete r-partite with t parts of size q+1 and r-t of size q
    total = n * n
    total -= t * (q + 1) ** 2 + (r - t) * q * q
    return total // 2


def turan_defect(n: int, p: int) -> Fraction:
    """Exact defect d with turan_number(n, p) = (p-2)n^2/(2(p-1)) - d.

    d = t(p-1-t)/(2(p-1)) for t = n mod (p-1); zero iff (p-1) | n.
    """
    if n < 0:
        raise ValueError("need n >= 0")
    if p < 3:
        raise ValueError("need p >= 3")
    t = n % (p - 1)
    return Fraction(t * (p - 1 - t), 2 * (p - 1))


def modulus(p: int) -> int:
    """Vertex-count period of the constructions: p(p-1)(4p^2-11p+8)."""
    return p * (p - 1) * (4 * p * p - 11 * p + 8)


def base_graph(p: int) -> Graph:
    """The 2p-1 vertex base: K_{2,...,2} on pairs {v_i, u_i} plus apex v0.

    Labels: 0 = v0, 1..p-1 = v_i, p..2p-2 = u_i.
    """
    if p < 3:
        raise ValueError("need p >= 3")
    edges = []
    for i in range(1, p):
        edges.append((0, i))
        for j in range(i + 1, p):
            # all cross-pair edges of the complete multipartite core
            edges.append((i, j))
            edges.append((i, p - 1 + j))
            edges.append((p - 1 + i, j))
            edges.append((p - 1 + i, p - 1 + j))
    return build_graph(2 * p - 1, edges)


def blow_up(spec: BlowupSpec) -> tuple[Graph, tuple[VertexSet, ...]]:
    """Materialize a blow-up; returns (graph, spec.parts).

    Each base vertex becomes an independent set; cross-part adjacency copies
    the base edge.  Vertices of one part share a single adjacency mask.
    """
    parts = spec.parts
    adj: list[int] = [0] * spec.n
    for b, part in enumerate(parts):
        row = 0
        for nb in bits(spec.base.adj[b]):
            row |= parts[nb]
        for v in bits(part):
            adj[v] = row
    return Graph(spec.n, tuple(adj)), parts


@dataclass(frozen=True)
class Blowup:
    """A blow-up construction: its spec, and the graph built on first use."""

    spec: BlowupSpec
    p: int

    @cached_property
    def graph(self) -> Graph:
        return blow_up(self.spec)[0]

    @property
    def parts(self) -> tuple[VertexSet, ...]:
        return self.spec.parts

    @property
    def v_parts(self) -> tuple[VertexSet, ...]:
        """V0, V_1..V_{p-1}: the parts whose internal pairs saturate."""
        return self.parts[: self.p]

    @property
    def u_parts(self) -> tuple[VertexSet, ...]:
        return self.parts[self.p:]


def _h_sizes(p: int, x: int) -> list[int]:
    v0 = 2 * (p - 1) * (p - 2) ** 2 * x
    vi = 4 * (p - 1) ** 2 * (p - 2) * x
    ui = p * (3 * p - 4) * x
    return [v0] + [vi] * (p - 1) + [ui] * (p - 1)


def _balanced_split(total: int, parts: int) -> list[int]:
    """Split `total` into `parts` shares differing by <= 1, larger first."""
    q, rem = divmod(total, parts)
    return [q + 1 if i < rem else q for i in range(parts)]


def h0(p: int, x: int) -> Blowup:
    """The K_{p+1}-free blow-up on modulus(p)*x vertices."""
    if p < 3 or x < 1:
        raise ValueError("need p >= 3 and x >= 1")
    return Blowup(BlowupSpec(base_graph(p), tuple(_h_sizes(p, x))), p)


def _h_variant(p: int, x: int, extra_v0: int, drop_u: int) -> Blowup:
    sizes = _h_sizes(p, x)
    sizes[0] += extra_v0
    drops = _balanced_split(drop_u, p - 1)
    for i, d in enumerate(drops):
        sizes[p + i] -= d
    return Blowup(BlowupSpec(base_graph(p), tuple(sizes)), p)


def _check_domain(p: int, x: int, y: int, extra: int):
    """The domain of h1 (extra = 0) and h2 (extra = 1): the U parts, with
    p(p-1)(3p-4)x vertices in all, must outnumber the y + extra deleted."""
    if p < 3 or x < 1 or y < 0:
        raise ValueError("need p >= 3, x >= 1, y >= 0")
    u, drop = p * (p - 1) * (3 * p - 4) * x, y + extra
    if not u > drop:
        need = "y+1" if extra else "y"
        raise ValueError(f"infeasible remainder: need p(p-1)(3p-4)x > {need}, got {u} <= {drop}")


def h1(p: int, x: int, y: int) -> Blowup:
    """Exact-Turán-count construction on modulus(p)*x + y vertices.

    Grows V0 by 2y and deletes a balanced y vertices across the U parts
    (a balanced transversal of the complete multipartite U side, so the
    deleted set induces a Turán graph on y vertices).
    """
    _check_domain(p, x, y, 0)
    return _h_variant(p, x, 2 * y, y)


def h2(p: int, x: int, y: int) -> Blowup:
    """Like h1 with 2y+1 extra V0 vertices and y+1 balanced U deletions.

    Same vertex count as h1(p, x, y) but with a small edge surplus beyond
    the Turán number; see h2_surplus.
    """
    _check_domain(p, x, y, 1)
    return _h_variant(p, x, 2 * y + 1, y + 1)


def h2_surplus(p: int, x: int, y: int) -> int:
    """e(h2(p,x,y)) - turan_number(n, p), computed exactly.

    Equals (p-2)^3 x + t_{p-1}(y+1) - t_{p-1}(y) where t is the balanced
    multipartite edge count on p-1 parts.  Defined on h2's domain.
    """
    _check_domain(p, x, y, 1)
    ty1 = turan_number(y + 1, p)
    ty = turan_number(y, p)
    return (p - 2) ** 3 * x + ty1 - ty


class TrimError(ValueError):
    """Raised when trim_to_target cannot reach the requested edge count."""


def trim_to_target(bu: Blowup, target: int) -> Graph:
    """Remove U-incident edges until exactly `target` edges remain.

    The walk covers the U-incident edges (at least one endpoint in a U part)
    of the original graph in lexicographic order and stops as soon as the
    target is reached.  A removal is kept only if the count of
    K_{p+1}-saturating edges is unchanged, so the trim makes one recount per
    tried edge plus the baseline.  Raises ValueError on a negative target and
    TrimError if the walk cannot reach the target.
    """
    if target < 0:
        raise ValueError(f"target must be >= 0, got {target}")
    g = bu.graph
    if target > g.m:
        raise TrimError(f"target {target} exceeds edge count {g.m}")
    if target == g.m:
        return g
    u_mask = 0
    for pm in bu.u_parts:
        u_mask |= pm
    baseline = count_saturating(g, bu.p + 1, edges=False).total
    for u, row in enumerate(bu.graph.adj):  # the original rows; g loses edges
        above = row >> (u + 1) << (u + 1)
        if not u_mask >> u & 1:
            above &= u_mask  # a non-U endpoint needs its partner in U
        for v in bits(above):
            trial = g.without_edge(u, v)
            if count_saturating(trial, bu.p + 1, edges=False).total == baseline:
                g = trial
                if g.m == target:
                    return g
    raise TrimError(
        f"cannot reach {target} edges: {g.m} remain after scanning removable edges"
    )


def check_construction_edge_identity(n: int, p: int) -> bool:
    """turan_number(n,p) == (p-2)n^2/(2(p-1)) - turan_defect(n,p), exactly."""
    d = turan_defect(n, p)
    # the identity multiplied through by 2(p-1) and by d.denominator, in ints
    gap = (p - 2) * n * n - 2 * (p - 1) * turan_number(n, p)
    return gap * d.denominator == 2 * (p - 1) * d.numerator

