"""Compact undirected simple graphs with bitset adjacency and clique primitives.

Vertices are labelled 0..n-1.  A vertex set is an int bitmask (bit v set
iff vertex v is in the set); adjacency is one mask per vertex.  Python ints
are arbitrary precision, so masks need no fixed word layout; a configurable
vertex cap guards against accidental huge allocations.

Every clique search is one ordered enumerator, `enumerate_cliques`, which
lists the cliques inside a mask in lexicographic order.  Every saturating
test is one cover, `Graph.cover`: the vertices, among those wanted, whose
neighborhood meets a mask in a k-clique.  A non-edge uv is K_p-saturating
exactly when v is in the cover of N(u) at k = p - 2.

A `BlowupSpec` (a base graph plus one part size per base vertex) is both a
blow-up and the one quotient type: `Graph.quotient()` has one base vertex per
class of false twins (identical neighborhoods).  A clique uses at most one
vertex of a class, so the clique probe `Graph.clique_in` is the enumerator's
first clique on one representative per class, the cover runs on those
representatives too, and the saturating count runs on the quotient's base.
"""

from __future__ import annotations

import binascii
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, pairwise
from typing import Iterable, Iterator, Optional

VertexSet = int  # bitmask over 0..n-1

DEFAULT_VERTEX_CAP = 4096


def mask_of(vertices: Iterable[int]) -> VertexSet:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def bits(mask: VertexSet) -> Iterator[int]:
    """Yield set bit positions in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected simple graph.

    adj[v] is the neighborhood bitmask of v.  Invariants: symmetric, no
    loops.  Construct via build_graph / from_adjacency / graph6_decode.
    """

    __slots__ = ("n", "adj", "_m", "_twins", "_twin_groups", "_quotient", "_packings")

    def __init__(self, n: int, adj: tuple[int, ...]):
        self.n = n
        self.adj = adj
        self._m: Optional[int] = None
        self._twins: Optional[tuple[int, ...]] = None
        self._twin_groups: Optional[tuple[int, ...]] = None
        self._quotient: Optional[BlowupSpec] = None
        # p -> PackingRecord, made by the first packing search on this object
        self._packings: Optional[dict[int, PackingRecord]] = None

    @property
    def m(self) -> int:
        """Edge count."""
        if self._m is None:
            self._m = sum(a.bit_count() for a in self.adj) // 2
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def vertices_mask(self) -> VertexSet:
        return (1 << self.n) - 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges (u, v) with u < v in lexicographic order."""
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def non_edges(self) -> Iterator[tuple[int, int]]:
        """Yield non-adjacent pairs (u, v) with u < v in lexicographic order."""
        full = self.vertices_mask()
        for u in range(self.n):
            above = full >> (u + 1) << (u + 1)
            for v in bits(above & ~self.adj[u]):
                yield (u, v)

    def without_edge(self, u: int, v: int) -> "Graph":
        if not self.has_edge(u, v):
            raise ValueError(f"no edge {u}-{v} to remove")
        adj = list(self.adj)
        adj[u] &= ~(1 << v)
        adj[v] &= ~(1 << u)
        return Graph(self.n, tuple(adj))

    def with_edge(self, u: int, v: int) -> "Graph":
        if u == v:
            raise ValueError("loop edge")
        adj = list(self.adj)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        return Graph(self.n, tuple(adj))

    def clique_in(self, mask: VertexSet, k: int) -> Optional[tuple[int, ...]]:
        """The first k-clique inside `mask` that enumerate_cliques lists on
        the mask's twin representatives, or None."""
        return next(enumerate_cliques(self, k, self.twin_representatives(mask)), None)

    def cover(self, mask: VertexSet, k: int, want: VertexSet, stop: VertexSet = 0) -> VertexSet:
        """The members b of `want` whose neighborhood meets `mask` in a
        k-clique (every member at k = 0): the union of the common
        neighborhoods of the k-cliques inside `mask`, taken within `want`.

        Works on the mask's twin representatives, as clique_in does: a false
        twin has its class's neighborhood, so swapping it in keeps a clique
        and its common neighborhood.  The result stops growing once it meets
        `stop`, so one that meets it may be only part of the whole; one that
        does not is whole.
        """
        if k == 0 or not want:
            return want
        return _cover(self.adj, self.twin_representatives(mask), k, want, stop)

    def twin_classes(self) -> tuple[VertexSet, ...]:
        """Masks of false-twin classes (identical neighborhoods), cached.

        Members of one class are pairwise non-adjacent (equal neighborhoods
        forbid loops), so any clique uses at most one per class.
        """
        if self._twins is None:
            groups: dict[int, int] = {}
            for v, a in enumerate(self.adj):
                groups[a] = groups.get(a, 0) | (1 << v)
            self._twins = tuple(groups.values())
        return self._twins

    def twin_representatives(self, mask: VertexSet) -> VertexSet:
        """One representative per twin class that meets `mask`: the class's
        lowest member in `mask`.

        Starts from the mask and visits only the classes of two or more
        members (listed once per graph): where one holds two or more of the
        mask's vertices, all but the lowest are dropped.
        """
        classes = self.twin_classes()
        if len(classes) == self.n:
            return mask  # twin-free: every class is a singleton
        if self._twin_groups is None:
            self._twin_groups = tuple(cls for cls in classes if cls & (cls - 1))
        out = mask
        for cls in self._twin_groups:
            rest = cls & mask
            rest &= rest - 1  # the class's members in the mask but its lowest
            if rest:
                out ^= rest
        return out

    def quotient(self) -> "BlowupSpec":
        """The twin-class quotient: base vertex i is the i-th class of
        twin_classes(), with that class's size, cached.  A twin-free graph is
        its own base; that quotient is not cached, since it would hold the
        graph that holds it."""
        classes = self.twin_classes()
        if len(classes) == self.n:
            return BlowupSpec(self, (1,) * self.n)
        if self._quotient is not None:
            return self._quotient
        lows = [cls & -cls for cls in classes]  # each class's lowest member, as a bit
        index = {low: 1 << i for i, low in enumerate(lows)}
        rep_mask = sum(lows)
        adj = []
        for low in lows:
            row = 0
            nbrs = self.adj[low.bit_length() - 1] & rep_mask
            while nbrs:
                bit = nbrs & -nbrs
                row |= index[bit]
                nbrs ^= bit
            adj.append(row)
        self._quotient = BlowupSpec(Graph(len(lows), tuple(adj)), tuple(map(int.bit_count, classes)))
        return self._quotient

    def packing_record(self, p: int) -> "PackingRecord":
        """This graph object's record of p-clique packings, empty when first
        asked for.  It lives on the object, never keyed by graph value: an
        equal graph built anew starts with a record of its own."""
        if self._packings is None:
            self._packings = {}
        record = self._packings.get(p)
        if record is None:
            record = self._packings[p] = PackingRecord()
        return record

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass
class PackingRecord:
    """What the exact packing search has listed and proved on one graph
    object at one clique size p (`Graph.packing_record`).

    `cliques` holds the p-cliques of the graph's twin-class quotient, as
    (mask, tuple) over the class indices, once a search has listed them in
    full; `nu` holds the packing number once an exhaustive search has
    proved it.  Both start as None.
    """

    cliques: Optional[tuple[tuple[VertexSet, tuple[int, ...]], ...]] = None
    nu: Optional[int] = None


@dataclass(frozen=True)
class BlowupSpec:
    """A base graph plus one part size per base vertex."""

    base: Graph
    sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.sizes) != self.base.n:
            raise ValueError("one size per base vertex required")
        if min(self.sizes, default=0) < 0:
            raise ValueError("part sizes must be nonnegative")

    @property
    def n(self) -> int:
        return sum(self.sizes)

    @cached_property
    def parts(self) -> tuple[VertexSet, ...]:
        """Vertex masks of the blow-up's parts: contiguous ranges in base order."""
        parts = []
        start = 0
        for s in self.sizes:
            parts.append(((1 << s) - 1) << start)
            start += s
        return tuple(parts)


def build_graph(n: int, edges: Iterable[tuple[int, int]], cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Build a graph from an edge list; duplicate and mirrored pairs collapse."""
    if n < 0:
        raise ValueError("negative vertex count")
    if n > cap:
        raise ValueError(f"vertex count {n} exceeds cap {cap}")
    adj = [0] * n
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"vertex out of range in edge ({u},{v})")
        if u == v:
            raise ValueError(f"loop edge ({u},{v})")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def from_adjacency(adj: Iterable[int], cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    """Wrap raw adjacency masks, validating symmetry and loop-freeness."""
    rows = tuple(adj)
    n = len(rows)
    if n > cap:
        raise ValueError(f"vertex count {n} exceeds cap {cap}")
    full = (1 << n) - 1
    for v, a in enumerate(rows):
        if a >> v & 1:
            raise ValueError(f"loop at vertex {v}")
        if a & ~full:
            raise ValueError(f"adjacency of {v} outside vertex range")
    for v, a in enumerate(rows):
        for u in bits(a):
            if not rows[u] >> v & 1:
                raise ValueError(f"asymmetric adjacency {v}->{u}")
    return Graph(n, rows)


def common_neighborhood(g: Graph, u_set: VertexSet) -> VertexSet:
    """Intersection of the neighborhoods of all vertices in u_set."""
    if u_set == 0:
        raise ValueError("common neighborhood of an empty set is undefined")
    out = g.vertices_mask()
    for v in bits(u_set):
        out &= g.adj[v]
    return out


def edges_between(g: Graph, u_set: VertexSet, w_set: VertexSet) -> int:
    """Number of edges with one endpoint in each of two disjoint sets."""
    if u_set & w_set:
        raise ValueError("edges_between requires disjoint vertex sets")
    return sum((g.adj[v] & w_set).bit_count() for v in bits(u_set))


def induced_edges(g: Graph, mask: VertexSet) -> int:
    """Number of edges with both endpoints inside `mask`."""
    return sum((g.adj[v] & mask).bit_count() for v in bits(mask)) // 2


def _cover(adj: tuple[int, ...], mask: VertexSet, k: int, want: VertexSet, stop: VertexSet) -> VertexSet:
    """Graph.cover on adjacency rows, k >= 1, one recursion level per clique
    vertex but the last.

    Each vertex v of the mask, by increasing label, starts the k-cliques
    whose lowest member it is, and only the members of `want` adjacent to v
    and not yet covered can gain from them: v is skipped when none is left,
    and otherwise the rest of such a clique is a (k-1)-clique of the later
    vertices of mask & N(v) that those members see.  When one member b is
    left, those vertices narrow to N(b) as well, which holds every clique b
    sees.  At k = 2 the last vertex is read off directly: the members
    adjacent to one of them.  A mask of fewer than k vertices holds no
    k-clique.  The loop ends once the result meets `stop` or holds all of
    `want`.
    """
    out = 0
    while mask.bit_count() >= k:
        low = mask & -mask
        mask ^= low
        row = adj[low.bit_length() - 1]
        left = want & row & ~out
        if not left:
            continue
        if k == 1:
            out |= left
        else:
            rest = mask & row
            if not left & (left - 1):
                rest &= adj[left.bit_length() - 1]
            if k > 2:
                out |= _cover(adj, rest, k - 1, left, stop)
            else:
                while rest and left & ~out:
                    low = rest & -rest
                    rest ^= low
                    out |= left & adj[low.bit_length() - 1]
        if out == want or out & stop:
            break
    return out


def find_clique(g: Graph, p: int) -> Optional[tuple[int, ...]]:
    """A witness p-clique of g, or None."""
    return g.clique_in(g.vertices_mask(), p)


def contains_clique(g: Graph, p: int) -> bool:
    return find_clique(g, p) is not None


def enumerate_cliques(g: Graph, p: int, mask: Optional[VertexSet] = None) -> Iterator[tuple[int, ...]]:
    """All p-cliques inside `mask` (default: every vertex) as sorted tuples,
    in lexicographic order.

    Ordered expansion over increasing vertex labels with a population-count
    prune, on an explicit stack; no twin collapsing here since every clique
    must be emitted (`Graph.clique_in` takes the first one on twin
    representatives).
    """
    if p < 1:
        raise ValueError("clique size must be >= 1")
    adj = g.adj
    out = [0] * p  # out[:depth + 1]: the clique being extended
    stack = [0] * p  # stack[i]: the candidates left for out[i]
    stack[0] = g.vertices_mask() if mask is None else mask
    depth = 0
    while depth >= 0:
        cand = stack[depth]
        if cand.bit_count() < p - depth:
            depth -= 1
            continue
        low = cand & -cand
        cand ^= low
        stack[depth] = cand
        v = low.bit_length() - 1
        out[depth] = v
        if depth == p - 1:
            yield tuple(out)
        else:
            depth += 1
            stack[depth] = cand & adj[v]


# graph6 interchange format (canonical ASCII encoding of simple graphs).
# The body is the upper triangle read column by column, row 0 first, six bits
# to a character (value + 63).  Both directions work on whole integers, with
# no Python step per bit: the triangle is one int whose bit i is stream bit i;
# `to_bytes` and a per-byte bit reversal give the stream most significant bit
# first, and base64 cuts that into the same 6-bit groups (graph6 is base64
# over the alphabet 63..126).  `graph6_from_bytes` takes the stream in that
# form, so a caller that holds the columns with row 0 in the highest bit (the
# canonical labelling's) joins them with no reversal.  Decoding pads each
# column to n bits, so that a vertex's higher neighbours, a row of the
# triangle, are one strided slice.

_G6_LONG = 126  # '~' prefix for the >= 63 vertex form
_G6_MAX_ORDER = 258047  # the largest order the '~' form holds
_B64 = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
_G6 = bytes(range(63, 127))
_B64_TO_G6 = bytes.maketrans(_B64, _G6)
_G6_TO_B64 = bytes.maketrans(_G6, _B64)
_REVERSE_BITS = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def graph6_from_bytes(n: int, raw: bytes) -> str:
    """graph6 text of the n-vertex graph whose bit stream is `raw`, read
    most significant bit of each byte first, with every bit past the stream's
    n(n-1)/2 zero: the header, then the stream cut into 6-bit characters."""
    if n < 63:
        head = chr(n + 63)
    elif n <= _G6_MAX_ORDER:
        head = "~" + "".join(chr(((n >> s) & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError("graph too large for supported graph6 forms")
    chars = (n * (n - 1) // 2 + 5) // 6
    return head + binascii.b2a_base64(raw, newline=False).translate(_B64_TO_G6)[:chars].decode()


def graph6_encode(g: Graph) -> str:
    n = g.n
    if n > _G6_MAX_ORDER:  # refused before the n(n-1)/2-bit stream is built
        raise ValueError("graph too large for supported graph6 forms")
    adj = g.adj
    stream = 0  # bit i is stream bit i: columns in order, each row 0 first
    for col in range(n - 1, 0, -1):
        stream = (stream << col) | (adj[col] & ((1 << col) - 1))
    return graph6_from_bytes(n, stream.to_bytes(-(-n * (n - 1) // 16), "little").translate(_REVERSE_BITS))


def graph6_decode(text: str, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    if not s:
        raise ValueError("empty graph6 string")
    data = s.encode("utf-8", "surrogatepass")  # a non-ASCII character gives bytes >= 128
    if data.translate(None, _G6):  # a byte outside 63..126 is left
        raise ValueError("malformed graph6: byte out of printable range")
    if data[0] == _G6_LONG:
        if len(data) >= 2 and data[1] == _G6_LONG:
            raise ValueError("graph6 8-byte order form not supported")
        if len(data) < 4:
            raise ValueError("malformed graph6: truncated long-form order")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        body = data[4:]
    else:
        n = data[0] - 63
        body = data[1:]
    if n > cap:
        raise ValueError(f"graph6 order {n} exceeds cap {cap}")
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise ValueError("malformed graph6: wrong body length")
    # "A" is base64's zero, padding the body to whole 4-character groups
    raw = binascii.a2b_base64(body.translate(_G6_TO_B64) + b"A" * (-len(body) % 4))
    stream = int.from_bytes(raw.translate(_REVERSE_BITS), "little")  # bit i is stream bit i
    if stream >> need:
        raise ValueError("malformed graph6: nonzero padding")
    # digits holds columns n-1, ..., 1, 0 in turn, column c being c bits long;
    # padded to n bits each, they make an n x n square in which vertex v's
    # column is one block (its lower neighbours) and its row one stride (its
    # higher neighbours), both most significant bit first
    digits = format(stream, f"0{need}b")
    square = "".join([digits[i:j].rjust(n, "0") for i, j in pairwise(accumulate(range(n - 1, -1, -1), initial=0))])
    adj = tuple([int(square[(n - 1 - v) * n : (n - v) * n], 2) | int(square[n - 1 - v :: n], 2) for v in range(n)])
    return Graph(n, adj)


def format_edge_list(g: Graph) -> str:
    """Text form: header "n m" then one "u v" line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str, cap: int = DEFAULT_VERTEX_CAP) -> Graph:
    rows = [ln for ln in (ln.strip() for ln in text.splitlines()) if ln]
    if not rows:
        raise ValueError("empty edge-list input")
    try:
        n, m = (int(tok) for tok in rows[0].split())
    except ValueError as exc:
        raise ValueError("edge-list header must be 'n m'") from exc
    edges = []
    for ln in rows[1:]:
        toks = ln.split()
        if len(toks) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        edges.append((int(toks[0]), int(toks[1])))
    g = build_graph(n, edges, cap=cap)
    if g.m != m:
        raise ValueError(f"edge-list header claims {m} edges, found {g.m}")
    return g
