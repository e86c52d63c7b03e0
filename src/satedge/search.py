"""Exhaustive minimum-saturating-count search over small graphs.

The engine enumerates K_p-free graphs on n vertices up to isomorphism by
level-wise vertex extension with canonical-form deduplication, then takes
the minimum saturating count over the classes with the requested edge count.
Classes grow along a minimum-degree construction path, and `explored`
counts the candidates generated (each charged once to the budget).  A
parent's twins (equal open or closed neighbourhoods) are swapped by
automorphisms, so a new vertex is joined only to one set per orbit of those
swaps: the set that takes the lowest members of each twin class.

Every search prunes by the saturating count itself.  Deleting a vertex w
never raises it, f_p(H - w) <= f_p(H): every non-edge of H - w is one of
H, and (H - w) + uv lies inside H + uv.  So "at most U saturating edges"
is hereditary, and generation by canonical deletion may drop every class
above U at every level without losing a class within it (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  The
bound deepens in one loop for the single searches and the table alike,
from U = 0 to the least count of a waiting child each time: it stops at
the first pass that reaches every edge count of its window, and that pass
has the exact minimum of each and all its witnesses.  A child's count is
its parent's plus the pairs the new vertex makes saturating, so it is
known before the child is labelled.  Both that delta and the parent's
saturating pairs are read off `Graph.cover(mask, k, want)`: the vertices b
of `want` whose neighbourhood meets the mask in a k-clique, which is the
union of the common neighbourhoods of the k-cliques inside the mask, taken
within `want`.  The pair (a, b) is saturating when b is in the cover of
N(a) at k = p - 2; the new vertex v's non-edges (v, b) outside its set s
when b is in the cover of s at k = p - 2; and an old non-edge (a, b)
inside s becomes saturating when b is in the cover of N(a) & s at
k = p - 3.  So no pair is probed on its own.  The cover of s also decides
whether s may be joined at all: s holds a (p-1)-clique exactly when it
meets its own cover, so the extension step computes it once, as its
filter, and hands it to the count.  A child above the bound waits
unlabelled, filed by count, for a pass whose bound reaches it.  The passes
of one search share one store: a pass expands only the classes it labels
and then drops them, so each candidate is generated once per search.  A
child within the bound is labelled only if its new vertex
lies in the first cell of its refinement, McKay's canonical-deletion test
with that cell as the invariant: some isomorphic child passes it, so no
class is lost.  The jump search then runs to n = 12 at p = 3 in about a
third of a second.

Canonical form: vertices are first partitioned by iterated degree
refinement; the canonical labeling is the class-respecting relabeling that
minimizes the upper-triangle adjacency bit string read column by column,
and of several minimizing relabelings the first found by a depth-first
search that tries each position's candidates by increasing label.  Three
exact shortcuts keep this fast without changing the answer:

- Refinement re-splits cells only against the pieces of the cells that
  split in the last round, all but the last piece of each (the splitter
  cells of McKay & Piperno, "Practical graph isomorphism II", 2014).
  Members of one cell already agree on their counts to every older cell,
  so the cells are those of re-reading every cell each round.
- Every candidate at a position adds a column of the same length after the
  same prefix, so only the candidates with the least column can lead to the
  least string; the others are never entered.  They are found by filtering
  the free members' mask against the placed vertices in placement order,
  with no column built per vertex.
- Two free vertices with equal neighbourhoods (false twins) or equal closed
  neighbourhoods (true twins) are swapped by an automorphism that fixes the
  prefix, so the later one's subtree repeats the earlier one's strings, and
  it is skipped.  The first minimizing leaf lies under the earlier one.  The
  twin classes are built only when the search first backtracks to a further
  member of some position.

The search keeps its path on an explicit stack of frames, not the call
stack, so a graph of any size is labelled without a recursion limit.  No
automorphism group is stored, and no external isomorphism code is involved.
The columns of the winning ordering are the relabeled graph's graph6 bit
stream, so the key is cut from them with no relabeled copy; only when the
refined cells are all singletons, and no search runs, is the graph relabeled
and encoded.  The level store relabels a child only when it keeps it as a
new class.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, Optional

from .graph import Graph, bits, graph6_encode, graph6_from_bytes, mask_of
from .constructions import turan_graph, turan_number
from .formulas import CheckFailedError

DEFAULT_SEARCH_BUDGET = 10 ** 9


class InfeasibleError(ValueError):
    """No graph with the requested parameters exists."""


def _refined_cells(g: Graph) -> list[list[int]]:
    """The cells of iterated (cell, neighbour count per cell) refinement from
    the degrees, in cell order, each cell's vertices in increasing order.

    Each round splits a cell by its members' neighbour counts to the cells,
    read in cell order; the pieces take the cell's place, in that vector's
    order (more neighbours in an earlier cell first).  Members of one cell
    agree on their counts to every cell of the round before, so only the
    pieces of the cells that split in the last round can tell them apart:
    reading the counts against those pieces alone orders the members exactly
    as the full vectors do.  Refinement stops when no cell splits, or as
    soon as every cell is a singleton (from the degrees or after any round),
    since no later round can split one; singleton cells are carried over
    unread.

    The counts are packed into one int per vertex, the first splitter's in
    the highest bits, so ints compare as the count vectors do.  The last
    piece of each split cell is no splitter (in round one, the last degree
    cell): a member's count to it is its count to the whole cell, which all
    members share, less its counts to the other pieces.  Two vectors first
    differ before such a dropped count or not at all, so the order stays.
    Dropping any other piece would not keep it: a difference in the dropped
    count comes with one of opposite sign in a later piece, which would
    decide the order instead.
    """
    adj = g.adj
    n = g.n
    width = n.bit_length()
    by_degree: dict[int, list[int]] = {}
    for v, a in enumerate(adj):
        by_degree.setdefault(a.bit_count(), []).append(v)
    cells = [by_degree[d] for d in sorted(by_degree)]
    if len(cells) == n:
        return cells
    splitters = []
    for cell in cells[:-1]:
        mask = 0
        for v in cell:
            mask |= 1 << v
        splitters.append(mask)
    while splitters:
        refined: list[list[int]] = []
        next_splitters: list[int] = []
        for cell in cells:
            if len(cell) == 1:
                refined.append(cell)
                continue
            groups: dict[int, list[int]] = {}
            for v in cell:
                a = adj[v]
                sig = 0
                for s in splitters:
                    sig = sig << width | (a & s).bit_count()
                groups.setdefault(sig, []).append(v)
            if len(groups) == 1:
                refined.append(cell)
                continue
            split = [groups[sig] for sig in sorted(groups, reverse=True)]
            refined += split
            for piece in split[:-1]:
                mask = 0
                for v in piece:
                    mask |= 1 << v
                next_splitters.append(mask)
        if len(refined) == n:
            return refined
        cells, splitters = refined, next_splitters
    return cells


def _twin_masks(adj: tuple[int, ...], vertices: Iterable[int]) -> list[int]:
    """twins[v]: v's false twins (equal neighbourhoods) or true twins (equal
    closed neighbourhoods) among `vertices`, v included, for v in
    `vertices`; 0 at the other vertices.

    No vertex has both kinds, so over a set closed under twins these are the
    twin classes, and swapping two members of one class is an automorphism.
    """
    open_nbhd: dict[int, int] = {}
    closed_nbhd: dict[int, int] = {}
    for v in vertices:
        a = adj[v]
        open_nbhd[a] = open_nbhd.get(a, 0) | 1 << v
        closed_nbhd[a | 1 << v] = closed_nbhd.get(a | 1 << v, 0) | 1 << v
    twins = [0] * len(adj)
    for v in vertices:
        twins[v] = open_nbhd[adj[v]] | closed_nbhd[adj[v] | 1 << v]
    return twins


def canonical_ordering(g: Graph) -> tuple[int, ...]:
    """Position -> original vertex for the canonical labeling.

    Among all orderings listing refinement classes in class order, returns
    the one minimizing the adjacency bit string read in column order (the
    graph6 bit order), so canonical graphs give minimal graph6 strings
    within their class-respecting orbit.  Of several minimizing orderings it
    returns the first when each position tries its class's free vertices by
    increasing label.
    """
    return _canonical_ordering(g, _refined_cells(g))[0]


def _canonical_ordering(g: Graph, cells: list[list[int]]) -> tuple[tuple[int, ...], Optional[list[int]]]:
    """canonical_ordering(g), given g's refined cells `cells`, and the
    columns of that ordering: cols[j] holds the adjacencies of its j-th
    vertex to the j before it, the first in the highest bit.  The columns
    are None when the cells are all singletons, as no search then runs.

    A depth-first search over prefixes `placed` of orderings.  A vertex's
    column against the prefix has the first placed vertex in its highest
    bit, so the ints compare as the bit strings do.  Only the free members
    of the position's cell with the least column are entered, and they are
    found by filtering the cell's free mask, not by building columns: walk
    the prefix in placement order and keep the members not adjacent to the
    placed vertex if there are any (that bit of the least column is 0);
    otherwise every member is adjacent and the bit is 1.  Columns of equal
    length compare at their first differing bit, where a 0 wins, so after
    each step the kept members are exactly those whose column so far is the
    least.  The final mask is therefore the members with the least column,
    the same candidates a column per vertex would pick, and the bits read
    off on the way are that column, `low`.  Its members are tried by
    increasing label.

    The search runs on an explicit stack, one frame per position of the
    prefix: [members left to try there, tight, found, low].  `tight` means
    the prefix's columns equal the best ordering's (or there is no best
    yet), `found` that a leaf below set a new best.  The columns of a new
    best ordering are the frames' `low`s at its leaf.  The twin classes are
    built only when a frame first moves on to a further member, so a search
    that never backtracks to one does not build them, and only over the
    non-singleton cells: swapping two twins is an automorphism, so twins
    share a refined cell, and a singleton cell's frame has no further member.
    """
    n = g.n
    adj = g.adj
    if len(cells) == n:  # all cells are singletons: one class-respecting ordering
        return tuple(cell[0] for cell in cells), None
    slots: list[int] = []
    for cell in cells:
        slots += [mask_of(cell)] * len(cell)
    non_adj = [~a for a in adj]
    twins: Optional[list[int]] = None

    best_cols: Optional[list[int]] = None
    best_perm: Optional[tuple[int, ...]] = None
    placed: list[int] = []
    used = 0
    frames: list[list] = []
    tight = True
    while True:
        # the node below `placed`: enter its first member, or hand back `found`
        pos = len(placed)
        if pos == n:
            found = not tight or best_cols is None
            if found:
                best_perm = tuple(placed)
                best_cols = [frame[3] for frame in frames]
        else:
            least = slots[pos] & ~used
            low = 0
            for u in placed:
                rest = least & non_adj[u]
                if rest:
                    least, low = rest, low << 1
                else:
                    low = low << 1 | 1
            if tight and best_cols is not None:
                if low > best_cols[pos]:
                    least = 0  # only larger strings lie below
                tight = low == best_cols[pos]
            if least:
                # a free twin of the lowest member would share its cell and
                # column, so it would be a lower member: no twin check
                bit = least & -least
                frames.append([least ^ bit, tight, False, low])
                placed.append(bit.bit_length() - 1)
                used |= bit
                continue
            found = False
        # go up the stack to the first frame with a member left to enter
        while True:
            used ^= 1 << placed.pop()
            frame = frames[-1]
            if found:
                frame[1] = frame[2] = True
            least = frame[0]
            if least and twins is None:
                twins = _twin_masks(adj, [v for cell in cells if len(cell) > 1 for v in cell])
            while least:
                bit = least & -least
                least ^= bit
                # a free twin below this member was tried here already, and
                # swapping the two is an automorphism fixing the prefix that
                # maps its subtree onto this member's
                if not twins[bit.bit_length() - 1] & ~used & (bit - 1):
                    break
            else:
                bit = 0
            if bit:
                frame[0] = least
                placed.append(bit.bit_length() - 1)
                used |= bit
                tight = frame[1]
                break
            frames.pop()
            if not frames:
                if best_perm is None:
                    raise CheckFailedError(f"no canonical ordering found for a {n}-vertex graph")
                return best_perm, best_cols
            found = frame[2]


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    return _relabel(g, canonical_ordering(g))


def _relabel(g: Graph, perm: tuple[int, ...]) -> Graph:
    """The copy of g with vertex perm[i] at position i."""
    at = [0] * g.n
    for i, v in enumerate(perm):
        at[v] = 1 << i
    rows = []
    for v in perm:
        a = g.adj[v]
        row = 0
        while a:
            low = a & -a
            row |= at[low.bit_length() - 1]
            a ^= low
        rows.append(row)
    return Graph(g.n, tuple(rows))


def _graph6_of_columns(cols: list[int]) -> str:
    """graph6 of the graph with the columns `cols` (as `_canonical_ordering`
    hands them back): graph6 reads the upper triangle column by column, row 0
    first, so the columns joined in order, each most significant bit first,
    are its bit stream."""
    n = len(cols)
    stream = 0
    for j in range(1, n):
        stream = stream << j | cols[j]
    length = n * (n - 1) // 2
    size = -(-length // 8)
    return graph6_from_bytes(n, (stream << (8 * size - length)).to_bytes(size, "big"))


def canonical_key(g: Graph) -> str:
    """Isomorphism-invariant string: graph6 of the canonical relabeling.

    It is read off the winning ordering's columns, with no relabeled copy
    built, except when the refined cells are all singletons and no search
    ran: then the copy is relabeled and encoded.
    """
    perm, cols = _canonical_ordering(g, _refined_cells(g))
    return graph6_encode(_relabel(g, perm)) if cols is None else _graph6_of_columns(cols)


def _extend(g: Graph, nbhd: int) -> Graph:
    """Add one vertex adjacent to the mask `nbhd` of existing vertices."""
    n = g.n
    adj = [a | ((nbhd >> v & 1) << n) for v, a in enumerate(g.adj)]
    adj.append(nbhd)
    return Graph(n + 1, tuple(adj))


def _extensions(g: Graph, p: int, m_lo: int, e_max: int) -> list[tuple[int, int]]:
    """(s, cover) for the masks s, in increasing order, that join a new vertex
    to g as a candidate child: the new vertex has minimum degree in g + s,
    the child has m_lo to e_max edges, and s holds no (p-1)-clique.

    cover is `g.cover(s, p - 2, ...)` over every vertex, the vertices whose
    neighbourhood meets s in a (p-2)-clique.  s holds a (p-1)-clique exactly
    when a member of s is one of them, so s is kept when cover & s is empty,
    and the same cover is `_count_delta`'s term (ii).  The cover stops
    growing once it meets s, which settles that s is dropped; a kept s's
    cover is always whole.

    Only one s per orbit of g's twin swaps is listed: the one that takes
    the lowest members of each twin class.  Swapping two twins of g is an
    automorphism sigma, so g + s and g + sigma(s) are isomorphic, and every
    filter above reads only degrees, |s| and cliques, which sigma keeps.
    """
    degrees = [a.bit_count() for a in g.adj]
    delta = min(degrees)
    low = sum(1 << v for v, d in enumerate(degrees) if d == delta)
    d_lo, d_hi = m_lo - g.m, min(e_max - g.m, delta + 1)
    twins = _twin_masks(g.adj, range(g.n))
    # (mask, size) of the orbit representatives over the classes so far,
    # dropped once the size can no longer end in [d_lo, d_hi]
    partial = [(0, 0)]
    left = g.n
    for v, members in enumerate(twins):
        if members & -members != 1 << v:
            continue  # the class was taken at its lowest member
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
    full = g.vertices_mask()
    kept = []
    for s, d in partial:
        if d <= delta or s & low == low:
            cover = g.cover(s, p - 2, full, s)
            if not cover & s:
                kept.append((s, cover))
    kept.sort()
    return kept


def _saturating_masks(g: Graph, p: int) -> list[int]:
    """sat[a]: the vertices b with (a, b) a p-saturating non-edge of g.

    (a, b) is saturating when N(a) & N(b) holds a (p-2)-clique, that is when
    b is in the cover of N(a) at k = p - 2, taken within a's
    non-neighbours.
    """
    full = g.vertices_mask()
    return [g.cover(row, p - 2, full & ~row & ~(1 << a)) for a, row in enumerate(g.adj)]


def _count_delta(g: Graph, sat: list[int], s: int, cover: int, p: int) -> int:
    """How many more p-saturating non-edges g + s has than g, given g's
    saturating masks `sat` (a new vertex v joined to the mask s) and s's
    cover at k = p - 2 from `_extensions`.

    A non-edge of g keeps its status unless both ends lie in s, where v
    joins their common neighbourhood: (i) such a pair (a, b) that was not
    saturating becomes so when v closes a (p-2)-clique with a (p-3)-clique
    of the common neighbourhood inside s, which at p = 3 is the empty one.
    (ii) The new non-edges are (v, b) for b outside s, saturating when
    s & N(b) holds a (p-2)-clique.

    Each term is one popcount of a `Graph.cover`, with no probe per pair:
    (ii) counts `cover & ~s`, and (i), for each a in s, the cover of
    N(a) & s at k = p - 3 taken within the fresh pairs' ends b, since a
    (p-3)-clique lies inside N(a) & N(b) & s exactly when it lies inside
    N(a) & s and b is adjacent to all of it.
    """
    adj = g.adj
    delta = 0
    for a in bits(s):
        fresh = s & ~adj[a] & ~sat[a] & -(2 << a)
        if fresh:
            delta += g.cover(adj[a] & s, p - 3, fresh).bit_count()
    return delta + (cover & ~s).bit_count()


class _Levels:
    """The classes of one search, level by level, over the passes of a
    deepening count bound.

    levels[k] maps the canonical key of each class on k + 1 vertices to
    (canonical graph, saturating count).  A pass expands every class of
    level k - 1, empties that level, and labels into level k the children
    waiting within its bound; the top level, k = n - 1, keeps every pass's
    classes.  A child is counted before it is labelled, from its parent's
    count and saturating pairs (`_count_delta`), and waits in waiting[k],
    filed by count as (parent graph, mask).  So a class is labelled, and
    expanded, in the first pass whose bound reaches its count, and each
    candidate is generated once per search and labelled at most once.  An
    emptied level is never needed again: every copy of one of its classes
    comes from a parent with at most its count, so it was generated before
    the level was emptied.  The store also holds the search's budget:
    `spent` counts the candidates generated by all passes together and
    stays within max(budget, 0).

    A child (a class plus a vertex joined to a subset s) is kept only if
    the new vertex has minimum degree in it: every class H is the
    representative of H - w extended by N(w), w of minimum degree.  That
    deletion never lowers the edge density m / C(k, 2), so a child on k + 1
    vertices needs e_min * C(k + 1, 2) / C(n, 2) to e_max edges.  K_p-free
    children that pass, one per orbit of the parent's twin swaps, are the
    candidates (one unit of budget each), deduplicated by canonical key.

    A candidate within the bound is refined first and labelled, from those
    same cells, only if its new vertex lies in the first refined cell;
    `labelled` counts the labels.  Cells are ordered by degree, so the
    first holds only vertices of minimum degree, and which vertices it
    holds does not depend on the labels.  So every class H within the bound
    has a vertex w in it; H - w is a class within the bound and the edge
    window (above), its orbit representative extended by N(w) is a
    candidate isomorphic to H, and an isomorphism takes the new vertex to
    w, into the first cell.  Skipping the other candidates loses no class.
    The budget is charged at generation, so `spent` does not change.
    """

    def __init__(self, n: int, p: int, e_min: int, e_max: int, budget: int):
        self.n, self.p, self.e_min, self.e_max = n, p, e_min, e_max
        self.budget, self.spent, self.labelled = budget, 0, 0
        single = Graph(1, (0,))
        self.levels: list[dict[str, tuple[Graph, int]]] = [{graph6_encode(single): (single, 0)}]
        self.levels += [{} for _ in range(n - 1)]
        self.waiting: list[dict[int, list[tuple[Graph, int]]]] = [{} for _ in range(n)]

    def classes(self, bound: int) -> tuple[dict[str, tuple[Graph, int]], bool]:
        """One pass: the classes on n vertices with at most `bound` saturating
        edges, as key -> (graph, count) in key order; exact is False on
        budget exhaustion.

        Bounds must increase from pass to pass, as `_deepen`'s do: a pass
        expands only the classes it labels, so a lower bound labels nothing.
        """
        n, p = self.n, self.p
        exact = True
        for k in range(1, n):
            # ceil(e_min * C(k+1, 2) / C(n, 2)); at least e_min - C(n, 2) + C(k+1, 2)
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
                    child = _extend(g, s)
                    cells = _refined_cells(child)
                    if k not in cells[0]:
                        continue  # an isomorphic child whose new vertex is in cell 0 is kept
                    perm, cols = _canonical_ordering(child, cells)
                    self.labelled += 1
                    if cols is None:
                        cg = _relabel(child, perm)
                        key = graph6_encode(cg)
                    else:
                        cg, key = None, _graph6_of_columns(cols)
                    if key not in children:
                        children[key] = (cg if cg is not None else _relabel(child, perm), count)
            if not exact:
                # a cut level cannot vouch for completeness of later ones
                return (dict(sorted(children.items())) if k == n - 1 else {}), False
        return dict(sorted(self.levels[n - 1].items())), True

    def next_bound(self) -> Optional[int]:
        """The least count of a waiting child, or None when none waits."""
        return min((count for waiting in self.waiting for count in waiting), default=None)


@dataclass(frozen=True)
class SearchResult:
    """One search's minimum and every minimising class (canonical graph6).

    `explored` counts the candidates generated over all passes of a
    deepening count bound, each once and each charged to the budget (only
    some of those within the final bound are labelled); `exact` is False
    when the budget ran out first.
    """

    n: int
    e: int
    p: int
    minimum: Optional[int]
    witnesses: tuple[str, ...]
    explored: int
    exact: bool

    def to_dict(self) -> dict:
        return {**asdict(self), "witnesses": list(self.witnesses)}


def _validate_instance(n: int, e: int, p: int):
    if p < 3:
        raise ValueError("need p >= 3")
    if n < 1:
        raise ValueError("need n >= 1")
    if e < 0 or e > n * (n - 1) // 2:
        raise InfeasibleError(f"no {n}-vertex graph has {e} edges")
    cap = turan_number(n, p)
    if e > cap:
        raise InfeasibleError(
            f"no K_{p}-free graph on {n} vertices has {e} edges (max {cap})"
        )


def _minimise(
    classes: dict[str, tuple[Graph, int]],
    n: int,
    e: int,
    p: int,
    explored: int,
    exact: bool,
    excluded: Optional[str] = None,
) -> SearchResult:
    """The least saturating count over the classes (canonical key ->
    (canonical graph, its p-saturating count)) with e edges.

    Witnesses are the canonical keys of every minimising class; the class
    whose key is `excluded` is skipped.
    """
    best: Optional[int] = None
    witnesses: list[str] = []
    for key, (g, total) in classes.items():
        if g.m != e or key == excluded:
            continue
        if best is None or total < best:
            best = total
            witnesses = [key]
        elif total == best:
            witnesses.append(key)
    return SearchResult(
        n=n,
        e=e,
        p=p,
        minimum=best,
        witnesses=tuple(sorted(witnesses)),
        explored=explored,
        exact=exact,
    )


def _deepen(
    n: int,
    p: int,
    e_min: int,
    e_max: int,
    budget: int,
    excluded: Optional[str] = None,
) -> dict[int, SearchResult]:
    """One _minimise row per edge count e_min..e_max, from classes generated
    in passes that keep only those with at most U saturating edges.

    U starts at 0 and then takes the least count of a waiting child
    (`_Levels.next_bound`); a bound in between would label nothing.  The
    passes stop at the first that has a class (other than `excluded`) for
    every edge count in the window, or once no child waits, when every
    class is generated.  The last pass holds every minimiser of every row,
    since each minimum is at most U, so each row is the one an unpruned
    pass gives.  The passes share one store and one budget, so `explored`
    counts each candidate once, and running out returns that pass's partial
    rows with exact=False.
    """
    window = range(e_min, e_max + 1)
    levels = _Levels(n, p, e_min, e_max, budget)
    bound: Optional[int] = 0
    while bound is not None:
        classes, exact = levels.classes(bound)
        if not exact or {g.m for key, (g, _) in classes.items() if key != excluded}.issuperset(window):
            break
        bound = levels.next_bound()
    return {e: _minimise(classes, n, e, p, levels.spent, exact, excluded) for e in window}


def min_saturating(n: int, e: int, p: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Minimum saturating count over K_p-free n-vertex graphs with e edges.

    Exhaustive and exact up to the node budget; on exhaustion the partial
    minimum (or None) is returned with exact=False instead of guessing.
    Witnesses are canonical graph6 strings of every minimizing class.
    Classes are generated in passes that keep only those with at most U
    saturating edges, for increasing U up to the first that admits an
    e-edge class; `explored` and the budget cover all passes, in which
    each candidate is generated once.
    """
    _validate_instance(n, e, p)
    return _deepen(n, p, e, e, budget)[e]


def min_saturating_table(n: int, p: int, e_max: int, budget: int = DEFAULT_SEARCH_BUDGET) -> dict[int, SearchResult]:
    """min_saturating for every edge count 0..e_max from one deepening over
    the edge window [0, e_max].

    The passes stop at the first that has a class for every edge count;
    every e up to e_max <= ex(n, K_p) has one.
    """
    _validate_instance(n, e_max, p)
    return _deepen(n, p, 0, e_max, budget)


def min_saturating_at_jump(n: int, p: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Minimum count one edge past the extremal K_p-free edge count.

    Hosts are K_{p+1}-free with turan_number(n,p)+1 edges; the quantity
    whose jump this measures.
    """
    return min_saturating(n, turan_number(n, p) + 1, p + 1, budget)


def min_saturating_constrained(n: int, p: int, budget: int = DEFAULT_SEARCH_BUDGET) -> SearchResult:
    """Minimum over K_{p+1}-free graphs with exactly the extremal K_p-free
    edge count, excluding the balanced complete (p-1)-partite graph itself
    (by canonical form, so relabelings are excluded too)."""
    e = turan_number(n, p)
    _validate_instance(n, e, p + 1)
    excluded = canonical_key(turan_graph(n, p - 1))
    return _deepen(n, p + 1, e, e, budget, excluded)[e]
