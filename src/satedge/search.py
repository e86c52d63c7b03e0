"""Exhaustive minimum-saturating-count search over small graphs.

The engine enumerates K_p-free graphs on n vertices up to isomorphism by
level-wise vertex extension with canonical-form deduplication, then takes
the minimum saturating count over the classes with the requested edge count.
Classes grow along a minimum-degree construction path, and `explored`
counts the candidates that are canonically labelled.  Desk scale only:
dense edge counts are practical through roughly n = 10.

Canonical form: vertices are first partitioned by iterated degree
refinement; the canonical labeling is the class-respecting relabeling that
minimizes the upper-triangle adjacency bit string, found by prefix-pruned
backtracking.  No external isomorphism code is involved.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Optional

from .graph import Graph, graph6_decode, graph6_encode
from .constructions import turan_graph, turan_number
from .formulas import CheckFailedError
from .saturation import count_saturating

DEFAULT_SEARCH_BUDGET = 10 ** 9


class InfeasibleError(ValueError):
    """No graph with the requested parameters exists."""


def _refined_colors(g: Graph) -> list[int]:
    """Stable vertex coloring: iterate (color, neighbor count per color)."""
    n = g.n
    adj = g.adj
    colors = [g.degree(v) for v in range(n)]
    while True:
        masks: dict[int, int] = {}
        for v, c in enumerate(colors):
            masks[c] = masks.get(c, 0) | 1 << v
        class_masks = [masks[c] for c in sorted(masks)]
        # equal colors have equal degrees: orders like sorted neighbor colors
        sig = [
            (colors[v], tuple(-(adj[v] & m).bit_count() for m in class_masks))
            for v in range(n)
        ]
        ranking = {s: i for i, s in enumerate(sorted(set(sig)))}
        new = [ranking[sig[v]] for v in range(n)]
        if new == colors:
            return colors
        colors = new


def canonical_ordering(g: Graph) -> tuple[int, ...]:
    """Position -> original vertex for the canonical labeling.

    Among all orderings listing refinement classes in class order, returns
    the one minimizing the adjacency bit string read in column order (the
    graph6 bit order), so canonical graphs give minimal graph6 strings
    within their class-respecting orbit.
    """
    n = g.n
    if n == 0:
        return ()
    adj = g.adj
    colors = _refined_colors(g)
    by_class: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_class.setdefault(c, []).append(v)
    class_seq: list[int] = []
    for c in sorted(by_class):
        class_seq.extend([c] * len(by_class[c]))

    best_key: Optional[list[int]] = None
    best_perm: Optional[tuple[int, ...]] = None
    placed: list[int] = []
    key: list[int] = []
    used = 0

    def rec(pos: int, tight: bool):
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


def canonical_graph(g: Graph) -> Graph:
    """The canonically relabeled copy of g."""
    perm = canonical_ordering(g)
    n = g.n
    adj = [0] * n
    for i, u in enumerate(perm):
        row = g.adj[u]
        for j, w in enumerate(perm):
            if row >> w & 1:
                adj[i] |= 1 << j
    return Graph(n, tuple(adj))


def canonical_key(g: Graph) -> str:
    """Isomorphism-invariant string: graph6 of the canonical relabeling."""
    return graph6_encode(canonical_graph(g))


def _extend(g: Graph, nbhd: int) -> Graph:
    """Add one vertex adjacent to the mask `nbhd` of existing vertices."""
    n = g.n
    adj = [a | ((nbhd >> v & 1) << n) for v, a in enumerate(g.adj)]
    adj.append(nbhd)
    return Graph(n + 1, tuple(adj))


def _extend_batch(task: tuple[Graph, list[int]]) -> list[str]:
    g, nbhds = task
    return [canonical_key(_extend(g, s)) for s in nbhds]


class _Budget:
    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def take(self, amount: int) -> int:
        """Consume up to `amount`; returns how much was granted."""
        granted = min(amount, self.limit - self.spent)
        self.spent += max(granted, 0)
        return max(granted, 0)


def _generate_classes(
    n: int, p: int, e_min: int, e_max: int, budget: _Budget, threads: int
) -> tuple[list[Graph], bool]:
    """Isomorphism classes of K_p-free graphs on n vertices whose edge count
    can land in [e_min, e_max]; exact flag is False on budget exhaustion.

    Level k holds one canonical representative per class on k vertices.
    A child (a representative plus a vertex joined to a subset s) is kept
    only if the new vertex has minimum degree in it: every class H is the
    representative of H - w extended by N(w), w of minimum degree.  That
    deletion never lowers the edge density m / C(k, 2), so a child on k + 1
    vertices needs e_min * C(k + 1, 2) / C(n, 2) to e_max edges.  K_p-free
    children that pass are the candidates (one unit of budget each),
    deduplicated by canonical key.
    """
    reps = [Graph(1, (0,))]
    exact = True
    for k in range(1, n):
        # ceil(e_min * C(k+1, 2) / C(n, 2)); at least e_min - C(n, 2) + C(k+1, 2)
        m_lo = -(-e_min * (k + 1) * k // (n * (n - 1)))
        tasks: list[tuple[Graph, list[int]]] = []
        total_candidates = 0
        for g in reps:
            degrees = [a.bit_count() for a in g.adj]
            delta = min(degrees)
            low = sum(1 << v for v, d in enumerate(degrees) if d == delta)
            nbhds = []
            for s in range(1 << k):
                d = s.bit_count()
                if d > delta and (d > delta + 1 or s & low != low):
                    continue
                if not m_lo <= g.m + d <= e_max:
                    continue
                if g.clique_in(s, p - 1) is not None:
                    continue
                nbhds.append(s)
            granted = budget.take(len(nbhds))
            if granted < len(nbhds):
                exact = False
                nbhds = nbhds[:granted]
            total_candidates += len(nbhds)
            if nbhds:
                tasks.append((g, nbhds))
            if not exact:
                break
        if threads > 1 and total_candidates > 256:
            with multiprocessing.get_context().Pool(processes=threads) as pool:
                batches = pool.map(_extend_batch, tasks)
        else:
            batches = [_extend_batch(t) for t in tasks]
        keys = sorted({key for batch in batches for key in batch})
        reps = [graph6_decode(key) for key in keys]
        if not exact:
            # a cut level cannot vouch for completeness of later ones
            return (reps if k == n - 1 else []), False
    return reps, exact


@dataclass(frozen=True)
class SearchResult:
    n: int
    e: int
    p: int
    minimum: Optional[int]
    witnesses: tuple[str, ...]
    explored: int
    exact: bool

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "e": self.e,
            "p": self.p,
            "minimum": self.minimum,
            "witnesses": list(self.witnesses),
            "explored": self.explored,
            "exact": self.exact,
        }


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
    reps: list[Graph],
    n: int,
    e: int,
    p: int,
    explored: int,
    exact: bool,
    excluded: Optional[str] = None,
) -> SearchResult:
    """The least saturating count over the classes in `reps` with e edges.

    Witnesses are the canonical graph6 strings of every minimising class;
    the class whose graph6 string is `excluded` is skipped.
    """
    best: Optional[int] = None
    witnesses: list[str] = []
    for g in reps:
        if g.m != e or (excluded is not None and graph6_encode(g) == excluded):
            continue
        total = count_saturating(g, p).total
        if best is None or total < best:
            best = total
            witnesses = [graph6_encode(g)]
        elif total == best:
            witnesses.append(graph6_encode(g))
    return SearchResult(
        n=n,
        e=e,
        p=p,
        minimum=best,
        witnesses=tuple(sorted(witnesses)),
        explored=explored,
        exact=exact,
    )


def min_saturating(
    n: int,
    e: int,
    p: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    threads: int = 1,
) -> SearchResult:
    """Minimum saturating count over K_p-free n-vertex graphs with e edges.

    Exhaustive and exact up to the node budget; on exhaustion the partial
    minimum (or None) is returned with exact=False instead of guessing.
    Witnesses are canonical graph6 strings of every minimizing class.
    """
    _validate_instance(n, e, p)
    tracker = _Budget(budget)
    reps, exact = _generate_classes(n, p, e, e, tracker, threads)
    return _minimise(reps, n, e, p, tracker.spent, exact)


def min_saturating_table(
    n: int,
    p: int,
    e_max: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
    threads: int = 1,
) -> dict[int, SearchResult]:
    """min_saturating for every edge count 0..e_max from one shared pass."""
    _validate_instance(n, e_max, p)
    tracker = _Budget(budget)
    reps, exact = _generate_classes(n, p, 0, e_max, tracker, threads)
    by_edges: dict[int, list[Graph]] = {}
    for g in reps:
        by_edges.setdefault(g.m, []).append(g)
    return {
        e: _minimise(by_edges.get(e, []), n, e, p, tracker.spent, exact)
        for e in range(e_max + 1)
    }


def min_saturating_at_jump(
    n: int, p: int, budget: int = DEFAULT_SEARCH_BUDGET, threads: int = 1
) -> SearchResult:
    """Minimum count one edge past the extremal K_p-free edge count.

    Hosts are K_{p+1}-free with turan_number(n,p)+1 edges; the quantity
    whose jump this measures.
    """
    return min_saturating(n, turan_number(n, p) + 1, p + 1, budget, threads)


def min_saturating_constrained(
    n: int, p: int, budget: int = DEFAULT_SEARCH_BUDGET, threads: int = 1
) -> SearchResult:
    """Minimum over K_{p+1}-free graphs with exactly the extremal K_p-free
    edge count, excluding the balanced complete (p-1)-partite graph itself
    (by canonical form, so relabelings are excluded too)."""
    e = turan_number(n, p)
    _validate_instance(n, e, p + 1)
    tracker = _Budget(budget)
    reps, exact = _generate_classes(n, p + 1, e, e, tracker, threads)
    excluded = canonical_key(turan_graph(n, p - 1))
    return _minimise(reps, n, e, p + 1, tracker.spent, exact, excluded)
