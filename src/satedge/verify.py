"""Verification harness: exact checks over constructions, packings, and
closed forms, each emitted as a machine-readable report.

Failures are data, not exceptions: every check produces a CheckReport with
the compared values, and only malformed inputs raise.  A check the library
itself raises CheckFailedError on becomes a fail report whose reason is the
error's message.  Each report's elapsed is the time since the previous
report of the same run (or since the run began).  Checks whose
mathematical guarantee needs hypotheses that desk-scale instances cannot
meet are marked informational so a harness run can separate implementation
bugs from out-of-range instances.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable, Iterable, Optional, Sequence

from .graph import DEFAULT_VERTEX_CAP, Graph, bits, contains_clique, enumerate_cliques
from .constructions import (
    check_construction_edge_identity,
    h1,
    h2,
    modulus,
    trim_to_target,
    turan_defect,
    turan_number,
)
from .saturation import count_saturating
from .formulas import (
    CheckFailedError,
    attachment_fraction_bound,
    best_clique_edge_bound,
    check_density_quadratic_identity,
    density_threshold_high,
    density_threshold_low,
    exact_minimum_divisible,
    h1_saturating_count,
    h1_saturating_count_binomial,
    linear_bracket,
    positivity_poly_f,
    positivity_poly_f_expanded,
    positivity_poly_g,
    positivity_poly_g_expanded,
    positivity_sweep,
    touching_saturating_bound,
)
from .packing import (
    BudgetExceededError,
    CliquePacking,
    analyze,
    best_r_star,
    check_switch_inequality,
    max_packing,
    refine_packing,
    switch_candidates,
)
from .search import min_saturating

# Hosts above this many vertices get the saturating count without its edge
# list, so the V-part edge census is skipped there.
EDGE_CENSUS_LIMIT = 300
# Vertex counts at which the density quadratic's minimum identity is checked.
DENSITY_SAMPLES = (1, 2, 66, 10 ** 6)
# The extremal-host checks that read the best clique's analysis.
_BEST_CLIQUE_CHECKS = ("attachment-fraction-bound", "touching-saturating-bound", "attachment-sets-empty-probe")


@dataclass(frozen=True)
class CheckReport:
    check_id: str
    params: dict
    status: str  # "pass" | "fail" | "skip"
    lhs: object = None
    rhs: object = None
    informational: bool = False
    reason: str = ""
    elapsed: float = 0.0

    def to_dict(self) -> dict:
        def plain(x):
            if isinstance(x, Fraction):
                return str(x)
            if isinstance(x, (list, tuple)):
                return [plain(v) for v in x]
            return x

        return {
            "check_id": self.check_id,
            "params": {k: plain(v) for k, v in self.params.items()},
            "status": self.status,
            "lhs": plain(self.lhs),
            "rhs": plain(self.rhs),
            "informational": self.informational,
            "reason": self.reason,
            "elapsed": round(self.elapsed, 6),
        }


class _Recorder:
    """The reports of one run, each stamped with the time since the last."""

    def __init__(self):
        self.reports: list[CheckReport] = []
        self._last = 0.0
        self.lap()

    def lap(self) -> float:
        now = time.perf_counter()
        elapsed, self._last = now - self._last, now
        return elapsed

    def add(self, check_id, params, status, lhs=None, rhs=None, informational=False, reason=""):
        self.reports.append(CheckReport(check_id, dict(params), status, lhs, rhs, informational, reason, self.lap()))

    def check(self, check_id, params, ok, lhs=None, rhs=None, informational=False):
        self.add(check_id, params, "pass" if ok else "fail", lhs, rhs, informational)

    def run(self, check_id, params, call: Callable[[], object], judge: Callable[[object], tuple]):
        """Record call()'s result as judge(result) = (ok, lhs, rhs) and return
        it; a CheckFailedError from the call is recorded as a fail carrying
        its message, and None is returned."""
        try:
            result = call()
        except CheckFailedError as exc:
            self.add(check_id, params, "fail", reason=str(exc))
            return None
        self.check(check_id, params, *judge(result))
        return result


def reports_to_json(reports: Iterable[CheckReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)


def reports_to_csv(reports: Iterable[CheckReport]) -> str:
    lines = ["check_id,status,informational,lhs,rhs,reason,elapsed"]
    for r in reports:
        d = r.to_dict()
        cells = [
            d["check_id"],
            d["status"],
            str(d["informational"]).lower(),
            json.dumps(d["lhs"]) if d["lhs"] is not None else "",
            json.dumps(d["rhs"]) if d["rhs"] is not None else "",
            d["reason"],
            str(d["elapsed"]),
        ]
        lines.append(",".join(cell.replace(",", ";") for cell in cells))
    return "\n".join(lines) + "\n"


def failures(reports: Iterable[CheckReport]) -> list[CheckReport]:
    """Non-informational failures only; the harness exit criterion."""
    return [r for r in reports if r.status == "fail" and not r.informational]


def random_kpfree_graph(n: int, p: int, seed: int, target_edges: Optional[int] = None) -> Graph:
    """Seeded random K_p-free graph; edges added in shuffled pair order.

    Each candidate pair is kept unless it would complete a p-clique, until
    target_edges is reached (or the graph is maximally K_p-free).  n above
    DEFAULT_VERTEX_CAP and a negative target_edges are refused.  Edges are
    counted as they are kept, and a pair's common neighbourhood is probed
    by `enumerate_cliques` directly, so a graph's edge count and twin
    classes are never computed for a graph that is about to be replaced.
    """
    if p < 3 or n < 1:
        raise ValueError("need p >= 3 and n >= 1")
    if n > DEFAULT_VERTEX_CAP:
        raise ValueError(f"vertex count {n} exceeds cap {DEFAULT_VERTEX_CAP}")
    if target_edges is not None and target_edges < 0:
        raise ValueError(f"negative target edge count {target_edges}")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph(n, (0,) * n)
    m = 0
    for u, v in pairs:
        if target_edges is not None and m >= target_edges:
            break
        if next(enumerate_cliques(g, p - 2, g.adj[u] & g.adj[v]), None) is None:
            g = g.with_edge(u, v)
            m += 1
    return g


def verify_constructions(
    p_values: Sequence[int] = (3, 4, 5),
    x_values: Sequence[int] = (1,),
    y_values: Sequence[int] = (0, 1, 2),
) -> list[CheckReport]:
    """Vertex/edge counts, clique-freeness, and the saturating-edge census
    of the exact-edge-count construction across a parameter grid."""
    rec = _Recorder()
    for p in p_values:
        for x in x_values:
            for y in y_values:
                params = {"p": p, "x": x, "y": y}
                if not p * (p - 1) * (3 * p - 4) * x > y:
                    rec.add("h1-feasible", params, "skip", reason="remainder guard violated")
                    continue
                bu = h1(p, x, y)
                g = bu.graph
                n = modulus(p) * x + y
                rec.check("h1-vertex-count", params, g.n == n, g.n, n)
                ex = turan_number(n, p)
                rec.check("h1-edge-count", params, g.m == ex, g.m, ex)
                free = not contains_clique(g, p + 1)
                rec.check("h1-clique-free", params, free, free, True)
                closed = h1_saturating_count(p, x, y)
                report = count_saturating(g, p + 1, edges=g.n <= EDGE_CENSUS_LIMIT)
                rec.check("h1-saturating-count", params, report.total == closed, report.total, closed)
                if report.edges is not None:
                    expected = {pair for part in bu.v_parts for pair in combinations(bits(part), 2)}
                    rec.check(
                        "h1-saturating-edges-in-v-parts",
                        params,
                        set(report.edges) == expected,
                        len(report.edges),
                        len(expected),
                    )
                else:
                    reason = f"edge census gated above n={EDGE_CENSUS_LIMIT}"
                    rec.add("h1-saturating-edges-in-v-parts", params, "skip", reason=reason)
    return rec.reports


def verify_reduction(g: Graph, p: int) -> CheckReport:
    """Remove one edge keeping a p-clique; the saturating count cannot rise.

    The host must be K_{p+1}-free with one edge above the extremal K_p-free
    count, which forces a p-clique to exist.
    """
    n = g.n
    params = {"n": n, "p": p, "m": g.m}
    if contains_clique(g, p + 1):
        raise ValueError("host must be K_{p+1}-free")
    if g.m != turan_number(n, p) + 1:
        raise ValueError(f"host must have turan_number({n},{p})+1 = {turan_number(n, p) + 1} edges, has {g.m}")
    if not contains_clique(g, p):
        raise ValueError("host unexpectedly has no p-clique despite exceeding the extremal count")
    rec = _Recorder()
    for u, v in g.edges():
        stripped = g.without_edge(u, v)
        if contains_clique(stripped, p):
            before = count_saturating(g, p + 1).total
            after = count_saturating(stripped, p + 1).total
            params["removed"] = (u, v)
            rec.check("reduction-monotone", params, before >= after, before, after)
            break
    else:
        rec.check("reduction-monotone", params, False)
    return rec.reports[0]


def _sample_switches(
    pk: CliquePacking, trials: int, rng: random.Random
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Up to `trials` admissible (index, out-set, in-clique) switch moves."""
    out = []
    for _ in range(trials * 4):
        if len(out) >= trials or not pk.cliques:
            break
        index = rng.randrange(len(pk.cliques))
        c_out = tuple(sorted(rng.sample(pk.cliques[index], rng.randint(1, pk.p))))
        options = list(switch_candidates(pk, index, c_out))
        if options:
            out.append((index, c_out, options[rng.randrange(len(options))]))
    return out


def verify_packing_lemmas(g: Graph, p: int, trials: int = 20, seed: int = 0) -> list[CheckReport]:
    """Packing-side identity and inequality checks on one host graph.

    Builds the certified maximum packing, refines it to a remainder-edge
    local maximum, then checks the neighbor-count partition identities, a
    seeded sample of switch inequalities, and (when the host has exactly
    the extremal edge count) the best-clique and touching-edge bounds.
    Reports of what analyze and best_r_star check pass when the call returns.
    """
    n = g.n
    params = {"n": n, "p": p, "seed": seed}
    rec = _Recorder()
    try:
        pk = max_packing(g, p)
    except BudgetExceededError as exc:
        rec.add("packing-built", params, "skip", reason=str(exc))
        return rec.reports
    refined = refine_packing(pk)
    rec.check("refine-keeps-size-and-remainder-edges", params, refined.size == pk.size, refined.size, pk.size)
    r = refined.density

    analyses = [
        rec.run(
            "z-a-partition-identities",
            {**params, "index": index},
            lambda: analyze(refined, index),
            lambda an: (True, str(sum(an.z[:p])), str(1 - p * r)),
        )
        for index in range(refined.size)
    ]

    moves = _sample_switches(refined, trials, random.Random(seed))
    if moves:
        holds = [check_switch_inequality(refined, *move)[2] for move in moves]
        rec.check("switch-inequality-sample", {**params, "moves": len(moves)}, all(holds), sum(holds), len(moves))
    else:
        rec.add("switch-inequality-sample", params, "skip", reason="no admissible switches found")

    skipped = ("best-clique-edge-bound",) + _BEST_CLIQUE_CHECKS
    if g.m != turan_number(n, p):
        reason = "host is not edge-extremal"
    elif not refined.size:
        reason = "empty packing"
    else:
        delta = turan_defect(n, p)
        bound = best_clique_edge_bound(n, p, r, delta)
        best = rec.run(
            "best-clique-edge-bound", params, lambda: best_r_star(refined), lambda found: (True, found[1], str(bound))
        )
        skipped = _BEST_CLIQUE_CHECKS
        if best is None:
            reason = "best-clique-edge-bound failed"
        elif (an := analyses[best[0]]) is None:
            reason = f"z-a-partition-identities failed at index {best[0]}"
        else:
            zb = attachment_fraction_bound(n, p, r, delta)
            rec.check("attachment-fraction-bound", params, True, str(an.z[p - 1]), str(zb))
            tb = touching_saturating_bound(n, p, r, delta)
            rec.check("touching-saturating-bound", params, Fraction(an.ell1) >= tb, an.ell1, str(tb))
            empties = [i for i, a in enumerate(an.A) if a == 0]
            rec.check(
                "attachment-sets-empty-probe", {**params, "clique": an.clique}, True, empties, informational=True
            )
            skipped = ()
    for check_id in skipped:
        rec.add(check_id, params, "skip", reason=reason)
    return rec.reports


def verify_appendices(p_max: int = 100) -> list[CheckReport]:
    """Positivity sweeps, polynomial identities, and the quadratic-minimum
    identity, all in exact arithmetic."""
    rec = _Recorder()
    rec.run(
        "positivity-sweep", {"p_max": p_max}, lambda: positivity_sweep(p_max), lambda m: (True, str(m[0]), str(m[1]))
    )

    ok = all(
        positivity_poly_f(p) == positivity_poly_f_expanded(p)
        and positivity_poly_g(p) == positivity_poly_g_expanded(p)
        for p in range(-p_max, p_max + 1)
    )
    rec.check("polynomial-forms-agree", {"p_max": p_max}, ok)

    ok = all(check_density_quadratic_identity(p, n)[0] for p in range(3, min(p_max, 50) + 1) for n in DENSITY_SAMPLES)
    rec.check("density-quadratic-minimum", {"p_max": min(p_max, 50), "n": list(DENSITY_SAMPLES)}, ok)

    ok = all(density_threshold_low(p) < density_threshold_high(p) for p in range(3, p_max + 1))
    rec.check("threshold-order", {"p_max": p_max}, ok)

    big = 10 ** 6
    ok = all(low <= high for low, high in (linear_bracket(big, p) for p in range(3, p_max + 1)))
    rec.check("bracket-order", {"p_max": p_max, "n": big}, ok)

    ok = all(
        h1_saturating_count(p, x, y) == h1_saturating_count_binomial(p, x, y)
        for p in range(3, 7)
        for x in (1, 2)
        for y in (0, 1, 2)
    )
    rec.check("closed-form-binomial-agreement", {"p": "3..6", "x": "1..2", "y": "0..2"}, ok)

    ok = all(
        exact_minimum_divisible(modulus(p) * x, p) == h1_saturating_count(p, x, 0)
        for p in range(3, 6)
        for x in (1, 2)
    )
    rec.check("divisible-minimum-consistency", {"p": "3..5", "x": "1..2"}, ok)

    ok = all(check_construction_edge_identity(n, p) for p in range(3, 9) for n in range(0, 120))
    rec.check("edge-count-defect-identity", {"p": "3..8", "n": "0..119"}, ok)
    return rec.reports


def verify_all_small(seed: int = 7) -> list[CheckReport]:
    """The default desk-scale harness run; completes in well under a minute."""
    reports = verify_constructions(p_values=(3, 4), x_values=(1,), y_values=(0, 1, 2))
    bu = h2(3, 1, 1)
    target = turan_number(bu.graph.n, 3) + 1
    trimmed = trim_to_target(bu, target)
    reports.append(verify_reduction(trimmed, 3))
    reports += verify_packing_lemmas(h1(3, 1, 0).graph, 3, trials=10, seed=seed)
    for i in range(3):
        n = 12 + i
        g = random_kpfree_graph(n, 4, seed=seed + i, target_edges=turan_number(n, 4) - n)
        reports += verify_packing_lemmas(g, 3, trials=10, seed=seed + i)
    reports += verify_appendices(p_max=60)
    rec = _Recorder()
    rec.run(
        "zero-law-at-extremal-count",
        {"n": 6, "e": 9, "p": 4},
        lambda: min_saturating(6, 9, 4),
        lambda zero: (zero.minimum == 0, zero.minimum, 0),
    )
    reports += rec.reports
    reports.sort(key=lambda rep: rep.check_id)
    return reports
