"""Verification harness: exact checks over constructions, packings, and
closed forms, each emitted as a machine-readable report.

Failures are data, not exceptions: every check produces a CheckReport with
the compared values, and only malformed inputs raise.  Checks whose
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
from typing import Iterable, Optional, Sequence

from .graph import Graph, bits, common_neighborhood, contains_clique, enumerate_cliques, mask_of
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
)
from .search import min_saturating


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


def _check(check_id, params, ok, lhs=None, rhs=None, informational=False, started=None) -> CheckReport:
    elapsed = time.perf_counter() - started if started is not None else 0.0
    return CheckReport(
        check_id=check_id,
        params=dict(params),
        status="pass" if ok else "fail",
        lhs=lhs,
        rhs=rhs,
        informational=informational,
        elapsed=elapsed,
    )


def _skip(check_id, params, reason) -> CheckReport:
    return CheckReport(check_id=check_id, params=dict(params), status="skip", reason=reason)


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
    target_edges is reached (or the graph is maximally K_p-free).
    """
    if p < 3 or n < 1:
        raise ValueError("need p >= 3 and n >= 1")
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    g = Graph(n, (0,) * n)
    for u, v in pairs:
        if target_edges is not None and g.m >= target_edges:
            break
        if g.clique_in(g.adj[u] & g.adj[v], p - 2) is None:
            g = g.with_edge(u, v)
    return g


def verify_constructions(
    p_values: Sequence[int] = (3, 4, 5),
    x_values: Sequence[int] = (1,),
    y_values: Sequence[int] = (0, 1, 2),
    edge_set_limit: int = 300,
) -> list[CheckReport]:
    """Vertex/edge counts, clique-freeness, and the saturating-edge census
    of the exact-edge-count construction across a parameter grid."""
    reports: list[CheckReport] = []
    for p in p_values:
        for x in x_values:
            for y in y_values:
                params = {"p": p, "x": x, "y": y}
                if not p * (p - 1) * (3 * p - 4) * x > y:
                    reports.append(_skip("h1-feasible", params, "remainder guard violated"))
                    continue
                t0 = time.perf_counter()
                bu = h1(p, x, y)
                g = bu.graph
                n = modulus(p) * x + y
                reports.append(_check("h1-vertex-count", params, g.n == n, g.n, n, started=t0))
                t0 = time.perf_counter()
                ex = turan_number(n, p)
                reports.append(_check("h1-edge-count", params, g.m == ex, g.m, ex, started=t0))
                t0 = time.perf_counter()
                free = not contains_clique(g, p + 1)
                reports.append(_check("h1-clique-free", params, free, free, True, started=t0))
                t0 = time.perf_counter()
                closed = h1_saturating_count(p, x, y)
                report = count_saturating(g, p + 1, edges=g.n <= edge_set_limit)
                reports.append(
                    _check("h1-saturating-count", params, report.total == closed, report.total, closed, started=t0)
                )
                if report.edges is not None:
                    t0 = time.perf_counter()
                    expected = {pair for part in bu.v_parts for pair in combinations(bits(part), 2)}
                    reports.append(
                        _check(
                            "h1-saturating-edges-in-v-parts",
                            params,
                            set(report.edges) == expected,
                            len(report.edges),
                            len(expected),
                            started=t0,
                        )
                    )
                else:
                    reports.append(
                        _skip("h1-saturating-edges-in-v-parts", params, f"edge census gated above n={edge_set_limit}")
                    )
    return reports


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
    t0 = time.perf_counter()
    removal = None
    for u, v in g.edges():
        stripped = g.without_edge(u, v)
        if contains_clique(stripped, p):
            removal = (u, v, stripped)
            break
    if removal is None:
        return _check("reduction-monotone", params, False, None, None, started=t0)
    u, v, stripped = removal
    before = count_saturating(g, p + 1).total
    after = count_saturating(stripped, p + 1).total
    params["removed"] = (u, v)
    return _check("reduction-monotone", params, before >= after, before, after, started=t0)


def _sample_switches(
    pk: CliquePacking, trials: int, rng: random.Random
) -> list[tuple[int, tuple[int, ...], tuple[int, ...]]]:
    """Up to `trials` admissible (index, out-set, in-clique) switch moves."""
    g = pk.host
    out: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
    if not pk.cliques:
        return out
    for _ in range(trials * 4):
        if len(out) >= trials:
            break
        index = rng.randrange(len(pk.cliques))
        clique = pk.cliques[index]
        c_size = rng.randint(1, pk.p)
        c_out = tuple(sorted(rng.sample(clique, c_size)))
        kept = set(clique) - set(c_out)
        cand = common_neighborhood(g, mask_of(kept)) & pk.remainder if kept else pk.remainder
        options = list(enumerate_cliques(g, c_size, cand))
        if options:
            out.append((index, c_out, options[rng.randrange(len(options))]))
    return out


def verify_packing_lemmas(g: Graph, p: int, trials: int = 20, seed: int = 0) -> list[CheckReport]:
    """Packing-side identity and inequality checks on one host graph.

    Builds the certified maximum packing, refines it to a remainder-edge
    local maximum, then checks the neighbor-count partition identities, a
    seeded sample of switch inequalities, and (when the host has exactly
    the extremal edge count) the best-clique and touching-edge bounds.
    """
    params = {"n": g.n, "p": p, "seed": seed}
    try:
        pk = max_packing(g, p)
    except BudgetExceededError as exc:
        return [_skip("packing-built", params, str(exc))]
    t0 = time.perf_counter()
    refined = refine_packing(pk)
    reports = [
        _check(
            "refine-keeps-size-and-remainder-edges",
            params,
            refined.size == pk.size,
            refined.size,
            pk.size,
            started=t0,
        )
    ]
    rng = random.Random(seed)
    n = g.n
    r = refined.density

    for index in range(refined.size):
        t0 = time.perf_counter()
        try:
            an = analyze(refined, index)
        except CheckFailedError:
            reports.append(_check("z-a-partition-identities", {**params, "index": index}, False, started=t0))
            continue
        ok = sum(an.z[:p]) == 1 - p * r and sum(Fraction(a.bit_count(), n) for a in an.A) == an.z[p - 1]
        reports.append(
            _check(
                "z-a-partition-identities",
                {**params, "index": index},
                ok,
                str(sum(an.z[:p])),
                str(1 - p * r),
                started=t0,
            )
        )

    t0 = time.perf_counter()
    moves = _sample_switches(refined, trials, rng)
    if moves:
        holds = []
        for index, c_out, c_in in moves:
            lhs, rhs, ok = check_switch_inequality(refined, index, c_out, c_in)
            holds.append(ok)
        reports.append(
            _check("switch-inequality-sample", {**params, "moves": len(moves)}, all(holds), sum(holds), len(moves), started=t0)
        )
    else:
        reports.append(_skip("switch-inequality-sample", params, "no admissible switches found"))

    extremal = g.m == turan_number(n, p)
    if extremal and refined.size > 0:
        t0 = time.perf_counter()
        delta = turan_defect(n, p)
        index, value = best_r_star(refined)
        bound = best_clique_edge_bound(n, p, r, delta)
        reports.append(_check("best-clique-edge-bound", params, Fraction(value) >= bound, value, str(bound), started=t0))
        t0 = time.perf_counter()
        an = analyze(refined, index)
        zb = attachment_fraction_bound(n, p, r, delta)
        reports.append(
            _check("attachment-fraction-bound", params, an.z[p - 1] >= zb, str(an.z[p - 1]), str(zb), started=t0)
        )
        t0 = time.perf_counter()
        ell1, ell2 = an.ell1, an.ell2
        tb = touching_saturating_bound(n, p, r, delta)
        reports.append(_check("touching-saturating-bound", params, Fraction(ell1) >= tb, ell1, str(tb), started=t0))
        t0 = time.perf_counter()
        empties = [i for i, a in enumerate(an.A) if a == 0]
        reports.append(
            _check(
                "attachment-sets-empty-probe",
                {**params, "clique": an.clique},
                True,
                empties,
                None,
                informational=True,
                started=t0,
            )
        )
    else:
        reason = "host is not edge-extremal" if not extremal else "empty packing"
        for cid in (
            "best-clique-edge-bound",
            "attachment-fraction-bound",
            "touching-saturating-bound",
            "attachment-sets-empty-probe",
        ):
            reports.append(_skip(cid, params, reason))
    return reports


def verify_appendices(p_max: int = 100, n_samples: Sequence[int] = (1, 2, 66, 10 ** 6)) -> list[CheckReport]:
    """Positivity sweeps, polynomial identities, and the quadratic-minimum
    identity, all in exact arithmetic."""
    reports: list[CheckReport] = []
    t0 = time.perf_counter()
    try:
        margin_f, margin_g = positivity_sweep(p_max)
        reports.append(
            _check("positivity-sweep", {"p_max": p_max}, True, str(margin_f), str(margin_g), started=t0)
        )
    except CheckFailedError as exc:
        reports.append(CheckReport("positivity-sweep", {"p_max": p_max}, "fail", reason=str(exc)))

    t0 = time.perf_counter()
    ok = all(
        positivity_poly_f(p) == positivity_poly_f_expanded(p)
        and positivity_poly_g(p) == positivity_poly_g_expanded(p)
        for p in range(-p_max, p_max + 1)
    )
    reports.append(_check("polynomial-forms-agree", {"p_max": p_max}, ok, started=t0))

    t0 = time.perf_counter()
    ok = all(
        check_density_quadratic_identity(p, n)[0]
        for p in range(3, min(p_max, 50) + 1)
        for n in n_samples
    )
    reports.append(_check("density-quadratic-minimum", {"p_max": min(p_max, 50), "n": list(n_samples)}, ok, started=t0))

    t0 = time.perf_counter()
    ok = all(density_threshold_low(p) < density_threshold_high(p) for p in range(3, p_max + 1))
    reports.append(_check("threshold-order", {"p_max": p_max}, ok, started=t0))

    t0 = time.perf_counter()
    big = 10 ** 6
    ok = all(linear_bracket(big, p)[0] <= linear_bracket(big, p)[1] for p in range(3, p_max + 1))
    reports.append(_check("bracket-order", {"p_max": p_max, "n": big}, ok, started=t0))

    t0 = time.perf_counter()
    ok = True
    for p in range(3, 7):
        for x in (1, 2):
            for y in (0, 1, 2):
                if p * (p - 1) * (3 * p - 4) * x > y:
                    ok = ok and h1_saturating_count(p, x, y) == h1_saturating_count_binomial(p, x, y)
    reports.append(_check("closed-form-binomial-agreement", {"p": "3..6", "x": "1..2", "y": "0..2"}, ok, started=t0))

    t0 = time.perf_counter()
    ok = all(
        exact_minimum_divisible(modulus(p) * x, p) == h1_saturating_count(p, x, 0)
        for p in range(3, 6)
        for x in (1, 2)
    )
    reports.append(_check("divisible-minimum-consistency", {"p": "3..5", "x": "1..2"}, ok, started=t0))

    t0 = time.perf_counter()
    ok = all(check_construction_edge_identity(n, p) for p in range(3, 9) for n in range(0, 120))
    reports.append(_check("edge-count-defect-identity", {"p": "3..8", "n": "0..119"}, ok, started=t0))
    return reports


def verify_all_small(seed: int = 7) -> list[CheckReport]:
    """The default desk-scale harness run; completes in well under a minute."""
    reports: list[CheckReport] = []
    reports += verify_constructions(p_values=(3, 4), x_values=(1,), y_values=(0, 1, 2))
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
    t0 = time.perf_counter()
    zero = min_saturating(6, 9, 4)
    reports.append(
        _check("zero-law-at-extremal-count", {"n": 6, "e": 9, "p": 4}, zero.minimum == 0, zero.minimum, 0, started=t0)
    )
    reports.sort(key=lambda rep: rep.check_id)
    return reports
