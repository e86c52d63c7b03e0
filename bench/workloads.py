"""The benchmark's workloads: seeded inputs, jobs, and the oracle on every job.

A workload has `setup(se, seed)`, which makes the inputs from the seed before
the timed region, and `jobs(se, inputs)`, which lists the jobs of one pass as
(label, function) pairs.  `se` is the imported `satedge` package; jobs look
every function up through its module at call time, so a traced run sees the
wrapped bindings.  A job function receives `call`: only work done through
`call(fn, *args)`, or `call.pooled(fn, *args)` for a call that starts worker
processes, is timed.  Rebuilding hosts, relabelling and the oracle
checks run between calls, untimed.  A job reports a wrong result by raising
OracleError.

Every pass rebuilds its hosts (from parameters or from graph6 text made in
setup), so no `Graph` object, and none of its cached edge count or twin
classes, survives from one pass to the next.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable


class OracleError(Exception):
    """A job returned a result its oracle rejects."""


def expect(ok: bool, message: str):
    if not ok:
        raise OracleError(message)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    jobs: Callable
    # How much of the reference kernel's slowdown the workload's code shows
    # when the machine is busy (see reference.scale and README.md).
    scale_power: float = 1.0


# ---------------------------------------------------------------- helpers


def relabel(se, g, perm):
    """The copy of g with vertex v renamed perm[v]."""
    adj = [0] * g.n
    for v, row in enumerate(g.adj):
        image = 0
        for u in se.graph.bits(row):
            image |= 1 << perm[u]
        adj[perm[v]] = image
    return se.graph.Graph(g.n, tuple(adj))


def shuffled(rng: random.Random, n: int) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def check_saturation_witness(se, text: str, n: int, e: int, p: int, minimum: int):
    """A witness is an n-vertex, e-edge, K_p-free graph attaining the minimum."""
    g = se.graph.graph6_decode(text)
    expect(g.n == n and g.m == e, f"witness {text!r} has n={g.n} m={g.m}, want n={n} m={e}")
    expect(not se.graph.contains_clique(g, p), f"witness {text!r} contains K_{p}")
    total = se.saturation.count_saturating(g, p).total
    expect(total == minimum, f"witness {text!r} has {total} saturating edges, want {minimum}")


def relabel_probes(se, call, witnesses, rng: random.Random, per_witness: int):
    """canonical_key of seeded relabelings must give back each witness."""
    for text in witnesses:
        g = se.graph.graph6_decode(text)
        for _ in range(per_witness):
            probe = relabel(se, g, shuffled(rng, g.n))
            key = call(se.search.canonical_key, probe)
            expect(key == text, f"relabeled witness {text!r} keyed as {key!r}")


def v_part_pairs(se, bu) -> set[tuple[int, int]]:
    return {pair for part in bu.v_parts for pair in combinations(se.graph.bits(part), 2)}


def v_part_pair_count(bu) -> int:
    """The closed form for the h0/h1/h2 family: pairs inside the V parts.

    It is what `count_saturating_blowup` returns, computed here so that the
    oracle does not depend on that function.
    """
    return sum(k * (k - 1) // 2 for k in (part.bit_count() for part in bu.v_parts))


# ----------------------------------------------------------- jump-search

JUMP_MINIMA = {5: 1, 6: 1, 7: 2, 8: 3, 9: 3}
# The frozen canonical witnesses of the acceptance suite.
JUMP_WITNESSES = {
    5: ("Dr[",),
    6: ("EK~o",),
    7: ("F_N~o", "Fimpw"),
    8: ("G@R~vo", "G_Kv~w", "G_\\t|w"),
}
JUMP_CLASSES_9 = 2
# (minimum, number of minimising classes) of min_saturating_constrained(n, 3);
# n = 6 and 7 agree with an exhaustive pass over the networkx graph atlas.
CONSTRAINED = {6: (0, 1), 7: (1, 4), 8: (2, 4)}
TABLE_N, TABLE_P, TABLE_E_MAX = 7, 4, 12
PROBES_PER_WITNESS = 3


def jump_labels() -> tuple[list[str], list[str], str]:
    """Job labels: at-jump searches, constrained searches, the table."""
    return (
        [f"at_jump n={n}" for n in JUMP_MINIMA],
        [f"constrained n={n}" for n in CONSTRAINED],
        f"table n={TABLE_N} p={TABLE_P} e<={TABLE_E_MAX}",
    )


def jump_setup(se, seed: int) -> dict:
    at_jump, constrained, table = jump_labels()
    rng = random.Random(seed)
    return {label: rng.randrange(2 ** 32) for label in at_jump + constrained + [table]}


def jump_jobs(se, probe_seeds: dict) -> list:
    at_jump, constrained, table = jump_labels()

    def at_jump_job(n, label):
        def job(call):
            res = call(se.search.min_saturating_at_jump, n, 3)
            expect(res.exact, f"{label}: search not exact")
            expect(res.minimum == JUMP_MINIMA[n], f"{label}: minimum {res.minimum}, want {JUMP_MINIMA[n]}")
            if n in JUMP_WITNESSES:
                expect(res.witnesses == JUMP_WITNESSES[n], f"{label}: witnesses {res.witnesses}")
            else:
                expect(len(res.witnesses) == JUMP_CLASSES_9, f"{label}: {len(res.witnesses)} witnesses")
            e = se.constructions.turan_number(n, 3) + 1
            for text in res.witnesses:
                check_saturation_witness(se, text, n, e, 4, res.minimum)
            relabel_probes(se, call, res.witnesses, random.Random(probe_seeds[label]), PROBES_PER_WITNESS)

        return job

    def constrained_job(n, label):
        def job(call):
            res = call(se.search.min_saturating_constrained, n, 3)
            minimum, classes = CONSTRAINED[n]
            expect(res.exact, f"{label}: search not exact")
            expect(res.minimum == minimum, f"{label}: minimum {res.minimum}, want {minimum}")
            expect(len(res.witnesses) == classes, f"{label}: {len(res.witnesses)} witnesses, want {classes}")
            e = se.constructions.turan_number(n, 3)
            excluded = se.search.canonical_key(se.constructions.turan_graph(n, 2))
            for text in res.witnesses:
                expect(text != excluded, f"{label}: the excluded Turan graph is a witness")
                check_saturation_witness(se, text, n, e, 4, res.minimum)
            relabel_probes(se, call, res.witnesses, random.Random(probe_seeds[label]), PROBES_PER_WITNESS)

        return job

    def table_job(call):
        rows = call(se.search.min_saturating_table, TABLE_N, TABLE_P, TABLE_E_MAX)
        expect(sorted(rows) == list(range(TABLE_E_MAX + 1)), f"{table}: rows {sorted(rows)}")
        for e, res in rows.items():
            expect(res.exact and res.minimum == 0, f"{table}: e={e} minimum {res.minimum} exact={res.exact}")
        rng = random.Random(probe_seeds[table])
        for res in rows.values():
            relabel_probes(se, call, res.witnesses, rng, PROBES_PER_WITNESS)

    jobs = [(label, at_jump_job(n, label)) for n, label in zip(JUMP_MINIMA, at_jump)]
    jobs += [(label, constrained_job(n, label)) for n, label in zip(CONSTRAINED, constrained)]
    jobs.append((table, table_job))
    return jobs


# ----------------------------------------------------------- blowup-hosts

COUNT_CELLS = ((3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 1))
# h2(4, 2, y) is left out: one 8 s call with 18 recounts at n = 674 swung
# by 10-15% between runs on the shared machine the benchmark was tuned on.
TRIM_CELLS = ((3, 1), (3, 2), (4, 1))
# Trim hosts draw y from a pair that gives h2 the same edge surplus, so the
# number of full recounts, which is the trim's work, does not depend on the
# seed (y in 0..3 would move it from 8 to 10 at p = 4, x = 1).
TRIM_Y = {3: (1, 2), 4: (2, 3)}
EDGE_LIST_LIMIT = 300
CLI_CELLS = ((3, 1), (4, 1))


def blowup_setup(se, seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "count_y": {cell: rng.randrange(4) for cell in COUNT_CELLS},
        "trim_y": {(p, x): rng.choice(TRIM_Y[p]) for p, x in TRIM_CELLS},
        "cli_y": {cell: rng.randrange(4) for cell in CLI_CELLS},
    }


def blowup_jobs(se, inputs: dict) -> list:
    def count_job(p, x, y, threads=1):
        def job(call):
            bu = call(se.constructions.h1, p, x, y)
            listing = threads == 1 and bu.graph.n <= EDGE_LIST_LIMIT
            count = call if threads == 1 else call.pooled
            rep = count(se.saturation.count_saturating, bu.graph, p + 1, edges=listing, threads=threads)
            closed = se.formulas.h1_saturating_count(p, x, y)
            pairs = v_part_pair_count(bu)
            expect(rep.total == closed == pairs, f"h1({p},{x},{y}): {rep.total} vs {closed} vs {pairs}")
            if listing:
                want = v_part_pairs(se, bu)
                expect(
                    len(rep.edges) == len(want) and set(rep.edges) == want,
                    f"h1({p},{x},{y}): listed edges are not the V-part pairs",
                )

        return job

    def trim_job(p, x, y):
        def job(call):
            bu = call(se.constructions.h2, p, x, y)
            target = se.constructions.turan_number(bu.graph.n, p) + 1
            g = call(se.constructions.trim_to_target, bu, target)
            expect(g.m == target, f"trim h2({p},{x},{y}): {g.m} edges, want {target}")
            expect(not se.graph.contains_clique(g, p + 1), f"trim h2({p},{x},{y}): K_{p + 1} present")
            expect(se.graph.contains_clique(g, p), f"trim h2({p},{x},{y}): no K_{p} left")
            before = v_part_pair_count(bu)
            after = se.saturation.count_saturating(g, p + 1).total
            expect(after == before, f"trim h2({p},{x},{y}): count {after}, want {before}")

        return job

    def cli_job(p, x, y):
        def job(call):
            built = io.StringIO()
            with contextlib.redirect_stdout(built):
                code = call(se.cli.main, ["construct", "h1", "--p", str(p), "--x", str(x), "--y", str(y)])
            expect(code == 0, f"construct exited {code}")
            counted = io.StringIO()
            saved, sys.stdin = sys.stdin, io.StringIO(built.getvalue())
            try:
                with contextlib.redirect_stdout(counted):
                    code = call(se.cli.main, ["count", "--p", str(p + 1), "--threads", "1"])
            finally:
                sys.stdin = saved
            expect(code == 0, f"count exited {code}")
            payload = json.loads(counted.getvalue())
            closed = se.formulas.h1_saturating_count(p, x, y)
            n = se.constructions.modulus(p) * x + y
            expect(payload == {"p": p + 1, "n": n, "total": closed}, f"cli h1({p},{x},{y}): {payload}")

        return job

    def formulas_job(call):
        reports = call(se.verify.verify_appendices, p_max=100)
        bad = [r.check_id for r in reports if r.status != "pass"]
        expect(reports and not bad, f"verify_appendices: {bad}")

    count_y, trim_y, cli_y = inputs["count_y"], inputs["trim_y"], inputs["cli_y"]
    jobs = [(f"count h1({p},{x},{count_y[p, x]})", count_job(p, x, count_y[p, x])) for p, x in COUNT_CELLS]
    y5 = count_y[5, 1]
    jobs.append((f"count h1(5,1,{y5}) threads=2", count_job(5, 1, y5, threads=2)))
    jobs += [(f"trim h2({p},{x},{trim_y[p, x]})", trim_job(p, x, trim_y[p, x])) for p, x in TRIM_CELLS]
    jobs += [(f"cli h1({p},{x},{cli_y[p, x]})", cli_job(p, x, cli_y[p, x])) for p, x in CLI_CELLS]
    jobs.append(("verify_appendices p_max=100", formulas_job))
    return jobs


# -------------------------------------------------------- packing-certify

HOSTS = 100
HOST_N = (12, 13, 14, 15, 16)
# The host family is fixed; the seed relabels every host.  A fresh family
# per seed moved the packing search's node count by +-13% between seeds,
# relabelling by +-3%, so seeds change the inputs without changing the size
# of the workload.
FAMILY_SEED = 1000
SWITCH_SAMPLES = 8
BLOWUP_PACKINGS = ((1, 0), (1, 1), (1, 2), (1, 3), (2, 0))


def packing_setup(se, seed: int) -> dict:
    rng = random.Random(seed)
    hosts = []
    for i in range(HOSTS):
        n = HOST_N[i % len(HOST_N)]
        g = se.verify.random_kpfree_graph(
            n, 4, seed=FAMILY_SEED + i, target_edges=se.constructions.turan_number(n, 4)
        )
        text = se.graph.graph6_encode(relabel(se, g, shuffled(rng, n)))
        hosts.append((text, rng.randrange(2 ** 32)))
    return {"hosts": hosts, "harness_seed": rng.randrange(1000)}


def sample_switches(se, pk, trials: int, rng: random.Random) -> list:
    """Up to `trials` admissible (index, out-set, in-clique) switch moves."""
    g = pk.host
    moves = []
    for _ in range(trials * 4):
        if len(moves) >= trials or not pk.cliques:
            break
        index = rng.randrange(pk.size)
        clique = pk.cliques[index]
        c_out = tuple(sorted(rng.sample(clique, rng.randint(1, pk.p))))
        kept = se.graph.mask_of(set(clique) - set(c_out))
        pool = pk.remainder
        if kept:
            pool &= se.graph.common_neighborhood(g, kept)
        options = [
            c_in
            for c_in in combinations(se.graph.bits(pool), len(c_out))
            if all(g.has_edge(u, v) for u, v in combinations(c_in, 2))
        ]
        if options:
            moves.append((index, c_out, options[rng.randrange(len(options))]))
    return moves


def check_analysis(se, an, pk, total: int, label: str):
    g, p, n = pk.host, pk.p, pk.host.n
    expect(an.z[p] == 0, f"{label}: Z_p not empty")
    expect(sum(an.z[:p]) == 1 - p * pk.density, f"{label}: sum z_j != 1 - p r")
    expect(sum(Fraction(a.bit_count(), n) for a in an.A) == an.z[p - 1], f"{label}: sum |A_i|/n != z_(p-1)")
    for a, b in combinations(an.A, 2):
        expect(a & b == 0, f"{label}: attachment sets overlap")
    for a in an.A:
        expect(se.graph.induced_edges(g, a) == 0, f"{label}: attachment set has an edge")
    expect(an.ell1 + an.ell2 == total, f"{label}: ell split {an.ell1}+{an.ell2} != {total}")


def packing_jobs(se, inputs: dict) -> list:
    def host_job(text, switch_seed, label):
        def job(call):
            g = call(se.graph.graph6_decode, text)
            pk = call(se.packing.max_packing, g, 3)
            refined = call(se.packing.refine_packing, pk)
            expect(refined.certified and refined.size == pk.size, f"{label}: refine changed the size")
            edges = se.graph.induced_edges(g, refined.remainder)
            expect(edges >= se.graph.induced_edges(g, pk.remainder), f"{label}: refine lost remainder edges")
            total = se.saturation.count_saturating(g, 4).total
            for index in range(refined.size):
                an = call(se.packing.analyze, refined, index)
                check_analysis(se, an, refined, total, f"{label} clique {index}")
            for index, c_out, c_in in sample_switches(se, refined, SWITCH_SAMPLES, random.Random(switch_seed)):
                lhs, rhs, ok = call(se.packing.check_switch_inequality, refined, index, c_out, c_in)
                expect(ok and lhs >= rhs, f"{label}: switch {c_out}->{c_in} gives {lhs} < {rhs}")
            maximal, best = call(se.packing.certify_remainder_maximal, refined)
            expect(best >= edges and maximal == (best == edges), f"{label}: certify says {maximal}, {best}")

        return job

    def blowup_job(x, y, label):
        def job(call):
            bu = call(se.constructions.h1, 3, x, y)
            g = bu.graph
            pk = call(se.packing.max_packing, g, 3)
            refined = call(se.packing.refine_packing, pk)
            expect(refined.size == pk.size, f"{label}: refine changed the size")
            ell = call(se.packing.ell_split, refined)
            expect(sum(ell) == se.formulas.h1_saturating_count(3, x, y), f"{label}: ell split {ell}")
            if (x, y) == (1, 0):
                expect(ell == (114, 132), f"{label}: ell split {ell}, want (114, 132)")
            index, value = call(se.packing.best_r_star, refined)
            values = [
                se.graph.edges_between(g, se.graph.mask_of(c), refined.remainder) for c in refined.cliques
            ]
            expect(value == values[index] == max(values), f"{label}: best_r_star {index}, {value}")

        return job

    def harness_job(call):
        reports = call(se.verify.verify_all_small, inputs["harness_seed"])
        bad = [r.check_id for r in se.verify.failures(reports)]
        expect(not bad, f"verify_all_small: {bad}")

    jobs = []
    for i, (text, switch_seed) in enumerate(inputs["hosts"]):
        label = f"host {i} n={HOST_N[i % len(HOST_N)]}"
        jobs.append((label, host_job(text, switch_seed, label)))
    for x, y in BLOWUP_PACKINGS:
        label = f"pack h1(3,{x},{y})"
        jobs.append((label, blowup_job(x, y, label)))
    jobs.append((f"verify_all_small seed={inputs['harness_seed']}", harness_job))
    return jobs


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("jump-search", jump_setup, jump_jobs, scale_power=0.7),
        Workload("blowup-hosts", blowup_setup, blowup_jobs),
        Workload("packing-certify", packing_setup, packing_jobs),
    )
}
