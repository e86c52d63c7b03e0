"""Acceptance gate: nine exact, time-boxed checks covering constructions,
closed forms, packings, switching, the jump tables, and the CLI.

Each criterion is one test so the verbose run shows one pass/fail line per
criterion.  All comparisons are exact (integers and rationals); the elapsed
assertions encode the stated runtime budgets.
"""

import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

from satedge.constructions import h1, modulus, turan_number
from satedge.formulas import (
    check_density_quadratic_identity,
    h1_saturating_count,
    positivity_poly_f,
    positivity_poly_g,
    positivity_sweep,
)
from satedge.graph import (
    common_neighborhood,
    contains_clique,
    enumerate_cliques,
    graph6_encode,
    induced_edges,
    mask_of,
)
from satedge.packing import (
    analyze,
    check_switch_inequality,
    ell_split,
    max_packing,
    max_remainder_packing,
    refine_packing,
)
from satedge.saturation import count_saturating
from satedge.search import min_saturating
from satedge.verify import random_kpfree_graph

JUMP_MINIMA = {5: 1, 6: 1, 7: 2, 8: 3}
JUMP_WITNESSES = {
    5: ("Dr[",),
    6: ("EK~o",),
    7: ("F_N~o", "Fimpw"),
    8: ("G@R~vo", "G_Kv~w", "G_\\t|w"),
}


def test_criterion_1_construction_fidelity():
    started = time.monotonic()
    checked = 0
    for p, x, y in itertools.product((3, 4, 5), (1, 2), (0, 1, 2)):
        if not p * (p - 1) * (3 * p - 4) * x > y:
            continue
        bu = h1(p, x, y)
        g = bu.graph
        n = modulus(p) * x + y
        assert g.n == n
        assert g.m == turan_number(n, p)
        assert not contains_clique(g, p + 1)
        assert count_saturating(g, p + 1).total == h1_saturating_count(p, x, y)
        checked += 1
    elapsed = time.monotonic() - started
    assert checked == 18
    assert elapsed < 60.0, f"criterion 1 took {elapsed:.1f}s"


def test_criterion_2_divisible_case_closed_form(h1_310):
    started = time.monotonic()
    total = count_saturating(h1_310.graph, 4).total
    assert total == 246
    assert total == Fraction(2, 33) * 66 ** 2 - Fraction(3, 11) * 66
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 2 took {elapsed:.1f}s"


def test_criterion_3_positivity_sweep_with_margins():
    started = time.monotonic()
    margin_f, margin_g = positivity_sweep(10 ** 4)
    assert margin_f >= 0 and margin_g >= 0
    assert positivity_poly_f(3) == Fraction(7, 10)
    assert positivity_poly_g(3) == 4
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"


def test_criterion_4_density_quadratic_identity():
    started = time.monotonic()
    for p in range(3, 51):
        for n in (1, 2, 66, 10 ** 6):
            ok, lhs, rhs = check_density_quadratic_identity(p, n)
            assert ok, (p, n, lhs, rhs)
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 4 took {elapsed:.1f}s"


def test_criterion_5_partition_identities_on_random_suite(h1_310):
    started = time.monotonic()
    hosts = [random_kpfree_graph(8 + (i % 13), 4, seed=1000 + i) for i in range(200)]
    hosts.append(h1_310.graph)
    for g in hosts:
        pk = refine_packing(max_packing(g, 3))
        r = pk.density
        n = g.n
        for index in range(pk.size):
            an = analyze(pk, index)
            assert sum(an.z[:3]) == 1 - 3 * r
            assert sum(Fraction(a.bit_count(), n) for a in an.A) == an.z[2]
            for a, b in itertools.combinations(an.A, 2):
                assert a & b == 0
            for a in an.A:
                assert induced_edges(g, a) == 0
        ell1, ell2 = ell_split(pk)
        assert ell1 + ell2 == count_saturating(g, 4).total
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 5 took {elapsed:.1f}s"


def test_criterion_6_switch_inequality_on_certified_packings():
    started = time.monotonic()
    instances = 0
    switches = 0
    for i in range(60):
        n = 8 + (i % 7)
        g = random_kpfree_graph(n, 4, seed=2000 + i)
        pk = max_remainder_packing(g, 3)
        assert pk.certified
        instances += 1
        for index, clique in enumerate(pk.cliques):
            for size in range(1, 4):
                for c_out in itertools.combinations(clique, size):
                    kept = set(clique) - set(c_out)
                    cand = pk.remainder
                    if kept:
                        cand &= common_neighborhood(g, mask_of(kept))
                    for c_in in enumerate_cliques(g, size, cand):
                        lhs, rhs, ok = check_switch_inequality(pk, index, c_out, c_in)
                        assert ok, (n, i, index, c_out, c_in, lhs, rhs)
                        switches += 1
    elapsed = time.monotonic() - started
    assert instances >= 50
    assert switches > 0
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.1f}s"


def test_criterion_7_jump_tables_with_frozen_fixtures():
    started = time.monotonic()
    for n in range(5, 9):
        flat = n * n // 4
        for e in range(flat + 1):
            res = min_saturating(n, e, 4)
            assert res.exact
            assert res.minimum == 0, (n, e, res.minimum)
        jump = min_saturating(n, flat + 1, 4)
        assert jump.exact
        assert jump.minimum == JUMP_MINIMA[n] > 0
        assert tuple(jump.witnesses) == JUMP_WITNESSES[n]
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"criterion 7 took {elapsed:.1f}s"


def test_criterion_8_ell_split_example(h1_310):
    started = time.monotonic()
    pk = refine_packing(max_packing(h1_310.graph, 3))
    assert pk.certified
    assert ell_split(pk) == (114, 132)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 8 took {elapsed:.1f}s"


def test_criterion_9_cli_round_trip_and_thread_invariance(h1_310):
    construct = subprocess.run(
        [sys.executable, "-m", "satedge", "construct", "h1", "--p", "3", "--x", "1", "--y", "0"],
        capture_output=True,
        text=True,
    )
    assert construct.returncode == 0, construct.stderr
    assert construct.stdout.strip() == graph6_encode(h1_310.graph)

    outputs = {}
    for threads in (1, 8):
        count = subprocess.run(
            [sys.executable, "-m", "satedge", "count", "--p", "4", "--threads", str(threads)],
            input=construct.stdout,
            capture_output=True,
            text=True,
        )
        assert count.returncode == 0, count.stderr
        outputs[threads] = count.stdout
        assert json.loads(count.stdout)["total"] == 246
    assert outputs[1] == outputs[8]
