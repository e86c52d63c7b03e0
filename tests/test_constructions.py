import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from satedge import constructions
from satedge.constructions import (
    BlowupSpec,
    TrimError,
    base_graph,
    blow_up,
    check_construction_edge_identity,
    h0,
    h1,
    h2,
    h2_surplus,
    modulus,
    trim_to_target,
    turan_defect,
    turan_graph,
    turan_number,
)
from satedge.graph import bits, contains_clique
from satedge.saturation import count_saturating


@pytest.mark.parametrize(
    "n,r,expected",
    [
        (6, 2, 9),
        (6, 3, 12),
        (7, 3, 16),
        (10, 4, 37),
        (5, 5, 10),
        (3, 5, 3),
    ],
)
def test_turan_graph_edge_count(n, r, expected):
    g = turan_graph(n, r)
    assert g.n == n
    assert g.m == expected
    assert not contains_clique(g, r + 1)
    assert contains_clique(g, min(r, n))


def test_turan_number_matches_turan_graph():
    for n in range(0, 40):
        for p in range(3, 8):
            assert turan_number(n, p) == turan_graph(n, p - 1).m


def test_turan_defect_identity():
    # ex(n, K_p) = (p-2)/(2(p-1)) n^2 - delta, exactly
    for n in range(0, 60):
        for p in range(3, 9):
            delta = turan_defect(n, p)
            assert Fraction(p - 2, 2 * (p - 1)) * n * n - delta == turan_number(n, p)
            t = n % (p - 1)
            assert delta == Fraction(t * (p - 1 - t), 2 * (p - 1))


@pytest.mark.parametrize("function,n,p", [(turan_number, -5, 3), (turan_number, -2, 4), (turan_defect, -1, 3)])
def test_turan_counts_refuse_negative_n(function, n, p):
    # as turan_graph does: no graph has a negative vertex count
    with pytest.raises(ValueError, match="need n >= 0"):
        function(n, p)
    with pytest.raises(ValueError, match="need n >= 0"):
        turan_graph(n, p - 1)


def test_check_construction_edge_identity():
    for p in range(3, 8):
        for n in range(0, 80):
            assert check_construction_edge_identity(n, p)


@pytest.mark.parametrize("p,expected", [(3, 66), (4, 336), (5, 1060)])
def test_modulus(p, expected):
    assert modulus(p) == expected


def test_base_graph_shape():
    for p in (3, 4, 5):
        g = base_graph(p)
        assert g.n == 2 * p - 1
        # hub sees exactly the p-1 primary pair vertices
        assert g.degree(0) == p - 1
        assert not contains_clique(g, p + 1)
        assert contains_clique(g, p)


def test_blow_up_parts_partition():
    spec = BlowupSpec(base=base_graph(3), sizes=(2, 3, 3, 4, 4))
    g, parts = blow_up(spec)
    assert g.n == 16
    assert parts == spec.parts
    union = 0
    for mask in parts:
        assert mask & union == 0
        union |= mask
    assert union == g.vertices_mask()
    # parts are independent sets
    for mask in parts:
        for v in bits(mask):
            assert g.adj[v] & mask == 0


def test_blow_up_respects_base_adjacency():
    spec = BlowupSpec(base=base_graph(3), sizes=(1, 1, 1, 1, 1))
    g, _ = blow_up(spec)
    assert g.adj == base_graph(3).adj


@pytest.mark.parametrize("p", [3, 4, 5])
def test_h0_is_extremal_and_free(p):
    bu = h0(p, 1)
    assert bu.graph.n == modulus(p)
    assert bu.graph.m == turan_number(bu.graph.n, p)
    assert not contains_clique(bu.graph, p + 1)


def test_h0_scales_with_x():
    a, b = h0(3, 1), h0(3, 2)
    assert b.graph.n == 2 * a.graph.n
    assert b.graph.m == turan_number(b.graph.n, 3)


@pytest.mark.parametrize("p,x,y", [(3, 1, 0), (3, 1, 1), (3, 1, 2), (4, 1, 1), (3, 2, 2)])
def test_h1_counts(p, x, y):
    bu = h1(p, x, y)
    n = bu.graph.n
    assert n == modulus(p) * x + y
    assert bu.graph.m == turan_number(n, p)
    assert not contains_clique(bu.graph, p + 1)


def test_h1_rejects_oversized_y():
    # deleting y vertices from the u-side requires strict room
    bad_y = 3 * (3 - 1) * (3 * 3 - 4) * 1  # the full u-side at p=3, x=1
    with pytest.raises(ValueError):
        h1(3, 1, bad_y)
    h1(3, 1, bad_y - 1)  # one less is allowed


@pytest.mark.parametrize("p,x,y", [(3, 1, 0), (3, 1, 1), (4, 1, 0)])
def test_h2_surplus_identity(p, x, y):
    bu = h2(p, x, y)
    n = bu.graph.n
    # +2y+1 hub-part vertices and -(y+1) u-side vertices: net +y
    assert n == modulus(p) * x + y
    assert bu.graph.m == turan_number(n, p) + h2_surplus(p, x, y)
    assert not contains_clique(bu.graph, p + 1)


def test_h2_surplus_values():
    assert h2_surplus(3, 1, 0) == 1
    assert h2_surplus(3, 1, 1) == 2
    assert h2_surplus(4, 1, 0) == 8


@pytest.mark.parametrize("p,x,y", [(3, 1, 29), (3, 1, 500), (3, 0, 0), (3, 1, -1), (2, 1, 0)])
def test_h2_surplus_refuses_what_h2_refuses(p, x, y):
    with pytest.raises(ValueError) as refused:
        h2(p, x, y)
    with pytest.raises(ValueError, match="^" + re.escape(str(refused.value)) + "$"):
        h2_surplus(p, x, y)


def test_trim_no_op_when_already_at_target():
    bu = h2(3, 1, 0)
    target = turan_number(bu.graph.n, 3) + 1
    assert bu.graph.m == target
    g = trim_to_target(bu, target)
    assert g.adj == bu.graph.adj


def test_trim_removes_edges_and_preserves_count():
    bu = h2(3, 1, 1)
    before = count_saturating(bu.graph, 4).total
    target = turan_number(bu.graph.n, 3) + 1
    g = trim_to_target(bu, target)
    assert g.m == target
    assert not contains_clique(g, 4)
    assert count_saturating(g, 4).total == before


def test_trim_errors(monkeypatch):
    bu = h2(3, 1, 1)
    with pytest.raises(ValueError):
        trim_to_target(bu, bu.graph.m + 1)  # cannot add edges
    with pytest.raises(TrimError):
        trim_to_target(bu, 10)  # unreachable without changing the count

    def no_recount(*args, **kwargs):
        raise AssertionError("a negative target must be refused before any recount")

    monkeypatch.setattr(constructions, "count_saturating", no_recount)
    with pytest.raises(ValueError, match="target must be >= 0, got -1") as exc:
        trim_to_target(bu, -1)
    assert not isinstance(exc.value, TrimError)


def _eager_trim(bu, target):
    """The trim as an eager scan: list every U-incident edge of the original
    graph via Graph.edges(), then try them in order."""
    g = bu.graph
    if target > g.m:
        raise TrimError(f"target {target} exceeds edge count {g.m}")
    if target == g.m:
        return g
    u_mask = 0
    for pm in bu.u_parts:
        u_mask |= pm
    baseline = count_saturating(g, bu.p + 1, edges=False).total
    candidates = [(u, v) for (u, v) in g.edges() if (1 << u | 1 << v) & u_mask]
    for u, v in candidates:
        if g.m == target:
            break
        trial = g.without_edge(u, v)
        if count_saturating(trial, bu.p + 1, edges=False).total == baseline:
            g = trial
    if g.m != target:
        raise TrimError(
            f"cannot reach {target} edges: {g.m} remain after scanning removable edges"
        )
    return g


def _trim_outcome(trim, bu, target):
    try:
        return trim(bu, target).adj
    except TrimError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "cell",
    [(3, 1, y) for y in range(4)] + [(3, 2, y) for y in range(3)] + [(4, 1, y) for y in range(4)],
    ids=lambda cell: ".".join(map(str, cell)),
)
def test_trim_walk_matches_eager_scan(cell):
    bu = h2(*cell)
    floor = turan_number(bu.graph.n, bu.p)
    for target in range(bu.graph.m, floor, -1):
        assert _trim_outcome(trim_to_target, bu, target) == _trim_outcome(_eager_trim, bu, target)


def test_trim_walk_matches_eager_scan_failure():
    bu = h2(3, 1, 1)
    want = _trim_outcome(_eager_trim, bu, 10)
    assert want.startswith("cannot reach 10 edges")
    assert _trim_outcome(trim_to_target, bu, 10) == want


@pytest.mark.parametrize("cell,recounts", [((3, 1, 1), 2), ((3, 2, 1), 3), ((4, 1, 2), 10)])
def test_trim_recounts_once_per_tried_edge(monkeypatch, cell, recounts):
    # the baseline plus one recount per tried edge; every tried edge here is
    # removable, so the walk tries exactly the surplus
    calls = []
    real = constructions.count_saturating

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(constructions, "count_saturating", counting)
    bu = h2(*cell)
    target = turan_number(bu.graph.n, bu.p) + 1
    assert trim_to_target(bu, target).m == target
    assert len(calls) == recounts == bu.graph.m - target + 1


def test_blowup_spec_validation():
    with pytest.raises(ValueError):
        BlowupSpec(base=base_graph(3), sizes=(1, 1, 1))  # needs 2p-1 = 5 parts
    with pytest.raises(ValueError):
        BlowupSpec(base=base_graph(3), sizes=(-1, 1, 1, 1, 1))
    # zero-size parts are legal: the part simply vanishes
    g, parts = blow_up(BlowupSpec(base=base_graph(3), sizes=(0, 1, 1, 1, 1)))
    assert g.n == 4 and parts[0] == 0


CENSUS_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "construction_census.py"


def test_construction_census_script_rows():
    src = str(CENSUS_SCRIPT.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(CENSUS_SCRIPT), "--p-values", "3,4", "--x-values", "1", "--y-values", "0,1"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    header, *rows = [line.split() for line in run.stdout.splitlines()]
    assert header == ["p", "x", "y", "n", "m", "closed", "brute", "pack", "ell1", "ell2"]
    assert [tuple(map(int, row[:3])) for row in rows] == [(3, 1, 0), (3, 1, 1), (4, 1, 0), (4, 1, 1)]
    assert all(row[5] == row[6] for row in rows)
    assert rows[0][3:] == "66 1089 246 246 4 114 132".split()


@pytest.mark.parametrize(
    "args,message",
    [
        (("--p-values", "2"), "--p-values must all be at least 3"),
        (("--p-values", "3,2"), "--p-values must all be at least 3"),
        (("--x-values", "0"), "--x-values must all be at least 1"),
        (("--y-values", "0,-1"), "--y-values must all be at least 0"),
    ],
)
def test_construction_census_script_refuses_bad_arguments(args, message):
    # refused before the header, so stdout stays empty
    src = str(CENSUS_SCRIPT.parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run(
        [sys.executable, str(CENSUS_SCRIPT), *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 2 and run.stdout == "", (args, run.stdout)
    assert message in run.stderr
