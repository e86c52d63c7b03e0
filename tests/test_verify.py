import csv
import io
import json
import random
import re
from fractions import Fraction

import pytest

from satedge import packing, verify
from satedge.cli import main
from satedge.constructions import h1, h2, trim_to_target, turan_number
from satedge.formulas import CheckFailedError
from satedge.graph import DEFAULT_VERTEX_CAP, Graph, build_graph, contains_clique
from satedge.verify import (
    CheckReport,
    failures,
    random_kpfree_graph,
    reports_to_csv,
    reports_to_json,
    verify_appendices,
    verify_constructions,
    verify_packing_lemmas,
    verify_reduction,
    verify_all_small,
)


def test_random_kpfree_graph_is_deterministic_and_free():
    a = random_kpfree_graph(15, 4, seed=3)
    b = random_kpfree_graph(15, 4, seed=3)
    assert a.adj == b.adj
    assert not contains_clique(a, 4)
    c = random_kpfree_graph(15, 4, seed=4)
    assert c.adj != a.adj


def test_random_kpfree_graph_respects_target():
    g = random_kpfree_graph(20, 4, seed=1, target_edges=30)
    assert g.m == 30


def kpfree_graph_loop(n, p, seed, target_edges=None):
    """random_kpfree_graph as it was written with a twin-reduced
    `clique_in` probe per pair and the edge count read off each Graph."""
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


@pytest.mark.parametrize("p", [3, 4, 5, 6])
def test_random_kpfree_graph_matches_the_per_pair_graph_loop(p):
    cases = 0
    for n in range(1, 41):
        ex = turan_number(n, p)
        for seed in range(6):
            for target in (None, ex, ex // 2, 0):
                g = random_kpfree_graph(n, p, seed, target)
                assert g.adj == kpfree_graph_loop(n, p, seed, target).adj, (n, p, seed, target)
                cases += 1
    assert cases == 960


def test_random_kpfree_graph_refuses_a_negative_target(monkeypatch):
    assert random_kpfree_graph(6, 4, seed=1, target_edges=0).m == 0
    # refused before any pair is drawn
    monkeypatch.setattr(verify, "random", None)
    with pytest.raises(ValueError, match="negative target"):
        random_kpfree_graph(6, 4, seed=1, target_edges=-3)


def test_random_kpfree_graph_refuses_n_above_the_vertex_cap(monkeypatch):
    # refused before any pair is drawn, so the C(n, 2) pair list is never built
    monkeypatch.setattr(verify, "random", None)
    with pytest.raises(ValueError, match=f"exceeds cap {DEFAULT_VERTEX_CAP}"):
        random_kpfree_graph(DEFAULT_VERTEX_CAP + 1, 4, seed=1)


def test_verify_constructions_passes():
    reports = verify_constructions(p_values=(3,), x_values=(1,), y_values=(0, 1))
    assert reports
    assert not failures(reports)
    ids = {r.check_id for r in reports}
    assert "h1-vertex-count" in ids
    assert "h1-edge-count" in ids
    assert "h1-saturating-count" in ids


def test_verify_constructions_skips_infeasible_y():
    huge_y = 3 * 2 * 5 * 1  # u-side size at p=3, x=1
    reports = verify_constructions(p_values=(3,), x_values=(1,), y_values=(huge_y,))
    assert all(r.status == "skip" for r in reports)


def test_verify_reduction_on_trimmed_construction():
    bu = h2(3, 1, 1)
    trimmed = trim_to_target(bu, turan_number(bu.graph.n, 3) + 1)
    report = verify_reduction(trimmed, 3)
    assert report.status == "pass"
    assert report.lhs >= report.rhs


def test_verify_reduction_rejects_wrong_edge_count(k33):
    with pytest.raises(ValueError):
        verify_reduction(k33, 3)  # 9 edges is extremal, not extremal+1


def test_verify_reduction_rejects_clique_host():
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    with pytest.raises(ValueError):
        verify_reduction(g, 3)


def test_verify_packing_lemmas_statuses(h1_310):
    reports = verify_packing_lemmas(h1_310.graph, 3, trials=5, seed=0)
    assert not failures(reports)
    ids = [r.check_id for r in reports]
    assert "z-a-partition-identities" in ids
    assert "best-clique-edge-bound" in ids
    assert "touching-saturating-bound" in ids


def test_verify_packing_lemmas_skips_off_extremal():
    g = random_kpfree_graph(12, 4, seed=2, target_edges=20)
    assert g.m != turan_number(12, 3)
    reports = verify_packing_lemmas(g, 3, trials=5, seed=0)
    assert not failures(reports)
    skipped = {r.check_id for r in reports if r.status == "skip"}
    assert "best-clique-edge-bound" in skipped


EXTREMAL_TAIL = ("attachment-fraction-bound", "touching-saturating-bound", "attachment-sets-empty-probe")


@pytest.fixture
def forced_bound(monkeypatch):
    """best_r_star's edge bound raised past any host, so best_r_star raises."""
    monkeypatch.setattr(packing, "best_clique_edge_bound", lambda n, p, r, delta: 10 ** 9)


def test_best_r_star_failure_is_a_fail_report(forced_bound):
    g = h1(3, 1, 0).graph
    with pytest.raises(CheckFailedError) as raised:
        packing.best_r_star(packing.refine_packing(packing.max_packing(g, 3)))
    reports = verify_packing_lemmas(g, 3)
    best = [r for r in reports if r.check_id == "best-clique-edge-bound"]
    assert [(r.status, r.reason) for r in best] == [("fail", str(raised.value))]
    for check_id in EXTREMAL_TAIL:
        tail = [r for r in reports if r.check_id == check_id]
        assert len(tail) == 1 and tail[0].status == "skip"
        assert "best-clique-edge-bound" in tail[0].reason


def test_best_r_star_attachment_fraction_failure(monkeypatch):
    # the attachment-fraction bound raised past any host: best_r_star
    # reports the best clique's z_{p-1}, the fraction analyze computes
    pk = packing.refine_packing(packing.max_packing(h1(3, 1, 0).graph, 3))
    index, _ = packing.best_r_star(pk)
    monkeypatch.setattr(packing, "attachment_fraction_bound", lambda n, p, r, delta: Fraction(2))
    with pytest.raises(CheckFailedError) as raised:
        packing.best_r_star(pk)
    found = re.fullmatch(r"attachment fraction (\S+) is below the bound 2", str(raised.value))
    assert found and Fraction(found.group(1)) == packing.analyze(pk, index).z[2]


def test_analyze_failure_is_a_fail_report(monkeypatch):
    real = verify.analyze

    def analyze(pk, index):
        if index == 0:
            raise CheckFailedError("forced failure at index 0")
        return real(pk, index)

    monkeypatch.setattr(verify, "analyze", analyze)
    reports = verify_packing_lemmas(h1(3, 1, 0).graph, 3)
    identities = [r for r in reports if r.check_id == "z-a-partition-identities"]
    assert [(r.status, r.reason) for r in identities] == [("fail", "forced failure at index 0")] + [("pass", "")] * 3
    # clique 0 is the best clique, so the checks that read its analysis are skipped
    assert [r.status for r in reports if r.check_id in EXTREMAL_TAIL] == ["skip"] * 3


def test_cli_verify_reports_a_library_failure(forced_bound, capsys):
    assert main(["verify"]) == 1
    captured = capsys.readouterr()
    reports = json.loads(captured.out)
    assert len(reports) == 80
    failed = [r for r in reports if r["status"] == "fail"]
    assert [r["check_id"] for r in failed] == ["best-clique-edge-bound"] * 2
    assert all(r["reason"] for r in failed)
    assert f": {failed[0]['reason']}" in captured.err


def test_verify_appendices_pass():
    reports = verify_appendices(p_max=40)
    assert not failures(reports)
    ids = {r.check_id for r in reports}
    assert "positivity-sweep" in ids
    assert "density-quadratic-minimum" in ids
    assert "bracket-order" in ids
    sweep = next(r for r in reports if r.check_id == "positivity-sweep")
    assert sweep.params["p_max"] == 40


def test_verify_all_small_green():
    reports = verify_all_small(seed=7)
    assert len(reports) > 40
    assert not failures(reports)
    assert [r.check_id for r in reports] == sorted(r.check_id for r in reports)


def test_reports_serialize_to_json_and_csv():
    reports = verify_constructions(p_values=(3,), x_values=(1,), y_values=(0,))
    data = json.loads(reports_to_json(reports))
    assert all(set(("check_id", "status")) <= set(row) for row in data)
    rows = list(csv.DictReader(io.StringIO(reports_to_csv(reports))))
    assert len(rows) == len(reports)
    assert rows[0]["status"] in ("pass", "fail", "skip")


def test_failures_ignores_informational():
    ok = CheckReport(check_id="a", params={}, status="pass")
    info = CheckReport(check_id="b", params={}, status="fail", informational=True)
    bad = CheckReport(check_id="c", params={}, status="fail")
    assert failures([ok, info, bad]) == [bad]
