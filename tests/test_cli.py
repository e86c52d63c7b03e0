import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from satedge.cli import build_parser, main
from satedge import constructions
from satedge.constructions import h1, turan_number
from satedge.formulas import (
    density_threshold_high,
    density_threshold_low,
    leading_coefficient,
    positivity_poly_f,
    positivity_poly_g,
)
from satedge.graph import DEFAULT_VERTEX_CAP, bits, graph6_decode, graph6_encode, parse_edge_list


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_graph(tmp_path, g, name="g.g6"):
    path = tmp_path / name
    path.write_text(graph6_encode(g) + "\n")
    return str(path)


@pytest.mark.parametrize("argv", [["bogus"], []])
def test_unknown_or_missing_command_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_build_parser_returns_a_fresh_parser():
    assert build_parser() is not build_parser()


@pytest.mark.parametrize(
    "bad",
    [
        ["bogus"],
        ["construct", "h1", "--p", "3", "--x", "2", "--format", "edges", "--parts"],
        ["construct", "h1", "--p", "x"],
        ["search", "--n", "5", "--p", "3", "--e", "6", "--at-jump"],
    ],
)
def test_argparse_error_leaves_main_as_a_fresh_process_finds_it(capsys, bad):
    # main keeps one parser per process: a failed parse must leave no trace
    good = ["construct", "h1", "--p", "3"]
    with pytest.raises(SystemExit) as exc:
        main(bad)
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, err = run(capsys, good)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "satedge", *good], capture_output=True, text=True, env=env)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert code == 0 and out.strip()


def test_config_flag_is_unknown(capsys):
    # settings come from each command's own flags: with no config file, argparse
    # takes the flag for an unknown argument and its file for a command
    argv = ["--config", "satedge.cfg", "formulas", "table", "--p-max", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "satedge: error:" in captured.err and "satedge.cfg" in captured.err
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    fresh = subprocess.run([sys.executable, "-m", "satedge", *argv], capture_output=True, text=True, env=env)
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == (2, "", captured.err)


# -- construct ----------------------------------------------------------


def test_construct_turan_graph6(capsys):
    code, out, _ = run(capsys, ["construct", "turan", "--n", "6", "--r", "2"])
    assert code == 0
    g = graph6_decode(out.strip())
    assert (g.n, g.m) == (6, 9)


def test_construct_edges_format_round_trip(capsys):
    code, out, _ = run(capsys, ["construct", "turan", "--n", "4", "--r", "2", "--format", "edges"])
    assert code == 0
    g = parse_edge_list(out)
    assert (g.n, g.m) == (4, 4)


def test_construct_base(capsys):
    from satedge.constructions import base_graph

    code, out, _ = run(capsys, ["construct", "base", "--p", "3"])
    assert code == 0
    expected = base_graph(3)
    assert graph6_decode(out.strip()).adj == expected.adj


def test_construct_h1_matches_library(capsys, h1_310):
    code, out, _ = run(capsys, ["construct", "h1", "--p", "3"])
    assert code == 0
    assert out.strip() == graph6_encode(h1_310.graph)


def test_construct_parts(capsys, h1_310):
    code, out, _ = run(capsys, ["construct", "h1", "--p", "3", "--parts"])
    assert code == 0
    parts = json.loads(out)
    assert parts == [sorted(bits(mask)) for mask in h1_310.parts]
    assert sorted(v for part in parts for v in part) == list(range(66))


def test_construct_parts_builds_no_graph(capsys, monkeypatch):
    def no_build(spec):
        raise AssertionError("--parts built the blow-up graph")

    monkeypatch.setattr(constructions, "blow_up", no_build)
    code, out, _ = run(capsys, ["construct", "h1", "--p", "3", "--x", "100", "--parts"])
    assert code == 0
    parts = json.loads(out)
    assert sorted(v for part in parts for v in part) == list(range(h1(3, 100, 0).spec.n))


def test_construct_parts_unavailable_exits_2(capsys):
    code, _, err = run(capsys, ["construct", "turan", "--n", "6", "--r", "2", "--parts"])
    assert code == 2
    assert "part map" in err


def test_construct_trim_default_target(capsys):
    code, out, _ = run(capsys, ["construct", "trim", "--p", "3", "--x", "1", "--y", "1"])
    assert code == 0
    g = graph6_decode(out.strip())
    assert g.n == 67
    assert g.m == turan_number(67, 3) + 1


def test_construct_trim_infeasible_target_exits_1(capsys):
    code, _, err = run(capsys, ["construct", "trim", "--p", "3", "--x", "1", "--y", "1", "--target", "10"])
    assert code == 1
    assert "check failed" in err


def test_construct_trim_negative_target_exits_2(capsys):
    code, out, err = run(capsys, ["construct", "trim", "--p", "3", "--x", "1", "--y", "1", "--target", "-1"])
    assert code == 2
    assert out == ""
    assert err == "error: target must be >= 0, got -1\n"


def test_construct_missing_arguments_exit_2(capsys):
    assert run(capsys, ["construct", "turan", "--n", "6"])[0] == 2
    assert run(capsys, ["construct", "h1"])[0] == 2


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["construct", "h0", "--p", "3", "--y", "5"], "--y"),
        (["construct", "turan", "--n", "5", "--r", "2", "--p", "9"], "--p"),
        (["construct", "h1", "--p", "3", "--target", "7"], "--target"),
        (["construct", "base", "--p", "3", "--x", "2"], "--x"),
        (["construct", "h1", "--p", "3", "--parts", "--format", "edges"], "--format"),
    ],
)
def test_construct_flag_it_does_not_read_exits_2(capsys, argv, flag):
    # a flag the construction would drop is refused, by name, before any output
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse refuses --format with --parts itself
        code = exc.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flag in captured.err


def test_unknown_construction_name_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["construct", "bogus", "--p", "3"])
    assert exc.value.code == 2


# -- count --------------------------------------------------------------


def test_count_round_trip_via_file(capsys, tmp_path, h1_310):
    path = write_graph(tmp_path, h1_310.graph)
    code, out, _ = run(capsys, ["count", "--p", "4", "--in", path])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 246
    assert payload["n"] == 66
    assert "edges" not in payload


def test_count_reads_edge_list_files(capsys, tmp_path, h1_310):
    from satedge.graph import format_edge_list

    path = tmp_path / "g.edges"
    path.write_text(format_edge_list(h1_310.graph))
    code, out, _ = run(capsys, ["count", "--p", "4", "--in", str(path)])
    assert code == 0
    assert json.loads(out)["total"] == 246


def test_count_reads_stdin(capsys, monkeypatch, k33):
    monkeypatch.setattr("sys.stdin", io.StringIO(graph6_encode(k33) + "\n"))
    code, out, _ = run(capsys, ["count", "--p", "3", "--edges"])
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == 6
    assert len(payload["edges"]) == 6


def test_count_clique_present_exits_1(capsys, tmp_path, triangle):
    path = write_graph(tmp_path, triangle)
    code, _, err = run(capsys, ["count", "--p", "3", "--in", path])
    assert code == 1
    assert "check failed" in err


def test_count_empty_input_exits_2(capsys, tmp_path):
    path = tmp_path / "empty"
    path.write_text("\n")
    assert run(capsys, ["count", "--p", "3", "--in", str(path)])[0] == 2


def test_count_missing_file_exits_2(capsys, tmp_path):
    assert run(capsys, ["count", "--p", "3", "--in", str(tmp_path / "nope")])[0] == 2


@pytest.mark.parametrize("command", ["count", "pack"])
def test_several_graph6_lines_exit_2(capsys, monkeypatch, command):
    # path, then triangle: reading only the first line would hide the triangle
    monkeypatch.setattr("sys.stdin", io.StringIO("Bo\n\nBw\n"))
    code, out, err = run(capsys, [command, "--p", "3"])
    assert code == 2
    assert out == ""
    assert "2 non-empty lines" in err


@pytest.mark.parametrize("command", ["count", "pack"])
@pytest.mark.parametrize(
    "header,message",
    [("~@?@", "graph6 order 4097 exceeds cap 4096"), ("4097 0", "vertex count 4097 exceeds cap 4096")],
    ids=["graph6", "edge-list"],
)
def test_graph_above_vertex_cap_exits_2(capsys, monkeypatch, command, header, message):
    # input from outside the program is held to DEFAULT_VERTEX_CAP; the header alone is refused
    assert DEFAULT_VERTEX_CAP == 4096
    monkeypatch.setattr("sys.stdin", io.StringIO(header + "\n"))
    code, out, err = run(capsys, [command, "--p", "3"])
    assert (code, out, err) == (2, "", f"error: {message}\n")


# -- pack ---------------------------------------------------------------


def test_pack_prism(capsys, tmp_path, prism):
    path = write_graph(tmp_path, prism)
    code, out, _ = run(capsys, ["pack", "--p", "3", "--in", path, "--refine"])
    assert code == 0
    payload = json.loads(out)
    assert payload["cliques"] == [[0, 1, 2], [3, 4, 5]]
    assert payload["remainder"] == []


def test_pack_analyze_emits_partition(capsys, tmp_path, h1_310):
    path = write_graph(tmp_path, h1_310.graph)
    code, out, _ = run(capsys, ["pack", "--p", "3", "--in", path, "--refine", "--analyze", "0"])
    assert code == 0
    packing_line, analysis_line = out.strip().splitlines()
    packing = json.loads(packing_line)
    analysis = json.loads(analysis_line)
    assert len(packing["cliques"]) == 4
    assert len(analysis["z"]) == 4
    assert analysis["r"] == "2/33"
    assert sorted(analysis["clique"]) == analysis["clique"]


def test_pack_deep_host(capsys, tmp_path, deep_host):
    path = write_graph(tmp_path, deep_host)
    code, out, _ = run(capsys, ["pack", "--p", "3", "--in", path])
    assert code == 0
    assert json.loads(out)["cliques"] == [[1097, 1098, 1099]]


def test_pack_analyze_out_of_range_exits_2(capsys, tmp_path, prism):
    path = write_graph(tmp_path, prism)
    assert run(capsys, ["pack", "--p", "3", "--in", path, "--analyze", "5"])[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["pack", "--p", "3", "--threads", "2"],
        ["verify", "--threads", "2"],
        ["search", "--n", "5", "--p", "3", "--at-jump", "--threads", "2"],
    ],
    ids=["pack", "verify", "search"],
)
def test_threads_flag_is_unknown_where_unused(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_small_flag_is_unknown():
    # the harness has one scope, so no flag selects it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--small"])
    assert exc.value.code == 2


def test_pack_budget_exhaustion_exits_3(capsys, tmp_path, h1_310):
    path = write_graph(tmp_path, h1_310.graph)
    code, _, err = run(capsys, ["pack", "--p", "3", "--in", path, "--budget", "1"])
    assert code == 3
    assert "budget" in err


# -- search -------------------------------------------------------------


def test_search_basic_and_witness_gating(capsys):
    code, out, _ = run(capsys, ["search", "--n", "4", "--e", "4", "--p", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == 2
    assert payload["exact"] is True
    assert payload["witnesses"] == []

    code, out, _ = run(capsys, ["search", "--n", "4", "--e", "4", "--p", "3", "--emit-witnesses"])
    assert code == 0
    witnesses = json.loads(out)["witnesses"]
    assert witnesses and all(graph6_decode(w).m == 4 for w in witnesses)


def test_search_at_jump(capsys):
    code, out, _ = run(capsys, ["search", "--n", "5", "--p", "3", "--at-jump"])
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == 1
    assert payload["e"] == turan_number(5, 3) + 1
    assert payload["p"] == 4


def test_search_constrained(capsys, prism):
    from satedge.search import canonical_key

    code, out, _ = run(capsys, ["search", "--n", "6", "--p", "3", "--constrained", "--emit-witnesses"])
    assert code == 0
    payload = json.loads(out)
    assert payload["minimum"] == 0
    assert canonical_key(prism) in payload["witnesses"]


def test_search_mode_conflicts_exit_2(capsys):
    for argv in (["search", "--n", "6", "--p", "3", "--at-jump", "--constrained"], ["search", "--n", "6", "--p", "3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


@pytest.mark.parametrize("mode", ["--at-jump", "--constrained"])
def test_search_e_with_fixed_edge_mode_exits_2(capsys, mode):
    # both modes fix e themselves, so a given --e would be ignored
    with pytest.raises(SystemExit) as exc:
        main(["search", "--n", "5", "--p", "3", "--e", "3", mode])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--e" in captured.err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize(
    "argv",
    [["search", "--n", "6", "--p", "3", "--at-jump"], ["pack", "--p", "3"]],
    ids=["search", "pack"],
)
def test_nonpositive_budget_flag_exits_2(capsys, monkeypatch, argv, budget):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    code, out, err = run(capsys, argv + ["--budget", budget])
    assert code == 2
    assert out == ""
    assert "--budget must be positive" in err


def test_search_infeasible_edge_count_exits_2(capsys):
    code, _, err = run(capsys, ["search", "--n", "5", "--e", "11", "--p", "4"])
    assert code == 2
    assert err


def test_search_budget_exhaustion_exits_3(capsys):
    # the search labels 13 candidates in all
    code, out, _ = run(capsys, ["search", "--n", "6", "--e", "9", "--p", "4", "--budget", "10"])
    assert code == 3
    assert json.loads(out)["exact"] is False


# -- formulas -----------------------------------------------------------


def test_formulas_table(capsys):
    code, out, _ = run(capsys, ["formulas", "table", "--p-max", "4"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,leading_coefficient,threshold_low,threshold_high,poly_f,poly_g"
    expected_p3 = ",".join(
        str(v)
        for v in (
            3,
            leading_coefficient(3),
            density_threshold_low(3),
            density_threshold_high(3),
            positivity_poly_f(3),
            positivity_poly_g(3),
        )
    )
    assert lines[1] == expected_p3
    assert len(lines) == 3 and lines[2].startswith("4,")


# -- verify -------------------------------------------------------------


def test_verify_small_json_green(capsys):
    code, out, err = run(capsys, ["verify"])
    assert code == 0
    reports = json.loads(out)
    assert not [r for r in reports if r["status"] == "fail" and not r["informational"]]
    assert "FAIL" not in err


def test_verify_small_csv(capsys):
    code, out, _ = run(capsys, ["verify", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[0] == "check_id,status,informational,lhs,rhs,reason,elapsed"
