"""Command-line entry point: construct / count / pack / search / formulas / verify.

Machine-readable results go to stdout (graph6, JSON, or CSV), diagnostics to
stderr.  Exit codes: 0 success, 1 check failure, 2 usage or input error,
3 budget exhaustion.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional

from .graph import (
    DEFAULT_VERTEX_CAP,
    Graph,
    bits,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    parse_edge_list,
)
from .constructions import (
    TrimError,
    base_graph,
    h0,
    h1,
    h2,
    trim_to_target,
    turan_graph,
    turan_number,
)
from .saturation import CliquePresentError, count_saturating
from .packing import (
    DEFAULT_PACKING_BUDGET,
    BudgetExceededError,
    analyze,
    max_packing,
    refine_packing,
)
from .search import (
    DEFAULT_SEARCH_BUDGET,
    min_saturating,
    min_saturating_at_jump,
    min_saturating_constrained,
)
from .formulas import CheckFailedError, formula_table
from .verify import failures, reports_to_csv, reports_to_json, verify_all_small


def _read_graph(path: str) -> Graph:
    """Reads one graph; auto-detects graph6 vs 'n m' edge-list input by the first line.

    Input from outside the program is held to DEFAULT_VERTEX_CAP vertices."""
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty graph input")
    lines = [ln for ln in stripped.splitlines() if ln.strip()]
    first = lines[0].split()
    if len(first) == 2 and all(tok.lstrip("-").isdigit() for tok in first):
        return parse_edge_list(stripped, cap=DEFAULT_VERTEX_CAP)
    if len(lines) > 1:
        raise ValueError(f"graph6 input has {len(lines)} non-empty lines; give one graph per input")
    return graph6_decode(lines[0], cap=DEFAULT_VERTEX_CAP)


def _emit_graph(g: Graph, fmt: str):
    if fmt == "graph6":
        print(graph6_encode(g))
    else:
        print(format_edge_list(g), end="")


# the flags each construction reads; all but --x, --y and --target are required
_CONSTRUCT_FLAGS = {
    "h0": ("p", "x"),
    "h1": ("p", "x", "y"),
    "h2": ("p", "x", "y"),
    "base": ("p",),
    "turan": ("n", "r"),
    "trim": ("p", "x", "y", "target"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satedge", description="clique-saturation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("construct", help="build a named construction")
    c.add_argument("name", choices=list(_CONSTRUCT_FLAGS))
    c.add_argument("--p", type=int, help="clique parameter")
    c.add_argument("--x", type=int, help="scale factor (default 1)")
    c.add_argument("--y", type=int, help="vertex remainder (default 0)")
    c.add_argument("--n", type=int, help="vertex count (turan)")
    c.add_argument("--r", type=int, help="part count (turan)")
    c.add_argument("--target", type=int, help="edge target (trim); default extremal+1")
    out = c.add_mutually_exclusive_group()
    out.add_argument("--format", default="graph6", choices=["graph6", "edges"])
    out.add_argument("--parts", action="store_true", help="emit the part map as JSON instead of the graph")

    k = sub.add_parser("count", help="count saturating edges")
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--in", dest="infile", default="-", help="graph file or - for stdin")
    k.add_argument("--edges", action="store_true", help="list the saturating pairs")
    k.add_argument("--threads", type=int)

    pk = sub.add_parser("pack", help="maximum disjoint clique packing")
    pk.add_argument("--p", type=int, required=True)
    pk.add_argument("--in", dest="infile", default="-")
    pk.add_argument("--refine", action="store_true", help="drive remainder edges to a local maximum")
    pk.add_argument("--analyze", type=int, metavar="INDEX", help="also emit the partition analysis of one clique")
    pk.add_argument("--budget", type=int)

    s = sub.add_parser("search", help="exhaustive minimum saturating count")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--p", type=int, required=True)
    mode = s.add_mutually_exclusive_group(required=True)
    mode.add_argument("--e", type=int)
    mode.add_argument("--at-jump", action="store_true", help="e = extremal count + 1, forbidding K_{p+1}")
    mode.add_argument("--constrained", action="store_true", help="extremal count, balanced multipartite excluded")
    s.add_argument("--budget", type=int)
    s.add_argument("--emit-witnesses", action="store_true")

    f = sub.add_parser("formulas", help="closed-form tables")
    fsub = f.add_subparsers(dest="formulas_command", required=True)
    t = fsub.add_parser("table", help="CSV of constants per clique parameter")
    t.add_argument("--p-min", type=int, default=3)
    t.add_argument("--p-max", type=int, required=True)

    v = sub.add_parser("verify", help="run the verification harness")
    v.add_argument("--seed", type=int, default=7)
    v.add_argument("--format", default="json", choices=["json", "csv"], help="report format (default json)")
    return parser


def _positive(flag: Optional[int], name: str, default: int) -> int:
    """A command-line flag's value, which must be positive, or `default`
    when the flag is absent."""
    if flag is None:
        return default
    if flag < 1:
        raise ValueError(f"{name} must be positive")
    return flag


def _cmd_construct(args) -> int:
    reads = _CONSTRUCT_FLAGS[args.name]
    for flag in ("p", "x", "y", "n", "r", "target"):
        value = getattr(args, flag)
        if value is not None and flag not in reads:
            raise ValueError(f"construct {args.name} does not read --{flag}")
        if value is None and flag in reads and flag in ("p", "n", "r"):
            raise ValueError(f"construct {args.name} needs --{flag}")
    x = 1 if args.x is None else args.x
    y = 0 if args.y is None else args.y
    if args.name == "turan":
        g = turan_graph(args.n, args.r)
        parts = None
    elif args.name == "base":
        g = base_graph(args.p)
        parts = None
    else:
        if args.name == "h0":
            bu = h0(args.p, x)
        elif args.name == "h1":
            bu = h1(args.p, x, y)
        else:
            bu = h2(args.p, x, y)
        parts = bu.parts
        g = None  # the blow-up is built only to be emitted or trimmed
        if args.name == "trim":
            target = args.target
            if target is None:
                target = turan_number(bu.spec.n, args.p) + 1
            g = trim_to_target(bu, target)
        elif not args.parts:
            g = bu.graph
    if args.parts:
        if parts is None:
            raise ValueError(f"{args.name} has no part map")
        print(json.dumps([sorted(bits(mask)) for mask in parts]))
    else:
        _emit_graph(g, args.format)
    return 0


def _cmd_count(args) -> int:
    threads = _positive(args.threads, "--threads", 1)
    g = _read_graph(args.infile)
    report = count_saturating(g, args.p, edges=args.edges, threads=threads)
    print(report.to_json())
    return 0


def _cmd_pack(args) -> int:
    budget = _positive(args.budget, "--budget", DEFAULT_PACKING_BUDGET)
    g = _read_graph(args.infile)
    packing = max_packing(g, args.p, budget=budget)
    if args.refine:
        packing = refine_packing(packing)
    print(packing.to_json())
    if args.analyze is not None:
        if not 0 <= args.analyze < packing.size:
            raise ValueError(f"--analyze index out of range (packing has {packing.size} cliques)")
        an = analyze(packing, args.analyze)
        print(
            json.dumps(
                {
                    "clique": list(an.clique),
                    "z": [str(z) for z in an.z],
                    "A": [sorted(bits(a)) for a in an.A],
                    "r": str(an.r),
                    "ell1": an.ell1,
                    "ell2": an.ell2,
                }
            )
        )
    return 0


def _cmd_search(args) -> int:
    budget = _positive(args.budget, "--budget", DEFAULT_SEARCH_BUDGET)
    if args.at_jump:
        result = min_saturating_at_jump(args.n, args.p, budget=budget)
    elif args.constrained:
        result = min_saturating_constrained(args.n, args.p, budget=budget)
    else:
        result = min_saturating(args.n, args.e, args.p, budget=budget)
    payload = result.to_dict()
    if not args.emit_witnesses:
        payload["witnesses"] = []
    print(json.dumps(payload))
    return 0 if result.exact else 3


def _cmd_formulas(args) -> int:
    rows = formula_table(args.p_min, args.p_max)
    print("p,leading_coefficient,threshold_low,threshold_high,poly_f,poly_g")
    for row in rows:
        cells = [str(row["p"])] + [
            str(row[k]) for k in ("leading_coefficient", "threshold_low", "threshold_high", "poly_f", "poly_g")
        ]
        print(",".join(cells))
    return 0


def _cmd_verify(args) -> int:
    reports = verify_all_small(seed=args.seed)
    if args.format == "csv":
        print(reports_to_csv(reports), end="")
    else:
        print(reports_to_json(reports))
    bad = failures(reports)
    for rep in bad:
        print(f"FAIL {rep.check_id} {rep.params}" + (f": {rep.reason}" if rep.reason else ""), file=sys.stderr)
    return 1 if bad else 0


_COMMANDS = {
    "construct": _cmd_construct,
    "count": _cmd_count,
    "pack": _cmd_pack,
    "search": _cmd_search,
    "formulas": _cmd_formulas,
    "verify": _cmd_verify,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built on first use and kept for the process:
    parsing leaves it unchanged, and its defaults are immutable."""
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 3
    except (CliquePresentError, TrimError, CheckFailedError) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:  # InfeasibleError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
