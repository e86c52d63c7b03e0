#!/usr/bin/env python3
"""Census of the exact-edge-count construction across a (p, x, y) grid.

For every feasible cell the script reports the vertex and edge counts (the
edge count must be the extremal K_p-free count), the closed-form saturating
count and the brute-force count over twin classes (which must agree exactly),
and exits 1 if any of these checks fails; for hosts up to --cap vertices it
also computes the maximum clique-packing statistics and the touching/inside
saturating-edge split.
"""

import argparse

from satedge.constructions import h1, turan_number
from satedge.formulas import h1_saturating_count
from satedge.packing import ell_split, max_packing, refine_packing
from satedge.saturation import count_saturating


def parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p-values", type=parse_ints, default="3,4,5")
    ap.add_argument("--x-values", type=parse_ints, default="1,2")
    ap.add_argument("--y-values", type=parse_ints, default="0,1,2")
    ap.add_argument("--cap", type=int, default=200, help="packing columns only up to this vertex count")
    args = ap.parse_args(argv)
    if any(p < 3 for p in args.p_values):
        ap.error("--p-values must all be at least 3")
    if any(x < 1 for x in args.x_values):
        ap.error("--x-values must all be at least 1")
    if any(y < 0 for y in args.y_values):
        ap.error("--y-values must all be at least 0")

    header = f"{'p':>3} {'x':>3} {'y':>3} {'n':>6} {'m':>9} {'closed':>9} {'brute':>9} {'pack':>5} {'ell1':>6} {'ell2':>6}"
    print(header)
    mismatches = 0
    for p in args.p_values:
        for x in args.x_values:
            for y in args.y_values:
                if not p * (p - 1) * (3 * p - 4) * x > y:
                    continue
                bu = h1(p, x, y)
                g = bu.graph
                closed = h1_saturating_count(p, x, y)
                if g.m != turan_number(g.n, p):
                    mismatches += 1
                brute = count_saturating(g, p + 1).total
                if brute != closed:
                    mismatches += 1
                if g.n <= args.cap:
                    pk = refine_packing(max_packing(g, p))
                    ell1, ell2 = ell_split(pk)
                    tail = f"{pk.size:>5} {ell1:>6} {ell2:>6}"
                else:
                    tail = f"{'-':>5} {'-':>6} {'-':>6}"
                print(f"{p:>3} {x:>3} {y:>3} {g.n:>6} {g.m:>9} {str(closed):>9} {brute:>9} {tail}")
    if mismatches:
        print(f"{mismatches} mismatches with the extremal edge count or the closed form")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
