#!/usr/bin/env python3
"""Tabulate the jump values: the minimum number of saturating edges among
K_{p+1}-free hosts with one edge more than the extremal K_p-free count.

Every row is an exhaustive search over canonical isomorphism classes, so a
positive minimum is a proof at that size, not a sample.  Row 5..8 at the
default p=3 reproduces the frozen regression values 1, 1, 2, 3.  The
`explored` column counts the candidates generated, each once over all
passes of the deepening count bound and each charged to --budget: 6, 13,
36, 136, 185, 1001, 2929 and 7001 for n = 5..12 at p = 3, where one unpruned
pass over every class generates 6, 22, 107, 467, 4032 and 30584 for
n = 5..10.  Only the candidates within the final bound whose new vertex lies
in the first refined cell are labelled (1271 of the 7001 at n = 12).  The
pruning generates far fewer past n = 5, so a given --budget reaches
further: n = 12 takes under a second at p = 3 and at p = 4.
"""

import argparse
import sys

from satedge.constructions import turan_number
from satedge.search import DEFAULT_SEARCH_BUDGET, min_saturating_at_jump


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3, help="extremal parameter; hosts are K_{p+1}-free")
    ap.add_argument("--n-min", type=int, default=5)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--budget", type=int, default=DEFAULT_SEARCH_BUDGET)
    ap.add_argument("--witnesses", action="store_true", help="also print the minimizing canonical classes")
    args = ap.parse_args(argv)
    if args.budget < 1:
        ap.error("--budget must be positive")
    if args.p < 2:
        ap.error("--p must be at least 2")
    if args.n_min < args.p:
        # turan_number(n, p) = C(n, 2) for n < p: no host has one edge more
        ap.error("--n-min must be at least --p")
    if args.n_max < args.n_min:
        ap.error("--n-max must be at least --n-min")

    print(f"{'n':>4} {'e':>6} {'minimum':>8} {'explored':>10} {'exact':>6}")
    for n in range(args.n_min, args.n_max + 1):
        res = min_saturating_at_jump(n, args.p, budget=args.budget)
        e = turan_number(n, args.p) + 1
        print(f"{n:>4} {e:>6} {str(res.minimum):>8} {res.explored:>10} {str(res.exact):>6}")
        if args.witnesses:
            for w in res.witnesses:
                print(f"{'':>4} witness {w}")
        if not res.exact:
            print("node budget exhausted; larger rows would exceed it too", file=sys.stderr)
            return 3
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
