#!/usr/bin/env python3
"""Packing-side profile of one exact-edge-count construction.

Builds the host, finds the certified maximum clique packing, refines the
remainder, then prints the neighbor-count partition of every packed clique,
the saturating-edge split, and the closed-form lower bounds the extremal
host must satisfy (best-clique edges, attachment fraction, touching and
inside saturating edges).
"""

import argparse

from satedge.constructions import h1, turan_defect, turan_number
from satedge.formulas import bound_set
from satedge.graph import induced_edges
from satedge.packing import analyze, best_r_star, ell_split, max_packing, refine_packing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--p", type=int, default=3)
    ap.add_argument("--x", type=int, default=1)
    ap.add_argument("--y", type=int, default=0)
    args = ap.parse_args(argv)
    try:
        bu = h1(args.p, args.x, args.y)
    except ValueError as exc:
        ap.error(str(exc))

    g, p = bu.graph, args.p
    pk = refine_packing(max_packing(g, p))
    r = pk.density
    print(f"host: n={g.n} m={g.m} (extremal for K_{p + 1}-free)")
    print(f"packing: {pk.size} disjoint {p}-cliques, density r={r}, remainder edges={induced_edges(g, pk.remainder)}")

    analyses = [analyze(pk, index) for index in range(pk.size)]
    for index, an in enumerate(analyses):
        zs = " ".join(str(z) for z in an.z)
        sizes = " ".join(str(a.bit_count()) for a in an.A)
        print(f"clique {index} {an.clique}: z=({zs})  |A_i|=({sizes})  ell1={an.ell1} ell2={an.ell2}")

    ell1, ell2 = ell_split(pk)
    print(f"saturating split: touching={ell1} inside={ell2} total={ell1 + ell2}")

    if g.m == turan_number(g.n, p) and pk.size:
        delta = turan_defect(g.n, p)
        bounds = bound_set(g.n, p, r, delta)
        index, value = best_r_star(pk)
        an = analyses[index]
        print(f"bounds at delta={delta}:")
        print(f"  best clique {index}: edges to remainder {value} >= {bounds.best_clique_edges}")
        print(f"  attachment fraction {an.z[p - 1]} >= {bounds.attachment_fraction}")
        print(f"  touching saturating {ell1} >= {bounds.touching_saturating}")
        print(f"  inside saturating {ell2} >= {bounds.inside_saturating}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
