#!/usr/bin/env python3
"""Constrained-decomposition width with and without definability.

Samples random task programs, builds the compilation order twice per instance
(once with the separator restricted to the outer block, once widened by the
variables the outer block defines) and reports both widths plus the resulting
circuit sizes. Definability can only shrink the constrained width; the gap
measures how much structure the relaxation recovers on these instances.

Usage: python scripts/width_study.py [--per-family 50] [--seed 0]
"""

import argparse
import random
import sys
from pathlib import Path

from nestedamc.compiler import CompileConfig, CompileMode, compile_cnf
from nestedamc.definability import defined_vars
from nestedamc.programs import TaskKind, build_instance
from nestedamc.treedecomp import constrain_and_root

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from gen import random_program  # noqa: E402

FAMILIES = (("map", TaskKind.MAP), ("meu", TaskKind.MEU), ("smp", TaskKind.SMP))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--per-family", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'family':>6} {'vars':>5} {'outer':>5} {'defined':>7} "
          f"{'x_width':>7} {'xd_width':>8} {'x_nodes':>7} {'xd_nodes':>8}")
    totals = {}
    for fam, task in FAMILIES:
        rng = random.Random(args.seed * 1000 + sum(fam.encode()))
        for i in range(args.per_family):
            inst = build_instance(random_program(rng, fam), task)
            cnf = inst.cnf
            x = cnf.outer_vars
            d = defined_vars(cnf, x).defined

            td_x, order_x = constrain_and_root(cnf, x, frozenset(), seed=i)
            td_xd, order_xd = constrain_and_root(cnf, x, d, seed=i)
            cx = compile_cnf(cnf, CompileConfig(order_x, CompileMode.X_FIRST))
            cxd = compile_cnf(cnf, CompileConfig(order_xd, CompileMode.XD_FIRST))

            print(f"{fam:>6} {len(cnf.variables):>5} {len(x):>5} {len(d):>7} "
                  f"{td_x.width:>7} {td_xd.width:>8} "
                  f"{cx.node_count:>7} {cxd.node_count:>8}")
            agg = totals.setdefault(fam, [0, 0, 0, 0])
            agg[0] += td_x.width
            agg[1] += td_xd.width
            agg[2] += cx.node_count
            agg[3] += cxd.node_count
    print()
    for fam, (wx, wxd, nx, nxd) in totals.items():
        k = args.per_family
        print(f"{fam}: mean width {wx / k:.2f} -> {wxd / k:.2f}, "
              f"mean nodes {nx / k:.1f} -> {nxd / k:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
