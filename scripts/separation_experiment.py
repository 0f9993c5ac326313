#!/usr/bin/env python3
"""Size separation between strict outer-first and relaxed compilation.

Compiles the n-pair biconditional theory (outer block X, inner block Y with
X_i <-> Y_i) both ways and tabulates circuit sizes, boundary-node counts, and
the widths of the decompositions behind the variable orders. The strict mode
grows a full boundary level per outer assignment; the relaxed mode stays
linear because every inner variable is defined by the outer block.

Usage: python scripts/separation_experiment.py [--n-max 12] [--seed 0]
"""

import argparse
import sys
import time

from nestedamc.circuit import count_boundary_nodes
from nestedamc.cnf import equivalence_cnf
from nestedamc.compiler import CompileConfig, CompileMode, compile_cnf
from nestedamc.programs import Diagnostics, plan_order


def compile_timed(cnf, mode, seed):
    """Plan and compile in one mode: (circuit, diagnostics, seconds)."""
    t0 = time.perf_counter()
    diag = Diagnostics()
    order = plan_order(cnf, mode, seed=seed, diag=diag)
    circ = compile_cnf(cnf, CompileConfig(order, mode))
    return circ, diag, time.perf_counter() - t0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n-max", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    print(f"{'n':>3} {'x_width':>7} {'x_nodes':>8} {'boundary':>9} {'2^n':>6} "
          f"{'xd_width':>8} {'xd_nodes':>8} {'x_secs':>7} {'xd_secs':>8}")
    for n in range(2, args.n_max + 1):
        cnf = equivalence_cnf(n)
        cx, dx, tx = compile_timed(cnf, CompileMode.X_FIRST, args.seed)
        cxd, dxd, txd = compile_timed(cnf, CompileMode.XD_FIRST, args.seed)
        boundary = count_boundary_nodes(cx, cnf.outer_vars)
        print(f"{n:>3} {dx.width:>7} {cx.node_count:>8} {boundary:>9} {2**n:>6} "
              f"{dxd.width:>8} {cxd.node_count:>8} {tx:>7.3f} {txd:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
