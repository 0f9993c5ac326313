"""Command-line orchestration of the pipeline plus verification and oracle
subcommands.

Subcommands: solve, compile, eval, verify, defined, oracle, separation.
Exit codes: 0 success, 1 input error, 2 capacity error. Structured output
(`--format kv`) is line-delimited "stage metric value" records and is
byte-identical for identical (input, seed) pairs; wall-clock timings only go
to the optional --stats file.
"""

from __future__ import annotations

import argparse
import sys

from .circuit import (
    NestedInstance,
    brute_force_nested,
    count_boundary_nodes,
    emit_nnf,
    evaluate_nested,
    evaluate_verified,
    parse_nnf,
    smooth,
    verify_circuit,
)
from .cnf import LabeledCnf, equivalence_cnf, parse_cnf
from .compiler import CompileConfig, CompileMode, compile_cnf
from .definability import defined_vars
from .errors import CapacityError, NestedAmcError, ParseError
from .programs import TaskKind, build_instance, parse_program, plan_order, solve
from .semirings import NEG_INF, SemiringId

_EXIT_INPUT = 1
_EXIT_CAPACITY = 2


class _Output:
    def __init__(self, fmt: str, stream=None):
        self.fmt = fmt
        self.stream = stream or sys.stdout

    def kv(self, stage: str, metric: str, value):
        if self.fmt == "kv":
            print(f"{stage} {metric} {value}", file=self.stream)

    def text(self, message: str):
        if self.fmt == "text":
            print(message, file=self.stream)


def _fmt_lit(lit: int, names) -> str:
    name = names.get(abs(lit), str(abs(lit)))
    return name if lit > 0 else "~" + name


def _fmt_real(x: float) -> str:
    return "-inf" if x == NEG_INF else repr(float(x))


def format_value(value, sr: SemiringId, names) -> tuple[str, str | None]:
    """Render a semiring value; argmax values also yield a witness string."""
    if sr in (SemiringId.MAP_ARGMAX, SemiringId.MEU_ARGMAX):
        num, lits = value
        witness = " ".join(
            _fmt_lit(l, names) for l in sorted(lits, key=lambda l: (abs(l), l > 0))
        )
        return _fmt_real(num), witness or "(empty)"
    if sr is SemiringId.EU:
        return f"{_fmt_real(value[0])} {_fmt_real(value[1])}", None
    if sr is SemiringId.NAT_PAIR:
        return f"{value[0]} {value[1]}", None
    return _fmt_real(value), None


def _read(path: str) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as e:
        raise ParseError(f"non-ASCII byte in {path}", data.count(b"\n", 0, e.start) + 1)


def _load_instance(path: str, task: str | None) -> NestedInstance:
    if path.endswith(".pl") or task is not None:
        program = parse_program(_read(path))
        return build_instance(program, TaskKind(task or "succ"))
    return NestedInstance(parse_cnf(_read(path)))


def _emit_value(out: _Output, value, cnf: LabeledCnf):
    rendered, witness = format_value(value, cnf.outer_sr, cnf.names)
    out.kv("result", "value", rendered)
    out.text(f"value: {rendered}")
    if witness is not None:
        out.kv("result", "witness", witness)
        out.text(f"witness: {witness}")


def _cmd_solve(args, out: _Output) -> int:
    value, diag = solve(
        parse_program(_read(args.input)),
        TaskKind(args.task),
        mode=CompileMode(args.mode),
        seed=args.seed,
        cache_budget=args.cache_mb << 20,
    )
    for stage, metric, val in diag.metrics():
        out.kv(stage, metric, val)
    _emit_value(out, value, diag.instance.cnf)
    if args.stats:
        with open(args.stats, "w") as fh:
            for stage, metric, val in diag.metrics():
                fh.write(f"{stage} {metric} {val}\n")
            for stage, secs in diag.times.items():
                fh.write(f"time {stage} {secs:.6f}\n")
    return 0


def _cmd_compile(args, out: _Output) -> int:
    cnf = parse_cnf(_read(args.input))
    mode = CompileMode(args.mode)
    order = plan_order(cnf, mode, seed=args.seed)
    circ = compile_cnf(cnf, CompileConfig(order, mode, cache_budget=args.cache_mb << 20))
    stats = circ.stats
    if args.smooth:
        circ = smooth(circ, cnf.outer_vars)
    text = emit_nnf(circ)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for metric, val in stats.as_dict().items():
        out.kv("compile", metric, val)
    if args.smooth:
        out.kv("smooth", "nodes", circ.node_count)
        out.kv("smooth", "edges", circ.edge_count)
    return 0


def _cmd_eval(args, out: _Output) -> int:
    cnf = parse_cnf(_read(args.cnf))
    circ = parse_nnf(_read(args.nnf), num_vars=cnf.num_vars)
    if circ.num_vars > cnf.num_vars:
        raise NestedAmcError(
            f"circuit mentions variable {circ.num_vars} beyond the theory's {cnf.num_vars}"
        )
    circ.variables = cnf.variables
    circ = smooth(circ, cnf.outer_vars)
    if args.no_verify:
        value = evaluate_nested(circ, NestedInstance(cnf))
    else:
        d = frozenset()
        if cnf.outer_vars:
            d = defined_vars(cnf, cnf.outer_vars).defined
        value = evaluate_verified(circ, NestedInstance(cnf), d)
    _emit_value(out, value, cnf)
    return 0


def _cmd_verify(args, out: _Output) -> int:
    cnf = parse_cnf(_read(args.cnf))
    circ = parse_nnf(_read(args.nnf), num_vars=cnf.num_vars)
    circ.variables = cnf.variables
    if args.smooth:
        circ = smooth(circ, cnf.outer_vars)
    d = frozenset()
    if cnf.outer_vars:
        d = defined_vars(cnf, cnf.outer_vars).defined
    report = verify_circuit(circ, cnf, d)
    fields = [
        ("decomposable", report.decomposable),
        ("deterministic", report.deterministic),
        ("smooth", report.smooth),
        ("outer_first", report.outer_first),
        ("outer_first_mod_defs", report.outer_first_mod_defs),
        ("strictly_mod_defs", report.strictly_mod_defs),
        ("flagged_nodes", len(report.flagged_nodes)),
        ("model_equivalent", report.model_equivalent),
    ]
    for name, val in fields:
        out.kv("verify", name, val)
        out.text(f"{name}: {val}")
    return 0


def _cmd_defined(args, out: _Output) -> int:
    cnf = parse_cnf(_read(args.input))
    base = cnf.outer_vars
    if args.base:
        try:
            base = frozenset(int(v) for v in args.base.split(","))
        except ValueError:
            raise NestedAmcError(
                f"bad --base {args.base!r}, expected comma-separated variable indices"
            )
    report = defined_vars(cnf, base)
    base_s = " ".join(cnf.name_of(v) for v in sorted(report.base)) or "(empty)"
    defined_s = " ".join(cnf.name_of(v) for v in sorted(report.defined)) or "(empty)"
    out.text(f"base: {base_s}")
    out.text(f"defined: {defined_s}")
    out.text(f"queries: {report.query_count}")
    out.kv("defined", "base", base_s)
    out.kv("defined", "defined", defined_s)
    out.kv("defined", "queries", report.query_count)
    return 0


def _cmd_oracle(args, out: _Output) -> int:
    inst = _load_instance(args.input, args.task)
    value = brute_force_nested(inst, max_vars=args.max_oracle_vars)
    _emit_value(out, value, inst.cnf)
    return 0


def _cmd_separation(args, out: _Output) -> int:
    try:
        lo, hi = (int(x) for x in args.n.split(".."))
    except ValueError:
        raise NestedAmcError(f"bad range {args.n!r}, expected like 2..8")
    from .treedecomp import constrain_and_root

    out.text(f"{'n':>3} {'x_nodes':>8} {'x_boundary':>10} {'xd_nodes':>8}")
    for n in range(lo, hi + 1):
        cnf = equivalence_cnf(n)
        x = cnf.outer_vars
        _, order_x = constrain_and_root(cnf, x, frozenset(), seed=args.seed)
        cx = compile_cnf(cnf, CompileConfig(order_x, CompileMode.X_FIRST))
        d = defined_vars(cnf, x).defined
        _, order_xd = constrain_and_root(cnf, x, d, seed=args.seed)
        cxd = compile_cnf(cnf, CompileConfig(order_xd, CompileMode.XD_FIRST))
        boundary = count_boundary_nodes(cx, x)
        out.text(f"{n:>3} {cx.node_count:>8} {boundary:>10} {cxd.node_count:>8}")
        out.kv("separation", f"n{n}_x_nodes", cx.node_count)
        out.kv("separation", f"n{n}_x_boundary", boundary)
        out.kv("separation", f"n{n}_xd_nodes", cxd.node_count)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="nestedamc",
        description="Nested algebraic model counting over compiled circuits",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, seed=False, cache=False):
        sp.add_argument("--format", choices=("text", "kv"), default="text")
        if seed:
            sp.add_argument("--seed", type=int, default=0)
        if cache:
            sp.add_argument("--cache-mb", type=int, default=256)

    sp = sub.add_parser("solve", help="run the full pipeline on a program")
    sp.add_argument("input")
    sp.add_argument("--task", choices=[t.value for t in TaskKind], required=True)
    sp.add_argument("--mode", choices=[m.value for m in CompileMode], default="xd")
    sp.add_argument("--stats", default=None)
    common(sp, seed=True, cache=True)
    sp.set_defaults(fn=_cmd_solve)

    sp = sub.add_parser("compile", help="compile a labeled CNF to a circuit")
    sp.add_argument("input")
    sp.add_argument("--mode", choices=[m.value for m in CompileMode], default="xd")
    sp.add_argument("-o", "--output", default=None)
    sp.add_argument("--smooth", action="store_true")
    common(sp, seed=True, cache=True)
    sp.set_defaults(fn=_cmd_compile)

    sp = sub.add_parser("eval", help="evaluate a circuit against a labeled CNF")
    sp.add_argument("nnf")
    sp.add_argument("cnf")
    sp.add_argument("--no-verify", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_eval)

    sp = sub.add_parser("verify", help="report circuit properties")
    sp.add_argument("nnf")
    sp.add_argument("cnf")
    sp.add_argument("--smooth", action="store_true")
    common(sp)
    sp.set_defaults(fn=_cmd_verify)

    sp = sub.add_parser("defined", help="variables defined by a base set")
    sp.add_argument("input")
    sp.add_argument("--base", default=None, help="comma-separated variable indices")
    common(sp)
    sp.set_defaults(fn=_cmd_defined)

    sp = sub.add_parser("oracle", help="brute-force value of a program or CNF")
    sp.add_argument("input")
    sp.add_argument("--task", choices=[t.value for t in TaskKind], default=None)
    sp.add_argument("--max-oracle-vars", type=int, default=24)
    common(sp)
    sp.set_defaults(fn=_cmd_oracle)

    sp = sub.add_parser("separation", help="constrained-size experiment table")
    sp.add_argument("--n", default="2..8", help="range of pair counts, e.g. 2..8")
    common(sp, seed=True)
    sp.set_defaults(fn=_cmd_separation)

    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = _Output(args.format)
    try:
        return args.fn(args, out)
    except CapacityError as e:
        print(f"capacity error: {e}", file=sys.stderr)
        return _EXIT_CAPACITY
    except (NestedAmcError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
