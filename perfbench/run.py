"""nestedamc benchmark: solve generated instances end to end and check every
value against an independent reference.

Usage (from the repository root):

    python3 perfbench/run.py --workload chain-xd --seed 1 --seconds 20 --trace 0

The workloads are defined in perfbench/workloads.py. One process solves the
instances one at a time (a closed loop with one client, no threads), through
`programs.solve` for programs and `programs.solve_instance` for CNF
instances, in whole passes over the batch until `--seconds` have elapsed and
at least the workload's minimum number of passes is done. Every solve is
timed from parsing to a checked value.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced and
traced passes and reports per-layer metrics from spans recorded around the
library's functions (perfbench/spans.py); the spans are also written to
.bench_out/spans-<workload>-seed<seed>.json.

Every solve of an instance must repeat the first solve's counts and rendered
value and witness exactly; a difference is reported as a failure of kind
"nondeterministic". The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# No new pass starts after this many seconds of measuring, so a run ends
# well within its time limit even on much slower code.
MAX_MEASURE_S = 120.0


def _solver():
    """Bind the pipeline entry points once nestedamc is importable."""
    from nestedamc import programs
    from nestedamc.circuit import NestedInstance
    from nestedamc.cli import format_value
    from nestedamc.compiler import CompileMode
    from nestedamc.semirings import SemiringId

    argmax = {"map": SemiringId.MAP_ARGMAX, "meu": SemiringId.MEU_ARGMAX}

    def solve(inst, mode: str):
        """Solve one instance; returns (rendered value, witness, diagnostics)."""
        if inst.cnf is not None:
            value, diag = programs.solve_instance(
                NestedInstance(inst.cnf), CompileMode(mode))
            names, sr = inst.cnf.names, inst.cnf.outer_sr
        else:
            p = programs.parse_program(inst.text)
            value, diag = programs.solve(
                p, programs.TaskKind(inst.task), CompileMode(mode))
            # the frontend numbers source atoms in first-appearance order
            names, sr = dict(enumerate(p.atoms, 1)), argmax[inst.task]
        rendered, witness = format_value(value, sr, names)
        return rendered, witness, diag

    return solve


def _counts(diag) -> dict:
    st = diag.compile_stats
    return {
        "circuit_nodes": diag.circuit_nodes,
        "edges": diag.circuit_edges,
        "decisions": st.decisions,
        "propagations": st.propagations,
        "cache_hits": st.cache_hits,
        "cache_entries": st.cache_entries,
        "bytes_estimate": st.bytes_estimate,
        "queries": diag.definability_queries,
        "defined": len(diag.defined),
        "width": diag.width,
        "separator_size": diag.separator_size,
    }


# the counts that must repeat exactly on every solve of an instance
_REPEATED = ("circuit_nodes", "decisions", "cache_entries", "queries",
             "width", "separator_size")


class Runner:
    """Solves a batch in whole passes and checks every result."""

    def __init__(self, batch, mode: str):
        import families

        self.batch = batch
        self.mode = mode
        self.close = families.close
        self.solve = _solver()
        self.times: dict[bool, list] = {False: [], True: []}  # traced? -> [(i, s)]
        self.failures = Counter()
        self.attempted = 0
        self.first: dict[int, tuple] = {}  # instance -> fingerprint
        self.counts: dict[int, dict] = {}

    def _check(self, i, inst) -> str | None:
        try:
            rendered, witness, diag = self.solve(inst, self.mode)
        except Exception as exc:  # any failure of the library is counted
            if i not in self.first:
                traceback.print_exc()
            self.first.setdefault(i, None)
            return f"exception:{type(exc).__name__}"
        counts = _counts(diag)
        fingerprint = tuple(counts[k] for k in _REPEATED) + (rendered, witness)
        prev = self.first.setdefault(i, fingerprint)
        self.counts.setdefault(i, counts)
        if prev != fingerprint:
            print(f"error: {inst.name} repeated differently: {prev} then "
                  f"{fingerprint}", file=sys.stderr)
            return "nondeterministic"
        if not self.close(float(rendered.split()[0]), inst.value):
            return "wrong_value"
        if witness != inst.witness_string():
            return "wrong_witness"
        return None

    def run_pass(self, tracer=None):
        for i, inst in enumerate(self.batch):
            self.attempted += 1
            if tracer is None:
                t0 = time.perf_counter()
                kind = self._check(i, inst)
                dt = time.perf_counter() - t0
            else:
                with tracer.span("solve", i) as root:
                    kind = self._check(i, inst)
                dt = root.duration
            if kind is None:
                self.times[tracer is not None].append((i, dt))
            else:
                self.failures[kind] += 1


def _setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of import time plus generation time."""
    totals = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "probe.py"), str(SRC),
             workload, str(seed)],
            capture_output=True, text=True, timeout=60, check=True, cwd=ROOT,
        )
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        totals.append(probe["import_s"] + probe["generate_s"])
    return statistics.median(totals)


def _tail_percent(min_samples: int) -> int:
    """The highest whole percentile with at least ten of `min_samples`
    samples beyond it. Fixed per workload, so it does not move when faster
    code fits more passes into a run."""
    return max(1, math.floor(100 * (min_samples - 10) / min_samples))


def end_to_end(w, runner, seed: int, seconds: float):
    setup_s = _setup_seconds(w.name, seed)
    start = time.perf_counter()
    passes = 0
    while (passes < w.min_passes or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < MAX_MEASURE_S:
        runner.run_pass()
        passes += 1
    elapsed = time.perf_counter() - start
    samples = [s for _, s in runner.times[False]]
    if not samples:
        return None, [f"no instance solved correctly: {dict(runner.failures)}"]
    tail_q = _tail_percent(w.min_passes * len(runner.batch))
    ok = len(samples)
    metrics = {
        "instances_per_s": (ok / elapsed, "1/s"),
        "solve_s.p50": (statistics.median(samples), "s"),
        "solve_s.tail": (statistics.quantiles(samples, n=100, method="inclusive")
                         [tail_q - 1] if ok > 1 else samples[0], "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "circuit_nodes": (sum(c["circuit_nodes"] for c in runner.counts.values()), "count"),
    }
    notes = [
        f"passes {passes}, samples {ok}, elapsed {elapsed:.2f} s",
        f"solve_s.tail is p{tail_q} over {ok} samples "
        f"({sum(s > metrics['solve_s.tail'][0] for s in samples)} beyond it)",
    ]
    return metrics, notes


def _layer_metrics(runner, tracer, traced_passes: int):
    spans = tracer.spans
    selfs = tracer.self_times()
    per = defaultdict(float)  # totals over all traced passes
    for s, self_s in zip(spans, selfs):
        per[s.name + ".s"] += s.duration
        per[s.name + ".self"] += self_s
        per[s.name + ".n"] += 1
        for k, v in s.counts.items():
            per[f"{s.name}.{k}"] += v
        if s.name == "sat.solve":
            parent = spans[s.parent].name if s.parent >= 0 else ""
            side = "verify" if parent == "circuit.verify" else "definability"
            per[f"sat.{side}.calls"] += 1
            per[f"sat.{side}.solve_s"] += s.duration
    k = max(1, traced_passes)
    c = defaultdict(int)
    for counts in runner.counts.values():
        for key, v in counts.items():
            c[key] += v
    widths = [x["width"] for x in runner.counts.values()] or [0]
    seps = [x["separator_size"] for x in runner.counts.values()] or [0]
    vars_, clauses = per["programs.build.vars"] / k, per["programs.build.clauses"] / k
    for inst in runner.batch:
        if inst.cnf is not None:
            vars_ += len(inst.cnf.variables)
            clauses += len(inst.cnf.clauses)

    def ratio(a, b):
        return a / b if b else 0.0

    untraced = defaultdict(list)
    traced = defaultdict(list)
    for i, s in runner.times[False]:
        untraced[i].append(s)
    for i, s in runner.times[True]:
        traced[i].append(s)
    both = [i for i in traced if i in untraced]
    overhead = ratio(sum(statistics.median(traced[i]) for i in both),
                     sum(statistics.median(untraced[i]) for i in both)) - 1.0
    m = {
        "programs.parse_s": (per["programs.parse.s"] / k, "s/pass"),
        "programs.build_s": (per["programs.build.s"] / k, "s/pass"),
        "programs.vars": (vars_, "count/pass"),
        "programs.clauses": (clauses, "count/pass"),
        "definability.s": (per["definability.s"] / k, "s/pass"),
        "definability.self_s": (per["definability.self"] / k, "s/pass"),
        "definability.queries": (c["queries"], "count/pass"),
        "definability.defined": (c["defined"], "count/pass"),
        "definability.defined_ratio": (ratio(c["defined"], c["queries"]), "ratio"),
    }
    for side in ("definability", "verify"):
        calls, secs = per[f"sat.{side}.calls"], per[f"sat.{side}.solve_s"]
        m[f"sat.{side}.calls"] = (calls / k, "count/pass")
        m[f"sat.{side}.solve_s"] = (secs / k, "s/pass")
        m[f"sat.{side}.s_per_call"] = (ratio(secs, calls), "s")
    m.update({
        "cnf.primal_graph_s": (per["cnf.primal_graph.s"] / k, "s/pass"),
        "treedecomp.separator_s": (per["treedecomp.separator.s"] / k, "s/pass"),
        "treedecomp.decompose_s": (per["treedecomp.decompose.s"] / k, "s/pass"),
        "treedecomp.order_s": (per["treedecomp.order.s"] / k, "s/pass"),
        "treedecomp.width": (max(widths), "vertices"),
        "treedecomp.separator_size": (max(seps), "vertices"),
        "compiler.s": (per["compiler.s"] / k, "s/pass"),
        "compiler.decisions": (c["decisions"], "count/pass"),
        "compiler.propagations": (c["propagations"], "count/pass"),
        "compiler.cache_hits": (c["cache_hits"], "count/pass"),
        "compiler.cache_entries": (c["cache_entries"], "count/pass"),
        "compiler.cache_hit_ratio": (
            ratio(c["cache_hits"], c["cache_hits"] + c["cache_entries"]), "ratio"),
        "compiler.bytes_estimate": (c["bytes_estimate"], "bytes/pass"),
        "compiler.nodes": (c["circuit_nodes"], "count/pass"),
        "compiler.edges": (c["edges"], "count/pass"),
        "circuit.smooth_s": (per["circuit.smooth.s"] / k, "s/pass"),
        "circuit.smooth_nodes_added": (per["circuit.smooth.nodes_added"] / k, "count/pass"),
        "circuit.verify_s": (per["circuit.verify.s"] / k, "s/pass"),
        "circuit.verify_self_s": (per["circuit.verify.self"] / k, "s/pass"),
        "circuit.evaluate_s": (per["circuit.evaluate.s"] / k, "s/pass"),
        "solve.self_s": (per["solve.self"] / k, "s/pass"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    total = per["solve.s"] or 1.0
    layers = {
        "programs": per["programs.parse.s"] + per["programs.build.s"],
        "definability": per["definability.s"],
        "treedecomp": sum(per[f"{n}.s"] for n in (
            "cnf.primal_graph", "treedecomp.separator", "treedecomp.decompose",
            "treedecomp.order")),
        "compiler": per["compiler.s"],
        "circuit": sum(per[f"circuit.{n}.s"] for n in ("smooth", "verify", "evaluate")),
        "solve.self": per["solve.self"],
    }
    notes = ["layer shares of traced instance time: " + ", ".join(
        f"{name} {100 * v / total:.1f}%" for name, v in layers.items())]
    notes.append(f"definability spans: {int(per['definability.n'])}, "
                 f"traced passes: {traced_passes}")
    return m, notes


def per_layer(w, runner, seconds: float, seed: int):
    import spans

    tracer = spans.Tracer()
    start = time.perf_counter()
    passes = 0
    while (passes < 2 or time.perf_counter() - start < seconds) \
            and time.perf_counter() - start < MAX_MEASURE_S:
        if passes % 2:
            with tracer.installed():
                runner.run_pass(tracer)
        else:
            runner.run_pass()
        passes += 1
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    tracer.write(out / f"spans-{w.name}-seed{seed}.json")
    return _layer_metrics(runner, tracer, passes // 2)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "nestedamc" / "__init__.py").is_file():
        print(f"error: no nestedamc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    runner = Runner(workloads.generate(w, args.seed), w.mode)
    if args.trace:
        metrics, notes = per_layer(w, runner, args.seconds, args.seed)
    else:
        metrics, notes = end_to_end(w, runner, args.seed, args.seconds)
        if metrics is None:
            print("error: " + notes[0], file=sys.stderr)
            return 1

    failed = sum(runner.failures.values())
    print(f"workload {w.name} (mode {w.mode}, {len(runner.batch)} instances, "
          f"seed {args.seed}, trace {args.trace})")
    for line in notes:
        print(line)
    digest = hashlib.sha256(repr(sorted(runner.first.items())).encode()).hexdigest()
    print(f"determinism digest {digest[:16]} (counts, values and witnesses of "
          "every instance; equal for equal seeds)")
    print(f"failed_frac {failed / max(1, runner.attempted):.4f} "
          f"({failed} of {runner.attempted}); by kind: {dict(runner.failures) or 'none'}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
