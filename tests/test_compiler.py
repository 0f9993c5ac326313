import dataclasses
import gc
import hashlib
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from gen import equivalence_cnf, implication_chain, nodes_of, random_cnf, random_partitioned_cnf
from nestedamc.circuit import (
    LIT,
    OR,
    circuit_models,
    count_boundary_nodes,
    count_models,
    emit_nnf,
    smooth,
    verify_circuit,
)
from nestedamc.cnf import LabeledCnf, enumerate_models, parse_cnf
from nestedamc.compiler import CompileMode, compile_cnf
from nestedamc.definability import defined_vars
from nestedamc.errors import CapacityError, PreconditionError
from nestedamc.programs import TaskKind, build_instance, parse_program, plan_order
from nestedamc.treedecomp import constrain_and_root

LEX_CLAUSES = [(-1, 3), (1, -3), (-2, 4), (2, -4)]


def models_of(circ, cnf):
    return circuit_models(circ, over=cnf.variables)


def test_contradiction_single_false_node():
    cnf = LabeledCnf(1, [(1,), (-1,)])
    circ = compile_cnf(cnf, (1,))
    assert circ.node_count == 1
    assert nodes_of(circ)[circ.root] == (OR, 0, ())
    assert models_of(circ, cnf) == frozenset()


def test_order_mismatch_rejected():
    cnf = LabeledCnf(2, [(1, 2)])
    with pytest.raises(PreconditionError):
        compile_cnf(cnf, (1,))


def test_budget_exhaustion_carries_stats():
    cnf = equivalence_cnf(10)
    order = tuple(range(1, 21))
    with pytest.raises(CapacityError) as e:
        compile_cnf(cnf, order, CompileMode.X_FIRST, cache_budget=10_000)
    assert e.value.stats is not None and e.value.stats.nodes > 0


def test_repeated_literal_clause_is_a_unit():
    # `1 1 0` is the unit clause `1 0`: one literal node from one propagation
    def compiled(text):
        circ = compile_cnf(parse_cnf(text), (1,))
        return nodes_of(circ), circ.root, circ.stats

    nodes, root, stats = compiled("p cnf 1 1\n1 1 0\n")
    assert (nodes, root, stats) == compiled("p cnf 1 1\n1 0\n")
    assert len(nodes) == 1 and stats.decisions == 0 and stats.propagations == 1


def decisions_on(circ, v):
    return [i for i in range(circ.node_count) if (circ.kinds[i], circ.vals[i]) == (OR, v)]


def test_lex_unit_propagation_shares_component():
    # deciding c forces a by propagation; the {b,d} block is compiled once
    # and shared instead of being duplicated under both c-branches
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([3]))
    circ = compile_cnf(cnf, (3, 1, 2, 4), CompileMode.XD_FIRST)
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))
    assert len(decisions_on(circ, 2)) == 1  # one shared or-node over b
    assert len(decisions_on(circ, 3)) == 1
    # deciding c propagated a: no separate decision node on a exists
    assert not decisions_on(circ, 1)


def test_lex_outer_first_keeps_branches_apart():
    # deciding a then b, with the biconditional consequences held back to the
    # boundary: one decision on a, one residual decision on b per a-branch
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([1, 2]))
    circ = compile_cnf(cnf, (1, 2, 3, 4), CompileMode.X_FIRST)
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))
    rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, frozenset())
    assert rep.outer_first
    assert len(decisions_on(circ, 1)) == 1
    assert len(decisions_on(circ, 2)) == 2
    assert not decisions_on(circ, 3) and not decisions_on(circ, 4)


def test_model_equivalence_random_suite():
    rng = random.Random(101)
    for trial in range(500):
        cnf = random_cnf(rng, max_vars=14, max_clauses=40)
        mode = rng.choice(list(CompileMode))
        if mode is not CompileMode.FREE:
            k = rng.randint(0, cnf.num_vars)
            cnf = LabeledCnf(
                cnf.num_vars, cnf.clauses,
                outer_vars=frozenset(rng.sample(range(1, cnf.num_vars + 1), k)),
            )
        seq = list(cnf.variables)
        rng.shuffle(seq)
        circ = compile_cnf(cnf, tuple(seq), mode)
        assert models_of(circ, cnf) == frozenset(enumerate_models(cnf)), f"trial {trial}"


def test_every_or_node_is_a_decision():
    rng = random.Random(55)
    for _ in range(50):
        cnf = random_cnf(rng, max_vars=10, max_clauses=25)
        circ = compile_cnf(cnf, tuple(sorted(cnf.variables)))
        for kind, val, kids in nodes_of(circ):
            if kind == OR and kids:
                assert val != 0
                assert len(kids) == 2


def test_exponential_separation_lower_and_upper():
    for n in range(2, 11):
        cnf = equivalence_cnf(n)
        x = cnf.outer_vars
        # strict outer-first: one boundary node per outer assignment
        order = tuple(range(1, 2 * n + 1))
        cx = compile_cnf(cnf, order, CompileMode.X_FIRST)
        assert count_boundary_nodes(cx, x) >= 2 ** n
        # relaxed mode with an interleaved order: linear size
        inter = [v for i in range(1, n + 1) for v in (i, n + i)]
        cxd = compile_cnf(cnf, tuple(inter), CompileMode.XD_FIRST)
        assert cxd.node_count <= 32 * n


def test_deferred_propagation_matches_eager():
    rng = random.Random(7)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        seq = tuple(sorted(cnf.variables, key=lambda v: (v not in cnf.outer_vars, v)))
        eager = compile_cnf(cnf, seq, CompileMode.XD_FIRST)
        deferred = compile_cnf(cnf, seq, CompileMode.X_FIRST)
        assert models_of(eager, cnf) == models_of(deferred, cnf)


def test_outer_first_mode_emits_outer_first_circuits():
    rng = random.Random(13)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        td, order, _ = constrain_and_root(cnf, cnf.outer_vars, frozenset(), seed=3)
        circ = compile_cnf(cnf, order, CompileMode.X_FIRST)
        rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, frozenset())
        assert rep.outer_first
        assert rep.decomposable and rep.deterministic and rep.smooth


def test_relaxed_mode_respects_static_check_with_flags():
    rng = random.Random(29)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        d = defined_vars(cnf, cnf.outer_vars).defined
        td, order, _ = constrain_and_root(cnf, cnf.outer_vars, d, seed=3)
        circ = compile_cnf(cnf, order, CompileMode.XD_FIRST)
        rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, d)
        assert rep.outer_first_mod_defs
        assert rep.decomposable and rep.deterministic and rep.smooth


def test_size_bound_against_constrained_width():
    rng = random.Random(41)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=14, max_clauses=40)
        d = defined_vars(cnf, cnf.outer_vars).defined
        td, order, _ = constrain_and_root(cnf, cnf.outer_vars, d, seed=7)
        circ = compile_cnf(cnf, order, CompileMode.XD_FIRST)
        bound = 2 ** (td.width + 1) * (len(cnf.clauses) + len(cnf.variables))
        assert circ.node_count <= bound


def test_stats_populated():
    cnf = LabeledCnf(4, LEX_CLAUSES)
    circ = compile_cnf(cnf, (1, 2, 3, 4))
    s = circ.stats
    assert s.nodes == circ.node_count
    assert s.edges == circ.edge_count
    assert s.decisions > 0


def _structure(circ):
    # nodes as (kind letter, literal, decision variable, children): the
    # layout this digest has hashed from the start, whatever the storage
    nodes = [("LAO"[kind], val if kind == LIT else 0, val if kind == OR else 0, kids)
             for kind, val, kids in nodes_of(circ)]
    return (circ.root, nodes, dataclasses.astuple(circ.stats))


def test_compiled_structure_golden():
    # pins the exact circuits and counters, not just their models: node lists,
    # roots and stats of 60 random instances in every mode, plus the partial
    # stats of a budget overflow
    rng = random.Random(2718)
    digest = hashlib.sha256()
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        seq = list(cnf.variables)
        rng.shuffle(seq)
        for mode in CompileMode:
            circ = compile_cnf(cnf, tuple(seq), mode)
            digest.update(repr(_structure(circ)).encode())
    with pytest.raises(CapacityError) as e:
        compile_cnf(equivalence_cnf(8), tuple(range(1, 17)), CompileMode.X_FIRST,
                    cache_budget=20_000)
    digest.update(repr(dataclasses.astuple(e.value.stats)).encode())
    assert digest.hexdigest()[:16] == "ca55a14c362bdac9"


def test_buffered_inner_units_propagate_below_the_split():
    # (3,) and (-3, 4) form a pure-inner block whose unit was held back while
    # the outer clause (1, 2) remained; the block must still propagate after
    # the split instead of deciding on 3
    cnf = LabeledCnf(4, [(1, 2), (3,), (-3, 4)], outer_vars={1, 2})
    circ = compile_cnf(cnf, (1, 2, 3, 4), CompileMode.X_FIRST)
    s = circ.stats
    assert (s.decisions, s.propagations, s.nodes, s.cache_entries) == (1, 3, 9, 2)
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))


def test_compiled_sizes_golden():
    # nodes, edges, decisions and model counts of the 60 instances of
    # test_compiled_structure_golden in every mode. The digest was taken
    # before the trail-based core and does not depend on the cache layout,
    # so a cache change must leave it as it is.
    rng = random.Random(2718)
    digest = hashlib.sha256()
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        seq = list(cnf.variables)
        rng.shuffle(seq)
        for mode in CompileMode:
            circ = compile_cnf(cnf, tuple(seq), mode)
            s = circ.stats
            sizes = (s.nodes, s.edges, s.decisions, count_models(circ, cnf.variables))
            digest.update(repr(sizes).encode())
    assert digest.hexdigest()[:16] == "35b13b1509abb8ed"


def _benchmark_theories():
    """(theory, mode) for the first seed-1 instance of each benchmark
    workload, one per family (chain, forest, bicond), in the workload's
    mode."""
    perfbench = str(Path(__file__).resolve().parents[1] / "perfbench")
    if perfbench not in sys.path:
        sys.path.append(perfbench)
    import workloads

    for w in workloads.WORKLOADS.values():
        inst = workloads.generate(w, 1)[0]
        cnf = inst.cnf or build_instance(parse_program(inst.text), TaskKind(inst.task)).cnf
        yield cnf, CompileMode(w.mode)


def _benchmark_compiles():
    """(theory, circuit) of _benchmark_theories, planned and compiled."""
    for cnf, mode in _benchmark_theories():
        yield cnf, compile_cnf(cnf, plan_order(cnf, mode), mode)


def test_benchmark_compiles_golden():
    # the counters and the exchange-format text of the benchmark's compiles,
    # one instance per family: a change to the compiler's cache or search
    # must leave what the benchmark compiles, and how, as it is
    digest = hashlib.sha256()
    for _, circ in _benchmark_compiles():
        digest.update(repr(dataclasses.astuple(circ.stats)).encode())
        digest.update(emit_nnf(circ).encode())
    assert digest.hexdigest()[:16] == "cd0f97325f8bfdc9"


def test_emitted_circuits_golden():
    # the exchange-format text of compiled and smoothed circuits: the 60
    # instances of test_compiled_structure_golden in every mode, plus one
    # benchmark instance per family. The digest does not depend on how a
    # circuit is stored, so a change of representation must leave it as it is.
    rng = random.Random(2718)
    compiled = []
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        seq = list(cnf.variables)
        rng.shuffle(seq)
        for mode in CompileMode:
            compiled.append((cnf, compile_cnf(cnf, tuple(seq), mode)))
    digest = hashlib.sha256()
    for cnf, circ in [*compiled, *_benchmark_compiles()]:
        digest.update(emit_nnf(circ).encode())
        digest.update(emit_nnf(smooth(circ, cnf.outer_vars)).encode())
    assert digest.hexdigest()[:16] == "9d44ed7996e9e401"


def forest_cnf(rng, k):
    """k independent clusters of 3-8 variables and at most 24 clauses of 2-3
    literals each, most of them all outer or all inner."""
    clauses, outer, n = [], [], 0
    for _ in range(k):
        nv = rng.randint(3, 8)
        for _ in range(rng.randint(nv, 3 * nv)):
            vs = rng.sample(range(n + 1, n + nv + 1), rng.randint(2, 3))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        # mostly pure clusters: several mixed ones make X_FIRST one merged block
        kind = rng.random()
        if kind < 0.4:
            outer += range(n + 1, n + nv + 1)
        elif kind > 0.85:
            outer += rng.sample(range(n + 1, n + nv + 1), rng.randint(1, nv - 1))
        n += nv
    return LabeledCnf(n, clauses, outer_vars=frozenset(outer))


def _compiled_digest(cnfs):
    digest = hashlib.sha256()
    for cnf in cnfs:
        for mode in CompileMode:
            circ = compile_cnf(cnf, plan_order(cnf, mode), mode)
            digest.update(repr(dataclasses.astuple(circ.stats)).encode())
            digest.update(emit_nnf(circ).encode())
    return digest.hexdigest()[:16]


def test_split_paths_golden():
    # the exchange-format text and counters of theories compiled along their
    # planned orders in every mode; a change to how components are found
    # must leave them. 200 random instances of up to 24 variables and 70
    # clauses and a 240-variable implication chain are large enough for
    # searches that stop before walking the last component and for X_FIRST
    # merged blocks that split back into pure-inner parts; their digest
    # predates deriving components from the parents' clause masks
    rng = random.Random(1618)
    cnfs = [random_partitioned_cnf(rng, 24, 70) for _ in range(200)]
    assert _compiled_digest([*cnfs, implication_chain(120)]) == "6c2d9da0d2737c87"
    # 40 forests of 2-12 small clusters, all of whose blocks a compiler that
    # walks components of at most 32 clauses whole at every split never
    # derives; their digest was taken from such a compiler
    rng = random.Random(2718)
    forests = [forest_cnf(rng, rng.randint(2, 12)) for _ in range(40)]
    assert _compiled_digest(forests) == "59b6be8d5a739f92"


def test_cache_key_tells_variables_apart():
    # deciding 5 falsifies 1 in one branch and 2 in the other, leaving the
    # clause (1 2 3 4) over {2,3,4} and over {1,3,4}: one clause id, two
    # components that must not share a cache entry
    cnf = LabeledCnf(5, [(1, 2, 3, 4), (-5, -1), (5, -2)], outer_vars=frozenset([5]))
    for mode in CompileMode:
        circ = compile_cnf(cnf, (5, 3, 4, 1, 2), mode)
        assert models_of(circ, cnf) == frozenset(enumerate_models(cnf)), mode
        assert (circ.stats.decisions, circ.stats.cache_hits) == (5, 0), mode


def test_equal_residuals_share_an_entry_across_clause_ids():
    # with 1 true the residual (-3 2) comes from the clause (-3 2) alone,
    # with 1 false from (-3 1 2) as well: other clause ids, one residual
    cnf = LabeledCnf(3, [(-3, 1, 2), (-3, 2)])
    for mode in CompileMode:
        circ = compile_cnf(cnf, (1, 2, 3), mode)
        assert models_of(circ, cnf) == frozenset(enumerate_models(cnf)), mode
        assert (circ.stats.decisions, circ.stats.cache_hits) == (2, 1), mode


def test_equal_residuals_across_clause_ids_keep_decisions_linear():
    # outer x1..xn over the inner a, b with clauses (xi a b): after deciding
    # x1..xk, every nonempty set of false x's leaves the residual
    # (a b) (xk+1 a b) ... under other clause ids. Looked up by clause ids
    # alone, each of those 2^k components would be decided on its own and
    # the default budget would run out near n=20
    for n in (4, 20):
        a, b = n + 1, n + 2
        cnf = LabeledCnf(n + 2, [(x, a, b) for x in range(1, n + 1)],
                         outer_vars=frozenset(range(1, n + 1)))
        for mode in CompileMode:
            circ = compile_cnf(cnf, tuple(range(1, n + 3)), mode)
            assert circ.stats.decisions == 2 * n, (n, mode)
            assert count_models(circ, cnf.variables) == 3 * 2 ** n + 1, (n, mode)


def test_compile_restores_the_recursion_limit():
    # the theory has more variables than the limit, so the compile raises
    # it for its own recursion
    limit = sys.getrecursionlimit()
    n = limit + 1
    units = LabeledCnf(n, [(v,) for v in range(1, n + 1)])
    compile_cnf(units, tuple(range(1, n + 1)))
    assert sys.getrecursionlimit() == limit
    with pytest.raises(CapacityError):
        compile_cnf(units, tuple(range(1, n + 1)), cache_budget=1)
    assert sys.getrecursionlimit() == limit


def test_budget_estimate_tracks_traced_memory():
    # the estimate counts the theory's literals and variables and the
    # circuit's nodes and edges; it stays near the traced peak on wide compiles
    # (a benchmark chain, many cache keys), deep ones (implication chains,
    # whose peak is the state held along the recursion) and X_FIRST ones
    # that meet shortened residuals at most lookups ((xi a b) for i=1..20)
    n = 20
    xab = LabeledCnf(n + 2, [(x, n + 1, n + 2) for x in range(1, n + 1)],
                     outer_vars=frozenset(range(1, n + 1)))
    cases = [
        (equivalence_cnf(10), tuple(range(1, 21)), CompileMode.X_FIRST),
        (xab, tuple(range(1, n + 3)), CompileMode.X_FIRST),
    ]
    chain_map, mode = next(_benchmark_theories())  # the chain-xd workload's first
    cases.append((chain_map, plan_order(chain_map, mode), mode))
    for chain in (implication_chain(50), implication_chain(200)):
        cases.append((chain, plan_order(chain, CompileMode.XD_FIRST), CompileMode.XD_FIRST))
    for cnf, order, mode in cases:
        # objects taken from the interpreter's free lists are not traced: a
        # full collection empties them, so what earlier tests left in them
        # does not hide part of the peak
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            circ = compile_cnf(cnf, order, mode)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert 0.8 <= circ.stats.bytes_estimate / peak <= 1.25, (cnf.num_vars, mode, peak)


def test_compiled_circuit_holds_few_bytes_per_node():
    # the flat node store: a kind byte, a value, an offset and the children
    # in arrays, and a mask shared by the nodes over the same variables
    cnf = equivalence_cnf(10)
    tracemalloc.start()
    try:
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        circ = compile_cnf(cnf, tuple(range(1, 21)), CompileMode.X_FIRST)
        # a full collection also empties the interpreter's free lists, so
        # what is left is what the circuit holds
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert circ.node_count == 4133
    assert held / circ.node_count < 80


def test_compiler_does_not_load_the_planner():
    # the compiler takes a plain order; the planner that makes one stays out
    # of its imports
    src = str(Path(__file__).resolve().parents[1] / "src")
    loaded = subprocess.run(
        [sys.executable, "-c", "import sys, nestedamc.compiler; print(*sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert "nestedamc.compiler" in loaded
    assert "nestedamc.treedecomp" not in loaded
