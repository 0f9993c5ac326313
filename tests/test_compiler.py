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

from gen import (
    dag_digest,
    equivalence_cnf,
    implication_chain,
    nodes_of,
    random_cnf,
    random_partitioned_cnf,
    random_program,
)
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
from nestedamc import compiler
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


def test_padding_is_charged_to_the_budget():
    # FREE mode interleaves the chain's outer and inner decisions, so their
    # branches mention different variables and each decision pads them with
    # gates. Unpadded, the compile made 2,239 nodes, about 1.4 MB by the
    # budget's count; padded, it passes 4 MB on its way to 50,429 nodes
    cnf = implication_chain(300)
    order = plan_order(cnf, CompileMode.FREE)
    with pytest.raises(CapacityError) as e:
        compile_cnf(cnf, order, CompileMode.FREE, cache_budget=4 << 20)
    assert e.value.stats.nodes > 2239


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
    assert digest.hexdigest()[:16] == "b2215924a4710448"


def test_buffered_inner_units_propagate_below_the_split():
    # (3,) and (-3, 4) form a pure-inner block whose unit was held back while
    # the outer clause (1, 2) remained; the block must still propagate after
    # the split instead of deciding on 3
    cnf = LabeledCnf(4, [(1, 2), (3,), (-3, 4)], outer_vars={1, 2})
    circ = compile_cnf(cnf, (1, 2, 3, 4), CompileMode.X_FIRST)
    s = circ.stats
    assert (s.decisions, s.propagations, s.nodes, s.cache_entries) == (1, 3, 12, 2)
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))


def test_compiled_sizes_golden():
    # nodes, edges, decisions and model counts of the 60 instances of
    # test_compiled_structure_golden in every mode. The digest does not
    # depend on the cache layout, so a cache change must leave it as it is;
    # it was re-taken when decisions began to pad their branches.
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
    assert digest.hexdigest()[:16] == "dadb7148a8f13bdc"


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
    # must leave what the benchmark compiles, and how, as it is. Re-taken
    # when plan_order began to plan each component on its own
    digest = hashlib.sha256()
    for _, circ in _benchmark_compiles():
        digest.update(repr(dataclasses.astuple(circ.stats)).encode())
        digest.update(emit_nnf(circ).encode())
    assert digest.hexdigest()[:16] == "2c0a8b5a34f5e3ec"


def test_emitted_circuits_golden():
    # the exchange-format text of compiled and smoothed circuits: the 60
    # instances of test_compiled_structure_golden in every mode, plus one
    # benchmark instance per family. The digest does not depend on how a
    # circuit is stored, so a change of representation must leave it as it is.
    # Re-taken when plan_order began to plan each component on its own.
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
    assert digest.hexdigest()[:16] == "805bd025ce626c46"


def _smoothed_dags(compiled):
    """A digest of the DAGs of the smoothed circuits of (theory, circuit)
    pairs. On the way, checks that each compiled circuit is smooth below its
    root and that `smooth` hands back one whose root mentions every variable."""
    digest = hashlib.sha256()
    for cnf, circ in compiled:
        assert circ.uneven_or == -1
        sm = smooth(circ, cnf.outer_vars)
        assert (sm is circ) == (not circ.full_mask & ~circ.masks[circ.root])
        digest.update(dag_digest(sm).encode())
    return digest.hexdigest()[:16]


def test_smoothed_dags_golden():
    # the compiler pads each decision's branches by smooth's own rule as it
    # builds the or-node, so a smoothed compile is the DAG that smoothing
    # the unpadded circuit gave: the digests were taken from a compiler that
    # left all padding to smooth. The sets: the 60 instances of
    # test_compiled_structure_golden in every mode, the 40 random programs per
    # nested task of test_property_reports_golden in every mode, and one
    # benchmark instance per family, each of which smooth hands back itself.
    # The last two were re-taken when plan_order began to plan each
    # component on its own
    rng = random.Random(2718)
    compiled = []
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        seq = list(cnf.variables)
        rng.shuffle(seq)
        compiled += [(cnf, compile_cnf(cnf, tuple(seq), mode)) for mode in CompileMode]
    assert _smoothed_dags(compiled) == "368b4f8a722abe0f"
    rng = random.Random(1201)
    compiled = []
    for family, task in (("map", TaskKind.MAP), ("meu", TaskKind.MEU), ("smp", TaskKind.SMP)):
        for _ in range(40):
            cnf = build_instance(random_program(rng, family), task).cnf
            compiled += [(cnf, compile_cnf(cnf, plan_order(cnf, mode), mode))
                         for mode in CompileMode]
    assert _smoothed_dags(compiled) == "1be1c9b7b1941f25"
    benchmark = list(_benchmark_compiles())
    assert all(smooth(circ, cnf.outer_vars) is circ for cnf, circ in benchmark)
    assert _smoothed_dags(benchmark) == "8ced81da864be7af"


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
    # merged blocks that split back into pure-inner parts. Both digests were
    # re-taken when decisions began to pad their branches, which moved no
    # decision and left every smoothed circuit the same DAG, and again when
    # plan_order began to plan each component on its own
    rng = random.Random(1618)
    cnfs = [random_partitioned_cnf(rng, 24, 70) for _ in range(200)]
    assert _compiled_digest([*cnfs, implication_chain(120)]) == "43ef6c495047e8de"
    # 40 forests of 2-12 small clusters, all of whose blocks a compiler that
    # walks components of at most 32 clauses whole at every split never
    # derives; their first digest was taken from such a compiler
    rng = random.Random(2718)
    forests = [forest_cnf(rng, rng.randint(2, 12)) for _ in range(40)]
    assert _compiled_digest(forests) == "43ebdd97bf69e762"


def _counting_copies(monkeypatch):
    """Record (template variables, copy variables) for every root block the
    compiler copies instead of compiling."""
    copies = []
    copy = compiler._Compilation._copy

    def counted(self, template, variables):
        copies.append((tuple(template[0]), tuple(variables)))
        return copy(self, template, variables)

    monkeypatch.setattr(compiler._Compilation, "_copy", counted)
    return copies


def _compile_without_templates(monkeypatch, cnf, order, mode):
    """The compile with every root block compiled on its own."""
    with monkeypatch.context() as m:
        m.setattr(compiler._Compilation, "_root_components",
                  lambda self, blocks: [self._component(b) for b in blocks])
        return compile_cnf(cnf, order, mode)


def _monotone_copies(rng, sizes):
    """Copies of theories of `sizes` variables over one set of ids: copy j
    maps variable v to maps[j][v], each copy's map increasing, the copies'
    ids interleaved."""
    owner = [j for j, n in enumerate(sizes) for _ in range(n)]
    rng.shuffle(owner)
    maps = [[0] for _ in sizes]
    for v, j in enumerate(owner, 1):
        maps[j].append(v)
    return maps


def _rename(cl, to):
    return tuple(to[l] if l > 0 else -to[-l] for l in cl)


def _interleave(rng, seqs):
    """One sequence holding each of `seqs` in its own order."""
    seqs = [list(s) for s in seqs if s]
    out = []
    while seqs:
        seq = rng.choice(seqs)
        out.append(seq.pop(0))
        if not seq:
            seqs.remove(seq)
    return out


def _renamed_hashes(circ, rename):
    """dag_digest's per-node hashes with each variable v read as rename.get(v, v)."""
    hashes = []
    for kind, val, kids in nodes_of(circ):
        val = rename.get(val, val) if val >= 0 else -rename.get(-val, -val)
        node = repr((kind, val, [hashes[c] for c in kids])).encode()
        hashes.append(hashlib.sha256(node).digest())
    return hashes


def _parts(circ, variables):
    """The children of the root (the root itself when it is not an and-node
    of several) over some of `variables` only, in order."""
    mask = sum(1 << v for v in variables)
    kids = circ.children(circ.root) if nodes_of(circ)[circ.root][0] != OR else ()
    kids = kids if len(kids) > 1 else (circ.root,)
    return [c for c in kids if circ.masks[c] and not circ.masks[c] & ~mask]


def _counters(circ):
    s = circ.stats
    return (s.decisions, s.propagations, s.cache_hits, s.cache_entries)


def _satisfiable_component(rng, outer):
    """A random satisfiable theory of 3-7 variables with a unit clause, so
    the root shortens clauses, and outer variables drawn by `outer`."""
    while True:
        cnf = random_cnf(rng, 7, 14)
        lit = rng.choice([1, -1]) * rng.randint(1, cnf.num_vars)
        xs = frozenset(v for v in cnf.variables if outer(v))
        cnf = LabeledCnf(cnf.num_vars, [*cnf.clauses, (lit,)], outer_vars=xs)
        if next(enumerate_models(cnf), None) is not None:
            return cnf


def test_root_copies_are_exact(monkeypatch):
    # k monotone-renamed copies of one component, ids interleaved, beside two
    # copies of a second one: the compile equals the one that compiles every
    # root block, its counters grow by the single compile's for each further
    # copy, and each copy's part of the root is the single compile's DAG
    # renamed. In X_FIRST the first component is pure outer and the second
    # mixed, so pure-outer copies sit beside one merged block
    copies = _counting_copies(monkeypatch)
    rng = random.Random(4242)
    k = 3
    for trial in range(30):
        for mode in CompileMode:
            x_first = mode is CompileMode.X_FIRST
            a = _satisfiable_component(rng, lambda v: x_first or rng.random() < 0.4)
            b = _satisfiable_component(rng, lambda v: v == 1 or rng.random() < 0.4)
            maps = _monotone_copies(rng, [a.num_vars] * k + [b.num_vars] * 2)
            amaps, bmaps = maps[:k], maps[k:]
            aseq = rng.sample(range(1, a.num_vars + 1), a.num_vars)
            bseq = rng.sample(range(1, b.num_vars + 1), b.num_vars)
            srcs = [a] * k + [b, b]
            full = _interleave(rng, [[m[v] for v in (aseq if src is a else bseq)]
                                     for src, m in zip(srcs, amaps + bmaps)])

            def theory(ks):
                """The copies `ks` of a with both of b, renamed densely,
                with the order of all copies restricted to them."""
                ms = [amaps[j] for j in ks] + bmaps
                keep = sorted(v for m in ms for v in m[1:])
                to = {v: i for i, v in enumerate(keep, 1)}
                ms = [[0] + [to[v] for v in m[1:]] for m in ms]
                parts = list(zip([a] * len(ks) + [b, b], ms))
                clauses = [_rename(cl, m) for src, m in parts for cl in src.clauses]
                outer = {m[v] for src, m in parts for v in src.outer_vars}
                cnf = LabeledCnf(len(keep), clauses, outer_vars=frozenset(outer))
                return cnf, [to[v] for v in full if v in to], ms

            big, order, ms = theory(range(k))
            before = len(copies)
            circ = compile_cnf(big, order, mode)
            plain = _compile_without_templates(monkeypatch, big, order, mode)
            assert emit_nnf(circ) == emit_nnf(plain), (trial, mode)
            assert circ.stats == plain.stats, (trial, mode)
            single = compile_cnf(a, aseq, mode)
            if single.stats.decisions:
                assert len(copies) - before >= k - 1, (trial, mode)
            ref, ref_order, _ = theory([0])
            expected = [r + (k - 1) * s for r, s in
                        zip(_counters(compile_cnf(ref, ref_order, mode)), _counters(single))]
            assert list(_counters(circ)) == expected, (trial, mode)
            want = _renamed_hashes(single, {})
            want = [want[c] for c in _parts(single, a.variables)]
            for m in ms[:k]:
                got = _renamed_hashes(circ, {w: v for v, w in enumerate(m) if v})
                assert [got[c] for c in _parts(circ, m[1:])] == want, (trial, mode)
    assert copies


def test_root_copy_needs_the_same_rank_pattern_and_outer_flags(monkeypatch):
    # three copies of one component whose middle one is ordered in reverse,
    # or has other outer variables: the last copy is copied from the first,
    # the middle one is compiled, and each matches its own standalone
    # compile. In X_FIRST the component is pure outer, or pure inner in the
    # middle, since mixed ones would merge into one block
    copies = _counting_copies(monkeypatch)
    clauses = [(1, 2), (2, 3), (-1, -3)]
    for mode in CompileMode:
        outer = (1, 2, 3) if mode is CompileMode.X_FIRST else (2,)
        other = () if mode is CompileMode.X_FIRST else (1,)
        for seqs, outers in [([(1, 2, 3), (3, 2, 1), (1, 2, 3)], [outer] * 3),
                             ([(1, 2, 3)] * 3, [outer, other, outer])]:
            big = LabeledCnf(9, [_rename(cl, [0, *range(3 * j + 1, 3 * j + 4)])
                                 for j in range(3) for cl in clauses],
                             outer_vars=frozenset(3 * j + v for j in range(3)
                                                  for v in outers[j]))
            order = [3 * j + v for j in range(3) for v in seqs[j]]
            copies.clear()
            circ = compile_cnf(big, order, mode)
            assert copies == [((1, 2, 3), (7, 8, 9))], mode
            assert emit_nnf(circ) == emit_nnf(
                _compile_without_templates(monkeypatch, big, order, mode)), mode
            for j in range(3):
                a = LabeledCnf(3, clauses, outer_vars=frozenset(outers[j]))
                single = compile_cnf(a, seqs[j], mode)
                want = _renamed_hashes(single, {})
                got = _renamed_hashes(circ, {3 * j + v: v for v in (1, 2, 3)})
                assert [got[c] for c in _parts(circ, range(3 * j + 1, 3 * j + 4))] == \
                    [want[c] for c in _parts(single, (1, 2, 3))], (mode, j)


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


def test_compile_leaves_no_reference_cycle():
    # the padding helper holds the compile's bound methods; were it kept past
    # the compile, the compile's arrays would live until the cyclic collector ran
    gc.collect()
    gc.disable()
    try:
        compile_cnf(implication_chain(20), tuple(range(1, 41)), CompileMode.FREE)
        assert not [o for o in gc.get_objects() if type(o).__name__ == "_Compilation"]
    finally:
        gc.enable()


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
