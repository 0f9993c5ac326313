import dataclasses
import hashlib
import random

import pytest

from gen import equivalence_cnf, random_cnf, random_partitioned_cnf
from nestedamc.circuit import (
    circuit_models,
    count_boundary_nodes,
    smooth,
    verify_circuit,
)
from nestedamc.cnf import LabeledCnf, enumerate_models
from nestedamc.compiler import CompileConfig, CompileMode, compile_cnf
from nestedamc.definability import defined_vars
from nestedamc.errors import CapacityError, PreconditionError
from nestedamc.treedecomp import VariableOrder, constrain_and_root

LEX_CLAUSES = [(-1, 3), (1, -3), (-2, 4), (2, -4)]


def order_of(*vs, boundary=0):
    return VariableOrder(tuple(vs), boundary)


def models_of(circ, cnf):
    return circuit_models(circ, over=cnf.variables)


def test_contradiction_single_false_node():
    cnf = LabeledCnf(1, [(1,), (-1,)])
    circ = compile_cnf(cnf, CompileConfig(order_of(1)))
    assert circ.node_count == 1
    assert circ.nodes[circ.root] == circ.nodes[0]
    assert models_of(circ, cnf) == frozenset()


def test_order_mismatch_rejected():
    cnf = LabeledCnf(2, [(1, 2)])
    with pytest.raises(PreconditionError):
        compile_cnf(cnf, CompileConfig(order_of(1)))


def test_budget_exhaustion_carries_stats():
    cnf = equivalence_cnf(10)
    order = order_of(*range(1, 21))
    with pytest.raises(CapacityError) as e:
        compile_cnf(cnf, CompileConfig(order, CompileMode.X_FIRST, cache_budget=10_000))
    assert e.value.stats is not None and e.value.stats.nodes > 0


def test_lex_unit_propagation_shares_component():
    # deciding c forces a by propagation; the {b,d} block is compiled once
    # and shared instead of being duplicated under both c-branches
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([3]))
    circ = compile_cnf(cnf, CompileConfig(order_of(3, 1, 2, 4), CompileMode.XD_FIRST))
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))
    bd_decisions = [i for i, nd in enumerate(circ.nodes) if nd.kind == "O" and nd.dvar == 2]
    assert len(bd_decisions) == 1  # one shared or-node over b
    c_decisions = [nd for nd in circ.nodes if nd.kind == "O" and nd.dvar == 3]
    assert len(c_decisions) == 1
    # deciding c propagated a: no separate decision node on a exists
    assert not any(nd.kind == "O" and nd.dvar == 1 for nd in circ.nodes)


def test_lex_outer_first_keeps_branches_apart():
    # deciding a then b, with the biconditional consequences held back to the
    # boundary: one decision on a, one residual decision on b per a-branch
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([1, 2]))
    circ = compile_cnf(cnf, CompileConfig(order_of(1, 2, 3, 4), CompileMode.X_FIRST))
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))
    rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, frozenset())
    assert rep.outer_first
    assert sum(nd.kind == "O" and nd.dvar == 1 for nd in circ.nodes) == 1
    assert sum(nd.kind == "O" and nd.dvar == 2 for nd in circ.nodes) == 2
    assert not any(nd.kind == "O" and nd.dvar in (3, 4) for nd in circ.nodes)


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
        circ = compile_cnf(cnf, CompileConfig(VariableOrder(tuple(seq)), mode))
        assert models_of(circ, cnf) == frozenset(enumerate_models(cnf)), f"trial {trial}"


def test_every_or_node_is_a_decision():
    rng = random.Random(55)
    for _ in range(50):
        cnf = random_cnf(rng, max_vars=10, max_clauses=25)
        circ = compile_cnf(cnf, CompileConfig(VariableOrder(tuple(sorted(cnf.variables)))))
        for nd in circ.nodes:
            if nd.kind == "O" and nd.children:
                assert nd.dvar != 0
                assert len(nd.children) == 2


def test_exponential_separation_lower_and_upper():
    for n in range(2, 11):
        cnf = equivalence_cnf(n)
        x = cnf.outer_vars
        # strict outer-first: one boundary node per outer assignment
        order = order_of(*(list(range(1, n + 1)) + list(range(n + 1, 2 * n + 1))))
        cx = compile_cnf(cnf, CompileConfig(order, CompileMode.X_FIRST))
        assert count_boundary_nodes(cx, x) >= 2 ** n
        # relaxed mode with an interleaved order: linear size
        inter = [v for i in range(1, n + 1) for v in (i, n + i)]
        cxd = compile_cnf(cnf, CompileConfig(order_of(*inter), CompileMode.XD_FIRST))
        assert cxd.node_count <= 32 * n


def test_deferred_propagation_matches_eager():
    rng = random.Random(7)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        seq = tuple(sorted(cnf.variables, key=lambda v: (v not in cnf.outer_vars, v)))
        eager = compile_cnf(cnf, CompileConfig(VariableOrder(seq), CompileMode.XD_FIRST))
        deferred = compile_cnf(cnf, CompileConfig(VariableOrder(seq), CompileMode.X_FIRST))
        assert models_of(eager, cnf) == models_of(deferred, cnf)


def test_outer_first_mode_emits_outer_first_circuits():
    rng = random.Random(13)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        td, order = constrain_and_root(cnf, cnf.outer_vars, frozenset(), seed=3)
        circ = compile_cnf(cnf, CompileConfig(order, CompileMode.X_FIRST))
        rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, frozenset())
        assert rep.outer_first
        assert rep.decomposable and rep.deterministic and rep.smooth


def test_relaxed_mode_respects_static_check_with_flags():
    rng = random.Random(29)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=25)
        d = defined_vars(cnf, cnf.outer_vars).defined
        td, order = constrain_and_root(cnf, cnf.outer_vars, d, seed=3)
        circ = compile_cnf(cnf, CompileConfig(order, CompileMode.XD_FIRST))
        rep = verify_circuit(smooth(circ, cnf.outer_vars), cnf, d)
        assert rep.outer_first_mod_defs
        assert rep.decomposable and rep.deterministic and rep.smooth


def test_size_bound_against_constrained_width():
    rng = random.Random(41)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=14, max_clauses=40)
        d = defined_vars(cnf, cnf.outer_vars).defined
        td, order = constrain_and_root(cnf, cnf.outer_vars, d, seed=7)
        circ = compile_cnf(cnf, CompileConfig(order, CompileMode.XD_FIRST))
        bound = 2 ** (td.width + 1) * (len(cnf.clauses) + len(cnf.variables))
        assert circ.node_count <= bound


def test_stats_populated():
    cnf = LabeledCnf(4, LEX_CLAUSES)
    circ = compile_cnf(cnf, CompileConfig(order_of(1, 2, 3, 4)))
    s = circ.stats
    assert s.nodes == circ.node_count
    assert s.edges == circ.edge_count
    assert s.decisions > 0


def _structure(circ):
    return (circ.root, [(nd.kind, nd.lit, nd.dvar, nd.children) for nd in circ.nodes],
            dataclasses.astuple(circ.stats))


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
            circ = compile_cnf(cnf, CompileConfig(VariableOrder(tuple(seq)), mode))
            digest.update(repr(_structure(circ)).encode())
    with pytest.raises(CapacityError) as e:
        compile_cnf(equivalence_cnf(8), CompileConfig(
            order_of(*range(1, 17)), CompileMode.X_FIRST, cache_budget=20_000))
    digest.update(repr(dataclasses.astuple(e.value.stats)).encode())
    assert digest.hexdigest()[:16] == "236f467ce2ca5f22"


def test_buffered_inner_units_propagate_below_the_split():
    # (3,) and (-3, 4) form a pure-inner block whose unit was held back while
    # the outer clause (1, 2) remained; the block must still propagate after
    # the split instead of deciding on 3
    cnf = LabeledCnf(4, [(1, 2), (3,), (-3, 4)], outer_vars={1, 2})
    circ = compile_cnf(cnf, CompileConfig(order_of(1, 2, 3, 4), CompileMode.X_FIRST))
    s = circ.stats
    assert (s.decisions, s.propagations, s.nodes, s.cache_entries) == (1, 3, 9, 4)
    assert models_of(circ, cnf) == frozenset(enumerate_models(cnf))
