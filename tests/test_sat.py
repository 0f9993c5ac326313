import random

import numpy as np

from gen import random_clauses
from nestedamc.definability import PadoaSession
from nestedamc.cnf import LabeledCnf
from nestedamc.sat import SatSolver


def tt_satisfiable(num_vars, clauses):
    """Truth-table satisfiability, the independent oracle for the solver."""
    m = np.arange(1 << num_vars, dtype=np.uint32)
    ok = np.ones(m.shape, dtype=bool)
    for cl in clauses:
        sat = np.zeros(m.shape, dtype=bool)
        for l in cl:
            bit = (m >> (abs(l) - 1)) & 1
            sat |= bit == (1 if l > 0 else 0)
        ok &= sat
    return bool(ok.any())


def satisfies(model, clauses):
    lits = set(model)
    return all(any(l in lits for l in cl) for cl in clauses)


def solver_for(clauses, num_vars=0):
    s = SatSolver(num_vars)
    for cl in clauses:
        s.add_clause(cl)
    return s


def test_assumption_forces_branch():
    model = solver_for([(1, 2)]).solve([-1])
    assert model is not None and -1 in model and 2 in model


def test_contradiction_unsat():
    assert solver_for([(1,), (-1,)]).solve() is None


def test_padoa_encoding_of_defined_variable_is_unsat():
    # a<->c, b<->d: c is defined by {a,b}, so the copies-differ query fails
    cnf = LabeledCnf(4, [(-1, 3), (1, -3), (-2, 4), (2, -4)])
    session = PadoaSession(cnf)
    assumptions = [session._selector[1], session._selector[2], 3, -session._prime[3]]
    assert session.solver.solve(assumptions) is None
    # without fixing the base the copies may differ
    assert session.solver.solve([3, -session._prime[3]]) is not None
    # cross-check by enumerating the 12-variable encoding directly
    from nestedamc.cnf import enumerate_models

    encoding = [tuple(cl) for cl in session.solver.clauses]
    encoding += [(l,) for l in assumptions]
    twelve = LabeledCnf(12, encoding)
    assert list(enumerate_models(twelve)) == []


# SatSolver.value reads 1 for a true literal, -1 for a false one and 0 while
# unassigned; a unit clause added at level 0 propagates to a fixpoint at once.


def test_propagate_unit_implication():
    s = solver_for([(-1, 3)], 3)
    s.add_clause([1])
    assert s.value(3) == 1 and not s.unsat


def test_propagate_nothing_to_do():
    s = solver_for([(1, 2)], 2)
    assert s.value(1) == s.value(2) == 0
    assert s.trail == [] and not s.unsat


def test_propagate_conflict():
    s = solver_for([(-1, 3), (-1, -3)], 3)
    s.add_clause([1])
    assert s.unsat


def test_propagate_is_a_closure():
    s = solver_for([(-1, 2), (-2, 3)], 4)
    s.add_clause([1])
    assert set(s.trail) == {1, 2, 3} and not s.unsat
    assert s.value(4) == 0
    s.add_clause([3])  # already implied: nothing new is forced
    assert set(s.trail) == {1, 2, 3} and not s.unsat


def test_agrees_with_truth_table_on_random_3cnf():
    rng = random.Random(11)
    for trial in range(1000):
        n = rng.randint(1, 14)
        clauses = random_clauses(rng, n, rng.randint(1, 4 * n))
        model = solver_for(clauses, n).solve()
        expected = tt_satisfiable(n, clauses)
        assert (model is not None) == expected, f"trial {trial}"
        if model is not None:
            assert satisfies(model, clauses)
            assert sorted(abs(l) for l in model) == list(range(1, n + 1))


def test_agrees_with_model_enumeration():
    from nestedamc.cnf import enumerate_models

    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 10)
        clauses = random_clauses(rng, n, rng.randint(1, 3 * n))
        model = solver_for(clauses, n).solve()
        some_model = next(iter(enumerate_models(LabeledCnf(n, clauses))), None)
        assert (model is not None) == (some_model is not None)
        if model is not None:
            assert frozenset(model) in set(enumerate_models(LabeledCnf(n, clauses)))


def test_incremental_reuse_across_assumption_queries():
    rng = random.Random(5)
    n = 12
    clauses = random_clauses(rng, n, 30)
    s = SatSolver(n)
    for cl in clauses:
        s.add_clause(cl)
    for trial in range(200):
        k = rng.randint(0, 4)
        assumptions = [
            v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)
        ]
        model = s.solve(assumptions)
        expected = tt_satisfiable(n, clauses + [(a,) for a in assumptions])
        assert (model is not None) == expected
        if model is not None:
            assert satisfies(model, clauses)
            assert all(a in model for a in assumptions)
