import random

from gen import random_clauses
from nestedamc import definability
from nestedamc.definability import PadoaSession
from nestedamc.cnf import LabeledCnf
from nestedamc.sat import SatSolver


def tt_satisfiable(num_vars, clauses):
    """Truth-table satisfiability, the independent oracle for the solver. A
    table is a 2^n-bit int whose bit m is a value under the assignment that
    gives variable v bit v-1 of m; a clause ORs its literals' tables, and the
    theory is satisfiable iff the AND of its clauses' tables is nonzero."""
    full = (1 << (1 << num_vars)) - 1
    table = {}
    for v in range(1, num_vars + 1):
        half = 1 << (v - 1)
        # 2^(v-1) false assignments, then as many true ones, repeated
        table[v] = full // ((1 << 2 * half) - 1) * (((1 << half) - 1) << half)
    ok = full
    for cl in clauses:
        sat = 0
        for l in cl:
            sat |= table[l] if l > 0 else full & ~table[-l]
        ok &= sat
    return ok != 0


def satisfies(model, clauses):
    lits = set(model)
    return all(any(l in lits for l in cl) for cl in clauses)


def test_assumption_forces_branch():
    model = SatSolver(2, [(1, 2)]).solve([-1])
    assert model is not None and -1 in model and 2 in model


def test_contradiction_unsat():
    assert SatSolver(1, [(1,), (-1,)]).solve() is None


def test_padoa_encoding_of_defined_variable_is_unsat():
    # a<->c, b<->d: c is defined by {a,b}, so the copies-differ query fails
    cnf = LabeledCnf(4, [(-1, 3), (1, -3), (-2, 4), (2, -4)])
    # variable v is solver variable v and its primed copy 4 + v
    session = PadoaSession(cnf.clauses, cnf.variables, {1, 2})
    assumptions = [3, -7]
    assert session.solver.solve(assumptions) is None
    # without fixing the base the copies may differ
    free = PadoaSession(cnf.clauses, cnf.variables, frozenset())
    assert free.solver.solve(assumptions) is not None
    # cross-check by enumerating the 8-variable encoding directly
    from nestedamc.cnf import enumerate_models

    encoding = [tuple(cl) for cl in session.solver.clauses]
    encoding += [(l,) for l in assumptions]
    eight = LabeledCnf(8, encoding)
    assert list(enumerate_models(eight)) == []


# SatSolver.value reads 1 for a true literal, -1 for a false one and 0 while
# unassigned; the unit clauses a solver is built with propagate to a fixpoint
# at once.


def test_propagate_unit_implication():
    s = SatSolver(3, [(-1, 3), (1,)])
    assert s.value(3) == 1 and not s.unsat


def test_propagate_nothing_to_do():
    s = SatSolver(2, [(1, 2)])
    assert s.value(1) == s.value(2) == 0
    assert s.trail == [] and not s.unsat


def test_propagate_conflict():
    s = SatSolver(3, [(-1, 3), (-1, -3), (1,)])
    assert s.unsat


def test_propagate_is_a_closure():
    s = SatSolver(4, [(-1, 2), (-2, 3), (1,)])
    assert set(s.trail) == {1, 2, 3} and not s.unsat
    assert s.value(4) == 0
    # a unit that is already implied forces nothing new, wherever it comes
    s = SatSolver(4, [(3,), (-1, 2), (1,), (-2, 3)])
    assert set(s.trail) == {1, 2, 3} and not s.unsat


def test_agrees_with_truth_table_on_random_3cnf():
    # clauses as LabeledCnf normalises them, plus level-0 units, sometimes a
    # unit conflicting with one of them and sometimes the empty clause
    rng = random.Random(11)
    unsat = conflicting = empty = 0
    for trial in range(1000):
        n = rng.randint(1, 14)
        clauses = LabeledCnf(n, random_clauses(rng, n, rng.randint(1, 4 * n))).clauses
        units = [
            v if rng.random() < 0.5 else -v
            for v in rng.sample(range(1, n + 1), rng.randint(0, min(3, n)))
        ]
        clauses += [(l,) for l in units]
        if units and rng.random() < 0.2:
            clauses.append((-units[0],))
        if rng.random() < 0.1:
            clauses.append(())
        rng.shuffle(clauses)
        s = SatSolver(n, clauses)
        unsat += s.unsat
        conflicting += bool(units) and (-units[0],) in clauses
        empty += () in clauses
        model = s.solve()
        expected = tt_satisfiable(n, clauses)
        assert (model is not None) == expected, f"trial {trial}"
        if model is not None:
            assert satisfies(model, clauses)
            assert sorted(abs(l) for l in model) == list(range(1, n + 1))
        for _ in range(3):
            assumptions = [
                v if rng.random() < 0.5 else -v
                for v in rng.sample(range(1, n + 1), rng.randint(0, min(4, n)))
            ]
            model = s.solve(assumptions)
            expected = tt_satisfiable(n, clauses + [(a,) for a in assumptions])
            assert (model is not None) == expected, f"trial {trial}"
            if model is not None:
                assert satisfies(model, clauses) and set(assumptions) <= set(model)
    assert unsat > 50 and conflicting > 20 and empty > 20


def test_agrees_with_model_enumeration():
    from nestedamc.cnf import enumerate_models

    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(1, 10)
        clauses = random_clauses(rng, n, rng.randint(1, 3 * n))
        model = SatSolver(n, clauses).solve()
        some_model = next(iter(enumerate_models(LabeledCnf(n, clauses))), None)
        assert (model is not None) == (some_model is not None)
        if model is not None:
            assert frozenset(model) in set(enumerate_models(LabeledCnf(n, clauses)))


def test_incremental_reuse_across_assumption_queries():
    rng = random.Random(5)
    n = 12
    clauses = random_clauses(rng, n, 30)
    s = SatSolver(n, clauses)
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


class ScanSolver(SatSolver):
    """Branching by a full scan over the variables: the reference that the
    lazy order heap must match choice for choice."""

    def _pick_branch_var(self):
        best, best_act = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if self.assign[v] == 0 and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        return best


def random_3cnf(rng, n, m):
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
        for _ in range(m)
    ]


def test_branching_matches_activity_scan(monkeypatch):
    # 3-CNF near the threshold: searches that conflict, learn and backjump
    rng = random.Random(8)
    learned = rescaled = 0
    for trial in range(300):
        n = rng.randint(10, 40)
        clauses = random_3cnf(rng, n, int(n * rng.uniform(3.5, 5)))
        heap, scan = SatSolver(n, clauses), ScanSolver(n, clauses)
        attached = len(heap.clauses)
        if trial % 3 == 0:
            # start near the activity ceiling so the rescale, and with it the
            # heap rebuild, happens after a few bumps
            heap.var_inc = scan.var_inc = 1e99
        for _ in range(10):
            k = rng.randint(0, 6)
            assumptions = [
                v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)
            ]
            assert heap.solve(assumptions) == scan.solve(assumptions)
            assert heap.clauses == scan.clauses
            assert heap.activity == scan.activity
            assert heap.unsat == scan.unsat
        learned += len(heap.clauses) > attached
        rescaled += heap.var_inc < 1.0
    assert learned > 250 and rescaled > 50

    # one Padoa query stream, the workload the heap was built for
    r = random.Random(1)
    cnf = LabeledCnf(40, random_3cnf(r, 40, 120), outer_vars=r.sample(range(1, 41), 20))
    session = PadoaSession(cnf.clauses, cnf.variables, cnf.outer_vars)
    attached = len(session.solver.clauses)
    monkeypatch.setattr(definability, "SatSolver", ScanSolver)
    reference = PadoaSession(cnf.clauses, cnf.variables, cnf.outer_vars)
    for y in sorted(cnf.variables - cnf.outer_vars):
        assert session.is_defined(y) == reference.is_defined(y)
        assert session.solver.clauses == reference.solver.clauses
        assert session.solver.activity == reference.solver.activity
        assert session.solver.unsat == reference.solver.unsat
    assert len(session.solver.clauses) > attached


def test_pigeonhole_runs_past_a_restart():
    # seven pigeons, six holes: unsatisfiable, and hard enough for resolution
    # that one solve call passes the 100 conflicts of the first restart
    pigeons, holes = 7, 6

    def x(p, h):
        return p * holes + h + 1

    clauses = [[x(p, h) for h in range(holes)] for p in range(pigeons)]
    clauses += [[-x(p, h), -x(q, h)]
                for h in range(holes) for p in range(pigeons) for q in range(p + 1, pigeons)]
    solver = SatSolver(pigeons * holes, clauses)
    assert solver.solve() is None
    assert len(solver.clauses) - len(clauses) > 100  # learnt, one per conflict at most
    assert solver.trail_lim == []
