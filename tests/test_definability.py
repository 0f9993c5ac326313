import random

import pytest

from gen import (
    brute_defined,
    equivalence_cnf,
    implication_chain,
    planning_instances,
    random_cnf,
)
from nestedamc.cnf import LabeledCnf, components, enumerate_models
from nestedamc import definability
from nestedamc.definability import PadoaSession, defined_vars
from nestedamc.errors import PreconditionError
from nestedamc.programs import TaskKind, build_instance, parse_program
from nestedamc.sat import SatSolver


def lex_completion():
    return LabeledCnf(4, [(-1, 3), (1, -3), (-2, 4), (2, -4)])


def test_lex_defined_atoms():
    cnf = lex_completion()
    assert PadoaSession(cnf.clauses, cnf.variables, {1, 2}).is_defined(3)
    report = defined_vars(cnf, {1, 2})
    assert report.defined == frozenset([3, 4])
    assert report.query_count == 1


def test_equivalence_theory_block_defined():
    cnf = equivalence_cnf(4)
    report = defined_vars(cnf, frozenset(range(1, 5)))
    assert report.defined == frozenset(range(5, 9))


def test_parity_counterexample_not_defined():
    # {z or y or ~x, z or ~y or x}: once z holds, x is unconstrained
    cnf = LabeledCnf(3, [(1, 2, -3), (1, -2, 3)])
    assert not PadoaSession(cnf.clauses, cnf.variables, {1, 2}).is_defined(3)


def test_base_membership_rejected():
    cnf = lex_completion()
    with pytest.raises(PreconditionError):
        PadoaSession(cnf.clauses, cnf.variables, {1, 2}).is_defined(1)
    with pytest.raises(PreconditionError):
        PadoaSession(cnf.clauses, cnf.variables, {1, 2}).is_defined(5)
    with pytest.raises(PreconditionError):
        PadoaSession(cnf.clauses, cnf.variables, {1, 5})
    # a base naming a variable outside the theory, even with no candidate left
    with pytest.raises(PreconditionError):
        defined_vars(lex_completion(), {1, 2, 3, 4, 5})


def test_full_base_defines_nothing_new():
    cnf = lex_completion()
    report = defined_vars(cnf, frozenset([1, 2, 3, 4]))
    assert report.defined == frozenset()
    assert report.query_count == 0


def test_entailed_variable_is_defined_by_anything():
    cnf = LabeledCnf(3, [(2,), (1, 3)])  # entails 2
    assert PadoaSession(cnf.clauses, cnf.variables, frozenset()).is_defined(2)
    assert PadoaSession(cnf.clauses, cnf.variables, {1}).is_defined(2)
    assert PadoaSession(cnf.clauses, cnf.variables, {3}).is_defined(2)


def test_unsatisfiable_theory_defines_everything():
    cnf = LabeledCnf(2, [(1,), (-1,)])
    assert defined_vars(cnf, frozenset()).defined == frozenset([1, 2])


def test_matches_brute_force_on_random_theories():
    rng = random.Random(23)
    for _ in range(120):
        cnf = random_cnf(rng, max_vars=10, max_clauses=25)
        k = rng.randint(0, cnf.num_vars - 1)
        base = frozenset(rng.sample(range(1, cnf.num_vars + 1), k))
        report = defined_vars(cnf, base)
        for y in sorted(cnf.variables - base):
            assert (y in report.defined) == brute_defined(cnf, base, y)


def test_monotone_in_base():
    rng = random.Random(31)
    for _ in range(60):
        cnf = random_cnf(rng, max_vars=9, max_clauses=20)
        small = frozenset(rng.sample(range(1, cnf.num_vars + 1), 2))
        extra = rng.randint(0, cnf.num_vars - 2)
        big = small | frozenset(
            rng.sample(sorted(set(range(1, cnf.num_vars + 1)) - small), extra)
        )
        d_small = defined_vars(cnf, small).defined
        d_big = defined_vars(cnf, big).defined
        assert d_small - big <= d_big


def reference_defined(cnf, base):
    """One plain Padoa query per candidate over the whole theory, each on a
    fresh solver without steering: the path that components, model pairs,
    steering and the satisfiability rule must agree with. Variable v is
    solver variable v, its primed copy n + v and the selector forcing the
    two equal 2n + v."""
    n = cnf.num_vars
    encoding = []
    for cl in cnf.clauses:
        encoding.append(cl)
        encoding.append([l + n if l > 0 else l - n for l in cl])
    for v in range(1, n + 1):
        encoding.append([-(2 * n + v), -v, n + v])
        encoding.append([-(2 * n + v), v, -(n + v)])
    defined = set()
    for y in sorted(cnf.variables - base):
        solver = SatSolver(3 * n, encoding)
        assumptions = [2 * n + v for v in sorted(base)] + [y, -(n + y)]
        if solver.solve(assumptions) is None:
            defined.add(y)
    return defined


def disjoint_union(pieces):
    clauses, n = [], 0
    for piece in pieces:
        clauses += [tuple(l + n if l > 0 else l - n for l in cl) for cl in piece.clauses]
        n += piece.num_vars
    return LabeledCnf(n, clauses)


def test_verdicts_match_whole_theory_queries_on_disjoint_unions():
    rng = random.Random(47)
    unsat = refuted = 0
    for _ in range(300):
        pieces = [
            random_cnf(rng, max_vars=7, max_clauses=rng.choice([4, 8, 16]))
            for _ in range(rng.randint(1, 4))
        ]
        cnf = disjoint_union(pieces)
        k = rng.randint(0, cnf.num_vars)
        base = frozenset(rng.sample(range(1, cnf.num_vars + 1), k))
        report = defined_vars(cnf, base)
        assert report.defined == reference_defined(cnf, base)
        unsat += not any(True for _ in enumerate_models(cnf))
        refuted += report.query_count < len(cnf.variables - base)
    assert unsat > 30 and refuted > 30  # both kinds of union occur


@pytest.mark.parametrize(
    "clauses, num_vars, base, defined",
    [
        # an unsatisfiable component with no candidates defines everything
        ([(1, 2), (3,), (-3,)], 3, {3}, {1, 2}),
        # an unsatisfiable component that has candidates
        ([(1, 2), (3, 4), (3, -4), (-3, 4), (-3, -4)], 4, {1}, {2, 3, 4}),
        # an empty clause belongs to no component
        ([(1, 2), ()], 2, {1}, {2}),
        # an isolated variable (3 is in no clause) is not defined
        ([(1, 2)], 3, {1}, set()),
        # an entailed variable is defined even by the empty base
        ([(1, 2), (3,)], 3, set(), {3}),
        # the empty base
        ([(-1, 2), (1, -2), (3, 4)], 4, set(), set()),
        # a base covering a whole component, the other one undefined
        ([(-1, 2), (1, -2), (3, 4)], 4, {1, 2}, set()),
        # a base covering a whole component, the other one defined
        ([(-1, 2), (1, -2), (-3, 4), (3, -4)], 4, {3, 1}, {2, 4}),
    ],
)
def test_verdicts_match_whole_theory_queries_on_edge_cases(
    clauses, num_vars, base, defined
):
    cnf = LabeledCnf(num_vars, clauses)
    base = frozenset(base)
    report = defined_vars(cnf, base)
    assert report.defined == reference_defined(cnf, base) == frozenset(defined)


def test_one_model_refutes_several_candidates():
    # 1 <-> 2 <-> 3 <-> 4: with an empty base, the first query's model has
    # the two copies differ on every variable
    cnf = LabeledCnf(4, [(-1, 2), (1, -2), (-2, 3), (2, -3), (-3, 4), (3, -4)])
    report = defined_vars(cnf, frozenset())
    assert report.defined == frozenset()
    assert report.query_count == 1


def test_verdicts_match_whole_theory_queries_on_planning_instances():
    for cnf, _ in planning_instances():
        report = defined_vars(cnf, cnf.outer_vars)
        assert report.defined == reference_defined(cnf, cnf.outer_vars)


def test_implication_chain_needs_a_constant_number_of_queries():
    # x_i -> x_(i+1) with each x_i or-ed with its own y_i: no y_i is defined
    # by the x's, and without steering every y_i took its own query (400
    # queries in about 4 s at n=400); with it the first model refutes all
    cnf = implication_chain(400)
    report = defined_vars(cnf, cnf.outer_vars)
    assert report.query_count <= 2
    assert report.defined == frozenset()
    small = implication_chain(40)
    assert defined_vars(small, small.outer_vars).defined == reference_defined(
        small, small.outer_vars
    )


def chain_map_text(n):
    """The benchmark's chain MAP program with its signs drawn as the benchmark
    draws them from Random(0): r_i follows f_i and r_(i-1) under random signs
    and, from i = 3, f_(i-2) and not f_(i-1); every 4th fact is a map atom.
    The probabilities only label the theory, so they are all 0.5."""
    rng = random.Random(0)
    lines = [f"0.5::f{i}." for i in range(1, n + 1)]
    for i in range(1, n + 1):
        body = [f"f{i}"] + [f"r{i - 1}"] * (i > 1)
        lits = [a if rng.random() < 0.5 else f"\\+{a}" for a in body]
        lines.append(f"r{i} :- {', '.join(lits)}.")
        if i >= 3:
            lines.append(f"r{i} :- f{i - 2}, \\+f{i - 1}.")
    lines += [f"map(f{i})." for i in range(4, n + 1, 4)]
    return "\n".join(lines)


def test_fresh_phases_split_the_candidates_of_a_chain():
    # with the first query's steering repeated before every query, phase
    # saving kept returning nearly the same model pair: after the first
    # query each refuted one to four candidates, 19 queries in all. With
    # fresh phases the second query refutes 18, and 10 queries suffice
    cnf = build_instance(parse_program(chain_map_text(24)), TaskKind.MAP).cnf
    report = defined_vars(cnf, cnf.outer_vars)
    assert report.defined == reference_defined(cnf, cnf.outer_vars)
    assert defined_vars(cnf, cnf.outer_vars) == report
    assert report.query_count <= 10


def connected_cnf(rng):
    """A random theory on 2 to 6 variables whose primal graph is connected."""
    while True:
        cnf = random_cnf(rng, max_vars=6, max_clauses=8, min_vars=2)
        if len(list(components(cnf))) == 1:
            return cnf


def copies(piece, bases, perms, extra_vars=0):
    """A disjoint union of copies of `piece`, copy i renamed by perms[i] (a
    permutation of 1..n) onto its own block of variables, with bases[i]
    renamed into the base; `extra_vars` isolated variables follow."""
    n = piece.num_vars
    clauses, base = [], set()
    for i, (piece_base, perm) in enumerate(zip(bases, perms)):
        rename = {v: i * n + perm[v - 1] for v in range(1, n + 1)}
        clauses += [tuple(rename[l] if l > 0 else -rename[-l] for l in cl) for cl in piece.clauses]
        base |= {rename[v] for v in piece_base}
    return LabeledCnf(len(bases) * n + extra_vars, clauses), frozenset(base)


def test_shape_table_matches_reference_on_copies(monkeypatch):
    sessions = []

    class CountedSession(PadoaSession):
        def __init__(self, clauses, variables, base):
            super().__init__(clauses, variables, base)
            sessions.append(variables)

    monkeypatch.setattr(definability, "PadoaSession", CountedSession)
    rng = random.Random(59)
    shared = {False: 0, True: 0}  # satisfiable? -> unions that shared a shape
    for _ in range(200):
        sessions.clear()
        piece = connected_cnf(rng)
        n = piece.num_vars
        if rng.random() < 0.1:
            piece = LabeledCnf(n, piece.clauses + [(1,), (-1,)])
        k = rng.randint(2, 4)
        piece_base = set(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        bases, perms = [], []
        for _ in range(k):
            perm = list(range(1, n + 1))
            if rng.random() < 0.4:
                rng.shuffle(perm)
            other = set(rng.sample(range(1, n + 1), rng.randint(0, n)))
            bases.append(piece_base if rng.random() < 0.7 else other)
            perms.append(perm)
        cnf, base = copies(piece, bases, perms, extra_vars=rng.choice([0, 0, 1, 3]))
        if rng.random() < 0.1:  # one copy alone made unsatisfiable
            cnf = LabeledCnf(cnf.num_vars, cnf.clauses + [(n,), (-n,)])
        if rng.random() < 0.3:  # some isolated variables in the base
            base |= set(range(k * n + 1, cnf.num_vars + 1, 2))
        report = defined_vars(cnf, base)
        assert report.defined == reference_defined(cnf, base)
        satisfiable = any(True for _ in enumerate_models(cnf))
        asking = sum(1 for _, variables in components(cnf) if variables - base)
        if len(sessions) < asking:  # some component's shape was in the table
            shared[satisfiable] += 1
    assert min(shared.values()) > 30


def test_same_shape_copies_take_the_queries_of_one():
    rng = random.Random(61)
    for _ in range(100):
        piece = connected_cnf(rng)
        n = piece.num_vars
        if rng.random() < 0.1:
            piece = LabeledCnf(n, piece.clauses + [(1,), (-1,)])
        piece_base = set(rng.sample(range(1, n + 1), rng.randint(0, n - 1)))
        one = defined_vars(piece, piece_base)
        k = rng.randint(2, 5)
        cnf, base = copies(piece, [piece_base] * k, [list(range(1, n + 1))] * k)
        report = defined_vars(cnf, base)
        assert report.query_count == one.query_count
        assert report.defined == {i * n + v for i in range(k) for v in one.defined}


def test_isolated_variables_share_one_query():
    # 19,998 isolated variables are one component shape: each used to take
    # a session and a query of its own, 19,999 queries in about 0.5 s
    report = defined_vars(LabeledCnf(20000, [(1, 2)], outer_vars={1}), {1})
    assert report.query_count <= 2
    assert report.defined == frozenset()
