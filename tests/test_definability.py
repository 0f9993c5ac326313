import random

import pytest

from gen import brute_defined, equivalence_cnf, random_cnf
from nestedamc.cnf import LabeledCnf
from nestedamc.definability import PadoaSession, defined_vars
from nestedamc.errors import PreconditionError


def lex_completion():
    return LabeledCnf(4, [(-1, 3), (1, -3), (-2, 4), (2, -4)])


def test_lex_defined_atoms():
    assert PadoaSession(lex_completion()).is_defined({1, 2}, 3)
    report = defined_vars(lex_completion(), {1, 2})
    assert report.defined == frozenset([3, 4])
    assert report.query_count == 2


def test_equivalence_theory_block_defined():
    cnf = equivalence_cnf(4)
    report = defined_vars(cnf, frozenset(range(1, 5)))
    assert report.defined == frozenset(range(5, 9))


def test_parity_counterexample_not_defined():
    # {z or y or ~x, z or ~y or x}: once z holds, x is unconstrained
    cnf = LabeledCnf(3, [(1, 2, -3), (1, -2, 3)])
    assert not PadoaSession(cnf).is_defined({1, 2}, 3)


def test_base_membership_rejected():
    with pytest.raises(PreconditionError):
        PadoaSession(lex_completion()).is_defined({1, 2}, 1)
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
    assert PadoaSession(cnf).is_defined(frozenset(), 2)
    assert PadoaSession(cnf).is_defined({1}, 2)
    assert PadoaSession(cnf).is_defined({3}, 2)


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
            assert report.verdicts[y] == brute_defined(cnf, base, y)


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
