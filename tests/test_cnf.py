import random

import pytest

from gen import emit_cnf, random_cnf
from nestedamc.cnf import (
    LabeledCnf,
    enumerate_models,
    parse_cnf,
    primal_graph,
)
from nestedamc.errors import CapacityError, ParseError, PreconditionError
from nestedamc.semirings import SemiringId, TransformId

LEX_COMPLETION = """\
p cnf 4 4
c s probability maxtimes identity
c o 3 0
c n 1 a
c n 2 b
c n 3 c
c n 4 d
c wi 1 0.4 0
c wi -1 0.6 0
c wi 2 0.6 0
c wi -2 0.4 0
-1 3 0
1 -3 0
-2 4 0
2 -4 0
"""


def lex_cnf():
    return parse_cnf(LEX_COMPLETION)


def test_parse_lex_completion():
    cnf = lex_cnf()
    assert cnf.num_vars == 4
    assert cnf.outer_vars == frozenset([3])
    assert cnf.inner_sr is SemiringId.PROBABILITY
    assert cnf.outer_sr is SemiringId.MAX_TIMES
    assert cnf.transform is TransformId.IDENTITY
    assert cnf.inner_weight(1) == 0.4
    assert cnf.inner_weight(4) == 1.0  # default multiplicative identity
    assert cnf.names[3] == "c"
    assert len(cnf.clauses) == 4


def test_parse_empty_theory():
    cnf = parse_cnf("p cnf 0 0\nc s probability probability identity\n")
    assert cnf.num_vars == 0
    assert list(enumerate_models(cnf)) == [frozenset()]


def test_parse_weight_out_of_range():
    text = "p cnf 6 1\nc wi 7 0.5 0\n1 2 0\n"
    with pytest.raises(ParseError) as e:
        parse_cnf(text)
    assert e.value.line == 2


def test_parse_non_ascii_bytes():
    with pytest.raises(ParseError) as e:
        parse_cnf(b"p cnf 1 0\nc \xe9\n")
    assert e.value.line == 2


def test_parse_duplicate_weight():
    text = "p cnf 2 0\nc wi 1 0.5 0\nc wi 1 0.4 0\n"
    with pytest.raises(ParseError):
        parse_cnf(text)


def test_parse_bad_arity():
    text = "p cnf 2 0\nc s eu probability euproject\nc wi 1 0.5 0\n"
    with pytest.raises(ParseError):
        parse_cnf(text)


def test_parse_clause_literal_out_of_range():
    with pytest.raises(ParseError):
        parse_cnf("p cnf 2 1\n1 3 0\n")


def test_parse_drops_tautologies():
    cnf = parse_cnf("p cnf 2 2\n1 -1 0\n1 2 0\n")
    assert cnf.clauses == [(1, 2)]


def test_clauses_keep_literal_order_without_repeats():
    cnf = LabeledCnf(3, [(2, 1, 2), (3, -1, 3, 1), (-3, -3)])
    assert cnf.clauses == [(2, 1), (-3,)]


# labels outside their semiring's domain, one per semiring and one more per
# finite domain: header lines, label line
OUT_OF_DOMAIN = {
    "probability": (["c s probability probability identity"], "c wi 1 -0.5 0"),
    "maxtimes": (["c s probability maxtimes identity", "c o 1 0"], "c wo 1 -2.0 0"),
    "natpair": (["c s natpair probability ratio", "c o 1 0"], "c wi 2 -3 -1 0"),
    "mapargmax": (["c s probability mapargmax prob2map", "c o 1 0"], "c wo 1 -0.3 0"),
    "maxplus": (["c s maxplus maxplus identity"], "c wi -2 nan 0"),
    "eu": (["c s eu meuargmax euproject", "c o 1 0"], "c wi 2 0.5 nan 0"),
    "meuargmax": (["c s eu meuargmax euproject", "c o 1 0"], "c wo -1 nan 0"),
    # the finite domains: inf times a zero label would make the value NaN
    "probability inf": (["c s probability probability identity"], "c wi 1 inf 0"),
    "maxtimes inf": (["c s probability maxtimes identity", "c o 1 0"], "c wo 1 inf 0"),
    "mapargmax inf": (["c s probability mapargmax prob2map", "c o 1 0"], "c wo -1 inf 0"),
    "eu inf": (["c s eu meuargmax euproject", "c o 1 0"], "c wi 2 inf 0.5 0"),
}


@pytest.mark.parametrize("case", sorted(OUT_OF_DOMAIN))
def test_label_outside_its_domain_is_a_parse_error(case):
    header, label = OUT_OF_DOMAIN[case]
    sr = case.split()[0]
    lines = ["p cnf 2 1", *header, label, "1 2 0"]
    with pytest.raises(ParseError) as e:
        parse_cnf("\n".join(lines) + "\n")
    assert e.value.line == lines.index(label) + 1
    assert f"{sr} label" in str(e.value)


def test_max_plus_labels_keep_both_infinities():
    # maxplus and meuargmax multiply -inf as their zero and keep inf
    cnf = parse_cnf("p cnf 2 0\nc s maxplus maxplus identity\nc wi 1 inf 0\nc wi -1 -inf 0\n")
    assert (cnf.inner_weight(1), cnf.inner_weight(-1)) == (float("inf"), float("-inf"))
    cnf = parse_cnf("p cnf 1 0\nc s eu meuargmax euproject\nc o 1 0\nc wo 1 inf 0\n")
    assert cnf.outer_weight(1)[0] == float("inf")


def test_unknown_comment_lines_ignored():
    cnf = parse_cnf("p cnf 1 0\nc anything goes here\nc x y 0\n")
    assert cnf.num_vars == 1


def test_parse_scientific_notation_weights():
    cnf = parse_cnf("p cnf 2 0\nc wi 1 4e-1 0\nc wi -1 6.0E-1 0\n")
    assert cnf.inner_weight(1) == pytest.approx(0.4)
    assert cnf.inner_weight(-1) == pytest.approx(0.6)


def test_parse_counting_pair_labels():
    text = (
        "p cnf 2 1\n"
        "c s natpair probability ratio\n"
        "c o 1 0\n"
        "c wi -2 0 1 0\n"
        "c wo 1 0.25 0\n"
        "c wo -1 0.75 0\n"
        "1 2 0\n"
    )
    cnf = parse_cnf(text)
    assert cnf.inner_weight(-2) == (0, 1)
    assert cnf.inner_weight(2) == (1, 1)
    assert cnf.outer_weight(1) == 0.25
    assert parse_cnf(emit_cnf(cnf)) == cnf


def test_roundtrip_identity():
    cnf = lex_cnf()
    again = parse_cnf(emit_cnf(cnf))
    assert again == cnf
    assert emit_cnf(again) == emit_cnf(cnf)


def test_variables_are_one_to_num_vars():
    cnf = LabeledCnf(3, [(1, -2)], outer_vars={3})
    assert cnf.variables == frozenset([1, 2, 3])
    assert cnf.inner_vars == frozenset([1, 2])
    for bad in (
        dict(clauses=[(4,)]),
        dict(outer_vars={4}),
        dict(inner_label={-4: 0.5}),
        dict(inner_label={3: 0.5}),
    ):
        with pytest.raises(PreconditionError):
            LabeledCnf(**{"num_vars": 3, "clauses": [], "outer_vars": {3}, **bad})


def test_primal_two_disjoint_edges():
    g = primal_graph(lex_cnf())
    assert g == {1: {3}, 2: {4}, 3: {1}, 4: {2}}


def test_primal_clause_is_clique():
    g = primal_graph(LabeledCnf(3, [(1, 2, 3)]))
    assert g == {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}


def test_primal_empty_theory():
    g = primal_graph(LabeledCnf(3, []))
    assert g == {1: set(), 2: set(), 3: set()}


def test_primal_symmetric_irreflexive():
    rng = random.Random(0)
    for _ in range(50):
        cnf = random_cnf(rng, max_vars=10, max_clauses=15)
        g = primal_graph(cnf)
        assert set(g) == cnf.variables
        assert all(u != v and u in g[v] for u in g for v in g[u])


def test_enumerate_lex_models_in_order():
    models = list(enumerate_models(lex_cnf()))
    expected = [
        frozenset([1, 2, 3, 4]),
        frozenset([1, -2, 3, -4]),
        frozenset([-1, 2, -3, 4]),
        frozenset([-1, -2, -3, -4]),
    ]
    assert models == expected


def test_enumerate_unconstrained():
    assert len(list(enumerate_models(LabeledCnf(2, [])))) == 4


def test_enumerate_contradiction():
    assert list(enumerate_models(LabeledCnf(1, [(1,), (-1,)]))) == []


def test_enumerate_capacity_guard():
    with pytest.raises(CapacityError):
        list(enumerate_models(LabeledCnf(31, []), max_vars=30))
