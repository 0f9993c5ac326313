import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import circuit_of, equivalence_cnf, nodes_of, random_labels, random_partitioned_cnf
from nestedamc import circuit as circuit_module
from nestedamc.cnf import LabeledCnf, enumerate_models
from nestedamc.circuit import (
    AND,
    LIT,
    OR,
    EvaluationRefused,
    NestedInstance,
    brute_force_nested,
    circuit_models,
    count_boundary_nodes,
    count_models,
    emit_nnf,
    evaluate_nested,
    evaluate_verified,
    parse_nnf,
    smooth,
    verify_circuit,
)
from nestedamc.compiler import CompileMode, compile_cnf
from nestedamc.definability import defined_vars
from nestedamc.errors import CapacityError, ConfigError, ParseError, PreconditionError
from nestedamc.sat import SatSolver
from nestedamc.semirings import SemiringId, TransformId

LEX_CLAUSES = [(-1, 3), (1, -3), (-2, 4), (2, -4)]  # a<->c, b<->d


class Builder:
    def __init__(self):
        self.nodes = []

    def lit(self, l):
        self.nodes.append((LIT, l, ()))
        return len(self.nodes) - 1

    def and_(self, *cs):
        self.nodes.append((AND, 0, cs))
        return len(self.nodes) - 1

    def or_(self, v, *cs):
        self.nodes.append((OR, v, cs))
        return len(self.nodes) - 1

    def circuit(self, root, num_vars):
        return circuit_of(self.nodes, root, num_vars)


def or_children_aligned(circ):
    """Every or-node's children have the same variables."""
    return all(len({circ.masks[c] for c in circ.children(i)}) <= 1
               for i in range(circ.node_count) if circ.kinds[i] == OR)


def first_uneven_or(circ):
    """Reference for `Circuit.uneven_or`: the scan `smooth` made before the
    record, over every or-node in id order, or -1."""
    return next((i for i in range(circ.node_count) if circ.kinds[i] == OR
                 and any(circ.masks[c] != circ.masks[i] for c in circ.children(i))), -1)


def fig_left():
    """{a,b}-first circuit for the two-biconditional theory."""
    b = Builder()
    a, na = b.lit(1), b.lit(-1)
    bb, nb = b.lit(2), b.lit(-2)
    c, nc = b.lit(3), b.lit(-3)
    d, nd = b.lit(4), b.lit(-4)
    o20 = b.or_(2, b.and_(bb, b.and_(c, d)), b.and_(nb, b.and_(c, nd)))
    o21 = b.or_(2, b.and_(bb, b.and_(nc, d)), b.and_(nb, b.and_(nc, nd)))
    root = b.or_(1, b.and_(a, o20), b.and_(na, o21))
    return b.circuit(root, 4)


def fig_right():
    """Equivalent circuit deciding a together with c, sharing the {b,d} part."""
    b = Builder()
    a, na = b.lit(1), b.lit(-1)
    bb, nb = b.lit(2), b.lit(-2)
    c, nc = b.lit(3), b.lit(-3)
    d, nd = b.lit(4), b.lit(-4)
    shared = b.or_(2, b.and_(bb, d), b.and_(nb, nd))
    root = b.or_(1, b.and_(b.and_(a, c), shared), b.and_(b.and_(na, nc), shared))
    return b.circuit(root, 4)


def aex_instance():
    return NestedInstance(
        LabeledCnf(
            4,
            LEX_CLAUSES,
            outer_vars=frozenset([3]),
            inner_label={1: 0.4, -1: 0.6, 2: 0.6, -2: 0.4},
            inner_sr=SemiringId.PROBABILITY,
            outer_sr=SemiringId.MAX_TIMES,
            transform=TransformId.IDENTITY,
        )
    )


def succ_instance():
    return NestedInstance(
        LabeledCnf(
            4,
            LEX_CLAUSES,
            inner_label={1: 0.4, -1: 0.6, 2: 0.6, -2: 0.4, -3: 0.0},
        )
    )


# ------------------------------------------------------------------- format


def test_parse_tautology_circuit():
    c = parse_nnf("nnf 3 2 2\nL 1\nL -1\nO 1 2 0 1\n")
    assert c.node_count == 3
    assert nodes_of(c)[2] == (OR, 1, (0, 1))
    assert count_models(c, over=frozenset([1])) == 2


def test_parse_rejects_forward_reference():
    with pytest.raises(ParseError) as e:
        parse_nnf("nnf 2 1 1\nA 1 1\nL 1\n")
    assert e.value.line == 2


def test_parse_rejects_literal_beyond_the_variables():
    with pytest.raises(ParseError) as e:
        parse_nnf("nnf 2 1 1\nL 1\nL -2\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_nnf("nnf 1 0 3\nL 3\n", num_vars=2)


def test_parse_rejects_negative_header_counts():
    for header in ("nnf 1 0 -1", "nnf -1 0 1", "nnf 1 -1 1"):
        for body in ("A 0", "O 0 0"):
            with pytest.raises(ParseError) as e:
                parse_nnf(f"{header}\n{body}\n")
            assert e.value.line == 1


def test_parse_rejects_decision_variable_beyond_the_variables():
    with pytest.raises(ParseError) as e:
        parse_nnf("nnf 2 1 1\nL 1\nO 2 1 0\n")
    assert e.value.line == 3
    with pytest.raises(ParseError):
        parse_nnf("nnf 2 1 1\nL 1\nO -1 1 0\n")
    assert nodes_of(parse_nnf("nnf 2 1 1\nL 1\nO 1 1 0\n"))[1] == (OR, 1, (0,))


def test_parse_non_ascii_bytes():
    with pytest.raises(ParseError) as e:
        parse_nnf(b"nnf 1 0 1\nc \xe9\nL 1\n")
    assert e.value.line == 2


def test_parse_rejects_self_reference():
    with pytest.raises(ParseError):
        parse_nnf("nnf 1 1 1\nO 1 1 0\n")


def test_roundtrip_preserves_models():
    circ = fig_right()
    again = parse_nnf(emit_nnf(circ))
    assert circuit_models(again, over=frozenset(range(1, 5))) == circuit_models(
        circ, over=frozenset(range(1, 5))
    )
    assert emit_nnf(again) == emit_nnf(circ)


def test_parse_rejects_counts_that_differ_from_the_header():
    # a truncated file would otherwise parse as a smaller circuit rooted at
    # its last surviving line
    text = "nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n"
    assert parse_nnf(text).node_count == 5
    for bad in (text.replace("nnf 5", "nnf 6"), text.replace(" 4 2", " 3 2"),
                "".join(text.splitlines(keepends=True)[:-1])):
        with pytest.raises(ParseError, match="header declares"):
            parse_nnf(bad)


def test_true_false_spellings():
    c = parse_nnf("nnf 2 0 1\nA 0\nO 0 0\n")
    assert nodes_of(c)[0] == (AND, 0, ())
    assert count_models(c, over=frozenset()) == 0  # root is the false node


@st.composite
def circuits(draw):
    num_vars = draw(st.integers(1, 5))
    nodes = [(LIT, draw(st.sampled_from([v, -v])), ()) for v in range(1, num_vars + 1)]
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, min(3, len(nodes))))
        children = tuple(sorted(draw(
            st.sets(st.integers(0, len(nodes) - 1), min_size=k, max_size=k)
        )))
        if draw(st.booleans()):
            nodes.append((AND, 0, children))
        else:
            nodes.append((OR, draw(st.integers(0, num_vars)), children))
    return circuit_of(nodes, len(nodes) - 1, num_vars)


@given(circuits())
@settings(max_examples=150, deadline=None)
def test_roundtrip_is_identity_on_random_circuits(circ):
    again = parse_nnf(emit_nnf(circ))
    assert nodes_of(again) == nodes_of(circ)
    assert again.root == circ.root
    assert again.num_vars == circ.num_vars


def test_emit_reorders_when_root_is_not_last():
    # the reader takes the last node as the root, so emission moves an
    # earlier root last and renumbers the nodes after it
    nodes = [(LIT, 1, ()), (LIT, 2, ()), (AND, 0, (0, 1)), (LIT, -1, ()), (AND, 0, (3, 1))]
    circ = circuit_of(nodes, 2, 2)
    again = parse_nnf(emit_nnf(circ))
    assert again.root == again.node_count - 1
    assert nodes_of(again)[again.root] == nodes_of(circ)[circ.root]
    assert nodes_of(again)[3] == (AND, 0, (2, 1))
    assert circuit_models(again, over=frozenset([1, 2])) == circuit_models(
        circ, over=frozenset([1, 2])
    )


@given(circuits(), st.data())
@settings(max_examples=300, deadline=None)
def test_uneven_or_record_matches_a_full_scan(circ, data):
    # the record kept by `add` names the first or-node the reference scan
    # finds, however the circuit was built, and smoothing clears it
    for built in (circ, parse_nnf(emit_nnf(circ))):
        assert built.uneven_or == first_uneven_or(built)
        assert (built.uneven_or == -1) == or_children_aligned(built)
    sm = smooth(circ, data.draw(st.sets(st.integers(1, circ.num_vars))))
    assert sm.uneven_or == -1
    assert (sm is circ) == (or_children_aligned(circ) and circ.masks[circ.root] == circ.full_mask)


# ---------------------------------------------------------------- smoothing


def test_smooth_pads_missing_variable():
    b = Builder()
    x, nx_ = b.lit(1), b.lit(-1)
    d = b.lit(2)
    root = b.or_(1, b.and_(x, d), nx_)  # ~x branch forgets variable 2
    circ = b.circuit(root, 2)
    sm = smooth(circ)
    assert or_children_aligned(sm)
    assert circuit_models(sm, over=frozenset([1, 2])) == circuit_models(
        circ, over=frozenset([1, 2])
    )


def test_smooth_idempotent_on_smooth_circuit():
    circ = smooth(fig_right())
    assert smooth(circ) is circ


def test_smooth_returns_an_already_smooth_circuit_itself():
    # strict outer-first circuits of the biconditionals need no padding
    cnf = equivalence_cnf(4)
    order = tuple(range(1, 9))
    circ = compile_cnf(cnf, order, CompileMode.X_FIRST)
    assert smooth(circ, cnf.outer_vars) is circ
    # smoothing only pads: a smooth circuit with a duplicate node comes
    # back as it is, duplicate and all
    dup = parse_nnf("nnf 3 0 1\nL 1\nL -1\nL 1\n")
    assert or_children_aligned(dup) and dup.masks[dup.root] == dup.full_mask
    assert smooth(dup) is dup


def test_smooth_fig_right_or_children_align():
    sm = smooth(fig_right())
    assert or_children_aligned(sm)


def recursive_smooth(circuit, outer_vars=()):
    """Reference: `smooth` with its padding written as the plain recursion it
    replaced, which fails on deep mixed chains, over (kind, value, children)
    tuples. Returns (nodes, root), hash-consed."""
    out_mask = sum(1 << v for v in set(outer_vars))
    nodes, index, masks = [], {}, []

    def mk(node, mask):
        if node not in index:
            nodes.append(node)
            masks.append(mask)
            index[node] = len(nodes) - 1
        return index[node]

    gates = {}

    def gate(v):
        if v not in gates:
            p, n = mk((LIT, v, ()), 1 << v), mk((LIT, -v, ()), 1 << v)
            gates[v] = mk((OR, v, (p, n)), 1 << v)
        return gates[v]

    def attach(nid, missing):
        extra = tuple(gate(v) for v in range(1, circuit.num_vars + 1) if missing >> v & 1)
        kind, _, kids = nodes[nid]
        base = kids if kind == AND else (nid,)
        return mk((AND, 0, base + extra), masks[nid] | missing)

    memo = {}

    def mixed(c):
        return masks[c] & out_mask and masks[c] & ~out_mask

    def pad(nid, missing):
        if not missing:
            return nid
        if (nid, missing) in memo:
            return memo[nid, missing]
        (kind, val, kids), m, inner = nodes[nid], masks[nid], missing & ~out_mask
        res = None
        if inner and mixed(nid):
            if kind == OR and kids:
                res = mk((OR, val, tuple(pad(c, inner) for c in kids)), m | inner)
            elif kind == AND:
                mixed_kids = [c for c in kids if mixed(c)]
                if len(mixed_kids) == 1:
                    kids = tuple(pad(c, inner) if c == mixed_kids[0] else c for c in kids)
                    res = mk((AND, 0, kids), m | inner)
            if res is not None and missing & out_mask:
                res = attach(res, missing & out_mask)
        if res is None:
            res = attach(nid, missing)
        memo[nid, missing] = res
        return res

    mapping = []
    for kind, val, kids in nodes_of(circuit):
        kids = tuple(mapping[c] for c in kids)
        union = 0
        for c in kids:
            union |= masks[c]
        if kind == LIT:
            mapping.append(mk((LIT, val, ()), 1 << abs(val)))
        elif kind == AND:
            mapping.append(mk((AND, 0, kids), union))
        else:
            kids = tuple(pad(c, union & ~masks[c]) for c in kids)
            mapping.append(mk((OR, val, kids), union))
    root = mapping[circuit.root]
    full = (1 << circuit.num_vars + 1) - 2
    return nodes, pad(root, full & ~masks[root])


def hash_consed(circuit):
    """The circuit's (nodes, root) with equal nodes merged, in node order."""
    nodes, index, mapping = [], {}, []
    for kind, val, kids in nodes_of(circuit):
        node = (kind, val, tuple(mapping[c] for c in kids))
        if node not in index:
            index[node] = len(nodes)
            nodes.append(node)
        mapping.append(index[node])
    return nodes, mapping[circuit.root]


@given(circuits(), st.data())
@settings(max_examples=300, deadline=None)
def test_smooth_matches_recursive_padding(circ, data):
    outer = data.draw(st.sets(st.integers(1, circ.num_vars)))
    sm = smooth(circ, outer)
    nodes, root = recursive_smooth(circ, outer)
    if sm is circ:
        # an aligned input comes back as it is, duplicate nodes and all: the
        # reference, which pads nothing then, only hash-conses it
        assert (nodes, root) == hash_consed(circ)
    else:
        assert (nodes_of(sm), sm.root) == (nodes, root)


def test_smooth_matches_recursive_padding_on_compiled_circuits():
    rng = random.Random(77)
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        seq = list(cnf.variables)
        rng.shuffle(seq)
        for mode in CompileMode:
            circ = compile_cnf(cnf, tuple(seq), mode)
            sm = smooth(circ, cnf.outer_vars)
            assert (nodes_of(sm), sm.root) == recursive_smooth(circ, cnf.outer_vars)


def outer_decision_chain(depth):
    """Outer decisions on 1..depth stacked over the inner literal depth+1;
    the inner variable depth+2 is missing at the root, so padding descends
    through every decision."""
    b = Builder()
    top = b.lit(depth + 1)
    for v in range(depth, 0, -1):
        top = b.or_(v, b.and_(b.lit(v), top), b.and_(b.lit(-v), top))
    return b.circuit(top, depth + 2)


def test_smooth_deep_outer_decision_chain():
    shallow = outer_decision_chain(40)
    sm = smooth(shallow, range(1, 41))
    assert (nodes_of(sm), sm.root) == recursive_smooth(shallow, range(1, 41))
    depth = 2000
    sm = smooth(outer_decision_chain(depth), range(1, depth + 1))
    full = (1 << depth + 3) - 2
    assert sm.masks[sm.root] == full
    assert or_children_aligned(sm)
    # the missing inner gate went below the outer decisions, not above them
    assert (sm.kinds[sm.root], sm.vals[sm.root]) == (OR, 1)
    assert count_models(sm) == 2 ** (depth + 1)


# --------------------------------------------------------------- evaluation


def test_aex_on_conforming_circuit():
    val = evaluate_nested(smooth(fig_right()), aex_instance())
    assert val == pytest.approx(0.6, rel=1e-9)


def test_aex_left_circuit_fails_partition_precondition():
    # the {a,b}-first circuit is not {c}-first modulo definability, and the
    # verifier must say so; its tag-driven evaluation would be wrong
    inst = aex_instance()
    d = defined_vars(inst.cnf, inst.cnf.outer_vars).defined
    report = verify_circuit(smooth(fig_left()), inst.cnf, d)
    assert not report.outer_first
    assert not report.outer_first_mod_defs
    assert report.model_equivalent
    with pytest.raises(EvaluationRefused) as e:
        evaluate_verified(smooth(fig_left()), inst, d)
    assert e.value.report.outer_first_mod_defs is False
    # the conforming circuit passes through the same guarded entry point
    assert evaluate_verified(smooth(fig_right()), inst, d) == pytest.approx(0.6)


def test_succ_as_degenerate_instance():
    for circ in (fig_left(), fig_right()):
        val = evaluate_nested(smooth(circ), succ_instance())
        assert val == pytest.approx(0.4, rel=1e-9)


def test_evaluation_invariant_under_child_shuffle():
    rng = random.Random(4)
    inst = succ_instance()
    base = smooth(fig_left())
    for _ in range(10):
        shuffled = []
        for kind, val, kids in nodes_of(base):
            kids = list(kids)
            rng.shuffle(kids)
            shuffled.append((kind, val, tuple(kids)))
        circ = circuit_of(shuffled, base.root, base.num_vars)
        assert evaluate_nested(circ, inst) == pytest.approx(0.4, rel=1e-9)


def test_mixed_or_children_rejected():
    b = Builder()
    root = b.or_(0, b.lit(1), b.lit(2))
    circ = b.circuit(root, 2)
    inst = NestedInstance(LabeledCnf(2, [(1, 2)], outer_vars=frozenset([1])))
    with pytest.raises(PreconditionError):
        evaluate_nested(circ, inst)


def test_evaluator_refuses_a_non_smooth_circuit():
    # the ~1 branch forgets variable 2, whose two labels do not sum to one:
    # evaluated as it is, the circuit gave 0.72 without a word
    inst = NestedInstance(LabeledCnf(2, [(-1, 2)], inner_label={1: 0.4, -1: 0.6, 2: 0.3, -2: 0.3}))
    circ = parse_nnf("nnf 5 4 2\nL 1\nL 2\nA 2 0 1\nL -1\nO 1 2 2 3\n")
    with pytest.raises(PreconditionError, match="or-node 4 "):
        evaluate_nested(circ, inst)
    with pytest.raises(EvaluationRefused):
        evaluate_verified(circ, inst)
    assert evaluate_nested(smooth(circ), inst) == pytest.approx(0.48)
    assert brute_force_nested(inst) == pytest.approx(0.48)
    # every or-node even, but the root misses variable 2
    circ = parse_nnf("nnf 3 2 2\nL 1\nL -1\nO 1 2 0 1\n")
    with pytest.raises(PreconditionError, match="root node 2 misses variable 2"):
        evaluate_nested(circ, inst)
    with pytest.raises(EvaluationRefused):
        evaluate_verified(circ, inst)


def test_instance_header_coherence():
    with pytest.raises(ConfigError):
        NestedInstance(
            LabeledCnf(
                1, [], inner_sr=SemiringId.EU, outer_sr=SemiringId.PROBABILITY,
                transform=TransformId.EU_PROJECT,
            )
        )
    with pytest.raises(ConfigError):
        NestedInstance(
            LabeledCnf(
                1, [], inner_sr=SemiringId.PROBABILITY,
                outer_sr=SemiringId.MAP_ARGMAX, transform=TransformId.IDENTITY,
            )
        )


# -------------------------------------------------------------- brute force


def test_brute_force_aex():
    assert brute_force_nested(aex_instance()) == pytest.approx(0.6, rel=1e-9)


def test_brute_force_empty_theory():
    inst = NestedInstance(LabeledCnf(0, []))
    assert brute_force_nested(inst) == 1.0


def test_brute_force_capacity_guard():
    inst = NestedInstance(LabeledCnf(25, []))
    with pytest.raises(CapacityError):
        brute_force_nested(inst)


def test_brute_force_meu_golden():
    # ?::a, 0.6::b, c:-a, d:-b, utility(c,40), utility(~d,20)
    cnf = LabeledCnf(
        4,
        LEX_CLAUSES,
        outer_vars=frozenset([1]),
        inner_label={
            2: (0.6, 0.0), -2: (0.4, 0.0),
            3: (1.0, 40.0), -4: (1.0, 20.0),
        },
        outer_label={1: (0.0, frozenset([1])), -1: (0.0, frozenset([-1]))},
        inner_sr=SemiringId.EU,
        outer_sr=SemiringId.MEU_ARGMAX,
        transform=TransformId.EU_PROJECT,
    )
    val = brute_force_nested(NestedInstance(cnf))
    assert val[0] == pytest.approx(48.0, rel=1e-9)
    assert val[1] == frozenset([1])


# ------------------------------------------------------------- verification


def test_fig_left_is_ab_first():
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([1, 2]))
    d = defined_vars(cnf, cnf.outer_vars).defined
    assert d == frozenset([3, 4])
    rep = verify_circuit(smooth(fig_left()), cnf, d)
    assert rep.outer_first and rep.outer_first_mod_defs
    assert rep.decomposable and rep.deterministic and rep.smooth
    assert rep.model_equivalent


def test_fig_right_is_only_mod_defs_first():
    cnf = LabeledCnf(4, LEX_CLAUSES, outer_vars=frozenset([1, 2]))
    d = defined_vars(cnf, cnf.outer_vars).defined
    rep = verify_circuit(smooth(fig_right()), cnf, d)
    assert not rep.outer_first
    assert rep.outer_first_mod_defs
    assert rep.model_equivalent


def test_verifier_flags_nondecision_or():
    # a two-child or-node without decision structure but still deterministic
    b = Builder()
    root = b.or_(0, b.and_(b.lit(1), b.lit(2)), b.and_(b.lit(-1), b.lit(-2)))
    circ = b.circuit(root, 2)
    rep = verify_circuit(circ, LabeledCnf(2, [(1, -2), (-1, 2)]))
    assert rep.deterministic  # proved by the satisfiability fallback
    b2 = Builder()
    root2 = b2.or_(0, b2.lit(1), b2.lit(2))
    rep2 = verify_circuit(b2.circuit(root2, 2), LabeledCnf(2, [(1, 2)]))
    assert not rep2.deterministic


class CheckedLoadSolver(SatSolver):
    """A solver that first asserts the loader's precondition: no clause
    repeats a literal or holds one beside its complement."""

    def __init__(self, num_vars, clauses):
        for cl in clauses:
            assert len(set(cl)) == len(cl) and not any(-l in cl for l in cl), cl
        super().__init__(num_vars, clauses)


@st.composite
def nondecision_circuits(draw):
    """Both literals of up to 4 variables, then and-nodes and or-nodes without
    a decision variable over earlier nodes, children drawn with repeats."""
    num_vars = draw(st.integers(1, 4))
    nodes = [(LIT, l, ()) for v in range(1, num_vars + 1) for l in (v, -v)]
    for _ in range(draw(st.integers(1, 8))):
        children = tuple(draw(st.lists(st.integers(0, len(nodes) - 1), max_size=4)))
        nodes.append((draw(st.sampled_from([AND, OR])), 0, children))
    return circuit_of(nodes, len(nodes) - 1, num_vars), nodes


@given(nondecision_circuits())
@settings(max_examples=300, deadline=None)
def test_determinism_verdict_matches_enumeration(drawn):
    # every multi-child or-node goes to the satisfiability fallback, repeated
    # and complementary children included; the verdict must say whether some
    # assignment makes two children of one or-node true
    circ, nodes = drawn
    everything = (1 << (1 << circ.num_vars)) - 1
    models = []  # bit a set when assignment a satisfies the node
    for kind, val, children in nodes:
        if kind == LIT:
            m = sum(1 << a for a in range(1 << circ.num_vars)
                    if (a >> (abs(val) - 1) & 1) == (val > 0))
        elif kind == AND:
            m = everything
            for c in children:
                m &= models[c]
        else:
            m = 0
            for c in children:
                m |= models[c]
        models.append(m)
    expected = not any(
        models[a] & models[b]
        for kind, _, children in nodes if kind == OR
        for i, a in enumerate(children) for b in children[i + 1:]
    )
    cnf = LabeledCnf(circ.num_vars, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(circuit_module, "SatSolver", CheckedLoadSolver)
        assert verify_circuit(circ, cnf, equivalence_var_limit=0).deterministic == expected


def test_sat_determinism_check_on_deep_circuit():
    # x1 | (a chain of single-child and-nodes over x2): the or-node has no
    # decision structure, so the satisfiability fallback encodes the chain
    def report(depth):
        b = Builder()
        x1, top = b.lit(1), b.lit(2)
        for _ in range(depth):
            top = b.and_(top)
        circ = b.circuit(b.or_(0, x1, top), 2)
        assert circ.node_count == depth + 3
        return verify_circuit(circ, LabeledCnf(2, [(1, 2)]))

    shallow = report(100)
    assert not shallow.deterministic and shallow.model_equivalent
    assert report(500) == shallow  # 503 nodes, well under the SAT check limit


def test_boundary_node_count():
    circ = fig_left()
    assert count_boundary_nodes(circ, frozenset([1, 2])) == 4


def test_count_models_with_dont_cares():
    b = Builder()
    root = b.or_(1, b.lit(1), b.lit(-1))
    circ = b.circuit(root, 3)
    assert count_models(circ, over=frozenset([1, 2, 3])) == 8


def test_no_outer_vars_reduces_to_plain_counting():
    # with an empty outer set and identity transform the evaluator is plain
    # algebraic model counting: sum over models of the label products
    from nestedamc.compiler import compile_cnf

    rng = random.Random(361)
    for _ in range(40):
        cnf = random_labels(rng, random_partitioned_cnf(rng, max_vars=10, max_clauses=20))
        cnf = LabeledCnf(cnf.num_vars, cnf.clauses, inner_label={
            l: w for l, w in {**cnf.inner_label, **cnf.outer_label}.items()
        })
        circ = compile_cnf(cnf, tuple(sorted(cnf.variables)))
        val = evaluate_nested(smooth(circ), NestedInstance(cnf))
        direct = 0.0
        for m in enumerate_models(cnf):
            prod = 1.0
            for l in m:
                prod *= cnf.inner_weight(l)
            direct += prod
        assert val == pytest.approx(direct, rel=1e-6, abs=1e-12)


# ------------------------------------------------- random oracle cross-check


def test_random_identity_instances_match_oracle():
    rng = random.Random(77)
    for _ in range(150):
        cnf = random_labels(rng, random_partitioned_cnf(rng, max_vars=10, max_clauses=20))
        inst = NestedInstance(cnf)
        val = brute_force_nested(inst)
        # independent re-derivation straight from the definition via the
        # model enumerator, only feasible because the transform is identity:
        # each model's inner product is summed into its outer projection's
        # bucket, in enumeration order
        inner_sums = {}
        for m in enumerate_models(cnf):
            prod = 1.0
            for l in m:
                if abs(l) not in cnf.outer_vars:
                    prod *= cnf.inner_weight(l)
            x_o = frozenset(l for l in m if abs(l) in cnf.outer_vars)
            inner_sums[x_o] = inner_sums.get(x_o, 0.0) + prod
        total = 0.0
        outer_sorted = sorted(cnf.outer_vars)
        for outer_bits in range(1 << len(cnf.outer_vars)):
            x_o = frozenset(
                v if outer_bits >> j & 1 else -v for j, v in enumerate(outer_sorted)
            )
            term = inner_sums.get(x_o, 0.0)
            for l in x_o:
                term *= cnf.outer_weight(l)
            total += term
        assert val == pytest.approx(total, rel=1e-6, abs=1e-12)
