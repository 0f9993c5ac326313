import itertools
import random

from gen import equivalence_cnf, random_partitioned_cnf
from nestedamc.cnf import LabeledCnf, primal_graph
from nestedamc.definability import defined_vars
from nestedamc.treedecomp import (
    TreeDecomposition,
    constrain_and_root,
    decompose,
    emit_td,
    find_separator,
    order_from_td,
    separates,
    validate_td,
)


def graph(edges, vertices=()):
    """Adjacency sets over the given vertices and the ends of the edges."""
    g = {v: set() for v in vertices}
    for u, v in edges:
        g.setdefault(u, set()).add(v)
        g.setdefault(v, set()).add(u)
    return g


def gnp_graph(n, p, seed):
    """G(n, p) over vertices 1..n: each pair in lexicographic order is an
    edge when the seeded stream draws below p."""
    rng = random.Random(seed)
    pairs = itertools.combinations(range(1, n + 1), 2)
    return graph([e for e in pairs if rng.random() < p], range(1, n + 1))


def test_forest_has_width_one():
    g = graph([(1, 3), (2, 4)])
    td = decompose(g)
    assert td.width == 1
    assert validate_td(g, td)


def test_clique_width():
    g = graph(itertools.combinations(range(1, 6), 2))
    td = decompose(g)
    assert td.width == 4
    assert validate_td(g, td)


def test_empty_graph_width_zero():
    g = graph([], range(1, 6))
    td = decompose(g)
    assert td.width == 0
    assert validate_td(g, td)


def test_decompose_valid_on_random_graphs():
    rng = random.Random(3)
    for _ in range(500):
        n = rng.randint(1, 40)
        g = gnp_graph(n, rng.random() * 0.3, seed=rng.randrange(1 << 30))
        td = decompose(g, seed=rng.randrange(1 << 30), restarts=2)
        assert validate_td(g, td)


def test_validate_rejects_uncovered_edge():
    g = graph([(1, 2)])
    td = TreeDecomposition({0: frozenset([1]), 1: frozenset([2])}, graph([(0, 1)]), 0)
    assert not validate_td(g, td)


def test_validate_rejects_disconnected_occurrence():
    g = graph([(1, 2), (2, 3)])
    td = TreeDecomposition(
        {0: frozenset([1, 2]), 1: frozenset([2, 3]), 2: frozenset([1])},
        graph([(0, 1), (1, 2)]),
        0,
    )
    assert not validate_td(g, td)


def test_validate_rejects_bag_outside_the_tree():
    g = graph([(1, 2), (2, 3)])
    td = TreeDecomposition({0: frozenset([1, 2]), 1: frozenset([2, 3])}, graph([], [0]), 0)
    assert not validate_td(g, td)


def test_separator_empty_when_target_side_empty():
    g = graph([(1, 3), (2, 4)])
    assert find_separator(g, {1, 2}, {1, 2, 3, 4}) == frozenset()


def test_separator_cut_vertex_on_path():
    g = graph([(1, 2), (2, 3)])  # a - m - z
    assert find_separator(g, {1}, {1, 2}) == frozenset([2])


def test_separator_star_center():
    g = graph([(1, 2), (1, 3), (1, 4), (1, 5), (1, 6)])
    # leaves 2..5 outer, 6 inner, center 1 defined
    sep = find_separator(g, {2, 3, 4, 5}, {1, 2, 3, 4, 5})
    assert sep == frozenset([1])


def test_separator_flow_bound_fallback_is_still_a_separator():
    g = graph((i, 100 + i) for i in range(1, 11))
    sep = find_separator(g, set(range(1, 11)), set(range(1, 11)), flow_bound=3)
    assert sep == frozenset(range(1, 11))  # the frontier
    assert separates(g, sep, set(range(1, 11)), set(range(101, 111)))


def test_separator_is_a_minimum_cut_by_enumeration():
    rng = random.Random(31)
    for _ in range(300):
        n = rng.randint(2, 10)
        g = gnp_graph(n, rng.random() * 0.6, seed=rng.randrange(1 << 30))
        allowed = {v for v in g if rng.random() < 0.6} or {1}
        x = {v for v in allowed if rng.random() < 0.5} or {min(allowed)}
        targets = set(g) - allowed
        sep = find_separator(g, x, allowed)
        assert sep <= allowed
        assert separates(g, sep, x, targets)
        smallest = next(
            k
            for k in range(len(allowed) + 1)
            if any(separates(g, s, x, targets) for s in itertools.combinations(sorted(allowed), k))
        )
        assert len(sep) == smallest


def test_constrain_and_root_guarantees():
    rng = random.Random(17)
    for _ in range(100):
        cnf = random_partitioned_cnf(rng, max_vars=14, max_clauses=30)
        x = cnf.outer_vars
        d = defined_vars(cnf, x).defined
        td, order = constrain_and_root(cnf, x, d, seed=rng.randrange(1 << 30))
        g = primal_graph(cnf)
        assert validate_td(g, td)
        root_bag = td.bags[td.root]
        targets = set(g) - set(x) - set(d)
        assert root_bag <= x | d
        assert separates(g, root_bag, x, targets)
        # the emitted order is a permutation with the separator block first
        assert sorted(order.sequence) == sorted(cnf.variables)
        sep = set(order.sequence[: order.boundary_index])
        assert separates(g, sep, x, targets)
        assert td.width >= len(sep) - 1


def test_constrain_equivalence_theory_unconstrained():
    cnf = equivalence_cnf(3)
    x = frozenset(range(1, 4))
    td, order = constrain_and_root(cnf, x, frozenset(range(4, 7)))
    assert td.width == 1
    assert order.boundary_index == 0
    assert sorted(order.sequence) == list(range(1, 7))


def test_constrain_all_vars_outer_plain_decompose():
    cnf = LabeledCnf(4, [(1, 2), (2, 3), (3, 4)], outer_vars=frozenset([1, 2, 3, 4]))
    td, order = constrain_and_root(cnf, cnf.outer_vars, frozenset())
    assert order.boundary_index == 0
    assert validate_td(primal_graph(cnf), td)


def test_order_separator_block_first():
    rng = random.Random(9)
    for _ in range(50):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=24)
        td, order = constrain_and_root(cnf, cnf.outer_vars, frozenset(), seed=1)
        sep = set(order.sequence[: order.boundary_index])
        pos = {v: i for i, v in enumerate(order.sequence)}
        assert all(
            pos[s] < pos[v]
            for s in sep
            for v in cnf.variables - sep
        )


def test_emit_td_format():
    g = graph([(1, 2), (2, 3)])
    td = decompose(g)
    text = emit_td(td, 3)
    lines = text.strip().splitlines()
    assert lines[0].startswith("s td ")
    assert any(line.startswith("b ") for line in lines)


def test_order_from_td_deep_tree():
    # isolated vertices are chained into one path of 1100 bags
    g = primal_graph(LabeledCnf(1100, []))
    td = decompose(g, restarts=1)
    assert sorted(order_from_td(td, ())) == list(range(1, 1101))
