import itertools
import random
import time

from gen import (
    equivalence_cnf,
    implication_chain,
    random_partitioned_cnf,
    separates,
    validate_td,
)
from nestedamc.cnf import LabeledCnf, primal_graph
from nestedamc.compiler import CompileMode
from nestedamc.definability import defined_vars
from nestedamc import treedecomp
from nestedamc.programs import Diagnostics, plan_order
from nestedamc.treedecomp import (
    FLOW_BOUND,
    RESTARTS,
    TreeDecomposition,
    _degeneracy,
    _min_fill_order,
    _td_from_elimination,
    constrain_and_root,
    decompose,
    find_separator,
    order_from_td,
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
        td = decompose(g, seed=rng.randrange(1 << 30))
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
    # 70 disjoint edges from an outer vertex to a target: the min cut of 70
    # exceeds the flow bound
    n = 70
    assert n > FLOW_BOUND
    g = graph((i, 100 + i) for i in range(1, n + 1))
    sep = find_separator(g, set(range(1, n + 1)), set(range(1, n + 1)))
    assert sep == frozenset(range(1, n + 1))  # the frontier
    assert separates(g, sep, set(range(1, n + 1)), set(range(101, 101 + n)))


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
        td, order, sep = constrain_and_root(cnf, x, d, seed=rng.randrange(1 << 30))
        g = primal_graph(cnf)
        assert validate_td(g, td)
        root_bag = td.bags[td.root]
        targets = set(g) - set(x) - set(d)
        assert root_bag <= x | d
        assert separates(g, root_bag, x, targets)
        # the emitted order is a permutation with the separator first
        assert sorted(order) == sorted(cnf.variables)
        assert set(order[: len(sep)]) == sep
        assert separates(g, sep, x, targets)
        assert td.width >= len(sep) - 1


def test_constrain_equivalence_theory_unconstrained():
    cnf = equivalence_cnf(3)
    x = frozenset(range(1, 4))
    td, order, sep = constrain_and_root(cnf, x, frozenset(range(4, 7)))
    assert td.width == 1
    assert sep == frozenset()
    assert sorted(order) == list(range(1, 7))


def test_constrain_all_vars_outer_plain_decompose():
    cnf = LabeledCnf(4, [(1, 2), (2, 3), (3, 4)], outer_vars=frozenset([1, 2, 3, 4]))
    td, _, sep = constrain_and_root(cnf, cnf.outer_vars, frozenset())
    assert sep == frozenset()
    assert validate_td(primal_graph(cnf), td)


def test_order_separator_block_first():
    rng = random.Random(9)
    for _ in range(50):
        cnf = random_partitioned_cnf(rng, max_vars=12, max_clauses=24)
        td, order, sep = constrain_and_root(cnf, cnf.outer_vars, frozenset(), seed=1)
        pos = {v: i for i, v in enumerate(order)}
        assert all(
            pos[s] < pos[v]
            for s in sep
            for v in cnf.variables - sep
        )


def test_order_from_td_deep_tree():
    # isolated vertices are chained into one path of 1100 bags
    g = primal_graph(LabeledCnf(1100, []))
    td = decompose(g)
    assert sorted(order_from_td(td, ())) == list(range(1, 1101))


def full_rescan_min_fill(g, rng):
    """Min-fill that rescores every remaining vertex at every step: the
    reference the bucketed fill costs must match draw for draw."""
    adj = {v: set(nbrs) for v, nbrs in g.items()}
    out = []
    while adj:
        best_cost = None
        candidates = []
        for v in sorted(adj):
            ns = sorted(adj[v])
            cost = sum(1 for i, u in enumerate(ns) for w in ns[i + 1 :] if w not in adj[u])
            if best_cost is None or cost < best_cost:
                best_cost = cost
                candidates = [v]
            elif cost == best_cost:
                candidates.append(v)
        v = candidates[rng.randrange(len(candidates))]
        nbrs = sorted(adj[v])
        out.append((v, nbrs))
        for i, u in enumerate(nbrs):
            for w in nbrs[i + 1 :]:
                adj[u].add(w)
                adj[w].add(u)
        for u in nbrs:
            adj[u].discard(v)
        del adj[v]
    return out


def clique_with_pendants(k):
    """The strict-separation shape: a clique on 1..k, and each k+i hanging
    off vertex i."""
    return graph(list(itertools.combinations(range(1, k + 1), 2))
                 + [(i, k + i) for i in range(1, k + 1)])


def test_min_fill_matches_full_rescan():
    rng = random.Random(17)
    graphs = [
        gnp_graph(rng.randint(1, 30), rng.random() * 0.4, seed=rng.randrange(1 << 30))
        for _ in range(300)
    ]
    graphs += [clique_with_pendants(k) for k in range(1, 16)]
    # dense graphs: one elimination adds fill edges whose common
    # neighbourhoods hold fill edges added earlier in the same step
    graphs += [
        gnp_graph(rng.randint(1, 24), 0.4 + rng.random() * 0.5, seed=rng.randrange(1 << 30))
        for _ in range(100)
    ]
    for _ in range(40):
        k = rng.randint(2, 12)
        g = clique_with_pendants(k)
        for _ in range(rng.randint(1, 2 * k)):
            a, b = rng.sample(range(1, 2 * k + 1), 2)
            g[a].add(b)
            g[b].add(a)
        graphs.append(g)
    for g in graphs:
        seed = rng.randrange(1 << 30)
        fast, slow = random.Random(seed), random.Random(seed)
        for _ in range(3):  # restarts share one stream, so later draws count too
            assert _min_fill_order(g, fast) == full_rescan_min_fill(g, slow)
        assert fast.getstate() == slow.getstate()


def all_restarts_decompose(g, seed):
    """Every restart runs and the first strictly smaller width wins: the
    reference the early stop at the degeneracy bound must match."""
    rng = random.Random(seed)
    best = None
    for _ in range(RESTARTS):
        td = _td_from_elimination(_min_fill_order(g, rng))
        if best is None or td.width < best.width:
            best = td
    return best


def test_decompose_matches_all_restarts():
    rng = random.Random(23)
    cases = [
        (gnp_graph(rng.randint(1, 30), rng.random() * 0.6, seed=rng.randrange(1 << 30)),
         rng.randrange(1 << 30))
        for _ in range(300)
    ]
    # at seed 0 the first run is one above the degeneracy, and one of the
    # first eight runs meets it
    cases += [
        (gnp_graph(n, p, seed=s), 0)
        for n, p, s in [(10, 0.7, 373), (12, 0.7, 1017), (10, 0.5, 1117), (14, 0.7, 713)]
    ]
    for g, seed in cases:
        fast, slow = decompose(g, seed), all_restarts_decompose(g, seed)
        assert (fast.bags, fast.tree, fast.root) == (slow.bags, slow.tree, slow.root)


def test_degeneracy_bounds_every_min_fill_width():
    rng = random.Random(29)
    for _ in range(200):
        g = gnp_graph(rng.randint(1, 30), rng.random() * 0.7, seed=rng.randrange(1 << 30))
        bound = _degeneracy(g)
        run = random.Random(rng.randrange(1 << 30))
        for _ in range(3):
            assert bound <= _td_from_elimination(_min_fill_order(g, run)).width


def test_degeneracy_of_small_graphs():
    for k in range(1, 8):
        assert _degeneracy(graph(itertools.combinations(range(1, k + 1), 2), [1])) == k - 1
    assert _degeneracy(graph([(i, i + 1) for i in range(1, 10)])) == 1
    assert _degeneracy(graph([], range(1, 6))) == 0
    assert _degeneracy({}) == 0
    td = decompose({})
    assert (td.bags, td.tree, td.root) == ({0: frozenset()}, {0: set()}, 0)


def test_separator_clique_at_scale():
    # a 200-vertex separator clique: quartic fill-cost upkeep stalls here
    cnf = implication_chain(200)
    td, order, sep = constrain_and_root(cnf, cnf.outer_vars, ())
    assert td.width == 199
    assert len(sep) == 200
    assert set(order[:200]) == sep
    assert decompose(clique_with_pendants(200)).width == 199


def test_xd_planning_over_an_800_vertex_separator_clique():
    # a triangle count by set intersections is cubic in the clique: on a
    # 2-core host it made this plan take 11 s, int masks take under 1 s
    cnf = implication_chain(800)
    diag = Diagnostics()
    t0 = time.perf_counter()
    order = plan_order(cnf, CompileMode.XD_FIRST, diag=diag)
    assert time.perf_counter() - t0 < 4.0
    assert diag.separator_size == 800
    assert sorted(order) == sorted(cnf.variables)
    assert diag.width == 799


def test_min_fill_over_20000_isolated_vertices(monkeypatch):
    # all 20,000 vertices tie at fill cost zero: re-sorting that bucket at
    # each elimination made this plan take 6 s on a 2-core host
    cnf = LabeledCnf(20000, [(1,)])
    diag = Diagnostics()
    t0 = time.perf_counter()
    order = plan_order(cnf, CompileMode.XD_FIRST, diag=diag)
    assert time.perf_counter() - t0 < 2.0
    assert sorted(order) == list(range(1, 20001))
    assert diag.width == 0
    # the same run without the clock: a step sorts only the eliminated
    # vertex's neighbours, none here, where re-sorting the bucket sorted
    # 2 * 10^8 items
    sorted_items = 0

    def counted_sorted(items, **kw):
        nonlocal sorted_items
        out = sorted(items, **kw)
        sorted_items += len(out)
        return out

    monkeypatch.setattr(treedecomp, "sorted", counted_sorted, raising=False)
    out = _min_fill_order(primal_graph(cnf), random.Random(0))
    assert sorted_items == 0
    assert len(out) == 20000
