"""Tree decompositions of primal graphs, separator approximation, and the
rooted, separator-first decompositions that yield compilation variable orders.

Decomposition uses min-fill elimination with seeded random tie-breaking and
up to `RESTARTS` runs, keeping the smallest width found. A fill cost is the
neighbour pairs less the triangles through a vertex; triangle counts are
taken once per run and updated only around each eliminated vertex, so the
candidates drawn from at each step are the same sorted least-cost vertices a
full rescan finds. Restarts stop early once a run reaches the degeneracy of
the graph, a lower bound on its treewidth. Separators are exact vertex
min-cuts computed by node-splitting max-flow as long as the flow stays within
`FLOW_BOUND`, with the frontier of the allowed set as fallback.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from .cnf import Graph, LabeledCnf, primal_graph
from .errors import PreconditionError

RESTARTS = 8  # min-fill runs per decomposition
FLOW_BOUND = 64  # largest flow find_separator pushes before its fallback


@dataclass
class TreeDecomposition:
    """A tree of bags over graph vertices with a designated root."""

    bags: dict[int, frozenset[int]]
    tree: Graph  # adjacency sets over bag ids
    root: int

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags.values()), default=1) - 1

    def children(self, node: int, parent: int | None = None):
        return sorted(n for n in self.tree[node] if n != parent)


def _min_fill_order(g: Graph, rng: random.Random):
    """One min-fill elimination run; returns [(vertex, neighbours at elimination)].

    Each step draws uniformly from the sorted vertices of least fill cost;
    each cost bucket is kept sorted as it changes, so a step sorts nothing.
    A vertex of degree d lying on t triangles has fill cost C(d, 2) - t, the
    number of its neighbour pairs that are not adjacent. Triangle counts are
    taken once, over int adjacency masks, then kept: a new fill edge (a, b)
    adds one triangle for each common neighbour to a, to b and to that
    neighbour, and removing v takes len(N) - 1 from each neighbour u in N,
    which is a clique by then. Only the vertices whose degree or count moved
    are re-bucketed.
    """
    adj = {v: set(nbrs) for v, nbrs in g.items()}
    bits = {v: sum(1 << u for u in nbrs) for v, nbrs in adj.items()}
    tri = {v: sum((bits[v] & bits[u]).bit_count() for u in nbrs) // 2 for v, nbrs in adj.items()}
    cost: dict[int, int] = {}
    buckets: dict[int, list[int]] = {}  # fill cost -> sorted vertices of that cost

    def put(v):
        d = len(adj[v])
        c = cost[v] = d * (d - 1) // 2 - tri[v]
        insort(buckets.setdefault(c, []), v)

    def take(v) -> int:
        c = cost.pop(v)
        bucket = buckets[c]
        del bucket[bisect_left(bucket, v)]
        if not bucket:
            del buckets[c]
        return c

    for v in adj:
        put(v)
    out = []
    while adj:
        candidates = buckets[min(buckets)]
        v = candidates[rng.randrange(len(candidates))]
        nbrs = sorted(adj[v])
        out.append((v, nbrs))
        touched = set(nbrs)
        if take(v):  # a vertex of cost zero adds no fill edge
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    if b not in adj[a]:
                        common = adj[a] & adj[b]
                        tri[a] += len(common)
                        tri[b] += len(common)
                        for w in common:
                            tri[w] += 1
                        touched |= common
                        adj[a].add(b)
                        adj[b].add(a)
        for u in nbrs:
            adj[u].discard(v)
            tri[u] -= len(nbrs) - 1
        del adj[v], tri[v]
        touched.discard(v)
        for u in touched:
            take(u)
            put(u)
    return out


def _degeneracy(g: Graph) -> int:
    """The largest minimum degree met while deleting a vertex of minimum
    degree until none is left: a lower bound on the treewidth of g."""
    deg = {v: len(nbrs) for v, nbrs in g.items()}
    buckets: list[set[int]] = [set() for _ in range(max(deg.values(), default=0) + 1)]
    for v, d in deg.items():
        buckets[d].add(v)
    best = k = 0
    for _ in range(len(deg)):
        k = max(k - 1, 0)  # a deletion lowers the minimum degree by at most one
        while not buckets[k]:
            k += 1
        v = buckets[k].pop()
        best = max(best, k)
        del deg[v]
        for u in g[v]:
            if u in deg:
                buckets[deg[u]].remove(u)
                deg[u] -= 1
                buckets[deg[u]].add(u)
    return best


def _td_from_elimination(order) -> TreeDecomposition:
    """Build a decomposition from an elimination order the standard way: the
    bag of v is v plus its neighbours at elimination, attached to the bag of
    the earliest-eliminated such neighbour."""
    if not order:
        return TreeDecomposition({0: frozenset()}, {0: set()}, 0)
    pos = {v: i for i, (v, _) in enumerate(order)}
    bags = {i: frozenset([v] + nbrs) for i, (v, nbrs) in enumerate(order)}
    tree: Graph = {i: set() for i in bags}
    for i, (v, nbrs) in enumerate(order):
        if nbrs or i + 1 < len(order):
            # a bag without neighbours links to the next: one tree for all pieces
            parent = min(pos[u] for u in nbrs) if nbrs else i + 1
            tree[i].add(parent)
            tree[parent].add(i)
    return TreeDecomposition(bags, tree, len(order) - 1)


def decompose(g: Graph, seed: int = 0) -> TreeDecomposition:
    """Heuristic tree decomposition of a graph; width is the best of up to
    `RESTARTS` seeded min-fill runs, not optimal.

    The first run of least width wins. Runs stop once that width is at most
    the degeneracy of g, a lower bound no later run can beat, so the result
    is the one all `RESTARTS` runs would give.
    """
    rng = random.Random(seed)
    bound = _degeneracy(g)
    best = None
    for _ in range(RESTARTS):
        td = _td_from_elimination(_min_fill_order(g, rng))
        if best is None or td.width < best.width:
            best = td
        if best.width <= bound:
            break
    return best


def _reach(g: Graph, start, inside) -> set:
    """The vertices of `inside` reachable from `start` through `inside`."""
    seen = {v for v in start if v in inside}
    stack = list(seen)
    while stack:
        for w in g[stack.pop()]:
            if w in inside and w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def find_separator(g: Graph, x, allowed) -> frozenset[int]:
    """A vertex set S within `allowed` cutting every path from x to the
    vertices outside `allowed`.

    Exact minimum cut via node-splitting max-flow while the flow value stays
    at most `FLOW_BOUND`; beyond that the frontier of `allowed` is returned.
    """
    x = frozenset(x).intersection(g)
    allowed = frozenset(allowed).intersection(g)
    targets = set(g) - allowed
    if not targets or not x:
        return frozenset()
    if not x <= allowed:
        raise PreconditionError("source vertices outside the removable set have no cut")

    # vertex v is the arc 2v -> 2v+1; `res` holds residual capacities, with a
    # zero-capacity reverse entry for every arc. The flow is at most |x|, so
    # arcs of capacity `inf` never saturate.
    inf = len(g) + 1
    res: dict = {}

    def arc(u, v, cap):
        res.setdefault(u, {})[v] = cap
        res.setdefault(v, {})[u] = 0

    for v in g:
        arc(2 * v, 2 * v + 1, 1 if v in allowed else inf)
        for u in g[v]:
            arc(2 * v + 1, 2 * u, inf)
    for v in x:
        arc("s", 2 * v, inf)
    for v in targets:
        arc(2 * v + 1, "t", inf)

    flow = 0
    while flow <= FLOW_BOUND:
        prev = {"s": None}  # breadth-first search for a shortest augmenting path
        queue = ["s"]
        for u in queue:
            for w, cap in res[u].items():
                if cap > 0 and w not in prev:
                    prev[w] = u
                    queue.append(w)
            if "t" in prev:
                break
        if "t" not in prev:
            break
        # push one unit: the path enters some 2v, v in x, whose residual arcs out
        # carry at most one unit
        w = "t"
        while w != "s":
            u = prev[w]
            res[u][w] -= 1
            res[w][u] += 1
            w = u
        flow += 1
    if flow > FLOW_BOUND:
        return frozenset(v for v in allowed if g[v] & targets)

    # min cut nearest the target side: split arcs leaving the set of nodes
    # that still reach the sink in the residual network
    back = {w: {u for u in res[w] if res[u][w] > 0} for w in res}
    reach = _reach(back, ["t"], back)
    return frozenset(v for v in allowed if 2 * v + 1 in reach and 2 * v not in reach)


def order_from_td(td: TreeDecomposition, first) -> tuple[int, ...]:
    """First-occurrence variable order of a depth-first traversal from the
    root, children visited smaller subtree first, with `first` leading."""
    # explicit stacks: a decomposition of many disconnected pieces is a long path
    kids = {}
    walk = [(td.root, None)]
    for node, parent in walk:  # grows while it is read: top-down order
        kids[node] = td.children(node, parent)
        walk += [(c, node) for c in kids[node]]
    sizes: dict[int, int] = {}
    for node, _ in reversed(walk):
        sizes[node] = 1 + sum(sizes[c] for c in kids[node])

    seen = list(first)
    seen_set = set(first)
    stack = [td.root]
    while stack:
        node = stack.pop()
        for v in sorted(td.bags[node]):
            if v not in seen_set:
                seen_set.add(v)
                seen.append(v)
        stack += sorted(kids[node], key=lambda c: (sizes[c], c), reverse=True)
    return tuple(seen)


def constrain_and_root(
    cnf: LabeledCnf, x, d, seed: int = 0
) -> tuple[TreeDecomposition, tuple[int, ...], frozenset[int]]:
    """Build a decomposition whose root bag is a separator inside x and the
    variables x defines, then emit the compilation variable order.

    The separator is turned into a clique before decomposing so some bag
    contains it; that bag is split so the root bag is exactly the separator,
    and the order lists the separator first. Returns the decomposition, the
    order and the separator.
    """
    g = primal_graph(cnf)
    x = frozenset(x).intersection(g)
    allowed = x | frozenset(d).intersection(g)
    targets = set(g) - allowed

    if not targets:
        td = decompose(g, seed=seed)
        return td, order_from_td(td, ()), frozenset()

    sep = find_separator(g, x, allowed)
    g2 = {v: nbrs | sep - {v} if v in sep else set(nbrs) for v, nbrs in g.items()}
    td = decompose(g2, seed=seed)

    host = None
    for node in sorted(td.bags):
        if sep <= td.bags[node]:
            host = node
            break
    if td.bags[host] == sep:
        td.root = host
    else:
        new = max(td.bags) + 1
        td.bags[new] = frozenset(sep)
        td.tree[new] = {host}
        td.tree[host].add(new)
        td.root = new
    return td, order_from_td(td, sorted(sep)), sep
