"""Tree decompositions of primal graphs, separator approximation, and the
rooted, separator-first decompositions that yield compilation variable orders.

Decomposition uses min-fill elimination with seeded random tie-breaking and a
configurable number of restarts, keeping the smallest width found. Separators
are exact vertex min-cuts computed by node-splitting max-flow as long as the
flow stays under a bound, with the frontier of the allowed set as fallback.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cnf import Graph, LabeledCnf, primal_graph
from .errors import PreconditionError

DEFAULT_RESTARTS = 8
DEFAULT_FLOW_BOUND = 64


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


@dataclass(frozen=True)
class VariableOrder:
    """A permutation of the variables; the prefix up to `boundary_index` is
    the separator block that must be decided first."""

    sequence: tuple[int, ...]
    boundary_index: int = 0


def _min_fill_order(g: Graph, rng: random.Random):
    """One min-fill elimination run; returns [(vertex, neighbours at elimination)]."""
    adj = {v: set(nbrs) for v, nbrs in g.items()}
    out = []
    while adj:
        best_cost = None
        candidates = []
        for v in sorted(adj):
            nbrs = adj[v]
            cost = 0
            ns = sorted(nbrs)
            for i, u in enumerate(ns):
                au = adj[u]
                for w in ns[i + 1 :]:
                    if w not in au:
                        cost += 1
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


def decompose(g: Graph, seed: int = 0, restarts: int = DEFAULT_RESTARTS) -> TreeDecomposition:
    """Heuristic tree decomposition of a graph; width is the best of
    `restarts` seeded min-fill runs, not optimal."""
    rng = random.Random(seed)
    best = None
    for _ in range(max(1, restarts)):
        td = _td_from_elimination(_min_fill_order(g, rng))
        if best is None or td.width < best.width:
            best = td
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


def validate_td(g: Graph, td: TreeDecomposition) -> bool:
    """Exhaustively check vertex coverage, edge coverage, that the tree is a
    tree over the bags, and connectedness of every vertex's occurrence set."""
    covered = set()
    for b in td.bags.values():
        covered |= b
    if not set(g) <= covered:
        return False
    for u in g:
        for v in g[u]:
            if not any(u in b and v in b for b in td.bags.values()):
                return False
    nodes = set(td.tree)
    edges = sum(len(n) for n in td.tree.values()) // 2
    if td.bags and (
        nodes != set(td.bags)
        or edges != len(nodes) - 1
        or _reach(td.tree, [td.root], nodes) != nodes
    ):
        return False
    for v in g:
        occ = {t for t, b in td.bags.items() if v in b}
        if _reach(td.tree, [min(occ)], occ) != occ:
            return False
    return True


def find_separator(
    g: Graph, x, allowed, flow_bound: int = DEFAULT_FLOW_BOUND
) -> frozenset[int]:
    """A vertex set S within `allowed` cutting every path from x to the
    vertices outside `allowed`.

    Exact minimum cut via node-splitting max-flow while the flow value stays
    at most `flow_bound`; beyond that the frontier of `allowed` is returned.
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
    while flow <= flow_bound:
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
    if flow > flow_bound:
        return frozenset(v for v in allowed if g[v] & targets)

    # min cut nearest the target side: split arcs leaving the set of nodes
    # that still reach the sink in the residual network
    back = {w: {u for u in res[w] if res[u][w] > 0} for w in res}
    reach = _reach(back, ["t"], back)
    return frozenset(v for v in allowed if 2 * v + 1 in reach and 2 * v not in reach)


def separates(g: Graph, sep, x, targets) -> bool:
    """True iff removing `sep` leaves no path from x to the target side."""
    return not _reach(g, x, set(g) - set(sep)) & set(targets)


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
    cnf: LabeledCnf,
    x,
    d,
    seed: int = 0,
    restarts: int = DEFAULT_RESTARTS,
    flow_bound: int = DEFAULT_FLOW_BOUND,
) -> tuple[TreeDecomposition, VariableOrder]:
    """Build a decomposition whose root bag is a separator inside x and the
    variables x defines, then emit the compilation variable order.

    The separator is turned into a clique before decomposing so some bag
    contains it; that bag is split so the root bag is exactly the separator,
    and the order lists the separator block first.
    """
    g = primal_graph(cnf)
    x = frozenset(x).intersection(g)
    allowed = x | frozenset(d).intersection(g)
    targets = set(g) - allowed

    if not targets:
        td = decompose(g, seed=seed, restarts=restarts)
        return td, VariableOrder(order_from_td(td, ()), 0)

    sep = find_separator(g, x, allowed, flow_bound=flow_bound)
    g2 = {v: nbrs | sep - {v} if v in sep else set(nbrs) for v, nbrs in g.items()}
    td = decompose(g2, seed=seed, restarts=restarts)

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
    order = order_from_td(td, sorted(sep))
    return td, VariableOrder(order, len(sep))


def emit_td(td: TreeDecomposition, num_vertices: int) -> str:
    """PACE-style serialization for debugging and external comparison."""
    ids = {node: i + 1 for i, node in enumerate(sorted(td.bags))}
    lines = [f"s td {len(td.bags)} {td.width + 1} {num_vertices}"]
    for node in sorted(td.bags):
        lines.append(f"b {ids[node]} " + " ".join(str(v) for v in sorted(td.bags[node])))
    edges = ((ids[a], ids[b]) for a in td.tree for b in td.tree[a])
    for u, v in sorted((u, v) for u, v in edges if u < v):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"
