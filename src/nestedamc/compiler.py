"""Top-down exhaustive-DPLL knowledge compiler producing deterministic
decomposable circuits that follow a given variable order up to unit
propagation.

Or-nodes are decision nodes exclusively, so determinism is structural.
Residual components are detected after every propagation round and compiled
independently under an and-node; identical residual components are shared
through a cache keyed by their canonical clause list (original variable ids,
so equal keys mean logically identical components).

Three modes:

  FREE       decide any component variable, earliest in the order first.
  XD_FIRST   same decision rule; unit propagation may assign inner literals
             at any time (sound when the instance's transformation function
             is a product homomorphism on the values that actually cross).
  X_FIRST    outer variables strictly precede inner ones in every branch:
             inner decisions wait until the component has no outer variable
             left, unit-propagated inner literals are buffered until that
             boundary, and component splits keep at most one outer-containing
             block so the circuit satisfies the strict outer-first shape.

Residual formulas are lists of clauses, and three rules keep the work per
decision small without changing which nodes are built or in which order:

  Sorted clauses. Every clause is a sorted tuple from the root on, and
      conditioning only removes literals, so a canonical key is the sorted
      set of the clauses themselves.
  Earliest unit. Propagation always takes the eligible unit clause that
      comes first in the residual list. Conditioning keeps the list order,
      so that is the unit with the smallest position in the block, and a
      heap of positions over occurrence lists finds it without rescanning.
  Settled blocks. A block handed down by a split after exhaustive
      propagation holds no eligible unit and is connected (an X_FIRST blob
      splits back into itself), so it goes straight to the decision. The
      exception is an X_FIRST pure-inner block holding inner units that were
      buffered while outer variables remained: it still propagates.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain

from .circuit import Circuit, Node
from .cnf import LabeledCnf
from .errors import CapacityError, ConfigError, PreconditionError
from .treedecomp import VariableOrder

DEFAULT_BUDGET = 256 << 20  # bytes


class CompileMode(enum.Enum):
    FREE = "free"
    X_FIRST = "x"
    XD_FIRST = "xd"


@dataclass
class CompileConfig:
    order: VariableOrder
    mode: CompileMode = CompileMode.XD_FIRST
    cache_budget: int = DEFAULT_BUDGET


@dataclass
class CompileStats:
    nodes: int = 0
    edges: int = 0
    decisions: int = 0
    propagations: int = 0
    cache_hits: int = 0
    cache_entries: int = 0
    bytes_estimate: int = 0

    def as_dict(self):
        return {
            "nodes": self.nodes,
            "edges": self.edges,
            "decisions": self.decisions,
            "propagations": self.propagations,
            "cache_hits": self.cache_hits,
            "cache_entries": self.cache_entries,
        }


def _condition(clauses, lit):
    """The clauses under `lit`, in their order; None when one becomes empty."""
    neg = -lit
    out = [tuple(l for l in cl if l != neg) if neg in cl else cl
           for cl in clauses if lit not in cl]
    return None if () in out else out


def _components(clauses):
    """Partition clauses into variable-connected groups, keeping the clause
    order inside a group and ordering the groups by their smallest variable.
    The union-find keeps the smallest variable of a group as its root."""
    parent: dict[int, int] = {}
    roots = 0
    for cl in clauses:
        top = 0
        for l in cl:
            v = l if l > 0 else -l
            r = parent.get(v)
            if r is None:
                parent[v] = r = v
                roots += 1
            else:
                while True:
                    p = parent[r]
                    if p == r:
                        break
                    parent[v] = r = p
            if not top:
                top = r
            elif r != top:
                roots -= 1
                if r < top:
                    parent[top] = top = r
                else:
                    parent[r] = top
    if roots == 1:
        return [clauses]
    groups: dict[int, list] = {}
    for cl in clauses:
        v = cl[0] if cl[0] > 0 else -cl[0]
        r = parent[v]
        while parent[r] != r:
            r = parent[r]
        parent[v] = r
        got = groups.get(r)
        if got is None:
            groups[r] = [cl]
        else:
            got.append(cl)
    return [groups[r] for r in sorted(groups)]


class _Compilation:
    def __init__(self, cnf: LabeledCnf, cfg: CompileConfig):
        if frozenset(cfg.order.sequence) != cnf.variables:
            raise PreconditionError("variable order is not a permutation of the theory's variables")
        if cfg.cache_budget <= 0:
            raise ConfigError(f"cache budget must be positive, got {cfg.cache_budget} bytes")
        self.cnf = cnf
        self.cfg = cfg
        self.x_first = cfg.mode is CompileMode.X_FIRST
        # both literals of every outer variable
        self.outer_lits = frozenset(cnf.outer_vars) | {-v for v in cnf.outer_vars}
        # decision rank by literal: order position, outer variables first in X_FIRST
        seq = cfg.order.sequence
        if self.x_first:
            seq = [v for v in seq if v in cnf.outer_vars] + [
                v for v in seq if v not in cnf.outer_vars]
        self.by_rank = tuple(seq)
        self.rank = {l: i for i, v in enumerate(seq) for l in (v, -v)}
        self.nodes: list[Node] = []
        self.index: dict[Node, int] = {}
        self.lit_ids: dict[int, int] = {}
        self.true_id: int | None = None
        self.cache: dict[tuple, int] = {}
        self.stats = CompileStats()

    # -------------------------------------------------------- node building

    def _budget(self, extra: int):
        self.stats.bytes_estimate += extra
        if self.stats.bytes_estimate > self.cfg.cache_budget:
            raise CapacityError("compilation exceeded the cache budget", self.stats)

    def _mk(self, node: Node) -> int:
        got = self.index.get(node)
        if got is not None:
            return got
        self.nodes.append(node)
        idx = len(self.nodes) - 1
        self.index[node] = idx
        self.stats.nodes += 1
        self.stats.edges += len(node.children)
        self._budget(48 + 8 * len(node.children))
        return idx

    def _lit(self, lit: int) -> int:
        got = self.lit_ids.get(lit)
        if got is None:
            got = self.lit_ids[lit] = self._mk(Node("L", lit=lit))
        return got

    def _true(self) -> int:
        if self.true_id is None:
            self.true_id = self._mk(Node("A"))
        return self.true_id

    def _false(self) -> int:
        return self._mk(Node("O"))

    def _and(self, children) -> int:
        children = tuple(children)
        if len(children) == 1:
            return children[0]
        return self._mk(Node("A", children=children))

    def _decision(self, var: int, pos: int, neg: int) -> int:
        true_id = self._true()
        hi = self._lit(var) if pos == true_id else self._and((self._lit(var), pos))
        lo = self._lit(-var) if neg == true_id else self._and((self._lit(-var), neg))
        return self._mk(Node("O", dvar=var, children=(hi, lo)))

    # ------------------------------------------------------------- semantics

    def _propagate(self, clauses):
        """Exhaustive unit propagation; in X_FIRST mode inner units are left
        in place while the clause set still contains outer variables.
        Returns (implied literals, residual clauses, conflict flag)."""
        if min(map(len, clauses)) > 1:
            return (), clauses, False
        x_first = self.x_first
        outer_lits = self.outer_lits
        cur = list(clauses)  # None marks a satisfied clause
        occ: dict[int, list[int]] = {}
        # positions of unit clauses; outside X_FIRST every unit is "inner"
        outer_heap: list[int] = []
        inner_heap: list[int] = []
        n_outer = 0  # outer literal occurrences left in the block
        for i, cl in enumerate(cur):
            for l in cl:
                got = occ.get(l)
                if got is None:
                    occ[l] = [i]
                else:
                    got.append(i)
            if len(cl) == 1:
                if x_first and cl[0] in outer_lits:
                    outer_heap.append(i)
                else:
                    inner_heap.append(i)
            if x_first and not outer_lits.isdisjoint(cl):
                n_outer += sum(l in outer_lits for l in cl)
        implied: list[int] = []
        while True:
            heap = outer_heap if n_outer else inner_heap
            while heap and cur[heap[0]] is None:
                heappop(heap)
            if not heap:
                return implied, [cl for cl in cur if cl is not None], False
            unit = cur[heappop(heap)][0]
            implied.append(unit)
            self.stats.propagations += 1
            for j in occ.get(unit, ()):
                cl = cur[j]
                if cl is not None:
                    cur[j] = None
                    if n_outer:
                        n_outer -= sum(l in outer_lits for l in cl)
            neg = -unit
            outer_neg = x_first and neg in outer_lits
            for j in occ.get(neg, ()):
                cl = cur[j]
                if cl is None:
                    continue
                short = tuple(l for l in cl if l != neg)
                if not short:
                    return implied, None, True
                cur[j] = short
                if outer_neg:
                    n_outer -= len(cl) - len(short)
                if len(short) == 1:
                    if x_first and short[0] in outer_lits:
                        heappush(outer_heap, j)
                    else:
                        heappush(inner_heap, j)

    def _split(self, clauses):
        """The blocks of a propagated residual, each paired with whether it
        is settled (see the module docstring)."""
        comps = _components(clauses)
        if not self.x_first:
            return [(comp, True) for comp in comps]
        # keep the strict outer-first shape: pure-outer components may split
        # off, everything else stays one block while a mixed component exists
        outer_lits = self.outer_lits
        pure_outer, rest, flags = [], [], []
        mixed = False
        for comp in comps:
            lits = set().union(*comp)
            if outer_lits.isdisjoint(lits):
                # a pure-inner block may hold inner units buffered above it
                rest.append(comp)
                flags.append(min(map(len, comp)) > 1)
            else:
                if not outer_lits.issuperset(lits):
                    mixed = True
                    rest.append(comp)
                else:
                    pure_outer.append(comp)
                flags.append(True)
        if not mixed:
            return list(zip(comps, flags))
        # the blob is canonicalised by the cache, so its clause order is free
        blob = [cl for comp in rest for cl in comp]
        return [(comp, True) for comp in pure_outer] + [(blob, True)]

    def _compile(self, clauses, settled=False) -> int:
        if clauses is None:
            return self._false()
        if not clauses:
            return self._true()
        key = tuple(sorted(set(clauses)))
        got = self.cache.get(key)
        if got is not None:
            self.stats.cache_hits += 1
            return got
        result = self._compile_fresh(key, settled)
        self.cache[key] = result
        self.stats.cache_entries += 1
        self._budget(56 + 16 * sum(map(len, key)))
        return result

    def _compile_fresh(self, clauses, settled) -> int:
        if not settled:
            lits, clauses, conflict = self._propagate(clauses)
            if conflict:
                return self._false()
            blocks = self._split(clauses)
            if lits or len(blocks) > 1:
                children = [self._lit(l) for l in lits]
                children += [self._compile(b, s) for b, s in blocks]
                true_id = self._true()
                children = [c for c in children if c != true_id]
                if not children:
                    return true_id
                return self._and(children)
        v = self.by_rank[min(map(self.rank.__getitem__, chain.from_iterable(clauses)))]
        self.stats.decisions += 1
        pos = self._compile(_condition(clauses, v))
        neg = self._compile(_condition(clauses, -v))
        return self._decision(v, pos, neg)

    def run(self) -> Circuit:
        clauses = [tuple(sorted(cl)) for cl in self.cnf.clauses
                   if not any(-l in cl for l in cl)]
        limit = sys.getrecursionlimit()
        needed = 4 * (len(self.cnf.variables) + len(clauses)) + 1000
        if needed > limit:
            sys.setrecursionlimit(needed)
        try:
            root = self._compile(None if () in clauses else clauses)
        finally:
            sys.setrecursionlimit(limit)
        nodes, root = self._compact(root)
        self.stats.nodes = len(nodes)
        self.stats.edges = sum(len(n.children) for n in nodes)
        return Circuit(
            nodes, root, self.cnf.num_vars, self.cnf.variables, stats=self.stats
        )

    def _compact(self, root: int):
        """Keep only nodes reachable from the root, in the original (and thus
        topological) order, so the root is the last node."""
        keep = [False] * len(self.nodes)
        keep[root] = True
        for i in range(root, -1, -1):
            if keep[i]:
                for c in self.nodes[i].children:
                    keep[c] = True
        remap: dict[int, int] = {}
        out: list[Node] = []
        for i in range(root + 1):
            if not keep[i]:
                continue
            nd = self.nodes[i]
            if nd.children:
                nd = Node(nd.kind, nd.lit, nd.dvar, tuple(remap[c] for c in nd.children))
            remap[i] = len(out)
            out.append(nd)
        return out, remap[root]


def compile_cnf(cnf: LabeledCnf, cfg: CompileConfig) -> Circuit:
    """Compile the theory into a deterministic decomposable circuit whose
    models equal the theory's models; statistics are attached to the result.

    Raises CapacityError carrying partial statistics when the configured
    budget is exhausted, PreconditionError when the order does not cover
    exactly the theory's variables, and ConfigError when the budget is not
    positive.
    """
    return _Compilation(cnf, cfg).run()
