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
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass

from .circuit import Circuit, Node
from .cnf import LabeledCnf
from .errors import CapacityError, PreconditionError
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
    out = []
    for cl in clauses:
        if lit in cl:
            continue
        if -lit in cl:
            out.append(tuple(l for l in cl if l != -lit))
        else:
            out.append(cl)
    return out


def _canon(clauses) -> tuple:
    return tuple(sorted(set(tuple(sorted(cl)) for cl in clauses)))


def _components(clauses):
    """Partition clauses into variable-connected groups (union-find)."""
    parent: dict[int, int] = {}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for cl in clauses:
        vs = [abs(l) for l in cl]
        for v in vs:
            parent.setdefault(v, v)
        for v in vs[1:]:
            ra, rb = find(vs[0]), find(v)
            if ra != rb:
                parent[rb] = ra
    groups: dict[int, list] = {}
    for cl in clauses:
        r = find(abs(cl[0]))
        groups.setdefault(r, []).append(cl)
    return [groups[r] for r in sorted(groups, key=lambda r: min(min(abs(l) for l in c) for c in groups[r]))]


class _Compilation:
    def __init__(self, cnf: LabeledCnf, cfg: CompileConfig):
        if frozenset(cfg.order.sequence) != cnf.variables:
            raise PreconditionError("variable order is not a permutation of the theory's variables")
        self.cnf = cnf
        self.cfg = cfg
        self.outer = cnf.outer_vars
        self.pos = cfg.order.position()
        self.nodes: list[Node] = []
        self.index: dict[Node, int] = {}
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
        return self._mk(Node("L", lit=lit))

    def _true(self) -> int:
        return self._mk(Node("A"))

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

    def _has_outer(self, clauses) -> bool:
        return any(abs(l) in self.outer for cl in clauses for l in cl)

    def _propagate(self, clauses):
        """Exhaustive unit propagation; in X_FIRST mode inner units are left
        in place while the clause set still contains outer variables.
        Returns (implied literals, residual clauses, conflict flag)."""
        implied: list[int] = []
        while True:
            restrict = self.cfg.mode is CompileMode.X_FIRST and self._has_outer(clauses)
            unit = None
            for cl in clauses:
                if len(cl) == 1 and (not restrict or abs(cl[0]) in self.outer):
                    unit = cl[0]
                    break
            if unit is None:
                return implied, clauses, False
            implied.append(unit)
            self.stats.propagations += 1
            clauses = _condition(clauses, unit)
            if any(len(cl) == 0 for cl in clauses):
                return implied, clauses, True

    def _split(self, clauses):
        comps = _components(clauses)
        if self.cfg.mode is not CompileMode.X_FIRST or len(comps) <= 1:
            return comps
        # keep the strict outer-first shape: pure-outer components may split
        # off, everything else stays one block while a mixed component exists
        pure_outer, pure_inner, mixed = [], [], []
        for comp in comps:
            has_o = self._has_outer(comp)
            has_i = any(abs(l) not in self.outer for cl in comp for l in cl)
            if has_o and has_i:
                mixed.append(comp)
            elif has_o:
                pure_outer.append(comp)
            else:
                pure_inner.append(comp)
        if not mixed:
            return comps
        blob = [cl for comp in mixed + pure_inner for cl in comp]
        return pure_outer + [blob]

    def _pick_var(self, clauses) -> int:
        cand = {abs(l) for cl in clauses for l in cl}
        if self.cfg.mode is CompileMode.X_FIRST:
            outer_cand = cand & self.outer
            if outer_cand:
                cand = outer_cand
        return min(cand, key=self.pos.__getitem__)

    def _compile(self, clauses) -> int:
        if any(len(cl) == 0 for cl in clauses):
            return self._false()
        if not clauses:
            return self._true()
        key = _canon(clauses)
        got = self.cache.get(key)
        if got is not None:
            self.stats.cache_hits += 1
            return got
        result = self._compile_fresh(key)
        self.cache[key] = result
        self.stats.cache_entries += 1
        self._budget(56 + 16 * sum(len(cl) for cl in key))
        return result

    def _compile_fresh(self, clauses) -> int:
        lits, clauses, conflict = self._propagate(clauses)
        if conflict:
            return self._false()
        comps = self._split(clauses) if clauses else []
        if lits or len(comps) > 1:
            children = [self._lit(l) for l in lits]
            children += [self._compile(comp) for comp in comps]
            true_id = self._true()
            children = [c for c in children if c != true_id]
            if not children:
                return true_id
            return self._and(children)
        if not clauses:
            return self._true()
        v = self._pick_var(clauses)
        self.stats.decisions += 1
        pos = self._compile(_condition(clauses, v))
        neg = self._compile(_condition(clauses, -v))
        return self._decision(v, pos, neg)

    def run(self) -> Circuit:
        clauses = [cl for cl in self.cnf.clauses if not any(-l in cl for l in cl)]
        limit = sys.getrecursionlimit()
        needed = 4 * (len(self.cnf.variables) + len(clauses)) + 1000
        if needed > limit:
            sys.setrecursionlimit(needed)
        try:
            root = self._compile(_canon(clauses))
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
    budget is exhausted, and PreconditionError when the order does not cover
    exactly the theory's variables.
    """
    return _Compilation(cnf, cfg).run()
