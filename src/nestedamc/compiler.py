"""Top-down exhaustive-DPLL knowledge compiler producing deterministic
decomposable circuits that follow a given variable order up to unit
propagation.

Or-nodes are decision nodes exclusively, so determinism is structural.
After every decision and its unit propagation the residual formula is split
into connected components, compiled independently under an and-node;
a component met again is shared through a cache.

Three modes:

  FREE       decide any component variable, earliest in the order first.
  XD_FIRST   same decision rule; unit propagation may assign inner literals
             at any time (sound when the instance's transformation function
             is a product homomorphism on the values that actually cross).
  X_FIRST    outer variables strictly precede inner ones in every branch:
             inner decisions wait until the component has no outer variable
             left, inner unit clauses are held back until that boundary (a
             block records the ones it holds and propagates them first once
             no outer literal is left), and component splits keep at most one
             outer-containing block so the circuit satisfies the strict
             outer-first shape.

No node copies or rescans the residual formula; the layout follows sharpSAT
(Thurley, SAT 2006):

  Trail. Clauses get ids once, in sorted order of their sorted literal
      tuples, and occurrence lists are built once. One assignment with a
      trail, plus a count of true and of non-false literals per clause, sets
      a literal by walking only its two occurrence lists and undoes it on
      backtrack. X_FIRST also counts each clause's unassigned outer
      literals, which tells when a block has no outer variable left.
  Unit order. Propagation takes the eligible unit clause that comes first
      in sorted order of the clauses as they read when the propagation
      began, so and-nodes list implied literals in a fixed order.
  Components. One traversal of the parent component's unassigned
      variables, in increasing order, over the occurrence lists of the
      unsatisfied clauses finds the child components, ordered by their
      smallest variable, and keys each one as it visits its clauses.
  Cache. A component is keyed by its residual: the sorted ids of its
      distinct residual clauses, each an unsatisfied clause's unassigned
      literals. A clause that lost no literal is its own id; a shortened one
      is interned, so (-3 1 2) with 1 false gets the id of (-3 2) whatever
      clause it came from. An X_FIRST block merged from several components
      is keyed by the union of their ids. The key is exact: the residual
      fixes the component's variables, its held units and whether outer
      literals remain, which is all its compile reads, so equal keys compile
      to the same node. Only components are cached: the decision points,
      plus X_FIRST pure-inner blocks that hold inner units and so propagate
      before they decide.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from heapq import heappop, heappush

from .circuit import AND, LIT, OR, Circuit
from .cnf import LabeledCnf
from .errors import CapacityError, ConfigError, PreconditionError

DEFAULT_BUDGET = 256 << 20  # bytes
# Bytes charged against the budget, fitted to tracemalloc peaks of compiles
# in every mode: the occurrence lists, per-clause arrays and residual table
# per literal, a node (its hash-consing key, dict slot and id, plus its slots
# in the circuit's arrays), a cache entry or interned residual clause with
# their dict slots, and a child, key element, component variable or literal
# of a residual.
_LITERAL_BYTES = 220
_NODE_BYTES = 160
_ENTRY_BYTES = 60
_ELEMENT_BYTES = 8
_TRUE = -1  # the result of an empty residual; its node is built only as a root
_UNSET = sys.maxsize  # trail position of an unassigned variable


class CompileMode(enum.Enum):
    FREE = "free"
    X_FIRST = "x"
    XD_FIRST = "xd"


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


class _Compilation:
    """One compile. A component is a tuple (cache key, sorted variables,
    propagation heap entries of its held unit clauses, outer literal
    occurrences); the last two are only kept in X_FIRST mode."""

    def __init__(self, cnf: LabeledCnf, order, mode: CompileMode, cache_budget: int):
        if frozenset(order) != cnf.variables:
            raise PreconditionError("variable order is not a permutation of the theory's variables")
        if cache_budget <= 0:
            raise ConfigError(f"cache budget must be positive, got {cache_budget} bytes")
        self.cnf = cnf
        self.cache_budget = cache_budget
        n = cnf.num_vars
        self.x_first = mode is CompileMode.X_FIRST
        # decision rank by variable: order position, outer variables first in X_FIRST
        self.is_outer = [False] * (n + 1)
        if self.x_first:
            order = [v for v in order if v in cnf.outer_vars] + [
                v for v in order if v not in cnf.outer_vars]
            for v in cnf.outer_vars:
                self.is_outer[v] = True
        self.by_rank = tuple(order)
        self.rank = [0] * (n + 1)
        for i, v in enumerate(order):
            self.rank[v] = i
        self.clauses = sorted({tuple(sorted(cl)) for cl in cnf.clauses})
        self.cvars = [tuple(map(abs, cl)) for cl in self.clauses]
        # lists indexed by a literal in -n..n: a negative one counts from the end
        self.occ = occ = [[] for _ in range(2 * n + 1)]
        for c, cl in enumerate(self.clauses):
            for l in cl:
                occ[l].append(c)
        self.vocc = [occ[v] + occ[-v] for v in range(n + 1)]
        self.nsat = [0] * len(self.clauses)  # true literals per clause
        self.nlive = list(map(len, self.clauses))  # non-false literals per clause
        # unassigned outer literals per clause; all zero outside X_FIRST
        self.nout = [sum(map(self.is_outer.__getitem__, cv)) for cv in self.cvars]
        self.free = [True] * (n + 1)
        self.pos = [_UNSET] * (n + 1)
        self.trail: list[int] = []
        self.stamp = 0  # one per component traversal, marking what it visited
        self.vmark = [0] * (n + 1)
        self.cmark = [0] * len(self.clauses)
        self.stats = CompileStats()
        self.circuit = Circuit(n, stats=self.stats)
        self.index: dict[tuple, int] = {}  # (kind, value, *children) -> node id
        self.lit_ids: dict[int, int] = {}
        self.cache: dict[tuple, int] = {}
        # residual clause -> id; a clause that lost no literal is its own id
        self.residual_ids = {cl: c for c, cl in enumerate(self.clauses)}

    # -------------------------------------------------------- node building

    def _budget(self, extra: int):
        self.stats.bytes_estimate += extra
        if self.stats.bytes_estimate > self.cache_budget:
            raise CapacityError("compilation exceeded the cache budget", self.stats)

    def _new(self, kind: int, val: int, children=()) -> int:
        self.stats.nodes += 1
        self.stats.edges += len(children)
        self._budget(_NODE_BYTES + _ELEMENT_BYTES * len(children))
        return self.circuit.add(kind, val, children)

    def _mk(self, kind: int, val: int, children=()) -> int:
        key = (kind, val, *children)
        got = self.index.get(key)
        if got is None:
            got = self.index[key] = self._new(kind, val, children)
        return got

    def _lit(self, lit: int) -> int:
        got = self.lit_ids.get(lit)
        if got is None:
            got = self.lit_ids[lit] = self._new(LIT, lit)
        return got

    def _false(self) -> int:
        return self._mk(OR, 0)

    def _and(self, children) -> int:
        if len(children) == 1:
            return children[0]
        return self._mk(AND, 0, children)

    def _decision(self, var: int, pos: int, neg: int) -> int:
        hi = self._lit(var) if pos == _TRUE else self._and((self._lit(var), pos))
        lo = self._lit(-var) if neg == _TRUE else self._and((self._lit(-var), neg))
        return self._mk(OR, var, (hi, lo))

    # ------------------------------------------------------------ the trail

    def _assign(self, lit):
        """Make `lit` true. Returns (conflict, ids of the clauses it left
        unit, outer literal occurrences it removed from unsatisfied clauses)."""
        v = lit if lit > 0 else -lit
        self.free[v] = False
        self.pos[v] = len(self.trail)
        self.trail.append(lit)
        nsat, nlive = self.nsat, self.nlive
        drop = 0
        if self.x_first:
            nout = self.nout
            for c in self.occ[lit]:
                if not nsat[c]:
                    drop += nout[c]
                nsat[c] += 1
            if self.is_outer[v]:
                for c in self.vocc[v]:
                    nout[c] -= 1
                    if not nsat[c]:
                        drop += 1
        else:
            for c in self.occ[lit]:
                nsat[c] += 1
        units = []
        conflict = False
        for c in self.occ[-lit]:
            k = nlive[c] - 1
            nlive[c] = k
            if not nsat[c]:
                if k == 1:
                    units.append(c)
                elif not k:
                    conflict = True
        return conflict, units, drop

    def _undo(self, mark: int):
        trail, occ, vocc = self.trail, self.occ, self.vocc
        nsat, nlive, nout, is_outer = self.nsat, self.nlive, self.nout, self.is_outer
        while len(trail) > mark:
            lit = trail.pop()
            v = lit if lit > 0 else -lit
            self.free[v] = True
            self.pos[v] = _UNSET
            for c in occ[lit]:
                nsat[c] -= 1
            for c in occ[-lit]:
                nlive[c] += 1
            if is_outer[v]:
                for c in vocc[v]:
                    nout[c] += 1

    # ------------------------------------------------------------- semantics

    def _propagate(self, cands, n_outer, held=()):
        """Exhaustive unit propagation from the unit clauses `cands` and the
        heap entries `held` of inner unit clauses held back above the block;
        in X_FIRST mode inner units wait while `n_outer`, the outer literal
        occurrences left in the block, is positive. Returns (implied literals,
        conflict flag); the literals stay on the trail."""
        if not cands and not held:
            return [], False
        snap = len(self.trail)
        clauses, pos, free, nsat = self.clauses, self.pos, self.free, self.nsat
        is_outer = self.is_outer
        outer_heap: list = []
        inner_heap: list = []
        # entries of inner units not yet in the heap; an entry stays valid
        # until its clause is satisfied
        waiting = list(held)

        def entry(c):
            # ordered by the clause as it read at `snap`
            reads = tuple([l for l in clauses[c] if pos[l if l > 0 else -l] >= snap])
            for unit in reads:
                if free[unit if unit > 0 else -unit]:
                    return reads, c, unit

        def push(c):
            e = entry(c)
            if is_outer[abs(e[2])]:
                heappush(outer_heap, e)
            elif n_outer:
                waiting.append(e)
            else:
                heappush(inner_heap, e)

        for c in cands:
            push(c)
        implied: list[int] = []
        while True:
            if n_outer:
                heap = outer_heap
            else:
                heap = inner_heap
                for e in waiting:
                    if not nsat[e[1]]:
                        heappush(heap, e)
                waiting.clear()
            while heap and nsat[heap[0][1]]:
                heappop(heap)
            if not heap:
                self.stats.propagations += len(implied)
                return implied, False
            unit = heappop(heap)[2]
            implied.append(unit)
            conflict, units, drop = self._assign(unit)
            if conflict:
                self.stats.propagations += len(implied)
                return implied, True
            n_outer -= drop
            for c in units:
                push(c)

    def _split(self, variables):
        """The components of the unsatisfied clauses over the unassigned
        `variables`, keyed by the traversal that finds them."""
        self.stamp += 1
        stamp = self.stamp
        vmark, cmark, free, nsat, nlive = self.vmark, self.cmark, self.free, self.nsat, self.nlive
        vocc, cvars, clauses, ids = self.vocc, self.cvars, self.clauses, self.residual_ids
        comps = []
        for v in variables:
            if not free[v] or vmark[v] == stamp:
                continue
            vmark[v] = stamp
            found = [v]
            cids = []
            key = set()  # ids of the distinct residuals
            for u in found:
                for c in vocc[u]:
                    if nsat[c] or cmark[c] == stamp:
                        continue
                    cmark[c] = stamp
                    cids.append(c)
                    cv = cvars[c]
                    if nlive[c] == len(cv):
                        # every variable is free: the clause is its own residual
                        key.add(c)
                        for w in cv:
                            if vmark[w] != stamp:
                                vmark[w] = stamp
                                found.append(w)
                        continue
                    residual = []
                    for l in clauses[c]:
                        w = l if l > 0 else -l
                        if free[w]:
                            residual.append(l)
                            if vmark[w] != stamp:
                                vmark[w] = stamp
                                found.append(w)
                    residual = tuple(residual)
                    i = ids.get(residual)
                    if i is None:
                        i = ids[residual] = len(ids)
                        self._budget(_ENTRY_BYTES + _ELEMENT_BYTES * len(residual))
                    key.add(i)
            if cids:
                comps.append((key, found, cids))
        if not self.x_first:
            return [(tuple(sorted(key)), tuple(sorted(found)), (), 0) for key, found, _ in comps]
        # keep the strict outer-first shape: pure-outer components may split
        # off, everything else stays one block while a mixed component exists
        is_outer = self.is_outer
        outer_vars = [sum(map(is_outer.__getitem__, found)) for _, found, _ in comps]
        if any(0 < k < len(comp[1]) for k, comp in zip(outer_vars, comps)):
            rest = [comp for comp, k in zip(comps, outer_vars) if k < len(comp[1])]
            comps = [comp for comp, k in zip(comps, outer_vars) if k == len(comp[1])]
            comps.append((set().union(*[key for key, _, _ in rest]),
                          [v for _, found, _ in rest for v in found],
                          [c for _, _, cids in rest for c in cids]))
        # a held unit clause reads as its unit alone at any later propagation
        nout = self.nout
        return [(tuple(sorted(key)), tuple(sorted(found)),
                 [((u,), c, u) for c in cids if nlive[c] == 1
                  for u in clauses[c] if free[u if u > 0 else -u]],
                 sum(map(nout.__getitem__, cids)))
                for key, found, cids in comps]

    def _expand(self, variables, cands, n_outer, held=()) -> int:
        """Propagate, then compile the components over `variables`; the
        caller undoes the trail."""
        lits, conflict = self._propagate(cands, n_outer, held)
        if conflict:
            return self._false()
        blocks = self._split(variables)
        if not lits and not blocks:
            return _TRUE
        # blocks are non-empty, so no child is _TRUE
        children = [self._lit(l) for l in lits]
        for block in blocks:
            children.append(self._component(block))
        return self._and(children)

    def _component(self, comp) -> int:
        key = comp[0]
        got = self.cache.get(key)
        if got is not None:
            self.stats.cache_hits += 1
            return got
        if comp[2] and not comp[3]:
            # an X_FIRST pure-inner block with held units: these propagate,
            # so the block never comes back whole as one child
            mark = len(self.trail)
            result = self._expand(comp[1], (), 0, comp[2])
            self._undo(mark)
        else:
            result = self._decide(comp)
        self.cache[key] = result
        self.stats.cache_entries += 1
        # the variables are held along the recursion while the component compiles
        self._budget(_ENTRY_BYTES + _ELEMENT_BYTES * (len(key) + len(comp[1])))
        return result

    def _decide(self, comp) -> int:
        v = self.by_rank[min(map(self.rank.__getitem__, comp[1]))]
        self.stats.decisions += 1
        pos = self._branch(comp, v)
        neg = self._branch(comp, -v)
        return self._decision(v, pos, neg)

    def _branch(self, comp, lit) -> int:
        mark = len(self.trail)
        conflict, units, drop = self._assign(lit)
        if conflict:
            result = self._false()
        else:
            result = self._expand(comp[1], units, comp[3] - drop, comp[2])
        self._undo(mark)
        return result

    def run(self) -> Circuit:
        clauses = self.clauses
        limit = sys.getrecursionlimit()
        # four frames per nested decision: component, decide, branch, expand
        needed = 4 * self.cnf.num_vars + 1000
        if needed > limit:
            sys.setrecursionlimit(needed)
        try:
            self._budget(_LITERAL_BYTES * sum(map(len, clauses)))
            if clauses and not clauses[0]:
                root = self._false()
            else:
                units = [c for c, cl in enumerate(clauses) if len(cl) == 1]
                root = self._expand(range(1, self.cnf.num_vars + 1), units, sum(self.nout))
        finally:
            sys.setrecursionlimit(limit)
        if root == _TRUE:
            root = self._mk(AND, 0)
        self.circuit.root = root
        return self.circuit


def compile_cnf(
    cnf: LabeledCnf,
    order,
    mode: CompileMode = CompileMode.XD_FIRST,
    cache_budget: int = DEFAULT_BUDGET,
) -> Circuit:
    """Compile the theory along `order`, a sequence of its variables, into a
    deterministic decomposable circuit whose models equal the theory's
    models; statistics are attached to the result.

    Raises CapacityError carrying partial statistics when `cache_budget`
    bytes are exhausted, PreconditionError when the order does not cover
    exactly the theory's variables, and ConfigError when the budget is not
    positive.
    """
    return _Compilation(cnf, order, mode, cache_budget).run()
