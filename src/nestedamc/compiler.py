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

Smoothness. A decision whose branches mention different variables pads
each branch, before the or-node is built, with (v or not v) gates for the
variables only the other mentions, under `circuit.Padding`'s rule: inner
gates go below the outer-variable structure. So every or-node is smooth and
the circuit is the DAG `smooth` would make of the unpadded one; a root that
misses a variable is left for `smooth` to pad. The budget counts the gates.

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
  Components. A block carries int bitmasks of its live clauses, of its
      shortened clauses (with the bit of each one's interned residual), of
      its variables and of their decision ranks. The root's blocks come from
      one walk over its live clauses, which interns residuals as it goes.
      Every other block is derived: after a decision and its propagation
      the child's residual comes from the parent's masks and the occurrence
      masks of the new trail literals; clauses they satisfy leave, clauses
      they shorten are interned again. The whole child is looked up in the
      cache before it is partitioned, since equal keys mean equal residuals
      and a residual fixes its split. On a miss the search walks the live
      clauses from the free variables next to the new literals, the seeds.
      Every component of a connected parent holds a seed, so the search
      stops on reaching the last one: that component is the child less the
      parts walked before. In an X_FIRST merged block each seed's region is
      walked to its end, and the untouched rest keeps its class; it is
      walked apart only when no mixed part remains. Components are ordered
      by their smallest variable; the next decision is the lowest bit of
      the rank mask.
  Cache. A component is keyed by its residual: the ids of its distinct
      residual clauses, each an unsatisfied clause's unassigned literals,
      held as an int with one bit per id. A clause that lost no literal is
      its own id; a shortened one is interned, so (-3 1 2) with 1 false gets
      the id of (-3 2) whatever clause it came from. An X_FIRST block merged
      from several components is keyed by the union of their ids. The key
      is exact: the residual fixes the component's variables, its held units
      and whether outer literals remain, which is all its compile reads, so
      equal keys compile to the same node. Only components are cached: the
      decision points, plus X_FIRST pure-inner blocks that hold inner units
      and so propagate before they decide.

Root templates. When the root splits into several blocks, each whole one is
keyed by its shape: its residual clauses in clause-id order, each variable
renamed by its rank among the block's variables sorted by id, the same
renamed variables listed by decision rank, and which of them are outer.
The renaming is monotone, so literal order, clause order and the order of
components by smallest variable are all kept, and a block of a shape met
before would compile to the first one's nodes with its variables renamed.
So the first block of a shape compiles, and each later one copies that
compile's nodes in id order through the renaming, straight into the
circuit: a copy is over new variables, so it is a new node, save the false
node and any node made before the template, which stay shared. The copy
adds the template's counters, and its cache entries count towards the
budget without being stored: no later block can meet them. X_FIRST merged
blocks are never whole and always compile.
"""

from __future__ import annotations

import enum
import sys
from dataclasses import dataclass
from heapq import heappop, heappush

from .circuit import AND, LIT, OR, Circuit, Padding
from .cnf import LabeledCnf, renamed
from .errors import CapacityError, ConfigError, PreconditionError

DEFAULT_BUDGET = 256 << 20  # bytes
# Bytes the budget counts, fitted to tracemalloc peaks of compiles in every
# mode: per literal of the theory its occurrence lists, clause arrays and
# residual table; per variable its slots in the per-variable arrays and its
# share of the recursion; then per node of the circuit built so far its
# hash-consing key, dict slot and id, its slots in the circuit's arrays and
# its share of the cache; and per child its slots in the key and the arrays
_LITERAL_BYTES = 160
_VARIABLE_BYTES = 360
_NODE_BYTES = 152
_EDGE_BYTES = 18
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
    """One compile. A block is a tuple (key, live clauses, residual bits of
    its shortened clauses by clause bit, shortened clauses, variables, ranks,
    held units, outer occurrences, whole). The key, the live and shortened
    clauses, the variables and the ranks are int bitmasks over residual
    ids, clause ids, variable ids and decision ranks. Held units are
    the propagation heap entries of its inner unit clauses held back above
    it, and outer occurrences count the unassigned outer literals of its
    clauses; both stay empty outside X_FIRST. A block is whole when it is
    connected, and not whole when X_FIRST merged it from several
    components."""

    # slots: the hot methods read many attributes, and slot reads are cheaper
    __slots__ = ("cnf", "cache_budget", "theory_bytes", "x_first", "is_outer", "by_rank",
                 "rank", "clauses", "cvars", "occ", "vocc", "occm", "near", "inner", "nsat",
                 "nlive", "nout", "free", "pos", "trail", "stamp", "vmark", "cmark",
                 "smark", "stats", "circuit", "index", "lit_ids", "padding", "cache", "cbit",
                 "residual_bits", "copied_entries")

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
        self.theory_bytes = _theory_bytes(self.clauses, n)
        self.cvars = [tuple(map(abs, cl)) for cl in self.clauses]
        # lists indexed by a literal in -n..n: a negative one counts from the end
        self.occ = occ = [[] for _ in range(2 * n + 1)]
        for c, cl in enumerate(self.clauses):
            for l in cl:
                occ[l].append(c)
        self.vocc = [occ[v] + occ[-v] for v in range(n + 1)]
        self.occm = self.near = None  # the same as bitmasks, see _build_masks
        self.inner = sum(1 << v for v in cnf.inner_vars) if self.x_first else 0
        self.nsat = [0] * len(self.clauses)  # true literals per clause
        self.nlive = list(map(len, self.clauses))  # non-false literals per clause
        # unassigned outer literals per clause; all zero outside X_FIRST
        if self.x_first:
            self.nout = [sum(map(self.is_outer.__getitem__, cv)) for cv in self.cvars]
        else:
            self.nout = [0] * len(self.clauses)
        self.free = [True] * (n + 1)
        self.pos = [_UNSET] * (n + 1)
        self.trail: list[int] = []
        self.stamp = 0  # one per split and per walk, marking what it visited
        self.vmark = [0] * (n + 1)
        self.cmark = [0] * len(self.clauses)
        self.smark = [0] * (n + 1)  # the split whose seed a variable is
        self.stats = CompileStats()
        self.circuit = Circuit(n, stats=self.stats)
        self.index: dict[tuple, int] = {}  # (kind, value, *children) -> node id
        self.lit_ids: dict[int, int] = {}
        # it holds _mk and _lit, so run drops it: no cycle keeps the compile alive
        self.padding = Padding(self.circuit, self._mk, self._lit,
                               sum(1 << v for v in cnf.outer_vars))
        self.cache: dict[int, int] = {}
        self.copied_entries = 0  # the cache entries of the root's copied blocks
        self.cbit = [1 << c for c in range(len(self.clauses))]  # bit by clause id
        # residual clause -> bit of its id; a clause that lost no literal is its own id
        self.residual_bits = dict(zip(self.clauses, self.cbit))

    # -------------------------------------------------------- node building

    def _budget(self):
        """Copy the circuit's and the cache's sizes into the statistics, with
        the bytes they come to, and stop the compile once those pass the
        budget. Run at each cache store, so between two checks a compile adds
        at most one decision's nodes, and once at the end."""
        circuit, stats = self.circuit, self.stats
        stats.nodes = circuit.node_count
        stats.edges = circuit.edge_count
        stats.cache_entries = len(self.cache) + self.copied_entries
        stats.bytes_estimate = (self.theory_bytes + _NODE_BYTES * stats.nodes
                                + _EDGE_BYTES * stats.edges)
        if stats.bytes_estimate > self.cache_budget:
            raise CapacityError("compilation exceeded the cache budget", stats)

    def _mk(self, kind: int, val: int, children=()) -> int:
        key = (kind, val, *children)
        got = self.index.get(key)
        if got is None:
            got = self.index[key] = self.circuit.add(kind, val, children)
        return got

    def _lit(self, lit: int) -> int:
        got = self.lit_ids.get(lit)
        if got is None:
            got = self.lit_ids[lit] = self.circuit.add(LIT, lit)
        return got

    def _false(self) -> int:
        return self._mk(OR, 0)

    def _and(self, children) -> int:
        if len(children) == 1:
            return children[0]
        return self._mk(AND, 0, children)

    def _decision(self, var: int, pos: int, neg: int) -> int:
        # each branch is padded by the variables only the other one mentions
        masks = self.circuit.masks
        bit = 1 << var
        mh = bit if pos == _TRUE else bit | masks[pos]
        ml = bit if neg == _TRUE else bit | masks[neg]
        hi = (self._lit(var),) if pos == _TRUE else (self._lit(var), pos)
        hi = self.padding.pad_and(hi, ml & ~mh) if ml & ~mh else self._and(hi)
        lo = (self._lit(-var),) if neg == _TRUE else (self._lit(-var), neg)
        lo = self.padding.pad_and(lo, mh & ~ml) if mh & ~ml else self._and(lo)
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
        trail, occ, vocc, free, pos = self.trail, self.occ, self.vocc, self.free, self.pos
        nsat, nlive, nout, is_outer = self.nsat, self.nlive, self.nout, self.is_outer
        while len(trail) > mark:
            lit = trail.pop()
            v = lit if lit > 0 else -lit
            free[v] = True
            pos[v] = _UNSET
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
        conflict flag, outer occurrences left); the literals stay on the
        trail."""
        if not cands and not held:
            return [], False, n_outer
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
                return implied, False, n_outer
            unit = heappop(heap)[2]
            implied.append(unit)
            conflict, units, drop = self._assign(unit)
            if conflict:
                self.stats.propagations += len(implied)
                return implied, True, n_outer
            n_outer -= drop
            for c in units:
                push(c)

    def _split(self, parent, lits, n_outer):
        """The blocks left of the parent block once `lits`, the literals set
        since it was split off, are true; `n_outer` is what propagation left
        of its outer occurrences."""
        child = self._derive(parent, lits, n_outer)
        if child is None:
            return ()
        if child[0] in self.cache:
            # equal keys mean equal residuals, which split alike: the child
            # is the one block the cache holds
            return (child,)
        return self._search(child, lits)

    def _derive(self, parent, lits, n_outer):
        """The parent block less the clauses that `lits` satisfy, with the
        clauses they shorten interned again, or None when nothing is left.
        Its variables and ranks still hold those of `lits` and of variables
        whose clauses all left."""
        _, live, short, shortm, variables, ranks, held, _, whole = parent
        if self.occm is None:
            self._build_masks()
        occm = self.occm
        sat = hit = 0
        for l in lits:
            sat |= occm[l]
            hit |= occm[-l]
        live &= ~sat
        if not live:
            return None
        touched = live & hit
        gone = shortm & sat
        if held:
            nsat = self.nsat
            held = [e for e in held if not nsat[e[1]]]
        if gone or touched:
            short = dict(short)
            while gone:
                low = gone & -gone
                del short[low]
                gone ^= low
            shortm = shortm & live | touched
            nlive = self.nlive
            while touched:
                low = touched & -touched
                touched ^= low
                c = low.bit_length() - 1
                short[low] = self._residual(c)
                if nlive[c] == 1:
                    held = [*held, self._held(c)]
        key = live & ~shortm
        for r in short.values():
            key |= r
        return (key, live, short, shortm, variables, ranks, held, n_outer, whole)

    def _search(self, child, lits):
        """The blocks of a derived child, walked from the free variables next
        to `lits`, the seeds. Every component of a whole child holds a seed,
        so the search stops on reaching the last one: its component is what
        the others leave. A merged child's seed regions are walked to their
        end, and what they leave is its untouched parts."""
        key, live, short, shortm, variables, ranks, held, n_outer, whole = child
        occm, rank, near, smark = self.occm, self.rank, self.near, self.smark
        gone_v = gone_r = around = 0
        for l in lits:
            v = l if l > 0 else -l
            gone_v |= 1 << v
            gone_r |= 1 << rank[v]
            around |= near[v]
        self.stamp += 1
        base = self.stamp
        seeds = []
        around &= variables & ~gone_v
        while around:
            low = around & -around
            around ^= low
            v = low.bit_length() - 1
            if (occm[v] | occm[-v]) & live:
                smark[v] = base
                seeds.append(v)
            else:  # every clause of v is satisfied
                gone_v |= low
                gone_r |= 1 << rank[v]
        child = (key, live, short, shortm, variables & ~gone_v, ranks & ~gone_r, held,
                 n_outer, whole)
        parts = self._walk(seeds, short, base, len(seeds) if whole else -1)
        return self._group(parts, self._minus(child, parts) if parts else child)

    def _build_masks(self):
        """The clauses of each literal and the variables sharing a clause
        with each variable, as bitmasks: built for the first split that
        derives a child."""
        self.occm = occm = [0] * len(self.occ)
        self.near = near = [0] * len(self.vocc)
        for b, cl, cv in zip(self.cbit, self.clauses, self.cvars):
            m = 0
            for v in cv:
                m |= 1 << v
            for l in cl:
                occm[l] |= b
            for v in cv:
                near[v] |= m

    def _residual(self, c) -> int:
        """The bit of the id of clause c's residual, its unassigned literals."""
        free = self.free
        residual = tuple([l for l in self.clauses[c] if free[l if l > 0 else -l]])
        bits = self.residual_bits
        # a residual met for the first time gets the bit of the next id
        return bits.get(residual) or bits.setdefault(residual, 1 << len(bits))

    def _held(self, c):
        """The heap entry of the held unit clause c, which reads as its unit
        alone at any later propagation."""
        free = self.free
        for u in self.clauses[c]:
            if free[u if u > 0 else -u]:
                return (u,), c, u

    def _group(self, parts, rest):
        """The blocks of a child found as walked parts plus the rest, if
        any, ordered by their smallest variable."""
        if rest is not None:
            parts.append(rest)
        if not self.x_first:
            if len(parts) > 1:
                parts.sort(key=_lowest)
            return parts
        # keep the strict outer-first shape: pure-outer components may split
        # off, everything else stays one block while a mixed component exists.
        # The rest of a merged block is whole components that keep their
        # class, so it holds a mixed one exactly when outer literals remain.
        inner = self.inner
        if not any(b[7] and b[4] & inner for b in parts):
            if rest is not None and not rest[8]:
                parts.pop()
                parts += self._walk(_bits(rest[4]), rest[2])
            parts.sort(key=_lowest)
            return parts
        blocks = sorted((b for b in parts if not b[4] & inner), key=_lowest)
        blocks.append(self._merge([b for b in parts if b[4] & inner]))
        return blocks

    def _walk(self, starts, short, base=-1, left=-1):
        """The blocks of the components of the free variables `starts`, each
        walked over the live clauses from the first of its variables met,
        with the residual bits of its shortened clauses taken from `short`
        when it is current, else interned. Components come in the order of
        their smallest variable when `starts` is sorted. `left` counts the
        seeds of split `base` not reached yet: the walk stops, returning the
        blocks found so far, before it would reach the last one. A negative
        count never stops it."""
        self.stamp += 1
        stamp = self.stamp
        vmark, cmark, smark = self.vmark, self.cmark, self.smark
        free, nsat, nlive, vocc, cvars = self.free, self.nsat, self.nlive, self.vocc, self.cvars
        cbit, rank = self.cbit, self.rank
        parts = []
        for v in starts:
            if not free[v] or vmark[v] == stamp:
                continue
            left -= 1
            if not left:
                return parts
            vmark[v] = stamp
            found = [v]
            cids = []
            for u in found:
                for c in vocc[u]:
                    if nsat[c] or cmark[c] == stamp:
                        continue
                    cmark[c] = stamp
                    cids.append(c)
                    for w in cvars[c]:
                        if vmark[w] != stamp and free[w]:
                            vmark[w] = stamp
                            found.append(w)
                            if smark[w] == base:
                                left -= 1
                                if not left:
                                    return parts
            if not cids:  # every clause of v is satisfied
                continue
            shortened = {}
            # the bits of the clauses that lost no literal, and of the others' residuals
            plain = residuals = shortm = 0
            for c in cids:
                b = cbit[c]
                if nlive[c] < len(cvars[c]):
                    r = shortened[b] = self._residual(c) if short is None else short[b]
                    residuals |= r
                    shortm += b
                else:
                    plain += b
            if self.x_first:
                held = [self._held(c) for c in cids if nlive[c] == 1]
                n_outer = sum(map(self.nout.__getitem__, cids))
            else:
                held, n_outer = (), 0
            variables = ranks = 0
            for w in found:
                variables += 1 << w
                ranks += 1 << rank[w]
            parts.append((plain | residuals, plain | shortm, shortened, shortm, variables, ranks,
                          held, n_outer, True))
        return parts

    def _minus(self, child, parts):
        """What is left of the child block without its walked parts, or None."""
        got = self._merge(parts)
        live = child[1] & ~got[1]
        if not live:
            return None
        short = dict(child[2])
        for b in got[2]:
            del short[b]
        return (child[0] & ~got[0], live, short, child[3] & live, child[4] & ~got[4],
                child[5] & ~got[5], [e for e in child[6] if live >> e[1] & 1],
                child[7] - got[7], child[8])

    def _merge(self, blocks):
        """One block of several, which is whole only if it is one whole
        block."""
        if len(blocks) == 1:
            return blocks[0]
        key = live = shortm = variables = ranks = n_outer = 0
        short = {}
        held = []
        for b in blocks:
            key |= b[0]
            live |= b[1]
            short.update(b[2])
            shortm |= b[3]
            variables |= b[4]
            ranks |= b[5]
            held += b[6]
            n_outer += b[7]
        return (key, live, short, shortm, variables, ranks, held, n_outer, False)

    def _expand(self, parent, lit, cands, n_outer, held=()) -> int:
        """Propagate, then compile the blocks left of the parent block, None
        at the root, once its decision literal `lit` (0 if none) is set; the
        caller undoes the trail."""
        implied, conflict, n_outer = self._propagate(cands, n_outer, held)
        if conflict:
            return self._false()
        if parent is None:
            blocks = self._group(self._walk(range(1, self.cnf.num_vars + 1), None), None)
        else:
            blocks = self._split(parent, (lit, *implied) if lit else implied, n_outer)
        if not implied and not blocks:
            return _TRUE
        # blocks are non-empty, so no child is _TRUE
        children = [self._lit(l) for l in implied]
        if parent is None and len(blocks) > 1:
            children += self._root_components(blocks)
        else:
            for block in blocks:
                children.append(self._component(block))
        return self._and(children)

    def _root_components(self, blocks):
        """The nodes of the root's blocks: a whole block of a shape met
        before is a copy of the first one's nodes (see Root templates)."""
        clauses, free, nlive = self.clauses, self.free, self.nlive
        by_rank, outer = self.by_rank, self.cnf.outer_vars
        circuit = self.circuit
        templates = {}  # shape -> (variables, first node, end node, root, counters)
        nodes = []
        for block in blocks:
            if not block[8]:
                nodes.append(self._component(block))
                continue
            variables = list(_bits(block[4]))
            # a clause that lost no literal is its own residual
            residual, local = renamed([[l for l in clauses[c] if free[l if l > 0 else -l]]
                                       if nlive[c] < len(clauses[c]) else clauses[c]
                                       for c in _bits(block[1])], variables)
            shape = (tuple(residual), tuple([local[by_rank[r]] for r in _bits(block[5])]),
                     tuple([v in outer for v in variables]))
            template = templates.get(shape)
            if template is not None:
                nodes.append(self._copy(template, variables))
                continue
            lo, before = circuit.node_count, self._counters()
            nodes.append(self._component(block))
            templates[shape] = (variables, lo, circuit.node_count, nodes[-1],
                                [a - b for a, b in zip(self._counters(), before)])
        return nodes

    def _counters(self):
        """The counters a root copy adds: decisions, propagations, cache
        hits and cache entries."""
        stats = self.stats
        return stats.decisions, stats.propagations, stats.cache_hits, len(self.cache)

    def _copy(self, template, variables) -> int:
        """The root of a template block's nodes built again over `variables`,
        with the template's counters added."""
        tvars, lo, hi, root, (decisions, propagations, hits, entries) = template
        circuit = self.circuit
        vals, offsets, kids, masks, add = (circuit.vals, circuit.offsets, circuit.kids,
                                          circuit.masks, circuit.add)
        rename = [0] * (tvars[-1] + 1)
        for v, w in zip(tvars, variables):
            rename[v] = w
        ids = []
        for i, kind in enumerate(circuit.kinds[lo:hi], lo):
            if not masks[i]:  # the false node
                ids.append(i)
                continue
            val = vals[i]
            val = rename[val] if val >= 0 else -rename[-val]
            ids.append(add(kind, val, [c if c < lo else ids[c - lo]
                                       for c in kids[offsets[i]:offsets[i + 1]]]))
        stats = self.stats
        stats.decisions += decisions
        stats.propagations += propagations
        stats.cache_hits += hits
        self.copied_entries += entries
        self._budget()
        return root if root < lo else ids[root - lo]

    def _component(self, comp) -> int:
        key = comp[0]
        got = self.cache.get(key)
        if got is not None:
            self.stats.cache_hits += 1
            return got
        if comp[6] and not comp[7]:
            # an X_FIRST pure-inner block with held units: these propagate,
            # so the block never comes back whole as one child
            mark = len(self.trail)
            result = self._expand(comp, 0, (), 0, comp[6])
            self._undo(mark)
        else:
            result = self._decide(comp)
        self.cache[key] = result
        self._budget()
        return result

    def _decide(self, comp) -> int:
        ranks = comp[5]
        v = self.by_rank[(ranks & -ranks).bit_length() - 1]
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
            result = self._expand(comp, lit, units, comp[7] - drop, comp[6])
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
            if clauses and not clauses[0]:
                root = self._false()
            else:
                units = [c for c, cl in enumerate(clauses) if len(cl) == 1]
                root = self._expand(None, 0, units, sum(self.nout))
        finally:
            sys.setrecursionlimit(limit)
            self.padding = None
        if root == _TRUE:
            root = self._mk(AND, 0)
        self._budget()
        self.circuit.root = root
        return self.circuit


def _bits(mask):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _theory_bytes(clauses, num_vars: int) -> int:
    """The bytes the budget counts for a theory before the compile builds a
    node, from its clauses and its variable count."""
    return _LITERAL_BYTES * sum(map(len, clauses)) + _VARIABLE_BYTES * num_vars


def check_theory_budget(cnf: LabeledCnf, cache_budget: int) -> None:
    """Refuse, before any order is planned, a budget that every compile of
    the theory would exceed: ConfigError when it is not positive, and the
    compile's CapacityError when the theory's own share passes it."""
    if cache_budget <= 0:
        raise ConfigError(f"cache budget must be positive, got {cache_budget} bytes")
    if _theory_bytes(cnf.clauses, cnf.num_vars) > cache_budget:
        # the compile counts a repeated clause once
        need = _theory_bytes({tuple(sorted(cl)) for cl in cnf.clauses}, cnf.num_vars)
        if need > cache_budget:
            raise CapacityError("compilation exceeded the cache budget",
                                CompileStats(bytes_estimate=need))


def _lowest(block):
    """The sort key of a block: the bit of its smallest variable."""
    variables = block[4]
    return variables & -variables


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
