"""A small complete CDCL SAT solver with an assumption interface.

Watched literals, first-UIP clause learning, activity-based branching with
decay, geometric restarts and phase saving. Assumptions are enqueued as
pseudo-decisions below the real decision levels, so repeated queries on one
clause database reuse learned clauses.

Life cycle: a solver is built from its whole clause list, which the
constructor loads and propagates at level 0, and then only answers
`solve(assumptions)` queries; no clause enters later except the ones it
learns. Invariant: every return from `solve` leaves the solver at level 0
with the level-0 trail fully propagated (or `unsat` set, after which every
query fails), so a query starts searching at once.

The branching variable is the most active unassigned one, lowest index on
ties. It comes from a lazy heap of `(-activity, var)` entries instead of a
scan over all variables. Invariant: every unassigned variable has an entry
keyed by its current activity. A variable gets an entry when the solver is
built and each time backtracking unassigns it; activity only changes by
bumping an assigned variable, or by the rescale, after which the heap is
rebuilt. So the first popped entry whose variable is unassigned and whose
key is still current names exactly the variable the scan would pick; stale
entries are dropped as they surface, and the heap is rebuilt from the
unassigned variables when it outgrows `_HEAP_SLACK` entries per variable.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from .errors import PreconditionError

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

_VAR_DECAY = 0.95
_RESTART_BASE = 100
_RESTART_FACTOR = 1.5
_HEAP_SLACK = 4


class SatSolver:
    """A solver over variables 1..num_vars and a fixed clause list.

    The constructor loads the clauses at level 0 in one pass: it attaches
    every clause of two or more literals, enqueues the units, then propagates
    once; an empty clause or a conflicting unit sets `unsat`. No clause is
    checked: each must be free of repeated literals and tautologies and
    mention only variables up to `num_vars`.
    """

    def __init__(self, num_vars: int, clauses):
        n = num_vars
        self.num_vars = n
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {
            l: [] for v in range(1, n + 1) for l in (v, -v)
        }
        self.assign: list[int] = [_UNASSIGNED] * (n + 1)  # 1-based
        self.level: list[int] = [0] * (n + 1)
        self.reason: list[int] = [-1] * (n + 1)  # clause index or -1
        self.phase: list[bool] = [False] * (n + 1)
        self.activity: list[float] = [0.0] * (n + 1)
        self.var_inc = 1.0
        # lazy (-activity, var); sorted, so already a heap
        self.order_heap: list[tuple[float, int]] = [(-0.0, v) for v in range(1, n + 1)]
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.unsat = False
        units = []
        for cl in clauses:
            if len(cl) > 1:
                self._attach(list(cl))
            elif cl:
                units.append(cl[0])
            else:
                self.unsat = True
        for lit in units:
            if not self._enqueue(lit, -1):
                self.unsat = True
        if self._propagate() is not None:
            self.unsat = True

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def _attach(self, lits: list[int]) -> int:
        idx = len(self.clauses)
        self.clauses.append(lits)
        self.watches[lits[0]].append(idx)
        self.watches[lits[1]].append(idx)
        return idx

    # ------------------------------------------------------------ propagation

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self.value(lit)
        if val == _TRUE:
            return True
        if val == _FALSE:
            return False
        v = abs(lit)
        self.assign[v] = _TRUE if lit > 0 else _FALSE
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = lit > 0
        self.trail.append(lit)
        return True

    def _propagate(self):
        """Exhaustive unit propagation. Returns a conflicting clause or None."""
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            false_lit = -lit
            ws = self.watches[false_lit]
            i = 0
            while i < len(ws):
                ci = ws[i]
                cl = self.clauses[ci]
                if cl[0] == false_lit:
                    cl[0], cl[1] = cl[1], cl[0]
                # cl[1] == false_lit now
                if self.value(cl[0]) == _TRUE:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(cl)):
                    if self.value(cl[k]) != _FALSE:
                        cl[1], cl[k] = cl[k], cl[1]
                        self.watches[cl[1]].append(ci)
                        ws[i] = ws[-1]
                        ws.pop()
                        moved = True
                        break
                if moved:
                    continue
                # clause is unit or conflicting
                if not self._enqueue(cl[0], ci):
                    self.qhead = len(self.trail)
                    return cl
                i += 1
        return None

    # ---------------------------------------------------------------- search

    def _decide(self, lit: int):
        """Push a decision level and enqueue the literal."""
        self.trail_lim.append(len(self.trail))
        if not self._enqueue(lit, -1):
            raise PreconditionError(f"literal {lit} is already false")

    def _cancel_until(self, level: int):
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        heap, activity = self.order_heap, self.activity
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.assign[v] = _UNASSIGNED
            self.reason[v] = -1
            heappush(heap, (-activity[v], v))
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))
        if len(heap) > _HEAP_SLACK * self.num_vars:
            self._rebuild_heap()

    def _rebuild_heap(self):
        self.order_heap = [
            (-self.activity[v], v)
            for v in range(1, self.num_vars + 1)
            if self.assign[v] == _UNASSIGNED
        ]
        heapify(self.order_heap)

    def _bump(self, v: int):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100
            self._rebuild_heap()  # every key is stale now

    def _analyze(self, conflict: list[int]):
        """First-UIP conflict analysis; returns (learnt clause, backjump level)."""
        cur_level = len(self.trail_lim)
        seen = [False] * (self.num_vars + 1)
        learnt = [0]  # slot 0 holds the asserting literal
        counter = 0
        p = None
        reason_lits = list(conflict)
        idx = len(self.trail) - 1
        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learnt.append(q)
            while not seen[abs(self.trail[idx])]:
                idx -= 1
            p = self.trail[idx]
            v = abs(p)
            seen[v] = False
            idx -= 1
            counter -= 1
            if counter == 0:
                break
            reason_lits = self.clauses[self.reason[v]]
        learnt[0] = -p
        if len(learnt) == 1:
            return learnt, 0
        back = max(self.level[abs(q)] for q in learnt[1:])
        # move one literal of the backjump level into the second watch slot
        for k in range(1, len(learnt)):
            if self.level[abs(learnt[k])] == back:
                learnt[1], learnt[k] = learnt[k], learnt[1]
                break
        return learnt, back

    def _pick_branch_var(self):
        """The most active unassigned variable, lowest index on ties; 0 when
        every variable is assigned."""
        heap, assign, activity = self.order_heap, self.assign, self.activity
        while heap:
            key, v = heappop(heap)
            if assign[v] == _UNASSIGNED and -key == activity[v]:
                return v
        return 0

    def solve(self, assumptions=()) -> list[int] | None:
        """Search for a model extending the assumptions.

        Returns a total assignment as a literal list in variable order
        (`model[v - 1]` is v or -v), or None when no model extends the
        assumptions (complete procedure). Returns at level 0 with the level-0
        trail fully propagated: a learnt unit is propagated before the next
        decision, and every level above 0 is opened only after propagation.
        """
        assumptions = list(assumptions)
        if self.unsat:
            return None
        conflicts_left = _RESTART_BASE
        restart_limit = _RESTART_BASE
        while True:
            conflict = self._propagate()
            if conflict is not None:
                if len(self.trail_lim) == 0:
                    self.unsat = True
                    return None
                if len(self.trail_lim) <= len(assumptions):
                    # conflict depends on the assumptions only
                    self._cancel_until(0)
                    return None
                learnt, back = self._analyze(conflict)
                self._cancel_until(max(back, 0))
                if len(learnt) == 1:
                    self._cancel_until(0)
                    if not self._enqueue(learnt[0], -1):
                        self.unsat = True
                        return None
                else:
                    ci = self._attach(learnt)
                    if not self._enqueue(learnt[0], ci):
                        self.unsat = True
                        return None
                self.var_inc /= _VAR_DECAY
                conflicts_left -= 1
                if conflicts_left <= 0:
                    restart_limit = int(restart_limit * _RESTART_FACTOR)
                    conflicts_left = restart_limit
                    self._cancel_until(0)
                continue
            # assumptions first, as pseudo-decisions
            depth = len(self.trail_lim)
            if depth < len(assumptions):
                a = assumptions[depth]
                val = self.value(a)
                if val == _FALSE:
                    self._cancel_until(0)
                    return None
                if val == _TRUE:
                    self.trail_lim.append(len(self.trail))  # keep level alignment
                else:
                    self._decide(a)
                continue
            v = self._pick_branch_var()
            if v == 0:
                assign = self.assign
                model = [
                    u if assign[u] == _TRUE else -u for u in range(1, self.num_vars + 1)
                ]
                self._cancel_until(0)
                return model
            self._decide(v if self.phase[v] else -v)
