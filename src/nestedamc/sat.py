"""A small complete CDCL SAT solver with an assumption interface.

Watched literals, first-UIP clause learning, activity-based branching with
decay, geometric restarts and phase saving. Assumptions are enqueued as
pseudo-decisions below the real decision levels, so repeated queries on one
clause database reuse learned clauses.
"""

from __future__ import annotations

from .errors import PreconditionError

_UNASSIGNED = 0
_TRUE = 1
_FALSE = -1

_VAR_DECAY = 0.95
_RESTART_BASE = 100
_RESTART_FACTOR = 1.5


class SatSolver:
    def __init__(self, num_vars: int = 0):
        self.num_vars = 0
        self.clauses: list[list[int]] = []
        self.watches: dict[int, list[int]] = {}
        self.assign: list[int] = [0]  # 1-based
        self.level: list[int] = [0]
        self.reason: list[int] = [-1]  # clause index or -1
        self.phase: list[bool] = [False]
        self.activity: list[float] = [0.0]
        self.var_inc = 1.0
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.unsat = False
        if num_vars:
            self.ensure_vars(num_vars)

    # ------------------------------------------------------------------ setup

    def ensure_vars(self, n: int):
        while self.num_vars < n:
            self.num_vars += 1
            self.assign.append(_UNASSIGNED)
            self.level.append(0)
            self.reason.append(-1)
            self.phase.append(False)
            self.activity.append(0.0)
            self.watches[self.num_vars] = []
            self.watches[-self.num_vars] = []

    def value(self, lit: int) -> int:
        v = self.assign[abs(lit)]
        return v if lit > 0 else -v

    def add_clause(self, lits) -> None:
        """Add a clause; must be called at decision level 0."""
        if self.trail_lim:
            raise PreconditionError("clauses can only be added at level 0")
        lits = list(dict.fromkeys(lits))  # dedupe, keep order
        for l in lits:
            self.ensure_vars(abs(l))
        if any(-l in lits for l in lits):
            return  # tautology
        lits = [l for l in lits if self.value(l) != _FALSE or self.level[abs(l)] > 0]
        if any(self.value(l) == _TRUE and self.level[abs(l)] == 0 for l in lits):
            return
        if not lits:
            self.unsat = True
            return
        if len(lits) == 1:
            if not self._enqueue(lits[0], -1):
                self.unsat = True
            elif self._propagate() is not None:
                self.unsat = True
            return
        self._attach(lits)

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

    def decide(self, lit: int):
        """Push a decision level and enqueue the literal."""
        self.trail_lim.append(len(self.trail))
        if not self._enqueue(lit, -1):
            raise PreconditionError(f"literal {lit} is already false")

    def _cancel_until(self, level: int):
        if len(self.trail_lim) <= level:
            return
        bound = self.trail_lim[level]
        for lit in reversed(self.trail[bound:]):
            v = abs(lit)
            self.assign[v] = _UNASSIGNED
            self.reason[v] = -1
        del self.trail[bound:]
        del self.trail_lim[level:]
        self.qhead = min(self.qhead, len(self.trail))

    def _bump(self, v: int):
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for u in range(1, self.num_vars + 1):
                self.activity[u] *= 1e-100
            self.var_inc *= 1e-100

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
        best, best_act = 0, -1.0
        for v in range(1, self.num_vars + 1):
            if self.assign[v] == _UNASSIGNED and self.activity[v] > best_act:
                best, best_act = v, self.activity[v]
        return best

    def solve(self, assumptions=()) -> list[int] | None:
        """Search for a model extending the assumptions.

        Returns a total assignment as a sorted literal list, or None when no
        model extends the assumptions (complete procedure).
        """
        assumptions = list(assumptions)
        self._cancel_until(0)
        if self.unsat:
            return None
        if self._propagate() is not None:
            self.unsat = True
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
                    self.decide(a)
                continue
            v = self._pick_branch_var()
            if v == 0:
                model = sorted(
                    (u if self.assign[u] == _TRUE else -u)
                    for u in range(1, self.num_vars + 1)
                )
                self._cancel_until(0)
                return model
            self.decide(v if self.phase[v] else -v)
