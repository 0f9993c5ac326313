"""Definability of variables from a base set, decided by Padoa's method.

A variable y is defined by a base set X w.r.t. a theory T when every
assignment to X fixes y in all models. One satisfiability query decides it:
take a primed copy T' of T, force the base variables equal across the copies
through selector literals, and ask for a model with y true and y' false.
Unsatisfiability of the query is equivalent to definedness.

The selector encoding lets a single incremental solver answer the queries for
every candidate y over the same theory, reusing learned clauses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cnf import LabeledCnf
from .errors import PreconditionError
from .sat import SatSolver


@dataclass(frozen=True)
class DefinabilityReport:
    base: frozenset[int]
    defined: frozenset[int]
    query_count: int
    verdicts: dict[int, bool]


class PadoaSession:
    """Incremental definability queries over one theory."""

    def __init__(self, cnf: LabeledCnf):
        self.cnf = cnf
        self.variables = sorted(cnf.variables)
        n = cnf.num_vars
        self._prime = {v: v + n for v in self.variables}
        self._selector = {v: 2 * n + i + 1 for i, v in enumerate(self.variables)}
        self.solver = SatSolver(2 * n + len(self.variables))
        for cl in cnf.clauses:
            self.solver.add_clause(cl)
            self.solver.add_clause([self._shift(l) for l in cl])
        for v in self.variables:
            s, p = self._selector[v], self._prime[v]
            self.solver.add_clause([-s, -v, p])
            self.solver.add_clause([-s, v, -p])
        self.query_count = 0

    def _shift(self, lit: int) -> int:
        p = self._prime[abs(lit)]
        return p if lit > 0 else -p

    def is_defined(self, base, y: int) -> bool:
        base = frozenset(base)
        if y in base:
            raise PreconditionError(f"candidate {y} is part of the base set")
        if y not in self.cnf.variables or not base <= self.cnf.variables:
            raise PreconditionError("query mentions variables not in the theory")
        assumptions = [self._selector[v] for v in sorted(base)]
        assumptions += [y, -self._prime[y]]
        self.query_count += 1
        return self.solver.solve(assumptions) is None


def defined_vars(cnf: LabeledCnf, base) -> DefinabilityReport:
    """All variables outside the base that the base defines, via one shared
    incremental solver."""
    base = frozenset(base)
    if not base <= cnf.variables:
        raise PreconditionError("base mentions variables not in the theory")
    session = PadoaSession(cnf)
    verdicts = {}
    for y in sorted(cnf.variables - base):
        verdicts[y] = session.is_defined(base, y)
    return DefinabilityReport(
        base=base,
        defined=frozenset(v for v, ok in verdicts.items() if ok),
        query_count=session.query_count,
        verdicts=verdicts,
    )
