"""Definability of variables from a base set, decided by Padoa's method.

A variable y is defined by a base set X w.r.t. a theory T when every
assignment to X fixes y in all models. One satisfiability query decides it:
take a primed copy T' of T, force the base variables equal across the copies
and ask for a model with y true and y' false.
Unsatisfiability of the query is equivalent to definedness.

`defined_vars` answers every candidate outside the base with far fewer and
smaller queries than one per candidate over the whole theory, and reaches the
same verdicts because the solver is complete:

  Components. The theory splits into the connected components of its primal
      graph. When T is satisfiable, a component's variables are defined by T
      exactly when the component's own clauses define them from the base
      variables inside it, so each component with candidates gets its own
      `PadoaSession`, numbered compactly, and a query propagates only that
      component.
  Shapes. A component's shape is its clauses and its base variables with
      every variable renamed by its rank among the component's variables.
      Two components of equal shape are one theory under the renaming that
      maps rank to rank: it maps clauses to clauses and base to base, and
      definability and satisfiability do not change under renaming. So a
      call keeps a table from shape to the ranks of the defined candidates
      and whether a query proved the component satisfiable; a component
      whose shape is in the table takes both through its own renaming and
      runs no session. The key is the shape itself, not a hash of it, so
      equal keys are never a false hit, and the table is dropped when the
      call returns.
  Model pairs. A satisfiable query returns a model of T ∧ T' in which the two
      copies agree on the base. Every candidate z with z ≠ z' in that model
      has two models agreeing on the base and differing on z, so it is not
      defined and needs no query of its own.
  Steering. Before a session's first query, every candidate's primed copy
      gets the saved phase opposite its unprimed copy's. Before each later
      one, the unprimed copy draws a fresh phase from the session's own
      `random.Random(0)`, and so does the primed copy of a refuted candidate,
      while an unrefuted one's is set opposite again. Free decisions then pull
      the copies apart, and each model pair splits the remaining candidates
      roughly in half instead of repeating the last pair.
  Satisfiability. An unsatisfiable theory defines every variable, and a
      component-local "not defined" only holds when every other component is
      satisfiable. A component is proven satisfiable once a query on it has
      returned a model. So when some verdict is "not defined", one plain
      satisfiability check runs over the clauses of every component not yet
      proven (candidate-free ones and empty clauses included); if it fails,
      every candidate is defined. "Defined" needs no check: it holds either
      way.

A session serves one base, so its equalities are hard binary clauses and a
query assumes only y and ¬y': one incremental solver over the two copies
answers every candidate of its component, reusing learned clauses.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .cnf import LabeledCnf, components
from .errors import PreconditionError
from .sat import SatSolver


@dataclass(frozen=True)
class DefinabilityReport:
    defined: frozenset[int]
    query_count: int


class PadoaSession:
    """Incremental definability queries over one theory, given as its clauses
    and its variables, from one base among those variables.

    With k variables, the i-th smallest is solver variable i and its primed
    copy k + i; two binary clauses bind the copies of each base variable
    equal. `refuted` collects every variable whose two copies differ in some
    model a query returned: none of them is defined by the base. The encoding
    is built once and handed to the `SatSolver` constructor; after that the
    session only asks `solve` queries under the assumptions y and ¬y'. The
    clauses must be free of repeated literals and tautologies, as `LabeledCnf`
    keeps them, because the solver does not check them.
    """

    def __init__(self, clauses, variables, base):
        self.variables = sorted(variables)
        self.base = frozenset(base)
        self._index = index = {v: i for i, v in enumerate(self.variables, 1)}
        if not index.keys() >= self.base:
            raise PreconditionError("base mentions variables not in the theory")
        k = len(self.variables)
        encoding = []
        for cl in clauses:
            lits = [index[l] if l > 0 else -index[-l] for l in cl]
            encoding.append(lits)
            encoding.append([l + k if l > 0 else l - k for l in lits])
        self._free = []  # (variable, solver variable) outside the base
        for v, i in index.items():
            if v in self.base:
                encoding += [i, -i - k], [-i, i + k]
            else:
                self._free.append((v, i))
        self.solver = SatSolver(2 * k, encoding)
        self._rng = random.Random(0)
        self.query_count = 0
        self.refuted: set[int] = set()

    def is_defined(self, y: int) -> bool:
        if y in self.base:
            raise PreconditionError(f"candidate {y} is part of the base set")
        if y not in self._index:
            raise PreconditionError("query mentions variables not in the theory")
        k, phase, rng, refuted = len(self.variables), self.solver.phase, self._rng, self.refuted
        for v, i in self._free:
            if self.query_count:
                phase[i] = rng.random() < 0.5
            phase[i + k] = rng.random() < 0.5 if v in refuted else not phase[i]
        self.query_count += 1
        model = self.solver.solve([self._index[y], -self._index[y] - k])
        if model is None:
            return True
        refuted.update(v for v, a, b in zip(self.variables, model, model[k:])
                       if (a > 0) != (b > 0))
        return False


def _shape(group, order, local_base):
    """A component's clauses and base with each variable renamed by its rank
    (from 1) in `order`, the component's sorted variables."""
    rank = {v: i for i, v in enumerate(order, 1)}
    clauses = sorted(tuple(sorted(rank[l] if l > 0 else -rank[-l] for l in cl)) for cl in group)
    return tuple(clauses), tuple(sorted(rank[v] for v in local_base))


def defined_vars(cnf: LabeledCnf, base) -> DefinabilityReport:
    """All variables outside the base that the base defines, via one
    incremental session per connected component shape and model-pair
    refutation. The satisfiability check, when needed, is one solver built
    from the unproven clauses and asked once."""
    base = frozenset(base)
    if not base <= cnf.variables:
        raise PreconditionError("base mentions variables not in the theory")
    verdicts = dict.fromkeys(sorted(cnf.variables - base), True)
    queries = 0
    unproven = [cl for cl in cnf.clauses if not cl]
    shapes = {}  # shape -> (ranks of the defined candidates, proven satisfiable)
    for group, variables in components(cnf):
        if variables <= base:
            unproven += group
            continue
        local_base = base & variables
        order = sorted(variables)
        key = _shape(group, order, local_base)
        answer = shapes.get(key)
        if answer is None:
            session = PadoaSession(group, variables, local_base)
            defined = frozenset(
                i
                for i, y in enumerate(order, 1)
                if y not in local_base
                and y not in session.refuted
                and session.is_defined(y)
            )
            queries += session.query_count
            answer = shapes[key] = (defined, bool(session.refuted))
        defined, proven = answer
        for i, y in enumerate(order, 1):
            if y not in local_base:
                verdicts[y] = i in defined
        if not proven:
            unproven += group
    if unproven and not all(verdicts.values()):
        queries += 1
        if SatSolver(cnf.num_vars, unproven).solve() is None:
            verdicts = dict.fromkeys(verdicts, True)
    return DefinabilityReport(
        defined=frozenset(v for v, ok in verdicts.items() if ok),
        query_count=queries,
    )
