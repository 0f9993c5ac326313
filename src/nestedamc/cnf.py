"""Labeled CNF data model, DIMACS-style I/O, conditioning, primal graph, the
biconditional separation family, and a brute-force model enumerator used as
oracle.

The textual format is standard DIMACS plus comment directives:

    p cnf <nvars> <nclauses>
    c s <inner_sr> <outer_sr> <transform>   semiring header
    c o <v1> ... <vk> 0                     outer variable list (absent = none)
    c wi <lit> <f1> [<f2>] 0                inner literal label
    c wo <lit> <f1> [<f2>] 0                outer literal label
    c n <var> <name>                        optional symbol table entry
    <l1> <l2> ... 0                         clause

Unknown `c` lines are ignored. Label arity follows the semiring: one field for
probability/maxtimes/maxplus and the argmax semirings (whose witness set is
implicitly the labelled literal), two for eu/natpair.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator, Optional

import networkx as nx

from .errors import CapacityError, ParseError, PreconditionError
from .semirings import SEMIRINGS, SemiringId, TransformId


@dataclass(frozen=True, init=False)
class PartialAssignment:
    """A consistent set of literals; consistency is checked on construction."""

    literals: frozenset[int]

    def __init__(self, literals: Iterable[int]):
        lits = frozenset(literals)
        if any(-l in lits for l in lits):
            raise PreconditionError("inconsistent assignment: complementary literals")
        if any(l == 0 for l in lits):
            raise PreconditionError("0 is not a literal")
        object.__setattr__(self, "literals", lits)

    def variables(self) -> frozenset[int]:
        return frozenset(abs(l) for l in self.literals)


@dataclass
class LabeledCnf:
    """A CNF whose variables are partitioned into inner and outer, with
    per-literal labels over the two semirings.

    `variables` is the set of live variables; conditioning removes assigned
    variables from it while `num_vars` keeps the original index bound.
    Unlabelled literals implicitly carry the multiplicative identity of their
    side.
    """

    num_vars: int
    clauses: list[tuple[int, ...]]
    outer_vars: frozenset[int] = frozenset()
    inner_label: dict[int, object] = field(default_factory=dict)
    outer_label: dict[int, object] = field(default_factory=dict)
    inner_sr: SemiringId = SemiringId.PROBABILITY
    outer_sr: SemiringId = SemiringId.PROBABILITY
    transform: TransformId = TransformId.IDENTITY
    names: dict[int, str] = field(default_factory=dict)
    variables: Optional[frozenset[int]] = None

    def __post_init__(self):
        if self.variables is None:
            self.variables = frozenset(range(1, self.num_vars + 1))
        self.clauses = [tuple(cl) for cl in self.clauses]
        self.outer_vars = frozenset(self.outer_vars)
        for cl in self.clauses:
            for l in cl:
                if l == 0 or abs(l) > self.num_vars:
                    raise PreconditionError(f"literal {l} out of range")
                if abs(l) not in self.variables:
                    raise PreconditionError(f"literal {l} references a removed variable")
        if not self.outer_vars <= self.variables:
            raise PreconditionError("outer variables must be live variables")
        for l in self.inner_label:
            if abs(l) in self.outer_vars or abs(l) not in self.variables:
                raise PreconditionError(f"inner label on non-inner literal {l}")
        for l in self.outer_label:
            if abs(l) not in self.outer_vars:
                raise PreconditionError(f"outer label on non-outer literal {l}")

    @property
    def inner_vars(self) -> frozenset[int]:
        return self.variables - self.outer_vars

    def inner_weight(self, lit: int):
        return self.inner_label.get(lit, SEMIRINGS[self.inner_sr].one)

    def outer_weight(self, lit: int):
        return self.outer_label.get(lit, SEMIRINGS[self.outer_sr].one)

    def name_of(self, var: int) -> str:
        return self.names.get(var, str(var))


def _is_tautology(cl: tuple[int, ...]) -> bool:
    s = set(cl)
    return any(-l in s for l in s)


def _token(kind, tok: str, lineno: int):
    try:
        return kind(tok)
    except ValueError:
        raise ParseError(f"unknown token {tok}", lineno)


def parse_cnf(text) -> LabeledCnf:
    """Parse the labeled DIMACS format. Raises ParseError with a line number."""
    if isinstance(text, bytes):
        text = text.decode("ascii")
    num_vars = None
    declared_clauses = None
    clauses: list[tuple[int, ...]] = []
    outer: set[int] = set()
    inner_sr = SemiringId.PROBABILITY
    outer_sr = SemiringId.PROBABILITY
    transform = TransformId.IDENTITY
    raw_weights: list[tuple[int, str, int, list[str]]] = []  # line, side, lit, fields
    seen_weights: set[tuple[str, int]] = set()
    names: dict[int, str] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts:
            continue
        if parts[0] == "p":
            if num_vars is not None:
                raise ParseError("duplicate problem line", lineno)
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line", lineno)
            try:
                num_vars = int(parts[2])
                declared_clauses = int(parts[3])
            except ValueError:
                raise ParseError("malformed problem line", lineno)
            if num_vars < 0 or declared_clauses < 0:
                raise ParseError("negative counts in problem line", lineno)
        elif parts[0] == "c":
            if len(parts) < 2:
                continue
            kind = parts[1]
            if kind == "s":
                if len(parts) != 5:
                    raise ParseError("semiring header needs three tokens", lineno)
                inner_sr = _token(SemiringId, parts[2], lineno)
                outer_sr = _token(SemiringId, parts[3], lineno)
                transform = _token(TransformId, parts[4], lineno)
            elif kind == "o":
                if parts[-1] != "0":
                    raise ParseError("outer variable list not terminated by 0", lineno)
                for tok in parts[2:-1]:
                    try:
                        v = int(tok)
                    except ValueError:
                        raise ParseError(f"bad variable {tok}", lineno)
                    outer.add(v)
            elif kind in ("wi", "wo"):
                if parts[-1] != "0":
                    raise ParseError("weight line not terminated by 0", lineno)
                if len(parts) < 5:
                    raise ParseError("weight line too short", lineno)
                try:
                    lit = int(parts[2])
                except ValueError:
                    raise ParseError(f"bad literal {parts[2]}", lineno)
                key = (kind, lit)
                if key in seen_weights:
                    raise ParseError(f"duplicate weight line for literal {lit}", lineno)
                seen_weights.add(key)
                raw_weights.append((lineno, kind, lit, parts[3:-1]))
            elif kind == "n":
                if len(parts) == 4:
                    try:
                        names[int(parts[2])] = parts[3]
                    except ValueError:
                        pass
            # other comment lines are ignored
        else:
            if num_vars is None:
                raise ParseError("clause before problem line", lineno)
            try:
                lits = [int(tok) for tok in parts]
            except ValueError:
                raise ParseError("bad literal in clause", lineno)
            if lits[-1] != 0:
                raise ParseError("clause not terminated by 0", lineno)
            cl = tuple(lits[:-1])
            for l in cl:
                if l == 0 or abs(l) > num_vars:
                    raise ParseError(f"literal {l} out of range", lineno)
            if not _is_tautology(cl):
                clauses.append(cl)

    if num_vars is None:
        raise ParseError("missing problem line")
    for v in outer:
        if not 1 <= v <= num_vars:
            raise ParseError(f"outer variable {v} out of range")

    inner_label: dict[int, object] = {}
    outer_label: dict[int, object] = {}
    for lineno, kind, lit, fields in raw_weights:
        if abs(lit) > num_vars or lit == 0:
            raise ParseError(f"weight for literal {lit} out of range", lineno)
        side_sr = inner_sr if kind == "wi" else outer_sr
        sr = SEMIRINGS[side_sr]
        if len(fields) != sr.label_arity:
            raise ParseError(
                f"{side_sr.value} labels take {sr.label_arity} field(s), got {len(fields)}",
                lineno,
            )
        try:
            value = sr.parse_label(lit, fields)
        except ValueError:
            raise ParseError(f"bad weight fields {' '.join(fields)}", lineno)
        if kind == "wi":
            if abs(lit) in outer:
                raise ParseError(f"inner weight on outer literal {lit}", lineno)
            inner_label[lit] = value
        else:
            if abs(lit) not in outer:
                raise ParseError(f"outer weight on inner literal {lit}", lineno)
            outer_label[lit] = value

    return LabeledCnf(
        num_vars=num_vars,
        clauses=clauses,
        outer_vars=frozenset(outer),
        inner_label=inner_label,
        outer_label=outer_label,
        inner_sr=inner_sr,
        outer_sr=outer_sr,
        transform=transform,
        names=names,
    )


def emit_cnf(cnf: LabeledCnf) -> str:
    """Serialize back to the labeled DIMACS format (parse round-trips)."""
    out = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    out.append(
        f"c s {cnf.inner_sr.value} {cnf.outer_sr.value} {cnf.transform.value}"
    )
    if cnf.outer_vars:
        out.append("c o " + " ".join(str(v) for v in sorted(cnf.outer_vars)) + " 0")
    for v in sorted(cnf.names):
        out.append(f"c n {v} {cnf.names[v]}")
    sin = SEMIRINGS[cnf.inner_sr]
    sout = SEMIRINGS[cnf.outer_sr]
    for lit in sorted(cnf.inner_label, key=lambda l: (abs(l), l)):
        out.append(f"c wi {lit} {sin.format_label(cnf.inner_label[lit])} 0")
    for lit in sorted(cnf.outer_label, key=lambda l: (abs(l), l)):
        out.append(f"c wo {lit} {sout.format_label(cnf.outer_label[lit])} 0")
    for cl in cnf.clauses:
        out.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(out) + "\n"


def condition(cnf: LabeledCnf, y: PartialAssignment) -> LabeledCnf:
    """Condition the theory on a partial assignment.

    Clauses with a satisfied literal disappear, falsified literals are removed
    from the rest (possibly leaving an empty clause), and assigned variables
    leave the variable sets and label maps.
    """
    lits = y.literals
    assigned = y.variables()
    if not assigned <= cnf.variables:
        raise PreconditionError("assignment mentions variables not in the theory")
    new_clauses = []
    for cl in cnf.clauses:
        if any(l in lits for l in cl):
            continue
        new_clauses.append(tuple(l for l in cl if -l not in lits))
    return replace(
        cnf,
        clauses=new_clauses,
        variables=cnf.variables - assigned,
        outer_vars=cnf.outer_vars - assigned,
        inner_label={l: w for l, w in cnf.inner_label.items() if abs(l) not in assigned},
        outer_label={l: w for l, w in cnf.outer_label.items() if abs(l) not in assigned},
    )


def primal_graph(cnf: LabeledCnf) -> nx.Graph:
    """Vertices are the live variables; edges join variables sharing a clause."""
    g = nx.Graph()
    g.add_nodes_from(sorted(cnf.variables))
    for cl in cnf.clauses:
        vs = sorted({abs(l) for l in cl})
        for i, u in enumerate(vs):
            for v in vs[i + 1 :]:
                g.add_edge(u, v)
    return g


def equivalence_cnf(n: int) -> LabeledCnf:
    """n biconditionals X_i <-> Y_i with the X block as outer variables: every
    Y_i is defined by the X block, yet a strict outer-first circuit needs 2^n
    boundary nodes."""
    clauses = []
    for i in range(1, n + 1):
        clauses += [(-i, n + i), (i, -(n + i))]
    return LabeledCnf(2 * n, clauses, outer_vars=frozenset(range(1, n + 1)))


def enumerate_models(cnf: LabeledCnf, max_vars: int = 30) -> Iterator[frozenset[int]]:
    """Yield every satisfying total assignment over the live variables once,
    in lexicographic variable order with the positive branch first."""
    variables = sorted(cnf.variables)
    if len(variables) > max_vars:
        raise CapacityError(f"{len(variables)} variables exceed the guard of {max_vars}")

    def recurse(idx: int, clauses: list[tuple[int, ...]], chosen: list[int]):
        if any(len(cl) == 0 for cl in clauses):
            return
        if idx == len(variables):
            yield frozenset(chosen)
            return
        v = variables[idx]
        for lit in (v, -v):
            reduced = []
            dead = False
            for cl in clauses:
                if lit in cl:
                    continue
                if -lit in cl:
                    cl = tuple(l for l in cl if l != -lit)
                    if not cl:
                        dead = True
                        break
                reduced.append(cl)
            if dead:
                continue
            chosen.append(lit)
            yield from recurse(idx + 1, reduced, chosen)
            chosen.pop()

    yield from recurse(0, list(cnf.clauses), [])
