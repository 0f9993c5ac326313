"""Labeled CNF data model, DIMACS-style I/O, primal graph, the biconditional
separation family, and a brute-force model enumerator used as oracle.

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
implicitly the labelled literal), two for eu/natpair. A label outside its
semiring's domain (`Semiring.contains`) is a ParseError on its line.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .errors import CapacityError, ParseError, PreconditionError, decode_ascii
from .semirings import SEMIRINGS, SemiringId, TransformId

# an undirected graph as symmetric adjacency sets, one key per vertex
Graph = dict[int, set[int]]


@dataclass
class LabeledCnf:
    """A CNF whose variables are partitioned into inner and outer, with
    per-literal labels over the two semirings.

    The variables are exactly 1..num_vars. Unlabelled literals implicitly
    carry the multiplicative identity of their side. Clauses are kept without
    repeated literals, in their given literal order, and tautologies are
    dropped.
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

    def __post_init__(self):
        clauses = []
        for cl in self.clauses:
            cl = tuple(cl)
            for l in cl:
                if l == 0 or abs(l) > self.num_vars:
                    raise PreconditionError(f"literal {l} out of range")
            width = len(set(map(abs, cl)))
            if width < len(cl):
                cl = tuple(dict.fromkeys(cl))
                if width < len(cl):
                    continue  # a variable in both signs: a tautology
            clauses.append(cl)
        self.clauses = clauses
        self.outer_vars = frozenset(self.outer_vars)
        # ranges checked directly: a declared count may be too large to list
        n = self.num_vars
        if not all(1 <= v <= n for v in self.outer_vars):
            raise PreconditionError("outer variables must lie in 1..num_vars")
        for l in self.inner_label:
            if not 1 <= abs(l) <= n or abs(l) in self.outer_vars:
                raise PreconditionError(f"inner label on non-inner literal {l}")
        for l in self.outer_label:
            if abs(l) not in self.outer_vars:
                raise PreconditionError(f"outer label on non-outer literal {l}")

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(range(1, self.num_vars + 1))

    @property
    def inner_vars(self) -> frozenset[int]:
        return self.variables - self.outer_vars

    def inner_weight(self, lit: int):
        return self.inner_label.get(lit, SEMIRINGS[self.inner_sr].one)

    def outer_weight(self, lit: int):
        return self.outer_label.get(lit, SEMIRINGS[self.outer_sr].one)

    def name_of(self, var: int) -> str:
        return self.names.get(var, str(var))


def _token(kind, tok: str, lineno: int):
    try:
        return kind(tok)
    except ValueError:
        raise ParseError(f"unknown token {tok}", lineno)


def parse_cnf(text) -> LabeledCnf:
    """Parse the labeled DIMACS format. Raises ParseError with a line number."""
    if isinstance(text, bytes):
        text = decode_ascii(text)
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
        if not sr.contains(value):
            raise ParseError(
                f"{side_sr.value} label {' '.join(fields)} outside the semiring's domain",
                lineno,
            )
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


def primal_graph(cnf: LabeledCnf) -> Graph:
    """Vertices are the variables; edges join variables sharing a clause."""
    g: Graph = {v: set() for v in sorted(cnf.variables)}
    for cl in cnf.clauses:
        vs = {abs(l) for l in cl}
        for v in vs:
            g[v] |= vs - {v}
    return g


def components(cnf: LabeledCnf) -> Iterator[tuple[list[tuple[int, ...]], frozenset[int]]]:
    """Yield (clauses, variables) for each connected component of the primal
    graph, by increasing smallest variable, with the clauses in input order.
    A variable in no clause is a component without clauses; an empty clause
    belongs to none. One traversal over per-variable occurrence lists."""
    occurs: list[list[int]] = [[] for _ in range(cnf.num_vars + 1)]
    for i, cl in enumerate(cnf.clauses):
        for l in cl:
            occurs[abs(l)].append(i)
    seen = [False] * (cnf.num_vars + 1)
    taken = [False] * len(cnf.clauses)
    for v in range(1, cnf.num_vars + 1):
        if seen[v]:
            continue
        seen[v] = True
        variables, stack, ids = [v], [v], []
        while stack:
            for i in occurs[stack.pop()]:
                if not taken[i]:
                    taken[i] = True
                    ids.append(i)
                    for l in cnf.clauses[i]:
                        w = abs(l)
                        if not seen[w]:
                            seen[w] = True
                            variables.append(w)
                            stack.append(w)
        ids.sort()
        yield [cnf.clauses[i] for i in ids], frozenset(variables)


def renamed(group, variables):
    """`group`'s clauses in input order with each variable renamed by its
    rank (from 1) among `variables`, the group's variables sorted; and that
    rank map. The renaming is monotone, so it keeps literal order, and two
    groups equal up to a monotone renaming come out equal."""
    rank = {v: i for i, v in enumerate(variables, 1)}
    return [tuple([rank[l] if l > 0 else -rank[-l] for l in cl]) for cl in group], rank


def shape(group, variables, *marked):
    """A component's `renamed` clauses, and its shape: those clauses, each
    sorted, in sorted order, then the sorted ranks of each set of `marked`
    variables. Two components of one shape are equal up to renaming."""
    clauses, rank = renamed(group, variables)
    return clauses, (tuple(sorted(tuple(sorted(cl)) for cl in clauses)),
                     *(tuple(sorted(rank[v] for v in m)) for m in marked))


def equivalence_cnf(n: int) -> LabeledCnf:
    """n biconditionals X_i <-> Y_i with the X block as outer variables: every
    Y_i is defined by the X block, yet a strict outer-first circuit needs 2^n
    boundary nodes."""
    clauses = []
    for i in range(1, n + 1):
        clauses += [(-i, n + i), (i, -(n + i))]
    return LabeledCnf(2 * n, clauses, outer_vars=frozenset(range(1, n + 1)))


def enumerate_models(cnf: LabeledCnf, max_vars: int = 30) -> Iterator[frozenset[int]]:
    """Yield every satisfying total assignment over the variables once,
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
