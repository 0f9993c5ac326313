"""Ground tight logic programs: parsing, Clark completion to labeled CNF,
task instance construction, and the end-to-end solving pipeline.

Program grammar (statements are '.'-terminated, '%' starts a comment):

    0.4::a.                probabilistic fact
    ?::a.                  decision fact
    c :- a, \\+b.           rule (negation as \\+)
    c.                     fact rule
    utility(c, 40).        utility of a literal (\\+c for the negative one)
    query(c).  evidence(c, true).  map(c).

Only ground, tight programs are accepted: the positive dependency graph must
be acyclic, while cycles through negation are allowed.
"""

from __future__ import annotations

import enum
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from .circuit import NestedInstance, evaluate_verified, smooth
from .cnf import LabeledCnf, primal_graph
from .compiler import CompileConfig, CompileMode, compile_cnf
from .definability import defined_vars
from .errors import ConfigError, ParseError
from .semirings import SemiringId, TransformId
from .treedecomp import VariableOrder, constrain_and_root, decompose, order_from_td


class TaskKind(enum.Enum):
    SUCC = "succ"
    MAP = "map"
    MEU = "meu"
    SMP = "smp"


@dataclass(frozen=True)
class Rule:
    head: str
    pos: tuple[str, ...]
    neg: tuple[str, ...]


@dataclass
class Program:
    prob_facts: dict[str, float] = field(default_factory=dict)
    decision_facts: list[str] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    utilities: dict[tuple[str, bool], float] = field(default_factory=dict)
    queries: list[str] = field(default_factory=list)
    evidence: dict[str, bool] = field(default_factory=dict)
    map_queries: list[str] = field(default_factory=list)
    atoms: list[str] = field(default_factory=list)  # first-appearance order

    def heads(self) -> set[str]:
        return {r.head for r in self.rules}


_ATOM = r"[a-z][a-zA-Z0-9_]*"
_ATOM_RE = re.compile(rf"^{_ATOM}$")
_NUM = r"-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?"


def _check_atom(tok: str, line: int) -> str:
    tok = tok.strip()
    if not _ATOM_RE.match(tok):
        raise ParseError(f"not a ground lowercase atom: {tok!r}", line)
    return tok


def _parse_literal(tok: str, line: int) -> tuple[str, bool]:
    tok = tok.strip()
    if tok.startswith("\\+"):
        return _check_atom(tok[2:], line), False
    return _check_atom(tok, line), True


def parse_program(text: str) -> Program:
    """Parse and validate a program; raises ParseError with a line number."""
    p = Program()
    seen = set()

    def note(atom: str):
        if atom not in seen:
            seen.add(atom)
            p.atoms.append(atom)

    statements: list[tuple[int, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        raw = raw.split("%", 1)[0]
        if not raw.strip():
            continue
        # a '.' terminates a statement unless it is the decimal point of a number
        fragments = re.split(r"\.(?!\d)", raw)
        if fragments[-1].strip():
            raise ParseError("statement not terminated by '.'", lineno)
        for stmt in fragments[:-1]:
            stmt = stmt.strip()
            if stmt:
                statements.append((lineno, stmt))

    for line, stmt in statements:
        m = re.match(rf"^({_NUM})::({_ATOM})$", stmt)
        if m:
            atom = m.group(2)
            prob = float(m.group(1))
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"probability {prob} outside [0,1]", line)
            if atom in p.prob_facts:
                raise ParseError(f"duplicate probabilistic fact {atom}", line)
            p.prob_facts[atom] = prob
            note(atom)
            continue
        m = re.match(rf"^\?::({_ATOM})$", stmt)
        if m:
            atom = m.group(1)
            if atom in p.decision_facts:
                raise ParseError(f"duplicate decision fact {atom}", line)
            p.decision_facts.append(atom)
            note(atom)
            continue
        m = re.match(rf"^utility\((.+),\s*({_NUM})\s*\)$", stmt)
        if m:
            atom, sign = _parse_literal(m.group(1), line)
            p.utilities[(atom, sign)] = float(m.group(2))
            note(atom)
            continue
        m = re.match(rf"^query\(\s*({_ATOM})\s*\)$", stmt)
        if m:
            p.queries.append(m.group(1))
            note(m.group(1))
            continue
        m = re.match(rf"^evidence\(\s*({_ATOM})\s*,\s*(true|false)\s*\)$", stmt)
        if m:
            p.evidence[m.group(1)] = m.group(2) == "true"
            note(m.group(1))
            continue
        m = re.match(rf"^map\(\s*({_ATOM})\s*\)$", stmt)
        if m:
            if m.group(1) not in p.map_queries:
                p.map_queries.append(m.group(1))
            note(m.group(1))
            continue
        if ":-" in stmt:
            head_tok, body_tok = stmt.split(":-", 1)
            head = _check_atom(head_tok, line)
            pos, neg = [], []
            for tok in body_tok.split(","):
                atom, sign = _parse_literal(tok, line)
                (pos if sign else neg).append(atom)
                note(atom)
            note(head)
            p.rules.append(Rule(head, tuple(pos), tuple(neg)))
            continue
        if _ATOM_RE.match(stmt):
            note(stmt)
            p.rules.append(Rule(stmt, (), ()))
            continue
        raise ParseError(f"unrecognised statement {stmt!r}", line)

    heads = p.heads()
    facts = set(p.prob_facts)
    decisions = set(p.decision_facts)
    for a in heads & facts:
        raise ParseError(f"atom {a} is both a probabilistic fact and a rule head")
    for a in heads & decisions:
        raise ParseError(f"atom {a} is both a decision fact and a rule head")
    for a in facts & decisions:
        raise ParseError(f"atom {a} is both a probabilistic and a decision fact")

    # tightness: the positive dependency graph must be acyclic
    dep = {r.head: set() for r in p.rules}
    for r in p.rules:
        dep[r.head].update(a for a in r.pos if a in heads)
    state: dict[str, int] = {}

    def visit(a, stack):
        state[a] = 1
        for b in sorted(dep.get(a, ())):
            if state.get(b) == 1:
                cycle = stack[stack.index(b):] if b in stack else [a]
                raise ParseError(
                    "program is not tight: positive cycle "
                    + " -> ".join(cycle + [b])
                )
            if state.get(b, 0) == 0:
                visit(b, stack + [b])
        state[a] = 2

    for a in sorted(dep):
        if state.get(a, 0) == 0:
            visit(a, [a])
    return p


def clark_completion(p: Program) -> tuple[LabeledCnf, dict[str, int]]:
    """Rewrite the rules as biconditionals over fresh clause variables.

    Source atoms take indices in first-appearance order; every rule body of
    length above one gets an auxiliary variable. Facts stay unconstrained,
    atoms with no rules and no fact declaration are forced false. Returns the
    bare theory (no labels yet) and the atom index map.
    """
    index = {a: i + 1 for i, a in enumerate(p.atoms)}
    names = {i: a for a, i in index.items()}
    next_var = len(p.atoms)
    clauses: list[tuple[int, ...]] = []
    facts = set(p.prob_facts) | set(p.decision_facts)
    by_head: dict[str, list[Rule]] = {}
    for r in p.rules:
        by_head.setdefault(r.head, []).append(r)

    for atom in p.atoms:
        if atom in facts:
            continue
        h = index[atom]
        rules = by_head.get(atom, [])
        if any(not r.pos and not r.neg for r in rules):
            clauses.append((h,))  # fact rule: the completion is just h
            continue
        if not rules:
            clauses.append((-h,))
            continue
        disjuncts: list[int] = []
        for r in rules:
            body = [index[a] for a in r.pos] + [-index[a] for a in r.neg]
            if len(body) == 1:
                disjuncts.append(body[0])
            else:
                next_var += 1
                aux = next_var
                names[aux] = f"{atom}__body{len(disjuncts) + 1}"
                for l in body:
                    clauses.append((-aux, l))
                clauses.append((aux,) + tuple(-l for l in body))
                disjuncts.append(aux)
        clauses.append((-h,) + tuple(disjuncts))
        for dlit in disjuncts:
            clauses.append((h, -dlit))

    cnf = LabeledCnf(num_vars=next_var, clauses=clauses, names=names)
    return cnf, index


def _prob_weights(p: Program, index, skip=()):
    w = {}
    for atom, prob in p.prob_facts.items():
        if atom in skip:
            continue
        v = index[atom]
        w[v] = prob
        w[-v] = 1.0 - prob
    return w


def build_instance(p: Program, task: TaskKind) -> NestedInstance:
    """Label the completion and fix the semiring pair for the given task."""
    base, index = clark_completion(p)

    if task is TaskKind.SUCC:
        if len(p.queries) != 1:
            raise ConfigError("success queries need exactly one query atom")
        q = index[p.queries[0]]
        inner = _prob_weights(p, index)
        for atom, val in p.evidence.items():
            v = index[atom]
            inner[-v if val else v] = 0.0
        inner[-q] = 0.0
        return NestedInstance(
            LabeledCnf(
                base.num_vars, base.clauses, inner_label=inner, names=base.names
            )
        )

    if task is TaskKind.MAP:
        qs = [index[a] for a in p.map_queries]
        if set(p.map_queries) & set(p.evidence):
            raise ConfigError("an atom cannot be both a map query and evidence")
        inner = _prob_weights(p, index, skip=set(p.map_queries) | set(p.evidence))
        for atom, val in p.evidence.items():
            v = index[atom]
            inner[v if val else -v] = 1.0
            inner[-v if val else v] = 0.0
        outer = {}
        for atom in p.map_queries:
            v = index[atom]
            if atom in p.prob_facts:
                prob = p.prob_facts[atom]
                outer[v] = (prob, frozenset([v]))
                outer[-v] = (1.0 - prob, frozenset([-v]))
            else:
                outer[v] = (1.0, frozenset([v]))
                outer[-v] = (1.0, frozenset([-v]))
        return NestedInstance(
            LabeledCnf(
                base.num_vars,
                base.clauses,
                outer_vars=frozenset(qs),
                inner_label=inner,
                outer_label=outer,
                inner_sr=SemiringId.PROBABILITY,
                outer_sr=SemiringId.MAP_ARGMAX,
                transform=TransformId.PROB_TO_MAP,
                names=base.names,
            )
        )

    if task is TaskKind.MEU:
        if not p.decision_facts:
            raise ConfigError("expected-utility maximisation needs decision facts")
        if p.evidence:
            raise ConfigError("evidence is not supported for expected-utility tasks")
        decisions = frozenset(index[a] for a in p.decision_facts)

        def u(atom, sign):
            return p.utilities.get((atom, sign), 0.0)

        inner = {}
        for atom in p.atoms:
            v = index[atom]
            if v in decisions:
                continue
            if atom in p.prob_facts:
                prob = p.prob_facts[atom]
                inner[v] = (prob, prob * u(atom, True))
                inner[-v] = (1.0 - prob, (1.0 - prob) * u(atom, False))
            else:
                if u(atom, True):
                    inner[v] = (1.0, u(atom, True))
                if u(atom, False):
                    inner[-v] = (1.0, u(atom, False))
        outer = {}
        for atom in p.decision_facts:
            v = index[atom]
            outer[v] = (u(atom, True), frozenset([v]))
            outer[-v] = (u(atom, False), frozenset([-v]))
        return NestedInstance(
            LabeledCnf(
                base.num_vars,
                base.clauses,
                outer_vars=decisions,
                inner_label=inner,
                outer_label=outer,
                inner_sr=SemiringId.EU,
                outer_sr=SemiringId.MEU_ARGMAX,
                transform=TransformId.EU_PROJECT,
                names=base.names,
            )
        )

    if task is TaskKind.SMP:
        if len(p.queries) != 1:
            raise ConfigError("stable-model probability needs exactly one query atom")
        if p.evidence:
            raise ConfigError("evidence is not supported for stable-model probability")
        q_atom = p.queries[0]
        q = index[q_atom]
        facts = frozenset(index[a] for a in p.prob_facts)
        outer = {}
        for atom, prob in p.prob_facts.items():
            v = index[atom]
            outer[v] = prob
            outer[-v] = 1.0 - prob
        inner = {}
        if q_atom in p.prob_facts:
            # a query on a fact zeroes the worlds violating it on the outer side
            outer[-q] = 0.0
        else:
            inner[-q] = (0, 1)
        return NestedInstance(
            LabeledCnf(
                base.num_vars,
                base.clauses,
                outer_vars=facts,
                inner_label=inner,
                outer_label=outer,
                inner_sr=SemiringId.NAT_PAIR,
                outer_sr=SemiringId.PROBABILITY,
                transform=TransformId.RATIO,
                names=base.names,
            )
        )

    raise ConfigError(f"unknown task {task}")


@dataclass
class Diagnostics:
    defined: frozenset[int] = frozenset()
    definability_queries: int = 0
    separator_size: int = 0
    width: int = 0
    circuit_nodes: int = 0
    circuit_edges: int = 0
    compile_stats: Optional[object] = None
    times: dict[str, float] = field(default_factory=dict)
    instance: Optional[NestedInstance] = None  # what was solved; names its value

    def metrics(self):
        out = [
            ("definability", "defined", len(self.defined)),
            ("definability", "queries", self.definability_queries),
            ("order", "separator", self.separator_size),
            ("order", "width", self.width),
            ("compile", "nodes", self.circuit_nodes),
            ("compile", "edges", self.circuit_edges),
        ]
        if self.compile_stats is not None:
            for k, v in self.compile_stats.as_dict().items():
                if k not in ("nodes", "edges"):
                    out.append(("compile", k, v))
        return out


def plan_order(cnf: LabeledCnf, mode: CompileMode, seed: int = 0,
               diag: Optional[Diagnostics] = None):
    """Choose the compilation variable order for a mode: a plain decomposition
    for FREE, separator-first rooted decompositions otherwise, with the
    defined variables widening the allowed side in XD mode."""
    if mode is CompileMode.FREE:
        td = decompose(primal_graph(cnf), seed=seed)
        order = VariableOrder(order_from_td(td, ()), 0)
        if diag is not None:
            diag.width = td.width
        return order
    d = frozenset()
    if mode is CompileMode.XD_FIRST and cnf.outer_vars:
        report = defined_vars(cnf, cnf.outer_vars)
        d = report.defined
        if diag is not None:
            diag.defined = d
            diag.definability_queries = report.query_count
    td, order = constrain_and_root(cnf, cnf.outer_vars, d, seed=seed)
    if diag is not None:
        diag.separator_size = order.boundary_index
        diag.width = td.width
    return order


def solve_instance(
    inst: NestedInstance,
    mode: CompileMode = CompileMode.XD_FIRST,
    seed: int = 0,
    cache_budget: Optional[int] = None,
):
    """Definability, constrained order, compilation, smoothing, verified
    evaluation of one prepared instance. Returns (value, diagnostics).

    Evaluation is gated on the structural properties the two-semiring pass
    needs; a free-mode order on a nontrivial partition can produce a circuit
    that gets refused here rather than silently misevaluated.
    """
    diag = Diagnostics(instance=inst)
    t0 = time.perf_counter()
    order = plan_order(inst.cnf, mode, seed=seed, diag=diag)
    diag.times["order"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    cfg = CompileConfig(order, mode)
    if cache_budget is not None:
        cfg.cache_budget = cache_budget
    circ = compile_cnf(inst.cnf, cfg)
    diag.circuit_nodes = circ.node_count
    diag.circuit_edges = circ.edge_count
    diag.compile_stats = circ.stats
    diag.times["compile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sm = smooth(circ, inst.cnf.outer_vars)
    d = diag.defined
    if mode is CompileMode.FREE and inst.cnf.outer_vars:
        report = defined_vars(inst.cnf, inst.cnf.outer_vars)
        d = report.defined
        diag.defined = d
        diag.definability_queries = report.query_count
    value = evaluate_verified(
        sm, inst, d,
        outer_first_required=mode is CompileMode.X_FIRST,
        equivalence_var_limit=0,
    )
    diag.times["evaluate"] = time.perf_counter() - t0
    return value, diag


def solve(
    p: Program,
    task: TaskKind,
    mode: CompileMode = CompileMode.XD_FIRST,
    seed: int = 0,
    cache_budget: Optional[int] = None,
):
    """Full pipeline from a program. Returns (value, diagnostics)."""
    t0 = time.perf_counter()
    inst = build_instance(p, task)
    build_time = time.perf_counter() - t0
    value, diag = solve_instance(inst, mode, seed=seed, cache_budget=cache_budget)
    diag.times = {"build": build_time, **diag.times}
    return value, diag
