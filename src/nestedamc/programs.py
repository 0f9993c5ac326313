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
import math
import re
import time
from dataclasses import dataclass, field
from typing import Optional

from .circuit import NestedInstance, evaluate_verified, smooth
from .cnf import LabeledCnf, components, shape
from .compiler import DEFAULT_BUDGET, CompileMode, check_theory_budget, compile_cnf
from .definability import defined_vars
from .errors import CapacityError, ConfigError, ParseError
from .semirings import SemiringId, TransformId
from .treedecomp import constrain_and_root


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
            utility = float(m.group(2))
            if not math.isfinite(utility):
                raise ParseError(f"utility {m.group(2)} is not a finite number", line)
            if (atom, sign) in p.utilities:
                literal = atom if sign else "\\+" + atom
                raise ParseError(f"duplicate utility for {literal}", line)
            p.utilities[(atom, sign)] = utility
            note(atom)
            continue
        m = re.match(rf"^query\(\s*({_ATOM})\s*\)$", stmt)
        if m:
            if m.group(1) not in p.queries:
                p.queries.append(m.group(1))
            note(m.group(1))
            continue
        m = re.match(rf"^evidence\(\s*({_ATOM})\s*,\s*(true|false)\s*\)$", stmt)
        if m:
            atom, val = m.group(1), m.group(2) == "true"
            if p.evidence.setdefault(atom, val) != val:
                raise ParseError(f"conflicting evidence for {atom}", line)
            note(atom)
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
    # depth-first on an explicit stack: `path` is the chain of atoms being
    # visited (state 1), each with an iterator over its sorted dependencies
    state: dict[str, int] = {}
    for a in sorted(dep):
        if a in state:
            continue
        state[a] = 1
        path, todo = [a], [iter(sorted(dep[a]))]
        while path:
            b = next(todo[-1], None)
            if b is None:
                state[path.pop()] = 2
                todo.pop()
            elif state.get(b) == 1:
                raise ParseError(
                    "program is not tight: positive cycle "
                    + " -> ".join(path[path.index(b):] + [b])
                )
            elif b not in state:
                state[b] = 1
                path.append(b)
                todo.append(iter(sorted(dep[b])))
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


def build_instance(p: Program, task: TaskKind) -> NestedInstance:
    """Label the completion and fix the semiring pair for the given task.

    Every task reads one weight table over the probabilistic facts, p for the
    positive literal and 1 - p for the negative one:

      SUCC  P(query, evidence): the table as inner labels, with the negated
            query zeroed.
      MAP   max over the map atoms' assignments of P(assignment, evidence),
            with the argmax as witness: the map atoms are outer, labelled by
            the table (1 for a derived atom) and their own literal.
      MEU   max over the decisions of the expected utility: inner pairs
            (w, w * utility) with w from the table, or 1 for a literal that
            only carries a utility; decisions are outer with their utility.
      SMP   sum over the facts' worlds of the share of the world's stable
            models holding the query: the table as outer labels, model
            counts (query models, all models) inside.

    Evidence zeroes the literal it contradicts, so an evidence fact keeps
    its prior; MEU and SMP reject evidence. SUCC and MAP reject decision
    facts, whose literals both weigh 1 there and would sum over the
    decisions; SMP counts them as choices.
    """
    if p.decision_facts and task in (TaskKind.SUCC, TaskKind.MAP):
        raise ConfigError("decision facts are not supported for success or MAP tasks")
    base, index = clark_completion(p)
    weight = {}
    for atom, prob in p.prob_facts.items():
        v = index[atom]
        weight[v], weight[-v] = prob, 1.0 - prob
    outer_vars, inner, outer = frozenset(), {}, {}

    if task is TaskKind.SUCC:
        if len(p.queries) != 1:
            raise ConfigError("success queries need exactly one query atom")
        inner = dict(weight)
        inner[-index[p.queries[0]]] = 0.0
        semirings = (SemiringId.PROBABILITY, SemiringId.PROBABILITY, TransformId.IDENTITY)
    elif task is TaskKind.MAP:
        if set(p.map_queries) & set(p.evidence):
            raise ConfigError("an atom cannot be both a map query and evidence")
        outer_vars = frozenset(index[a] for a in p.map_queries)
        inner = {l: w for l, w in weight.items() if abs(l) not in outer_vars}
        outer = {
            l: (weight.get(l, 1.0), frozenset([l])) for v in outer_vars for l in (v, -v)
        }
        semirings = (SemiringId.PROBABILITY, SemiringId.MAP_ARGMAX, TransformId.PROB_TO_MAP)
    elif task is TaskKind.MEU:
        if not p.decision_facts:
            raise ConfigError("expected-utility maximisation needs decision facts")
        if p.evidence:
            raise ConfigError("evidence is not supported for expected-utility tasks")
        outer_vars = frozenset(index[a] for a in p.decision_facts)
        utility = {index[a] if sign else -index[a]: u for (a, sign), u in p.utilities.items()}
        inner = {l: (w, w * utility.get(l, 0.0)) for l, w in weight.items()}
        inner.update(
            (l, (1.0, u)) for l, u in utility.items()
            if u and l not in weight and abs(l) not in outer_vars
        )
        outer = {
            l: (utility.get(l, 0.0), frozenset([l])) for v in outer_vars for l in (v, -v)
        }
        semirings = (SemiringId.EU, SemiringId.MEU_ARGMAX, TransformId.EU_PROJECT)
    elif task is TaskKind.SMP:
        if len(p.queries) != 1:
            raise ConfigError("stable-model probability needs exactly one query atom")
        if p.evidence:
            raise ConfigError("evidence is not supported for stable-model probability")
        q = index[p.queries[0]]
        outer_vars = frozenset(index[a] for a in p.prob_facts)
        outer = dict(weight)
        if q in outer_vars:
            # a query on a fact zeroes the worlds violating it on the outer side
            outer[-q] = 0.0
        else:
            inner[-q] = (0, 1)
        semirings = (SemiringId.NAT_PAIR, SemiringId.PROBABILITY, TransformId.RATIO)
    else:
        raise ConfigError(f"unknown task {task}")

    for atom, val in p.evidence.items():
        v = index[atom]
        inner[-v if val else v] = 0.0
    return NestedInstance(LabeledCnf(
        base.num_vars, base.clauses, outer_vars, inner, outer, *semirings, names=base.names
    ))


@dataclass
class Diagnostics:
    defined: frozenset[int] = frozenset()
    definability_queries: int = 0
    separator_size: int = 0  # the sum of the components' separators
    width: int = 0  # the largest width of a component's decomposition
    circuit_nodes: int = 0
    circuit_edges: int = 0
    compile_stats: Optional[object] = None
    smooth_nodes: int = 0
    smooth_edges: int = 0
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

    def memory_metrics(self):
        """Where the memory went: the compiler's byte estimate, which counts
        the padding gates, and the circuit's size after smoothing, the
        compiled size unless the root missed a variable. `--stats` writes
        them beside `metrics()`; the kv stream leaves them out."""
        return [
            ("compile", "bytes_estimate", self.compile_stats.bytes_estimate),
            ("smooth", "nodes", self.smooth_nodes),
            ("smooth", "edges", self.smooth_edges),
        ]


def plan_order(cnf: LabeledCnf, mode: CompileMode, seed: int = 0,
               diag: Optional[Diagnostics] = None) -> tuple[int, ...]:
    """Choose the compilation variable order for a mode: a plain decomposition
    for FREE, separator-first rooted decompositions otherwise, with the
    defined variables widening the allowed side in XD mode.

    Each connected component is planned on its own, with its own separator
    first, and the orders are concatenated by smallest variable. Components
    of one shape (`cnf.shape` of their clauses, the variables the separator
    may take and the defined ones) share one plan: the first is planned as a
    theory of its renamed clauses, and the order is renamed onto the rest. A
    theory of one component over 1..n is renamed by identity, so it is
    planned as it stands. The width reported is the largest component's, the
    separator size the sum of theirs."""
    d = frozenset()
    if mode is CompileMode.XD_FIRST and cnf.outer_vars:
        report = defined_vars(cnf, cnf.outer_vars)
        d = report.defined
        if diag is not None:
            diag.defined = d
            diag.definability_queries = report.query_count
    x = cnf.variables if mode is CompileMode.FREE else cnf.outer_vars
    plans = {}  # shape -> (local order, width, separator size)
    order, width, separator = [], 0, 0
    for group, variables in components(cnf):
        variables = sorted(variables)
        clauses, key = shape(group, variables, x.intersection(variables),
                             d.intersection(variables))
        plan = plans.get(key)
        if plan is None:
            td, local, sep = constrain_and_root(
                LabeledCnf(len(variables), clauses), key[1], key[2], seed=seed)
            plan = plans[key] = (local, td.width, len(sep))
        order += [variables[i - 1] for i in plan[0]]
        width = max(width, plan[1])
        separator += plan[2]
    if diag is not None:
        diag.separator_size = separator
        diag.width = width
    return tuple(order)


def solve_instance(
    inst: NestedInstance,
    mode: CompileMode = CompileMode.XD_FIRST,
    seed: int = 0,
    cache_budget: int = DEFAULT_BUDGET,
):
    """Definability, constrained order, compilation, smoothing, verified
    evaluation of one prepared instance. Returns (value, diagnostics).

    Evaluation is gated on the structural properties the two-semiring pass
    needs; a free-mode order on a nontrivial partition can produce a circuit
    that gets refused here rather than silently misevaluated.
    """
    check_theory_budget(inst.cnf, cache_budget)
    diag = Diagnostics(instance=inst)
    t0 = time.perf_counter()
    order = plan_order(inst.cnf, mode, seed=seed, diag=diag)
    diag.times["order"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    try:
        circ = compile_cnf(inst.cnf, order, mode, cache_budget)
    except CapacityError as e:
        # the planned order's separator and width size the compile
        raise CapacityError(f"{e} (separator {diag.separator_size}, width {diag.width})",
                            e.stats) from e
    diag.circuit_nodes = circ.node_count
    diag.circuit_edges = circ.edge_count
    diag.compile_stats = circ.stats
    diag.times["compile"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    sm = smooth(circ, inst.cnf.outer_vars)
    # only its counts are kept: when smooth rebuilt an uneven root, the
    # compiled circuit is not held beside the padded one
    del circ
    diag.smooth_nodes = sm.node_count
    diag.smooth_edges = sm.edge_count
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
    cache_budget: int = DEFAULT_BUDGET,
):
    """Full pipeline from a program. Returns (value, diagnostics)."""
    t0 = time.perf_counter()
    inst = build_instance(p, task)
    build_time = time.perf_counter() - t0
    value, diag = solve_instance(inst, mode, seed=seed, cache_budget=cache_budget)
    diag.times = {"build": build_time, **diag.times}
    return value, diag
