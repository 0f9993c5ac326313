"""Shared random generators and independent brute-force oracles for tests."""

from __future__ import annotations

import hashlib
import math
import random

from nestedamc.circuit import Circuit
# equivalence_cnf is re-exported for the tests and the benchmark that import it from here
from nestedamc.cnf import Graph, LabeledCnf, enumerate_models, equivalence_cnf  # noqa: F401
from nestedamc.programs import Program, parse_program
from nestedamc.semirings import SEMIRINGS
from nestedamc.treedecomp import TreeDecomposition, _reach

PROB_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


def values_close(a, b) -> bool:
    """Equality of semiring values with real parts to a relative 1e-9: pairs
    and argmax values compare componentwise, ints and witness sets exactly,
    and -inf equals only itself."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(values_close, a, b))
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def _label_text(sr, value) -> str:
    """The fields of a label as `parse_cnf` reads them: both numbers of a
    pair label, else the one number; an argmax label's witness is its own
    literal, so only its number is written."""
    if SEMIRINGS[sr].label_arity == 2:
        return " ".join(map(repr, value))
    return repr(float(value[0] if isinstance(value, tuple) else value))


def emit_cnf(cnf: LabeledCnf) -> str:
    """Serialize back to the labeled DIMACS format (parse_cnf round-trips)."""
    out = [f"p cnf {cnf.num_vars} {len(cnf.clauses)}"]
    out.append(
        f"c s {cnf.inner_sr.value} {cnf.outer_sr.value} {cnf.transform.value}"
    )
    if cnf.outer_vars:
        out.append("c o " + " ".join(str(v) for v in sorted(cnf.outer_vars)) + " 0")
    for v in sorted(cnf.names):
        out.append(f"c n {v} {cnf.names[v]}")
    for lit in sorted(cnf.inner_label, key=lambda l: (abs(l), l)):
        out.append(f"c wi {lit} {_label_text(cnf.inner_sr, cnf.inner_label[lit])} 0")
    for lit in sorted(cnf.outer_label, key=lambda l: (abs(l), l)):
        out.append(f"c wo {lit} {_label_text(cnf.outer_sr, cnf.outer_label[lit])} 0")
    for cl in cnf.clauses:
        out.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(out) + "\n"


def nodes_of(circ: Circuit) -> list[tuple]:
    """The circuit's nodes as (kind, value, children) tuples, in id order."""
    return [(circ.kinds[i], circ.vals[i], tuple(circ.children(i)))
            for i in range(circ.node_count)]


def dag_digest(circ: Circuit) -> str:
    """A content hash of the DAG below the root: each node hashes its kind,
    its value and its children's hashes in order, so two circuits whose roots
    span equal DAGs hash alike whatever their node ids and unreachable nodes."""
    hashes: list[bytes] = []
    for kind, val, kids in nodes_of(circ):
        node = repr((kind, val, [hashes[c] for c in kids])).encode()
        hashes.append(hashlib.sha256(node).digest())
    return hashes[circ.root].hex()[:16]


def circuit_of(nodes, root: int, num_vars: int) -> Circuit:
    """A circuit made of (kind, value, children) tuples, in id order."""
    circ = Circuit(num_vars)
    for node in nodes:
        circ.add(*node)
    circ.root = root
    return circ


def random_clauses(rng: random.Random, num_vars: int, num_clauses: int):
    clauses = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(4, num_vars))
        vs = rng.sample(range(1, num_vars + 1), width)
        cl = tuple(v if rng.random() < 0.5 else -v for v in vs)
        clauses.append(cl)
    return clauses


def random_cnf(rng: random.Random, max_vars: int = 14, max_clauses: int = 40,
               min_vars: int = 3) -> LabeledCnf:
    n = rng.randint(min_vars, max_vars)
    m = rng.randint(1, max_clauses)
    return LabeledCnf(n, random_clauses(rng, n, m))


def random_partitioned_cnf(rng: random.Random, max_vars: int = 14,
                           max_clauses: int = 40) -> LabeledCnf:
    cnf = random_cnf(rng, max_vars, max_clauses)
    k = rng.randint(0, cnf.num_vars)
    outer = frozenset(rng.sample(range(1, cnf.num_vars + 1), k))
    return LabeledCnf(cnf.num_vars, cnf.clauses, outer_vars=outer)


def planning_instances():
    """The 60 (cnf, planning seed) pairs that the planning golden pins."""
    rng = random.Random(3141)
    for _ in range(60):
        cnf = random_partitioned_cnf(rng, 12, 25)
        yield cnf, rng.randrange(1 << 16)


def brute_defined(cnf: LabeledCnf, base, y: int) -> bool:
    """Definedness by enumeration: group the models by their base projection
    and demand y constant within every group."""
    base = frozenset(base)
    groups: dict[frozenset, bool] = {}
    for m in enumerate_models(cnf):
        key = frozenset(l for l in m if abs(l) in base)
        sign = y in m
        prev = groups.get(key)
        if prev is None:
            groups[key] = sign
        elif prev != sign:
            return False
    return True


def random_program_text(rng: random.Random, family: str) -> str:
    """A small ground tight program for one task family.

    Rule bodies only mention earlier atoms, so the full dependency graph is
    acyclic and every world has exactly one model; the smp family then adds
    even choice pairs (negative two-cycles) so worlds carry several models.
    """
    lines = []
    facts = [f"f{i}" for i in range(rng.randint(2, 4))]
    for f in facts:
        lines.append(f"{rng.choice(PROB_GRID)}::{f}.")
    decisions = []
    if family == "meu":
        decisions = [f"d{i}" for i in range(rng.randint(1, 2))]
        for d in decisions:
            lines.append(f"?::{d}.")
    pool = facts + decisions
    derived = []
    for i in range(rng.randint(1, 3)):
        head = f"r{i}"
        for _ in range(rng.randint(1, 2)):
            k = rng.randint(1, min(3, len(pool) + len(derived)))
            body = rng.sample(pool + derived, k)
            lits = [a if rng.random() < 0.7 else f"\\+{a}" for a in body]
            lines.append(f"{head} :- {', '.join(lits)}.")
        derived.append(head)

    if family == "map":
        k = rng.randint(1, len(facts))
        queries = rng.sample(facts, k)
        if derived and rng.random() < 0.3:
            queries.append(derived[0])
        for q in queries:
            lines.append(f"map({q}).")
        others = [a for a in derived if a not in queries]
        if others and rng.random() < 0.5:
            lines.append(f"evidence({rng.choice(others)}, {rng.choice(['true', 'false'])}).")
    elif family == "meu":
        atoms = facts + derived
        utilities = {}  # a literal drawn again keeps its place and its last value
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(atoms)
            sign = "" if rng.random() < 0.6 else "\\+"
            utilities[sign + atom] = rng.randint(-20, 40)
        lines += [f"utility({lit}, {u})." for lit, u in utilities.items()]
    elif family == "smp":
        for j in range(rng.randint(1, 2)):
            u, v = f"c{2 * j}", f"c{2 * j + 1}"
            guard = ""
            if rng.random() < 0.5:
                guard = f", {rng.choice(pool + derived)}"
            lines.append(f"{u} :- \\+{v}{guard}.")
            lines.append(f"{v} :- \\+{u}.")
            derived += [u, v]
        q = rng.choice(derived if rng.random() < 0.85 else facts)
        lines.append(f"query({q}).")
    elif family == "succ":
        q = rng.choice(derived + facts)
        lines.append(f"query({q}).")
    return "\n".join(lines)


def evidence_program_text(rng: random.Random, family: str) -> str:
    """A random_program_text program for one task family with up to two more
    evidence statements, each on a probabilistic fact, on a derived atom or
    on a map atom: built for every task, the stream meets evidence of each
    kind in SUCC and MAP and every error that build_instance raises for
    evidence. A separate entry point, so random_program_text's seeded
    streams stay as they are."""
    text = random_program_text(rng, family)
    p = parse_program(text)
    derived = [a for a in p.atoms if a not in p.prob_facts and a not in p.decision_facts]
    lines = [text]
    for _ in range(rng.randint(0, 2)):
        atom = rng.choice(rng.choice([list(p.prob_facts), derived, p.map_queries or derived]))
        if atom not in p.evidence:
            p.evidence[atom] = rng.random() < 0.5
            lines.append(f"evidence({atom}, {str(p.evidence[atom]).lower()}).")
    return "\n".join(lines)


def acyclic_program_values(p: Program):
    """MAP, SUCC and MEU values of a program whose rule bodies mention only
    atoms derived by earlier rules, read from its semantics alone: each world
    of its probabilistic facts, under each assignment to its decision facts,
    has one model, found by applying the rules in order. Returns (max over the
    map atoms' values of P(values, evidence), P(first query, evidence), max
    over the decisions of the expected sum of the utilities of the literals
    true in the model), independent of build_instance's labels. The first two
    take every decision false; the second is also the SMP value when there is
    no evidence, and the third ignores evidence, which MEU rejects."""
    facts, decisions = list(p.prob_facts), p.decision_facts
    best: dict[tuple, float] = {}
    succ = 0.0
    expected = [0.0] * (1 << len(decisions))
    for choice in range(1 << len(decisions)):
        for world in range(1 << len(facts)):
            true = {f for i, f in enumerate(facts) if world >> i & 1}
            true |= {d for i, d in enumerate(decisions) if choice >> i & 1}
            weight = math.prod(p.prob_facts[f] if f in true else 1 - p.prob_facts[f] for f in facts)
            for r in p.rules:
                if all(a in true for a in r.pos) and not any(a in true for a in r.neg):
                    true.add(r.head)
            expected[choice] += weight * sum(
                u for (a, sign), u in p.utilities.items() if (a in true) == sign)
            if choice == 0 and all((a in true) == val for a, val in p.evidence.items()):
                key = tuple(a in true for a in p.map_queries)
                best[key] = best.get(key, 0.0) + weight
                succ += weight if p.queries and p.queries[0] in true else 0.0
    return max(best.values(), default=0.0), succ, max(expected)


def random_program(rng: random.Random, family: str, max_vars: int = 14,
                   max_clauses: int = 40) -> Program:
    from nestedamc.programs import clark_completion

    while True:
        p = parse_program(random_program_text(rng, family))
        cnf, _ = clark_completion(p)
        if cnf.num_vars <= max_vars and len(cnf.clauses) <= max_clauses:
            return p


def independent_facts(n: int) -> Program:
    """n independent probabilistic facts at 0.5 and a success query on the
    first: the family of the scale regression tests at n=1100."""
    return parse_program("\n".join([f"0.5::f{i}." for i in range(n)] + ["query(f0)."]))


def positive_chain(n: int) -> Program:
    """Rules a0 :- a1, ..., a(n-1) :- an over the fact 0.3::an, and a success
    query on a0: a positive dependency path of n edges, the family of the
    tightness-check regression test at n=3000."""
    rules = [f"a{i} :- a{i + 1}." for i in range(n)]
    return parse_program("\n".join(rules + [f"0.3::a{n}.", "query(a0)."]))


def implication_chain(n: int) -> LabeledCnf:
    """Outer x_1..x_n chained by x_i -> x_(i+1), each x_i or-ed with its own
    inner y_i = n + i, so the separator is all of x: the scale family for
    order planning over a large separator clique."""
    clauses = [(-i, i + 1) for i in range(1, n)] + [(i, n + i) for i in range(1, n + 1)]
    return LabeledCnf(2 * n, clauses, outer_vars=frozenset(range(1, n + 1)))


def validate_td(g: Graph, td: TreeDecomposition) -> bool:
    """Exhaustively check vertex coverage, edge coverage, that the tree is a
    tree over the bags, and connectedness of every vertex's occurrence set."""
    covered = set()
    for b in td.bags.values():
        covered |= b
    if not set(g) <= covered:
        return False
    for u in g:
        for v in g[u]:
            if not any(u in b and v in b for b in td.bags.values()):
                return False
    nodes = set(td.tree)
    edges = sum(len(n) for n in td.tree.values()) // 2
    if td.bags and (
        nodes != set(td.bags)
        or edges != len(nodes) - 1
        or _reach(td.tree, [td.root], nodes) != nodes
    ):
        return False
    for v in g:
        occ = {t for t, b in td.bags.items() if v in b}
        if _reach(td.tree, [min(occ)], occ) != occ:
            return False
    return True


def separates(g: Graph, sep, x, targets) -> bool:
    """True iff removing `sep` leaves no path from x to the target side."""
    return not _reach(g, x, set(g) - set(sep)) & set(targets)


def random_labels(rng: random.Random, cnf: LabeledCnf) -> LabeledCnf:
    """Probability labels on a structure-only theory (identity transform)."""
    inner = {}
    for v in sorted(cnf.inner_vars):
        if rng.random() < 0.7:
            p = rng.choice(PROB_GRID)
            inner[v] = p
            inner[-v] = 1.0 - p
    outer = {}
    for v in sorted(cnf.outer_vars):
        if rng.random() < 0.7:
            p = rng.choice(PROB_GRID)
            outer[v] = p
            outer[-v] = 1.0 - p
    return LabeledCnf(
        cnf.num_vars, cnf.clauses, outer_vars=cnf.outer_vars,
        inner_label=inner, outer_label=outer,
    )
