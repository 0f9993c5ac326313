"""Shared random generators and independent brute-force oracles for tests."""

from __future__ import annotations

import random

# equivalence_cnf is re-exported for the tests and the benchmark that import it from here
from nestedamc.cnf import LabeledCnf, enumerate_models, equivalence_cnf  # noqa: F401
from nestedamc.programs import Program, parse_program

PROB_GRID = [round(0.1 * k, 1) for k in range(1, 10)]


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
        for _ in range(rng.randint(1, 3)):
            atom = rng.choice(atoms)
            sign = "" if rng.random() < 0.6 else "\\+"
            lines.append(f"utility({sign}{atom}, {rng.randint(-20, 40)}).")
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


def random_program(rng: random.Random, family: str, max_vars: int = 14,
                   max_clauses: int = 40) -> Program:
    from nestedamc.programs import clark_completion

    while True:
        p = parse_program(random_program_text(rng, family))
        cnf, _ = clark_completion(p)
        if cnf.num_vars <= max_vars and len(cnf.clauses) <= max_clauses:
            return p


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
