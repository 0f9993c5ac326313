"""Instance generators and independent references for the benchmark families.

Every generator takes a `random.Random` and returns an `Instance`: the input
the pipeline receives (program text, or a labeled CNF for the biconditional
family) and a reference value with its witness. The references are computed
here from the generator's own rule lists, without the pipeline's frontend,
orders, compiler or evaluator.

Families:

  chain    n facts f_i; r_i :- (+-)f_i, (+-)r_{i-1} with random signs, and
           r_i :- f_{i-2}, \\+f_{i-1}. MAP queries every 4th fact with no
           evidence; MEU adds max(1, n//8) decisions to rule bodies (d_k in
           the body of r_{8k+4}), a utility on every 3rd r_i and a cost on
           every decision.
  forest   k independent clusters of 3 facts and 2 derived atoms. MAP: one
           map query and one evidence atom per cluster. MEU: one decision in a
           rule body and one utility per cluster.
  bicond   n biconditionals X_i <-> Y_i, X outer, with MAP labels.

Witnesses are compared exactly, so every generator draws its labels until the
optimum is unique by a clear margin (`_unique`); the draw depends only on the
random stream, never on what the pipeline does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from nestedamc.cnf import LabeledCnf
from nestedamc.semirings import SemiringId, TransformId

# Two values whose relative difference is within this are equal. The pipeline
# and the references sum and multiply in different orders, so the last bits
# of a float may differ.
REL_TOL = 1e-9

# The best and second-best outer choices differ by at least this share.
_MARGIN = 1e-6


@dataclass(frozen=True)
class Instance:
    """One generated input with its expected answer.

    `task` is "map" or "meu"; `text` is the program for the program
    families and None for `cnf` instances. `witness` holds the (name, sign)
    pairs of the optimal outer assignment in variable-index order, which for
    programs is the frontend's first-appearance order of the atoms.
    """

    name: str
    task: str
    value: float
    witness: tuple
    text: Optional[str] = None
    cnf: Optional[LabeledCnf] = None

    def witness_string(self) -> str:
        """The witness rendered the way `cli.format_value` renders it."""
        return " ".join(n if s else "~" + n for n, s in self.witness) or "(empty)"


def close(a: float, b: float) -> bool:
    """Equal within REL_TOL relative difference."""
    return abs(a - b) <= REL_TOL * max(abs(a), abs(b))


def _unique(scores) -> bool:
    top = sorted(scores, reverse=True)
    return len(top) < 2 or top[0] - top[1] > _MARGIN * max(abs(top[0]), abs(top[1]))


def _prob(rng) -> float:
    """A probability on a 3-decimal grid strictly inside (0, 1)."""
    return round(rng.uniform(0.05, 0.95), 3)


def _utility(rng) -> int:
    while True:
        u = rng.randint(-20, 40)
        if u:
            return u


def _render(probs, decisions, rules, tail) -> str:
    lines = [f"{p}::{a}." for a, p in probs.items()]
    lines += [f"?::{d}." for d in decisions]
    for head, body in rules:
        lits = ", ".join(a if s else "\\+" + a for a, s in body)
        lines.append(f"{head} :- {lits}.")
    return "\n".join(lines + tail) + "\n"


def _holds(bodies, env) -> bool:
    return any(all(env[a] == s for a, s in body) for body in bodies)


def _weight(probs, env, atoms) -> float:
    w = 1.0
    for a in atoms:
        w *= probs[a] if env[a] else 1.0 - probs[a]
    return w


# ---------------------------------------------------------------- chain


def chain(rng, n: int, task: str) -> Instance:
    """A chain instance; rules are (head, [(atom, sign), ...]) in head order."""
    m = max(1, n // 8) if task == "meu" else 0
    decisions = [f"d{k}" for k in range(m)]
    while True:
        rules = []
        for i in range(1, n + 1):
            body = [(f"f{i}", rng.random() < 0.5)]
            if i > 1:
                body.append((f"r{i - 1}", rng.random() < 0.5))
            if i % 8 == 4 and i // 8 < m:
                body.append((decisions[i // 8], True))
            rules.append((f"r{i}", body))
            if i >= 3:
                rules.append((f"r{i}", [(f"f{i - 2}", True), (f"f{i - 1}", False)]))
        probs = {f"f{i}": _prob(rng) for i in range(1, n + 1)}
        if task == "map":
            queries = [f"f{i}" for i in range(4, n + 1, 4)]
            if all(_unique((probs[q], 1.0 - probs[q])) for q in queries):
                break
            continue
        utils = {f"r{i}": _utility(rng) for i in range(3, n + 1, 3)}
        # a decision's own cost keeps it relevant when the rules after it
        # mask its effect on every utility
        utils.update((d, -rng.randint(1, 10)) for d in decisions)
        scores = _chain_meu_scores(n, probs, decisions, rules, utils)
        if _unique(scores.values()):
            break
    if task == "map":
        text = _render(probs, decisions, rules, [f"map({q})." for q in queries])
        value = 1.0
        for q in queries:
            value *= max(probs[q], 1.0 - probs[q])
        witness = tuple((q, probs[q] > 0.5) for q in queries)
        return Instance(f"chain-map-n{n}", "map", value, witness, text=text)
    text = _render(probs, decisions, rules,
                   [f"utility({a}, {u})." for a, u in utils.items()])
    choice = max(scores, key=scores.get)
    witness = tuple(zip(decisions, choice))
    return Instance(f"chain-meu-n{n}", "meu", scores[choice], witness, text=text)


def _chain_meu_scores(n, probs, decisions, rules, utils) -> dict:
    """Expected utility of every decision assignment: for each, a forward
    dynamic program over the chain window (f_{i-2}, f_{i-1}, r_{i-1})
    carrying probability mass and probability-weighted utility."""
    steps = []
    for i in range(1, n + 1):
        # a rule body for r_i reads f_i, f_{i-1}, f_{i-2}, r_{i-1} and the
        # decisions, at these positions of the environment tuple
        slot = {f"f{i}": 0, f"f{i - 1}": 1, f"f{i - 2}": 2, f"r{i - 1}": 3}
        slot.update((d, 4 + k) for k, d in enumerate(decisions))
        bodies = [tuple((slot[a], s) for a, s in body)
                  for head, body in rules if head == f"r{i}"]
        steps.append((probs[f"f{i}"], utils.get(f"r{i}", 0.0), bodies))
    scores = {}
    for choice in itertools.product((True, False), repeat=len(decisions)):
        states = {(False, False, False): (1.0, 0.0)}
        for p, u, bodies in steps:
            nxt: dict[tuple, tuple] = {}
            for (f_2, f_1, r_1), (mass, eu) in states.items():
                for f_i, w in ((True, p), (False, 1.0 - p)):
                    env = (f_i, f_1, f_2, r_1) + choice
                    r_i = any(all(env[k] == s for k, s in body) for body in bodies)
                    key = (f_1, f_i, r_i)
                    m0, e0 = nxt.get(key, (0.0, 0.0))
                    gain = u if r_i else 0.0
                    nxt[key] = (m0 + mass * w, e0 + (eu + mass * gain) * w)
            states = nxt
        cost = sum(utils[d] for d, on in zip(decisions, choice) if on)
        scores[choice] = cost + sum(eu for _, eu in states.values())
    return scores


# ---------------------------------------------------------------- forest


def _forest_cluster(j: int, task: str):
    """Rule list of cluster j; heads come after the atoms their bodies use."""
    a, b, c, r, s, d = (f"{x}{j}" for x in "abcrsd")
    if task == "map":
        return [(r, [(a, True), (b, False)]), (r, [(c, True)]),
                (s, [(r, True), (b, True)]), (s, [(r, False), (a, False)])]
    return [(r, [(d, True), (a, True)]), (r, [(c, True), (b, False)]),
            (s, [(r, True), (b, True)]), (s, [(r, False), (a, False)])]


def _cluster_scores(j: int, task: str, probs, flag) -> dict:
    """Per-cluster enumeration over the three facts, for each value of the
    cluster's outer atom: MAP probability of the evidence s_j = flag, or
    expected utility flag * P(s_j)."""
    a, b, c, r, s, d = (f"{x}{j}" for x in "abcrsd")
    rules = _forest_cluster(j, task)
    r_bodies = [body for head, body in rules if head == r]
    s_bodies = [body for head, body in rules if head == s]
    outer = a if task == "map" else d
    scores = {}
    for ov in (True, False):
        tot = 0.0
        for vals in itertools.product((True, False), repeat=3):
            env = dict(zip((a, b, c), vals), **{d: ov})
            if env[outer] != ov:
                continue
            env[r] = _holds(r_bodies, env)
            env[s] = _holds(s_bodies, env)
            w = _weight(probs, env, (a, b, c))
            if task == "map" and env[s] == flag:
                tot += w
            elif task == "meu" and env[s]:
                tot += flag * w
        scores[ov] = tot
    return scores


def forest(rng, k: int, task: str) -> Instance:
    """k clusters; the value is the product (MAP) or sum (MEU) of the
    per-cluster optima, and the witness their union."""
    probs, decisions, rules, tail = {}, [], [], []
    value = 1.0 if task == "map" else 0.0
    witness = []
    for j in range(k):
        a, s, d = f"a{j}", f"s{j}", f"d{j}"
        while True:
            cp = {f"{x}{j}": _prob(rng) for x in "abc"}
            flag = rng.random() < 0.5 if task == "map" else _utility(rng)
            scores = _cluster_scores(j, task, cp, flag)
            if _unique(scores.values()):
                break
        probs.update(cp)
        rules += _forest_cluster(j, task)
        best = max(scores, key=scores.get)
        if task == "map":
            tail += [f"map({a}).", f"evidence({s}, {'true' if flag else 'false'})."]
            value *= scores[best]
            witness.append((a, best))
        else:
            decisions.append(d)
            tail.append(f"utility({s}, {flag}).")
            value += scores[best]
            witness.append((d, best))
    text = _render(probs, decisions, rules, tail)
    return Instance(f"forest-{task}-k{k}", task, value, tuple(witness), text=text)


# ---------------------------------------------------------------- bicond


def bicond(rng, n: int) -> Instance:
    """The clauses of the biconditional separation family (X_i <-> Y_i for
    i = 1..n, X = 1..n outer, Y = n+1..2n inner), labelled for MAP: outer
    probability p_i on X_i, inner probability q_i on Y_i.

    Closed form: the value is the product over i of
    max(p_i q_i, (1-p_i)(1-q_i)), and the witness picks the sign of X_i
    that attains each maximum."""
    clauses = []
    for i in range(1, n + 1):
        clauses += [(-i, n + i), (i, -(n + i))]
    outer, inner, names = {}, {}, {}
    value, witness = 1.0, []
    for i in range(1, n + 1):
        while True:
            p, q = _prob(rng), _prob(rng)
            pos, neg = p * q, (1.0 - p) * (1.0 - q)
            if _unique((pos, neg)):
                break
        outer[i] = (p, frozenset([i]))
        outer[-i] = (1.0 - p, frozenset([-i]))
        inner[n + i] = q
        inner[-(n + i)] = 1.0 - q
        names[i], names[n + i] = f"x{i}", f"y{i}"
        value *= max(pos, neg)
        witness.append((f"x{i}", pos > neg))
    cnf = LabeledCnf(
        2 * n, clauses, outer_vars=frozenset(range(1, n + 1)),
        inner_label=inner, outer_label=outer,
        inner_sr=SemiringId.PROBABILITY, outer_sr=SemiringId.MAP_ARGMAX,
        transform=TransformId.PROB_TO_MAP, names=names,
    )
    return Instance(f"bicond-n{n}", "map", value, tuple(witness), cnf=cnf)
