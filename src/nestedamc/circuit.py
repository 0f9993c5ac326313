"""NNF circuits: data model, exchange-format I/O, smoothing, the two-semiring
evaluator, the brute-force oracle it is checked against, and a property
verifier.

Exchange grammar (one node per line, ids implicit by line order, children
must precede parents):

    nnf <V> <E> <N>
    L <lit>
    A <k> <c1> ... <ck>          A 0 is true
    O <j> <k> <c1> ... <ck>      j = decision variable, 0 if none; O 0 0 is false
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .cnf import LabeledCnf, enumerate_models
from .errors import CapacityError, ConfigError, ParseError, PreconditionError, decode_ascii
from .sat import SatSolver
from .semirings import SEMIRINGS, TRANSFORMS, check_pairing


@dataclass(frozen=True)
class Node:
    kind: str  # "L", "A", "O"
    lit: int = 0
    dvar: int = 0
    children: tuple[int, ...] = ()


class Circuit:
    """A rooted DAG of literal/and/or nodes in topological order, understood
    over the variables 1..num_vars; smoothing pads up to them. True is the
    empty and-node, false the empty or-node.
    """

    def __init__(self, nodes: list[Node], root: int, num_vars: int, stats=None):
        self.nodes = nodes
        self.root = root
        self.num_vars = num_vars
        self.stats = stats
        self._masks: Optional[list[int]] = None

    @property
    def variables(self) -> frozenset[int]:
        return frozenset(range(1, self.num_vars + 1))

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return sum(len(n.children) for n in self.nodes)

    def masks(self) -> list[int]:
        """Per-node variable sets as bitmasks, children first."""
        if self._masks is None:
            out = []
            for nd in self.nodes:
                if nd.kind == "L":
                    m = 1 << abs(nd.lit)
                else:
                    m = 0
                    for c in nd.children:
                        m |= out[c]
                out.append(m)
            self._masks = out
        return self._masks

    def node_vars(self, i: int) -> frozenset[int]:
        m = self.masks()[i]
        return frozenset(v for v in range(1, self.num_vars + 1) if m >> v & 1)


def _mask_of(vars_iter: Iterable[int]) -> int:
    m = 0
    for v in vars_iter:
        m |= 1 << v
    return m


def parse_nnf(text, num_vars: Optional[int] = None) -> Circuit:
    """Parse the exchange format; the root is the last node."""
    if isinstance(text, bytes):
        text = decode_ascii(text)
    nodes: list[Node] = []
    declared_vars = 0
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split()
        if not parts or parts[0] == "c":
            continue
        if parts[0] == "nnf":
            if header_seen:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4:
                raise ParseError("malformed header", lineno)
            try:
                _, _, declared_vars = map(int, parts[1:])
            except ValueError:
                raise ParseError("malformed header", lineno)
            header_seen = True
            continue
        if not header_seen:
            raise ParseError("node line before header", lineno)
        kind = parts[0]
        try:
            if kind == "L":
                lit = int(parts[1])
                if lit == 0:
                    raise ParseError("0 is not a literal", lineno)
                nodes.append(Node("L", lit=lit))
            elif kind == "A":
                k = int(parts[1])
                children = tuple(int(x) for x in parts[2:])
                if len(children) != k:
                    raise ParseError("child count mismatch", lineno)
                nodes.append(Node("A", children=children))
            elif kind == "O":
                j = int(parts[1])
                k = int(parts[2])
                children = tuple(int(x) for x in parts[3:])
                if len(children) != k:
                    raise ParseError("child count mismatch", lineno)
                nodes.append(Node("O", dvar=j, children=children))
            else:
                raise ParseError(f"unknown node kind {kind}", lineno)
        except (ValueError, IndexError):
            raise ParseError("malformed node line", lineno)
        me = len(nodes) - 1
        for c in nodes[-1].children:
            if not 0 <= c < me:
                raise ParseError(f"child {c} is not an earlier node", lineno)
    if not nodes:
        raise ParseError("empty circuit")
    nv = num_vars if num_vars is not None else declared_vars
    nv = max(nv, max((abs(n.lit) for n in nodes if n.kind == "L"), default=0))
    return Circuit(nodes, len(nodes) - 1, nv)


def emit_nnf(circuit: Circuit) -> str:
    # the reader takes the last node as the root, so reorder when needed
    order = list(range(len(circuit.nodes)))
    if circuit.root != order[-1]:
        order.remove(circuit.root)
        order.append(circuit.root)
    remap = {old: new for new, old in enumerate(order)}
    lines = [f"nnf {circuit.node_count} {circuit.edge_count} {circuit.num_vars}"]
    for old in order:
        nd = circuit.nodes[old]
        if nd.kind == "L":
            lines.append(f"L {nd.lit}")
        elif nd.kind == "A":
            lines.append(
                f"A {len(nd.children)}" + "".join(f" {remap[c]}" for c in nd.children)
            )
        else:
            lines.append(
                f"O {nd.dvar} {len(nd.children)}"
                + "".join(f" {remap[c]}" for c in nd.children)
            )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- smoothing


def smooth(circuit: Circuit, outer_vars=None) -> Circuit:
    """Make every or-node's children mention the same variables and the root
    mention the whole universe, by padding with (v or not v) gates. The model
    set is unchanged; an already-smooth circuit comes back structurally
    identical.

    When `outer_vars` is given, gates for missing inner variables are pushed
    below the outer-variable structure (into the unique mixed child of an
    and-node, or into every child of an or-node), so a circuit that decides
    the outer variables first keeps that shape.
    """
    out_mask = _mask_of(outer_vars or ())
    nodes: list[Node] = []
    index: dict[Node, int] = {}
    new_masks: list[int] = []

    def mk(node: Node, mask: int) -> int:
        got = index.get(node)
        if got is not None:
            return got
        nodes.append(node)
        new_masks.append(mask)
        index[node] = len(nodes) - 1
        return index[node]

    gate_cache: dict[int, int] = {}

    def gate(v: int) -> int:
        got = gate_cache.get(v)
        if got is None:
            p = mk(Node("L", lit=v), 1 << v)
            n = mk(Node("L", lit=-v), 1 << v)
            got = mk(Node("O", dvar=v, children=(p, n)), 1 << v)
            gate_cache[v] = got
        return got

    def attach(nid: int, missing_mask: int) -> int:
        gates = tuple(
            gate(v) for v in range(1, circuit.num_vars + 1) if missing_mask >> v & 1
        )
        nd = nodes[nid]
        base = nd.children if nd.kind == "A" else (nid,)
        return mk(Node("A", children=base + gates), new_masks[nid] | missing_mask)

    pad_memo: dict[tuple[int, int], int] = {}

    def pad_targets(nid: int, missing: int):
        """The children a padding of `nid` recurses into, or None when the
        gates are attached at `nid` itself: every child of a mixed or-node,
        or the unique mixed child of a mixed and-node."""
        m = new_masks[nid]
        if not (missing & ~out_mask and m & out_mask and m & ~out_mask):
            return None
        nd = nodes[nid]
        if nd.kind == "O":
            return nd.children or None
        mixed = [c for c in nd.children
                 if new_masks[c] & out_mask and new_masks[c] & ~out_mask]
        return mixed if len(mixed) == 1 else None

    def padded(nid: int, missing: int, targets, done) -> int:
        if targets is None:
            return attach(nid, missing)
        nd = nodes[nid]
        m = new_masks[nid] | missing & ~out_mask
        if nd.kind == "O":
            res = mk(Node("O", dvar=nd.dvar, children=tuple(done)), m)
        else:
            kids = tuple(done[0] if c == targets[0] else c for c in nd.children)
            res = mk(Node("A", children=kids), m)
        if missing & out_mask:
            res = attach(res, missing & out_mask)
        return res

    def pad(nid: int, missing: int) -> int:
        # a depth-first recursion over mixed nodes, run on an explicit stack:
        # each frame pads its targets one at a time, in order, and builds its
        # own node once all are done, so nodes are made in recursion order
        if not missing:
            return nid
        got = pad_memo.get((nid, missing))
        if got is not None:
            return got
        stack = [(nid, missing, pad_targets(nid, missing), [])]
        while True:
            nid, missing, targets, done = stack[-1]
            if targets is not None and len(done) < len(targets):
                child = targets[len(done)]
                inner = missing & ~out_mask
                got = pad_memo.get((child, inner))
                if got is None:
                    stack.append((child, inner, pad_targets(child, inner), []))
                else:
                    done.append(got)
                continue
            res = pad_memo[nid, missing] = padded(nid, missing, targets, done)
            stack.pop()
            if not stack:
                return res
            stack[-1][3].append(res)

    mapping: list[int] = []
    for nd in circuit.nodes:
        if nd.kind == "L":
            mapping.append(mk(nd, 1 << abs(nd.lit)))
        elif nd.kind == "A":
            children = tuple(mapping[c] for c in nd.children)
            m = 0
            for c in children:
                m |= new_masks[c]
            mapping.append(mk(Node("A", children=children), m))
        else:
            children = tuple(mapping[c] for c in nd.children)
            union = 0
            for c in children:
                union |= new_masks[c]
            children = tuple(pad(c, union & ~new_masks[c]) for c in children)
            mapping.append(mk(Node("O", dvar=nd.dvar, children=children), union))

    root = mapping[circuit.root]
    root = pad(root, _mask_of(circuit.variables) & ~new_masks[root])
    return Circuit(nodes, root, circuit.num_vars)


# -------------------------------------------------------------- evaluation


@dataclass(frozen=True)
class NestedInstance:
    """A labeled CNF read as a nested counting task: an inner aggregate per
    outer assignment, a value transformation, then an outer aggregate."""

    cnf: LabeledCnf

    def __post_init__(self):
        check_pairing(self.cnf.inner_sr, self.cnf.outer_sr, self.cnf.transform)


class EvaluationRefused(PreconditionError):
    """The circuit failed verification; the property report says why."""

    def __init__(self, message, report):
        self.report = report
        super().__init__(message)


def evaluate_verified(circuit: Circuit, instance: NestedInstance, d=frozenset(),
                      outer_first_required: bool = False,
                      equivalence_var_limit: int = 20):
    """Verify the circuit's properties for the instance's partition first and
    refuse evaluation (carrying the report) when they do not hold."""
    report = verify_circuit(
        circuit, instance.cnf, d, equivalence_var_limit=equivalence_var_limit
    )
    if not report.ok_for(outer_first_required):
        raise EvaluationRefused(
            "circuit failed verification: "
            f"decomposable={report.decomposable} deterministic={report.deterministic} "
            f"smooth={report.smooth} outer_first={report.outer_first} "
            f"outer_first_mod_defs={report.outer_first_mod_defs}",
            report,
        )
    return evaluate_nested(circuit, instance)


def evaluate_nested(circuit: Circuit, instance: NestedInstance, collect=None):
    """Single bottom-up pass over a smooth deterministic decomposable circuit.

    Nodes whose variables are all inner evaluate in the inner semiring;
    whenever an inner value meets an outer context at an and-node (or at the
    root), it crosses through the transformation function. `collect`, if
    given, receives every inner value that crosses.
    """
    cnf = instance.cnf
    sin = SEMIRINGS[cnf.inner_sr]
    sout = SEMIRINGS[cnf.outer_sr]
    t = TRANSFORMS[cnf.transform].fn
    masks = circuit.masks()
    outer_mask = _mask_of(cnf.outer_vars)

    values: list[object] = [None] * len(circuit.nodes)
    for i, nd in enumerate(circuit.nodes):
        is_outer = bool(masks[i] & outer_mask)
        if nd.kind == "L":
            if is_outer:
                values[i] = cnf.outer_weight(nd.lit)
            else:
                values[i] = cnf.inner_weight(nd.lit)
        elif nd.kind == "A":
            if not is_outer:
                acc = sin.one
                for c in nd.children:
                    acc = sin.mul(acc, values[c])
            else:
                acc = sout.one
                for c in nd.children:
                    if masks[c] & outer_mask:
                        acc = sout.mul(acc, values[c])
                    else:
                        if collect is not None:
                            collect.append(values[c])
                        acc = sout.mul(acc, t(values[c]))
            values[i] = acc
        else:  # O
            if not nd.children:
                values[i] = sin.zero  # false node, inner-tagged (no variables)
                continue
            side = sin if not is_outer else sout
            for c in nd.children:
                if bool(masks[c] & outer_mask) != is_outer:
                    raise PreconditionError(
                        f"or-node {i} mixes inner and outer children; "
                        "evaluation requires a smooth circuit"
                    )
            acc = values[nd.children[0]]
            for c in nd.children[1:]:
                acc = side.add(acc, values[c])
            values[i] = acc

    result = values[circuit.root]
    if not masks[circuit.root] & outer_mask:
        if collect is not None:
            collect.append(result)
        result = t(result)
    return result


def brute_force_nested(instance: NestedInstance, max_vars: int = 24):
    """Direct evaluation of the defining double aggregate: enumerate the
    outer assignments and, per outer assignment, the models extending it.
    This is the independent oracle the circuit path is checked against."""
    if max_vars < 0:
        raise ConfigError(f"oracle guard must not be negative, got {max_vars}")
    cnf = instance.cnf
    variables = sorted(cnf.variables)
    n = len(variables)
    if n > max_vars:
        raise CapacityError(f"{n} variables exceed the oracle guard of {max_vars}")
    sin = SEMIRINGS[cnf.inner_sr]
    sout = SEMIRINGS[cnf.outer_sr]
    t = TRANSFORMS[cnf.transform].fn

    bit = {v: i for i, v in enumerate(variables)}
    clause_masks = []
    for cl in cnf.clauses:
        pm = nm = 0
        for l in cl:
            if l > 0:
                pm |= 1 << bit[l]
            else:
                nm |= 1 << bit[-l]
        clause_masks.append((pm, nm))
    full = (1 << n) - 1

    outer_list = [v for v in variables if v in cnf.outer_vars]
    inner_list = [v for v in variables if v not in cnf.outer_vars]
    w_pos = [cnf.inner_weight(v) for v in inner_list]
    w_neg = [cnf.inner_weight(-v) for v in inner_list]
    inner_bits = [bit[v] for v in inner_list]
    outer_bits = [bit[v] for v in outer_list]

    inner_sums: dict[int, object] = {}
    for m in range(1 << n):
        sat = True
        for pm, nm in clause_masks:
            if not ((pm & m) or (nm & ~m & full)):
                sat = False
                break
        if not sat:
            continue
        prod = sin.one
        for j, b in enumerate(inner_bits):
            prod = sin.mul(prod, w_pos[j] if m >> b & 1 else w_neg[j])
        key = 0
        for j, b in enumerate(outer_bits):
            key |= (m >> b & 1) << j
        inner_sums[key] = sin.add(inner_sums.get(key, sin.zero), prod)

    total = sout.zero
    for key in range(1 << len(outer_list)):
        term = sout.one
        for j, v in enumerate(outer_list):
            lit = v if key >> j & 1 else -v
            term = sout.mul(term, cnf.outer_weight(lit))
        term = sout.mul(term, t(inner_sums.get(key, sin.zero)))
        total = sout.add(total, term)
    return total


# ------------------------------------------------------- model enumeration


def count_models(circuit: Circuit, over: Optional[frozenset[int]] = None) -> int:
    """Model count of a deterministic decomposable circuit over a variable
    set, unconstrained variables counting both ways."""
    over = circuit.variables if over is None else frozenset(over)
    masks = circuit.masks()
    counts: list[int] = []
    for i, nd in enumerate(circuit.nodes):
        if nd.kind == "L":
            counts.append(1)
        elif nd.kind == "A":
            c = 1
            for ch in nd.children:
                c *= counts[ch]
            counts.append(c)
        else:
            total = 0
            for ch in nd.children:
                gap = bin(masks[i] & ~masks[ch]).count("1")
                total += counts[ch] << gap
            counts.append(total)
    gap = len(over - circuit.node_vars(circuit.root))
    return counts[circuit.root] << gap


def circuit_models(
    circuit: Circuit, over: Optional[frozenset[int]] = None, guard: int = 1 << 21
) -> frozenset[frozenset[int]]:
    """Enumerate the models of a deterministic decomposable circuit as total
    assignments over `over` (default: the circuit's variable universe)."""
    over = circuit.variables if over is None else frozenset(over)
    if count_models(circuit, over) > guard:
        raise CapacityError("model set too large to enumerate")
    masks = circuit.masks()

    def expand(models, missing_vars):
        for v in missing_vars:
            models = {m | {s} for m in models for s in (v, -v)}
        return models

    sets: list[set[frozenset[int]]] = []
    for i, nd in enumerate(circuit.nodes):
        if nd.kind == "L":
            sets.append({frozenset([nd.lit])})
        elif nd.kind == "A":
            acc = {frozenset()}
            for ch in nd.children:
                acc = {a | b for a in acc for b in sets[ch]}
            sets.append(acc)
        else:
            acc = set()
            for ch in nd.children:
                missing = [
                    v for v in range(1, circuit.num_vars + 1)
                    if (masks[i] & ~masks[ch]) >> v & 1
                ]
                acc |= expand(sets[ch], missing)
            sets.append(acc)
    root_models = sets[circuit.root]
    missing = sorted(over - circuit.node_vars(circuit.root))
    return frozenset(expand(root_models, missing))


def count_boundary_nodes(circuit: Circuit, outer_vars) -> int:
    """Distinct maximal pure-inner nodes: nodes over inner variables only
    whose parent (or root position) sits in an outer context."""
    masks = circuit.masks()
    outer_mask = _mask_of(outer_vars)
    has_outer_parent = [False] * len(circuit.nodes)
    for i, nd in enumerate(circuit.nodes):
        if masks[i] & outer_mask:
            for c in nd.children:
                has_outer_parent[c] = True
    count = 0
    for i in range(len(circuit.nodes)):
        if masks[i] and not masks[i] & outer_mask:
            if has_outer_parent[i] or i == circuit.root:
                count += 1
    return count


# ---------------------------------------------------------------- verifier


@dataclass(frozen=True)
class PropertyReport:
    decomposable: bool
    deterministic: bool
    smooth: bool
    outer_first: bool
    outer_first_mod_defs: bool
    strictly_mod_defs: bool
    flagged_nodes: tuple[int, ...]
    model_equivalent: Optional[bool]

    def ok_for(self, outer_first_required: bool) -> bool:
        base = self.decomposable and self.deterministic and self.smooth
        if outer_first_required:
            return base and self.outer_first
        return base and self.outer_first_mod_defs


def _decision_literal(circuit: Circuit, child: int, dvar: int) -> Optional[int]:
    nd = circuit.nodes[child]
    if nd.kind == "L" and abs(nd.lit) == dvar:
        return nd.lit
    if nd.kind == "A":
        for c in nd.children:
            sub = circuit.nodes[c]
            if sub.kind == "L" and abs(sub.lit) == dvar:
                return sub.lit
    return None


# or-nodes that are not syntactic decisions fall back to pairwise SAT checks
# only in circuits up to this size; larger ones are reported nondeterministic
_SAT_CHECK_NODE_LIMIT = 2000


def _sat_pairwise_deterministic(circuit: Circuit, or_nodes) -> bool:
    """Fallback determinism check: each pair of or-children must be jointly
    unsatisfiable. Standard node-variable encoding of both subcircuits."""
    node_var = {}
    solver = SatSolver(circuit.num_vars)
    next_var = circuit.num_vars

    def encode(top: int) -> int:
        # explicit stack, so circuit depth is not bounded by Python's
        # recursion limit; a node gets its variable on the way down and its
        # clauses once every child has one
        nonlocal next_var
        stack = [(top, False)]
        while stack:
            i, expanded = stack.pop()
            nd = circuit.nodes[i]
            if expanded:
                v = node_var[i]
                lits = [node_var[c] for c in nd.children]
                if nd.kind == "A":
                    for l in lits:
                        solver.add_clause([-v, l])
                    solver.add_clause([v] + [-l for l in lits])
                else:
                    solver.add_clause([-v] + lits)
                    for l in lits:
                        solver.add_clause([v, -l])
            elif i in node_var:
                continue
            elif nd.kind == "L":
                node_var[i] = nd.lit
            else:
                next_var += 1
                solver.ensure_vars(next_var)
                node_var[i] = next_var
                stack.append((i, True))
                stack.extend((c, False) for c in reversed(nd.children))
        return node_var[top]

    for i in or_nodes:
        children = circuit.nodes[i].children
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                va = encode(children[a])
                vb = encode(children[b])
                if solver.solve([va, vb]) is not None:
                    return False
    return True


def verify_circuit(
    circuit: Circuit,
    cnf: LabeledCnf,
    d=frozenset(),
    equivalence_var_limit: int = 20,
) -> PropertyReport:
    """Check decomposability, determinism, smoothness, outer-firstness, and
    outer-firstness modulo the statically defined variables `d`.

    The modulo-definability check uses the fixed global `d`; nodes justified
    only by propagation context or by component splits are flagged rather
    than failed. Model equivalence against the CNF is checked by enumeration
    when the variable count permits.
    """
    masks = circuit.masks()
    nodes = circuit.nodes
    outer_mask = _mask_of(cnf.outer_vars)
    xd_mask = outer_mask | _mask_of(d)

    decomposable = True
    for nd in nodes:
        if nd.kind == "A":
            acc = 0
            for c in nd.children:
                if acc & masks[c]:
                    decomposable = False
                    break
                acc |= masks[c]

    deterministic = True
    sat_fallback = []
    for i, nd in enumerate(nodes):
        if nd.kind != "O" or len(nd.children) <= 1:
            continue
        fixed = [
            _decision_literal(circuit, c, nd.dvar) if nd.dvar else None
            for c in nd.children
        ]
        if None in fixed or len(set(fixed)) != len(fixed):
            sat_fallback.append(i)
    if sat_fallback:
        if circuit.node_count <= _SAT_CHECK_NODE_LIMIT:
            deterministic = _sat_pairwise_deterministic(circuit, sat_fallback)
        else:
            deterministic = False

    live_mask = _mask_of(cnf.variables)
    smooth_ok = masks[circuit.root] & live_mask == live_mask
    for i, nd in enumerate(nodes):
        if nd.kind == "O" and nd.children:
            if any(masks[c] != masks[i] for c in nd.children):
                smooth_ok = False
                break

    def pure(c):
        return masks[c] & outer_mask == 0 or masks[c] | outer_mask == outer_mask

    outer_first = True
    for nd in nodes:
        if nd.kind != "A":
            continue
        mixed = [c for c in nd.children if not pure(c)]
        if not mixed:
            continue
        if len(mixed) > 1:
            outer_first = False
            break
        others = [c for c in nd.children if pure(c)]
        if not all(masks[c] | outer_mask == outer_mask for c in others):
            outer_first = False
            break

    def pure_mod(c):
        return masks[c] & outer_mask == 0 or masks[c] | xd_mask == xd_mask

    # or-parents branching on a variable; dvar 0 means the branch variable is
    # unknown, which the flagging below treats conservatively
    branched_on: dict[int, set[int]] = {}
    for nd in nodes:
        if nd.kind == "O" and len(nd.children) > 1:
            for c in nd.children:
                branched_on.setdefault(c, set()).add(nd.dvar)

    strictly = True
    flagged = []
    mod_ok = True
    for i, nd in enumerate(nodes):
        if nd.kind != "A":
            continue
        mixed = [c for c in nd.children if not pure_mod(c)]
        others = [c for c in nd.children if pure_mod(c)]
        conforming = len(mixed) <= 1 and (
            not mixed or all(masks[c] | xd_mask == xd_mask for c in others)
        )
        if conforming:
            continue
        strictly = False
        # Shapes justified beyond the static check, flagged rather than
        # failed: pure-inner children that are unit-propagated literals or
        # whole split-off components crossing the transform, and multiple
        # variable-disjoint mixed children from component splits. A pure-inner
        # literal the enclosing or-node branches on is an early inner
        # decision, which the static check rightly rejects.
        acc = 0
        justified = True
        for c in nd.children:
            if acc & masks[c]:
                justified = False
                break
            acc |= masks[c]
        if justified:
            for c in others:
                if masks[c] | xd_mask == xd_mask:
                    continue
                if masks[c] & outer_mask:
                    justified = False
                    break
                child = nodes[c]
                if child.kind == "L":
                    dvars = branched_on.get(i, set())
                    if 0 in dvars or abs(child.lit) in dvars:
                        justified = False
                        break
        if justified:
            flagged.append(i)
        else:
            mod_ok = False

    equivalent = None
    if len(cnf.variables) <= equivalence_var_limit:
        try:
            cms = circuit_models(circuit, over=cnf.variables)
            tms = frozenset(enumerate_models(cnf, max_vars=equivalence_var_limit))
            equivalent = cms == tms
        except CapacityError:
            equivalent = None

    return PropertyReport(
        decomposable=decomposable,
        deterministic=deterministic,
        smooth=smooth_ok,
        outer_first=outer_first,
        outer_first_mod_defs=mod_ok,
        strictly_mod_defs=strictly,
        flagged_nodes=tuple(flagged),
        model_equivalent=equivalent,
    )
