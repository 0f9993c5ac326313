"""NNF circuits: data model, exchange-format I/O, smoothing, the two-semiring
evaluator, the brute-force oracle it is checked against, and a property
verifier.

Layout. A circuit is one flat node store, filled in topological order
(children before parents) by the compiler, by `smooth` and by `parse_nnf`:

    kinds    one kind code per node: LIT, AND or OR
    vals     the literal of a literal node, the decision variable of an
             or-node (0 if none), 0 for an and-node
    offsets  CSR child offsets: node i's children are
             kids[offsets[i]:offsets[i + 1]]
    kids     the children of every node, one flat array
    masks    each node's variables as a bitmask, bit v for variable v

A node's mask is computed once, when the node is added, as the OR of its
children's masks, and stays on the circuit for smoothing, verification and
evaluation. Nodes with equal masks share one mask object: a circuit has far
fewer distinct variable sets than nodes. True is the empty and-node, false
the empty or-node.

`smooth` returns its input itself when the input is already smooth: every
or-node's children have the or-node's mask and the root's mask covers every
variable. Otherwise it rebuilds the circuit, hash-consing the nodes it makes.

Exchange grammar (one node per line, ids implicit by line order, children
must precede parents):

    nnf <V> <E> <N>
    L <lit>
    A <k> <c1> ... <ck>          A 0 is true
    O <j> <k> <c1> ... <ck>      j = decision variable, 0 if none; O 0 0 is false
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Iterable, Optional

from .cnf import LabeledCnf, enumerate_models
from .errors import CapacityError, ConfigError, ParseError, PreconditionError, decode_ascii
from .sat import SatSolver
from .semirings import SEMIRINGS, TRANSFORMS, check_pairing

LIT, AND, OR = 0, 1, 2  # node kind codes; "LAO"[kind] is the exchange-format letter


class Circuit:
    """A rooted DAG of literal/and/or nodes in topological order, understood
    over the variables 1..num_vars; smoothing pads up to them. Starts empty:
    `add` appends nodes, then `root` is set."""

    __slots__ = ("kinds", "vals", "offsets", "kids", "masks", "_shared", "root",
                 "num_vars", "stats")

    def __init__(self, num_vars: int, stats=None):
        self.kinds = bytearray()
        self.vals = array("i")
        self.offsets = array("i", [0])
        self.kids = array("i")
        self.masks: list[int] = []
        self._shared: dict[int, int] = {}  # one object per distinct mask
        self.root = -1
        self.num_vars = num_vars
        self.stats = stats

    def add(self, kind: int, val: int = 0, children=()) -> int:
        """Append a node over earlier nodes and return its id."""
        self.vals.append(val)
        masks = self.masks
        if kind == LIT:
            m = 1 << abs(val)
        else:
            m = 0
            for c in children:
                m |= masks[c]
        self.kinds.append(kind)
        self.kids.extend(children)
        self.offsets.append(len(self.kids))
        masks.append(self._shared.setdefault(m, m))
        return len(masks) - 1

    def children(self, i: int) -> array:
        return self.kids[self.offsets[i]:self.offsets[i + 1]]

    @property
    def node_count(self) -> int:
        return len(self.kinds)

    @property
    def edge_count(self) -> int:
        return len(self.kids)

    @property
    def full_mask(self) -> int:
        """The mask of every variable 1..num_vars."""
        return (1 << self.num_vars + 1) - 2


def _mask_of(vars_iter: Iterable[int]) -> int:
    m = 0
    for v in vars_iter:
        m |= 1 << v
    return m


def parse_nnf(text, num_vars: Optional[int] = None) -> Circuit:
    """Parse the exchange format; the root is the last node. The circuit is
    over `num_vars` variables, by default the header's count; a literal or
    decision variable beyond them is an error."""
    if isinstance(text, bytes):
        text = decode_ascii(text)
    circ = Circuit(0)
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
                counts = tuple(map(int, parts[1:]))
            except ValueError:
                raise ParseError("malformed header", lineno)
            if min(counts) < 0:
                raise ParseError("negative counts in header", lineno)
            if num_vars is None:
                num_vars = counts[2]
            header_seen = True
            continue
        if not header_seen:
            raise ParseError("node line before header", lineno)
        kind = parts[0]
        me = circ.node_count
        try:
            if kind == "L":
                lit = int(parts[1])
                if lit == 0:
                    raise ParseError("0 is not a literal", lineno)
                if abs(lit) > num_vars:
                    raise ParseError(f"literal {lit} is beyond the {num_vars} variables", lineno)
                node = (LIT, lit, ())
            elif kind == "A":
                node = (AND, 0, tuple(int(x) for x in parts[2:]))
                if len(node[2]) != int(parts[1]):
                    raise ParseError("child count mismatch", lineno)
            elif kind == "O":
                node = (OR, int(parts[1]), tuple(int(x) for x in parts[3:]))
                if len(node[2]) != int(parts[2]):
                    raise ParseError("child count mismatch", lineno)
                if not 0 <= node[1] <= num_vars:
                    raise ParseError(
                        f"decision variable {node[1]} is beyond the {num_vars} variables", lineno)
            else:
                raise ParseError(f"unknown node kind {kind}", lineno)
            for c in node[2]:
                if not 0 <= c < me:
                    raise ParseError(f"child {c} is not an earlier node", lineno)
            circ.add(*node)
        except (ValueError, IndexError, OverflowError):
            raise ParseError("malformed node line", lineno)
    if not circ.node_count:
        raise ParseError("empty circuit")
    circ.num_vars = num_vars
    circ.root = circ.node_count - 1
    return circ


def emit_nnf(circuit: Circuit) -> str:
    kinds, vals, offsets, kids = circuit.kinds, circuit.vals, circuit.offsets, circuit.kids
    n = circuit.node_count
    # the reader takes the last node as the root, so reorder when needed
    order = list(range(n))
    remap = order[:]
    if circuit.root != n - 1:
        order.remove(circuit.root)
        order.append(circuit.root)
        for new, old in enumerate(order):
            remap[old] = new
    lines = [f"nnf {n} {circuit.edge_count} {circuit.num_vars}"]
    for old in order:
        kind = kinds[old]
        if kind == LIT:
            lines.append(f"L {vals[old]}")
            continue
        ch = kids[offsets[old]:offsets[old + 1]]
        head = f"A {len(ch)}" if kind == AND else f"O {vals[old]} {len(ch)}"
        lines.append(head + "".join(f" {remap[c]}" for c in ch))
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------- smoothing


def _is_smooth(circuit: Circuit) -> bool:
    """Every or-node's children have its mask and the root's mask covers
    every variable."""
    kinds, offsets, kids, masks = circuit.kinds, circuit.offsets, circuit.kids, circuit.masks
    if circuit.full_mask & ~masks[circuit.root]:
        return False
    for i in range(len(kinds)):
        if kinds[i] == OR:
            m = masks[i]
            for c in kids[offsets[i]:offsets[i + 1]]:
                if masks[c] != m:
                    return False
    return True


def smooth(circuit: Circuit, outer_vars=None) -> Circuit:
    """Make every or-node's children mention the same variables and the root
    mention the whole universe, by padding with (v or not v) gates. The model
    set is unchanged. An already-smooth circuit comes back itself, duplicate
    nodes and all; any other is rebuilt with its nodes hash-consed.

    When `outer_vars` is given, gates for missing inner variables are pushed
    below the outer-variable structure (into the unique mixed child of an
    and-node, or into every child of an or-node), so a circuit that decides
    the outer variables first keeps that shape.
    """
    if _is_smooth(circuit):
        return circuit
    out_mask = _mask_of(outer_vars or ())
    out = Circuit(circuit.num_vars)
    new_masks = out.masks
    index: dict[tuple, int] = {}

    def mk(kind: int, val: int, children=()) -> int:
        key = (kind, val, *children)
        got = index.get(key)
        if got is None:
            got = index[key] = out.add(kind, val, children)
        return got

    gate_cache: dict[int, int] = {}

    def gate(v: int) -> int:
        got = gate_cache.get(v)
        if got is None:
            got = gate_cache[v] = mk(OR, v, (mk(LIT, v), mk(LIT, -v)))
        return got

    def attach(nid: int, missing_mask: int) -> int:
        gates = tuple(
            gate(v) for v in range(1, circuit.num_vars + 1) if missing_mask >> v & 1
        )
        base = tuple(out.children(nid)) if out.kinds[nid] == AND else (nid,)
        return mk(AND, 0, base + gates)

    pad_memo: dict[tuple[int, int], int] = {}

    def pad_targets(nid: int, missing: int):
        """The children a padding of `nid` recurses into, or None when the
        gates are attached at `nid` itself: every child of a mixed or-node,
        or the unique mixed child of a mixed and-node."""
        m = new_masks[nid]
        if not (missing & ~out_mask and m & out_mask and m & ~out_mask):
            return None
        ch = out.children(nid)
        if out.kinds[nid] == OR:
            return ch or None
        mixed = [c for c in ch if new_masks[c] & out_mask and new_masks[c] & ~out_mask]
        return mixed if len(mixed) == 1 else None

    def padded(nid: int, missing: int, targets, done) -> int:
        if targets is None:
            return attach(nid, missing)
        if out.kinds[nid] == OR:
            res = mk(OR, out.vals[nid], done)
        else:
            res = mk(AND, 0, [done[0] if c == targets[0] else c for c in out.children(nid)])
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

    kinds, vals, offsets, kids = circuit.kinds, circuit.vals, circuit.offsets, circuit.kids
    mapping: list[int] = []
    for i in range(len(kinds)):
        children = [mapping[c] for c in kids[offsets[i]:offsets[i + 1]]]
        kind = kinds[i]
        if kind == OR:
            union = 0
            for c in children:
                union |= new_masks[c]
            children = [pad(c, union & ~new_masks[c]) for c in children]
        mapping.append(mk(kind, vals[i], children))

    root = mapping[circuit.root]
    out.root = pad(root, out.full_mask & ~new_masks[root])
    return out


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
            f"outer_first_mod_defs={report.outer_first_mod_defs} "
            f"model_equivalent={report.model_equivalent}",
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
    kinds, vals, offsets, kids, masks = (
        circuit.kinds, circuit.vals, circuit.offsets, circuit.kids, circuit.masks)
    outer_mask = _mask_of(cnf.outer_vars)
    outer = [m & outer_mask != 0 for m in masks]  # mentions an outer variable

    values: list[object] = [None] * len(kinds)
    nodes = zip(kinds, vals, outer, offsets, offsets[1:])
    for i, (kind, val, is_outer, lo, hi) in enumerate(nodes):
        if kind == LIT:
            values[i] = cnf.outer_weight(val) if is_outer else cnf.inner_weight(val)
            continue
        ch = kids[lo:hi]
        if kind == AND:
            if not is_outer:
                acc = sin.one
                for c in ch:
                    acc = sin.mul(acc, values[c])
            else:
                acc = sout.one
                for c in ch:
                    if outer[c]:
                        acc = sout.mul(acc, values[c])
                    else:
                        if collect is not None:
                            collect.append(values[c])
                        acc = sout.mul(acc, t(values[c]))
            values[i] = acc
        else:  # OR
            if not ch:
                values[i] = sin.zero  # false node, inner-tagged (no variables)
                continue
            side = sin if not is_outer else sout
            for c in ch:
                if outer[c] != is_outer:
                    raise PreconditionError(
                        f"or-node {i} mixes inner and outer children; "
                        "evaluation requires a smooth circuit"
                    )
            acc = values[ch[0]]
            for c in ch[1:]:
                acc = side.add(acc, values[c])
            values[i] = acc

    result = values[circuit.root]
    if not outer[circuit.root]:
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
    over_mask = circuit.full_mask if over is None else _mask_of(over)
    kinds, offsets, kids, masks = circuit.kinds, circuit.offsets, circuit.kids, circuit.masks
    counts: list[int] = []
    for i in range(len(kinds)):
        kind = kinds[i]
        ch = kids[offsets[i]:offsets[i + 1]]
        if kind == LIT:
            counts.append(1)
        elif kind == AND:
            c = 1
            for j in ch:
                c *= counts[j]
            counts.append(c)
        else:
            total = 0
            for j in ch:
                gap = bin(masks[i] & ~masks[j]).count("1")
                total += counts[j] << gap
            counts.append(total)
    gap = bin(over_mask & ~masks[circuit.root]).count("1")
    return counts[circuit.root] << gap


def _vars_of(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def circuit_models(
    circuit: Circuit, over: Optional[frozenset[int]] = None, guard: int = 1 << 21
) -> frozenset[frozenset[int]]:
    """Enumerate the models of a deterministic decomposable circuit as total
    assignments over `over` (default: the circuit's variable universe)."""
    over_mask = circuit.full_mask if over is None else _mask_of(over)
    if count_models(circuit, over) > guard:
        raise CapacityError("model set too large to enumerate")
    kinds, vals, offsets, kids, masks = (
        circuit.kinds, circuit.vals, circuit.offsets, circuit.kids, circuit.masks)

    def expand(models, missing_vars):
        for v in missing_vars:
            models = {m | {s} for m in models for s in (v, -v)}
        return models

    sets: list[set[frozenset[int]]] = []
    for i in range(len(kinds)):
        kind = kinds[i]
        ch = kids[offsets[i]:offsets[i + 1]]
        if kind == LIT:
            sets.append({frozenset([vals[i]])})
        elif kind == AND:
            acc = {frozenset()}
            for j in ch:
                acc = {a | b for a in acc for b in sets[j]}
            sets.append(acc)
        else:
            acc = set()
            for j in ch:
                acc |= expand(sets[j], _vars_of(masks[i] & ~masks[j]))
            sets.append(acc)
    root_models = sets[circuit.root]
    return frozenset(expand(root_models, _vars_of(over_mask & ~masks[circuit.root])))


def count_boundary_nodes(circuit: Circuit, outer_vars) -> int:
    """Distinct maximal pure-inner nodes: nodes over inner variables only
    whose parent (or root position) sits in an outer context."""
    offsets, kids, masks = circuit.offsets, circuit.kids, circuit.masks
    outer_mask = _mask_of(outer_vars)
    has_outer_parent = [False] * len(masks)
    for i, m in enumerate(masks):
        if m & outer_mask:
            for c in kids[offsets[i]:offsets[i + 1]]:
                has_outer_parent[c] = True
    count = 0
    for i, m in enumerate(masks):
        if m and not m & outer_mask:
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
        base = (self.decomposable and self.deterministic and self.smooth
                and self.model_equivalent is not False)
        if outer_first_required:
            return base and self.outer_first
        return base and self.outer_first_mod_defs


def _decision_literal(circuit: Circuit, child: int, dvar: int) -> Optional[int]:
    kinds, vals = circuit.kinds, circuit.vals
    if kinds[child] == LIT and abs(vals[child]) == dvar:
        return vals[child]
    if kinds[child] == AND:
        for c in circuit.children(child):
            if kinds[c] == LIT and abs(vals[c]) == dvar:
                return vals[c]
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
            kind = circuit.kinds[i]
            if expanded:
                v = node_var[i]
                lits = [node_var[c] for c in circuit.children(i)]
                if kind == AND:
                    for l in lits:
                        solver.add_clause([-v, l])
                    solver.add_clause([v] + [-l for l in lits])
                else:
                    solver.add_clause([-v] + lits)
                    for l in lits:
                        solver.add_clause([v, -l])
            elif i in node_var:
                continue
            elif kind == LIT:
                node_var[i] = circuit.vals[i]
            else:
                next_var += 1
                solver.ensure_vars(next_var)
                node_var[i] = next_var
                stack.append((i, True))
                stack.extend((c, False) for c in reversed(circuit.children(i)))
        return node_var[top]

    for i in or_nodes:
        children = circuit.children(i)
        for a in range(len(children)):
            for b in range(a + 1, len(children)):
                va = encode(children[a])
                vb = encode(children[b])
                if solver.solve([va, vb]) is not None:
                    return False
    return True


# a node's class for the outer-first checks: no outer variable, only outer
# variables, only variables of outer ∪ D (the empty mask is all three)
_INNER, _OUTER, _XD = 1, 2, 4


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
    kinds, vals, offsets, kids, masks = (
        circuit.kinds, circuit.vals, circuit.offsets, circuit.kids, circuit.masks)
    n = len(kinds)
    outer_mask = _mask_of(cnf.outer_vars)
    xd_mask = outer_mask | _mask_of(d)
    # one class per distinct mask, of which a circuit has few
    by_mask = {m: (not m & outer_mask) | (m | outer_mask == outer_mask) << 1
               | (m | xd_mask == xd_mask) << 2 for m in set(masks)}
    cls = bytes(map(by_mask.__getitem__, masks))

    live_mask = _mask_of(cnf.variables)
    smooth_ok = masks[circuit.root] & live_mask == live_mask
    sat_fallback = []
    # or-parents branching on a variable; dvar 0 means the branch variable is
    # unknown, which the flagging below treats conservatively
    branched_on: dict[int, set[int]] = {}
    for i in range(n):
        if kinds[i] != OR:
            continue
        ch = kids[offsets[i]:offsets[i + 1]]
        m = masks[i]
        for c in ch:
            if masks[c] != m:
                smooth_ok = False
        if len(ch) <= 1:
            continue
        dvar = vals[i]
        fixed = [_decision_literal(circuit, c, dvar) if dvar else None for c in ch]
        if None in fixed or len(set(fixed)) != len(fixed):
            sat_fallback.append(i)
        for c in ch:
            branched_on.setdefault(c, set()).add(dvar)
    deterministic = True
    if sat_fallback:
        if n <= _SAT_CHECK_NODE_LIMIT:
            deterministic = _sat_pairwise_deterministic(circuit, sat_fallback)
        else:
            deterministic = False

    # Outer-first: at most one mixed child per and-node, and beside a mixed
    # child only children over outer variables. Modulo definability the same
    # with outer ∪ D in place of outer; an and-node that fails only that is
    # flagged rather than failed when its shape is justified beyond the
    # static check: pure-inner children that are unit-propagated literals or
    # whole split-off components crossing the transform, and multiple
    # variable-disjoint mixed children from component splits. A pure-inner
    # literal the enclosing or-node branches on is an early inner decision,
    # which the static check rightly rejects.
    decomposable = outer_first = strictly = mod_ok = True
    flagged = []
    for i in range(n):
        if kinds[i] != AND:
            continue
        ch = kids[offsets[i]:offsets[i + 1]]
        acc = mixed = inner = mixed_mod = inner_mod = 0
        disjoint = True
        for c in ch:
            if acc & masks[c]:
                disjoint = False
            acc |= masks[c]
            k = cls[c]
            if not k & (_INNER | _OUTER):
                mixed += 1
            elif not k & _OUTER:
                inner += 1
            if not k & (_INNER | _XD):
                mixed_mod += 1
            elif not k & _XD:
                inner_mod += 1
        decomposable = decomposable and disjoint
        if mixed > 1 or mixed and inner:
            outer_first = False
        if not (mixed_mod > 1 or mixed_mod and inner_mod):
            continue
        strictly = False
        dvars = branched_on.get(i, ())
        if disjoint and not any(
            kinds[c] == LIT and (0 in dvars or abs(vals[c]) in dvars)
            for c in ch if cls[c] & (_INNER | _XD) == _INNER
        ):
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
