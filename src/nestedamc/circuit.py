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
the empty or-node. The same step keeps one record, `uneven_or`: the id of the
first or-node whose children's masks differ from its own, -1 while there is
none. It is the circuit's one or-node smoothness check.

Smoothing has one padding rule, `Padding`. The compiler applies it to each
decision's branches as it builds the or-node, so a compiled circuit is
smooth but perhaps at its root. `smooth` returns its input itself, without a
scan, when the input is already smooth: `uneven_or` is -1 and the root's
mask covers every variable. Otherwise, for a parsed circuit or a compiled
root that misses a variable, it rebuilds the circuit, hash-consing the nodes
it makes.

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
from itertools import combinations
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

    __slots__ = ("kinds", "vals", "offsets", "kids", "masks", "_shared", "uneven_or",
                 "root", "num_vars", "stats")

    def __init__(self, num_vars: int, stats=None):
        self.kinds = bytearray()
        self.vals = array("i")
        self.offsets = array("i", [0])
        self.kids = array("i")
        self.masks: list[int] = []
        self._shared: dict[int, int] = {}  # one object per distinct mask
        self.uneven_or = -1  # the first or-node whose children's masks differ from its own
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
            if kind == OR and self.uneven_or < 0:
                for c in children:
                    if masks[c] != m:
                        self.uneven_or = len(masks)
                        break
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
    decision variable beyond them is an error, and so are node and edge
    counts that differ from the header's, as in a truncated file."""
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
    if counts[:2] != (circ.node_count, circ.edge_count):
        raise ParseError(
            f"header declares {counts[0]} nodes and {counts[1]} edges, "
            f"the file has {circ.node_count} and {circ.edge_count}")
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


class Padding:
    """Smoothing's one padding rule, used by `smooth` and the compiler: pad
    a node of `circuit` with (v or not v) gates for the variables of a mask
    it misses, building nodes through the hash-consing `mk(kind, value,
    children)` and `lit(literal)`.

    Gates for missing inner variables are pushed below the outer-variable
    structure of `outer_mask` (into the unique mixed child of an and-node, or
    into every child of an or-node), so a circuit that decides the outer
    variables first keeps that shape; the rest join the node in an and-node.
    """

    __slots__ = ("circuit", "mk", "lit", "outer", "gates", "memo")

    def __init__(self, circuit: Circuit, mk, lit, outer_mask: int):
        self.circuit = circuit
        self.mk = mk
        self.lit = lit
        self.outer = outer_mask
        self.gates: dict[int, int] = {}  # variable -> its gate
        self.memo: dict[tuple[int, int], int] = {}  # (node, missing) -> padded node

    def _attach(self, base, missing: int) -> int:
        """The and-node of `base` and the gates of the variables of
        `missing`, lowest variable first."""
        gates = []
        while missing:
            low = missing & -missing
            v = low.bit_length() - 1
            got = self.gates.get(v)
            if got is None:
                got = self.gates[v] = self.mk(OR, v, (self.lit(v), self.lit(-v)))
            gates.append(got)
            missing ^= low
        return self.mk(AND, 0, (*base, *gates))

    def _targets(self, kind: int, children, mask: int, missing: int):
        """The children a padding by `missing` of a node recurses into, or
        None when the gates are attached at the node itself: every child of
        a mixed or-node, or the unique mixed child of a mixed and-node."""
        out = self.outer
        if not (missing & ~out and mask & out and mask & ~out):
            return None
        if kind == OR:
            return children or None
        masks = self.circuit.masks
        mixed = [c for c in children if masks[c] & out and masks[c] & ~out]
        return mixed if len(mixed) == 1 else None

    def _padded(self, nid: int, missing: int, targets, done) -> int:
        """Node `nid` padded, once its `targets` are padded into `done`."""
        circuit = self.circuit
        kind = circuit.kinds[nid]
        if targets is None:
            return self._attach(circuit.children(nid) if kind == AND else (nid,), missing)
        if kind == OR:
            res = self.mk(OR, circuit.vals[nid], done)
        else:
            res = self.mk(AND, 0, [done[0] if c == targets[0] else c
                                   for c in circuit.children(nid)])
        if missing & self.outer:
            res = self._attach(circuit.children(res) if kind == AND else (res,),
                               missing & self.outer)
        return res

    def pad_and(self, children, missing: int) -> int:
        """The and-node of `children` padded by `missing`, built without the
        unpadded and-node, so the padding leaves no dead node behind."""
        mask = 0
        for c in children:
            mask |= self.circuit.masks[c]
        targets = self._targets(AND, children, mask, missing)
        if targets is None:
            return self._attach(children, missing)
        done = self.pad(targets[0], missing & ~self.outer)
        return self._attach([done if c == targets[0] else c for c in children],
                            missing & self.outer)

    def pad(self, nid: int, missing: int) -> int:
        """Node `nid` padded by the variables of `missing`."""
        # a depth-first recursion over mixed nodes, run on an explicit stack:
        # each frame pads its targets one at a time, in order, and builds its
        # own node once all are done, so nodes are made in recursion order
        if not missing:
            return nid
        memo, circuit, out = self.memo, self.circuit, self.outer
        got = memo.get((nid, missing))
        if got is not None:
            return got

        def frame(nid, missing):
            targets = self._targets(circuit.kinds[nid], circuit.children(nid),
                                    circuit.masks[nid], missing)
            return nid, missing, targets, []

        stack = [frame(nid, missing)]
        while True:
            nid, missing, targets, done = stack[-1]
            if targets is not None and len(done) < len(targets):
                inner = missing & ~out
                got = memo.get((targets[len(done)], inner))
                if got is None:
                    stack.append(frame(targets[len(done)], inner))
                else:
                    done.append(got)
                continue
            res = memo[nid, missing] = self._padded(nid, missing, targets, done)
            stack.pop()
            if not stack:
                return res
            stack[-1][3].append(res)


def smooth(circuit: Circuit, outer_vars=None) -> Circuit:
    """Make every or-node's children mention the same variables and the root
    mention the whole universe, by padding with (v or not v) gates under the
    rule of `Padding`, whose outer variables are `outer_vars`. The model set
    is unchanged.

    The compiler pads every decision as it builds it, so a compiled circuit
    is smooth below its root: it comes back itself when its root mentions
    every variable. Any other circuit, a parsed one or a compiled one whose
    root misses a variable, is rebuilt with its nodes hash-consed.
    """
    if circuit.uneven_or < 0 and not circuit.full_mask & ~circuit.masks[circuit.root]:
        return circuit
    out = Circuit(circuit.num_vars)
    new_masks = out.masks
    index: dict[tuple, int] = {}

    def mk(kind: int, val: int, children=()) -> int:
        key = (kind, val, *children)
        got = index.get(key)
        if got is None:
            got = index[key] = out.add(kind, val, children)
        return got

    padding = Padding(out, mk, lambda lit: mk(LIT, lit), _mask_of(outer_vars or ()))
    kinds, vals, offsets, kids = circuit.kinds, circuit.vals, circuit.offsets, circuit.kids
    mapping: list[int] = []
    for i in range(len(kinds)):
        children = [mapping[c] for c in kids[offsets[i]:offsets[i + 1]]]
        kind = kinds[i]
        if kind == OR:
            union = 0
            for c in children:
                union |= new_masks[c]
            children = [padding.pad(c, union & ~new_masks[c]) for c in children]
        mapping.append(mk(kind, vals[i], children))

    root = mapping[circuit.root]
    out.root = padding.pad(root, out.full_mask & ~new_masks[root])
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


def evaluate_nested(circuit: Circuit, instance: NestedInstance):
    """Single bottom-up pass over a smooth deterministic decomposable circuit.

    Nodes whose variables are all inner evaluate in the inner semiring;
    whenever an inner value meets an outer context at an and-node (or at the
    root), it crosses through the transformation function.

    Refuses a circuit that is not smooth (an `uneven_or` or-node, or a root
    that misses one of the instance's variables) with a PreconditionError
    naming the node; `evaluate_verified` checks the other properties first.
    """
    cnf = instance.cnf
    kinds, vals, offsets, kids, masks = (
        circuit.kinds, circuit.vals, circuit.offsets, circuit.kids, circuit.masks)
    missing = _mask_of(cnf.variables) & ~masks[circuit.root]
    if circuit.uneven_or >= 0 or missing:
        node = (f"or-node {circuit.uneven_or} has children over different variables"
                if circuit.uneven_or >= 0 else
                f"root node {circuit.root} misses variable {_vars_of(missing)[0]}")
        raise PreconditionError(f"{node}; evaluation requires a smooth circuit")
    sin = SEMIRINGS[cnf.inner_sr]
    sout = SEMIRINGS[cnf.outer_sr]
    t = TRANSFORMS[cnf.transform].fn
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
                        acc = sout.mul(acc, t(values[c]))
            values[i] = acc
        else:  # OR
            if not ch:
                values[i] = sin.zero  # false node, inner-tagged (no variables)
                continue
            side = sin if not is_outer else sout
            acc = values[ch[0]]
            for c in ch[1:]:
                acc = side.add(acc, values[c])
            values[i] = acc

    result = values[circuit.root]
    if not outer[circuit.root]:
        result = t(result)
    return result


def brute_force_nested(instance: NestedInstance, max_vars: int = 24):
    """Direct evaluation of the defining double aggregate: enumerate the
    outer assignments and, per outer assignment, the models extending it.
    This is the independent oracle the circuit path is checked against."""
    if max_vars < 0:
        raise ConfigError(f"oracle guard must not be negative, got {max_vars}")
    cnf = instance.cnf
    n = cnf.num_vars
    if n > max_vars:
        raise CapacityError(f"{n} variables exceed the oracle guard of {max_vars}")
    variables = range(1, n + 1)
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


MODEL_LIMIT = 1 << 21  # most models circuit_models enumerates


def circuit_models(
    circuit: Circuit, over: Optional[frozenset[int]] = None
) -> frozenset[frozenset[int]]:
    """Enumerate the models of a deterministic decomposable circuit as total
    assignments over `over` (default: the circuit's variable universe), at
    most `MODEL_LIMIT` of them."""
    over_mask = circuit.full_mask if over is None else _mask_of(over)
    if count_models(circuit, over) > MODEL_LIMIT:
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
    unsatisfiable. The whole circuit is encoded once, in id order, so every
    child has its solver literal before its parent: a literal node is its
    literal, any other node a fresh variable defined by the standard
    node-variable clauses. One solver over that encoding answers every pair
    under assumptions."""
    node_lit = []
    clauses = []
    num_vars = circuit.num_vars
    for i, kind in enumerate(circuit.kinds):
        if kind == LIT:
            node_lit.append(circuit.vals[i])
            continue
        num_vars += 1
        node_lit.append(num_vars)
        # an or-node is the negated and-node of its negated children
        sign = 1 if kind == AND else -1
        v = sign * num_vars
        lits = dict.fromkeys(sign * node_lit[c] for c in circuit.children(i))
        # the solver does not check clauses: repeats are dropped above, and a
        # child beside its complement makes the conjunction false outright
        if any(-l in lits for l in lits):
            clauses.append([-v])
            continue
        clauses += [[-v, l] for l in lits]
        clauses.append([v] + [-l for l in lits])
    solver = SatSolver(num_vars, clauses)
    for i in or_nodes:
        lits = [node_lit[c] for c in circuit.children(i)]
        for a, b in combinations(lits, 2):
            if solver.solve([a, b]) is not None:
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
    smooth_ok = circuit.uneven_or < 0 and masks[circuit.root] & live_mask == live_mask
    decomposable = outer_first = strictly = mod_ok = True
    sat_fallback = []
    flagged = []
    # or-parents branching on a variable; dvar 0 means the branch variable is
    # unknown, which the flagging below treats conservatively. Node ids run
    # down, parents before children, so an and-node's entry is complete when
    # the and-node is checked.
    branched_on: dict[int, set[int]] = {}
    for i in range(n - 1, -1, -1):
        kind = kinds[i]
        if kind == LIT:
            continue
        ch = kids[offsets[i]:offsets[i + 1]]
        if kind == OR:
            if len(ch) > 1:
                dvar = vals[i]
                fixed = [_decision_literal(circuit, c, dvar) if dvar else None for c in ch]
                if None in fixed or len(set(fixed)) != len(fixed):
                    sat_fallback.append(i)
                for c in ch:
                    branched_on.setdefault(c, set()).add(dvar)
            continue
        # Outer-first: at most one mixed child per and-node, and beside a
        # mixed child only children over outer variables. Modulo definability
        # the same with outer ∪ D in place of outer; an and-node that fails
        # only that is flagged rather than failed when its shape is justified
        # beyond the static check: pure-inner children that are
        # unit-propagated literals or whole split-off components crossing the
        # transform, and multiple variable-disjoint mixed children from
        # component splits. A pure-inner literal the enclosing or-node
        # branches on is an early inner decision, which the static check
        # rightly rejects.
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
    # both were gathered downwards; the fallback and the report take them ascending
    sat_fallback.reverse()
    flagged.reverse()
    deterministic = not sat_fallback or (
        n <= _SAT_CHECK_NODE_LIMIT and _sat_pairwise_deterministic(circuit, sat_fallback))

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
