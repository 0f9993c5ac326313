"""Commutative semirings, literal labels, and weight transformations between them.

Values are plain Python objects: floats for the numeric semirings, pairs of
floats for expected utility, pairs of unbounded ints for counting, and
(number, frozenset-of-literals) pairs for the argmax semirings that track a
witness assignment alongside the optimum.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import InvalidValueError, PreconditionError

NEG_INF = float("-inf")

# tolerance for comparisons of real-valued results
REL_TOL = 1e-9
ABS_TOL = 1e-12


class SemiringId(enum.Enum):
    PROBABILITY = "probability"
    MAX_TIMES = "maxtimes"
    MAX_PLUS = "maxplus"
    EU = "eu"
    NAT_PAIR = "natpair"
    MAP_ARGMAX = "mapargmax"
    MEU_ARGMAX = "meuargmax"


def litset_key(lits):
    """Sort key realising the fixed total order on literal sets.

    Literal sets compare as sorted lists of (variable, sign) with the negative
    literal of a variable ordering before the positive one.
    """
    return tuple(sorted((abs(l), l > 0) for l in lits))


def min_litset(s1: frozenset, s2: frozenset) -> frozenset:
    return s1 if litset_key(s1) <= litset_key(s2) else s2


def _is_real(v) -> bool:
    return isinstance(v, float) or (isinstance(v, int) and not isinstance(v, bool))


def _real_eq(a: float, b: float) -> bool:
    if a == NEG_INF or b == NEG_INF:
        return a == b
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


class Semiring:
    """One commutative semiring: a value domain with (add, mul, zero, one).

    `label_arity` is the number of numeric fields a literal label occupies in
    the textual CNF format. The argmax semirings use arity 1: the witness set
    of a parsed label is implicitly the labelled literal itself.
    """

    id: SemiringId
    zero = None
    one = None
    label_arity = 1

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def contains(self, v) -> bool:
        raise NotImplementedError

    def check(self, v):
        if not self.contains(v):
            raise InvalidValueError(f"{v!r} is not a {self.id.value} value")
        return v

    def eq(self, a, b) -> bool:
        raise NotImplementedError

    def parse_label(self, lit: int, fields: list[str]):
        raise NotImplementedError

    def format_label(self, v) -> str:
        raise NotImplementedError


class _Probability(Semiring):
    id = SemiringId.PROBABILITY
    zero = 0.0
    one = 1.0

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b

    def contains(self, v):
        return _is_real(v) and v != NEG_INF and v >= 0

    def eq(self, a, b):
        return _real_eq(a, b)

    def parse_label(self, lit, fields):
        return float(fields[0])

    def format_label(self, v):
        return repr(float(v))


class _MaxTimes(_Probability):
    id = SemiringId.MAX_TIMES

    def add(self, a, b):
        return a if a >= b else b


class _MaxPlus(Semiring):
    id = SemiringId.MAX_PLUS
    zero = NEG_INF
    one = 0.0

    def add(self, a, b):
        # max, with the distinguished -inf as neutral element
        if a == NEG_INF:
            return b
        if b == NEG_INF:
            return a
        return a if a >= b else b

    def mul(self, a, b):
        if a == NEG_INF or b == NEG_INF:
            return NEG_INF
        return a + b

    def contains(self, v):
        return _is_real(v)

    def eq(self, a, b):
        return _real_eq(a, b)

    def parse_label(self, lit, fields):
        return float(fields[0])

    def format_label(self, v):
        return repr(float(v))


class _ExpectedUtility(Semiring):
    id = SemiringId.EU
    zero = (0.0, 0.0)
    one = (1.0, 0.0)
    label_arity = 2

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        (a1, b1), (a2, b2) = a, b
        return (a1 * a2, a2 * b1 + a1 * b2)

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and _is_real(v[0])
            and _is_real(v[1])
            and v[0] != NEG_INF
            and v[1] != NEG_INF
        )

    def eq(self, a, b):
        return _real_eq(a[0], b[0]) and _real_eq(a[1], b[1])

    def parse_label(self, lit, fields):
        return (float(fields[0]), float(fields[1]))

    def format_label(self, v):
        return f"{v[0]!r} {v[1]!r}"


class _NatPair(Semiring):
    id = SemiringId.NAT_PAIR
    zero = (0, 0)
    one = (1, 1)
    label_arity = 2

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        return (a[0] * b[0], a[1] * b[1])

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and isinstance(v[0], int)
            and isinstance(v[1], int)
            and not isinstance(v[0], bool)
            and not isinstance(v[1], bool)
            and v[0] >= 0
            and v[1] >= 0
        )

    def eq(self, a, b):
        return a == b

    def parse_label(self, lit, fields):
        return (int(fields[0]), int(fields[1]))

    def format_label(self, v):
        return f"{v[0]} {v[1]}"


class _Argmax(Semiring):
    """Shared shape of the two witness-tracking semirings.

    Values are (number, frozenset of literals). Addition keeps the larger
    number and, on numeric ties, the witness set that is minimal in the fixed
    total order, which makes addition commutative. A value whose number equals
    the additive identity's number is canonicalised to an empty witness so the
    additive identity annihilates exactly.
    """

    def _num_mul(self, a, b):
        raise NotImplementedError

    def _canon(self, num, lits):
        if num == self.zero[0]:
            return self.zero
        return (num, lits)

    def add(self, a, b):
        (r1, s1), (r2, s2) = a, b
        if r1 > r2:
            return a
        if r2 > r1:
            return b
        return (r1, min_litset(s1, s2))

    def mul(self, a, b):
        return self._canon(self._num_mul(a[0], b[0]), a[1] | b[1])

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and _is_real(v[0])
            and isinstance(v[1], frozenset)
            and all(isinstance(l, int) and l != 0 for l in v[1])
        )

    def eq(self, a, b):
        return _real_eq(a[0], b[0]) and a[1] == b[1]

    def parse_label(self, lit, fields):
        return self._canon(float(fields[0]), frozenset([lit]))

    def format_label(self, v):
        return repr(float(v[0]))


class _MapArgmax(_Argmax):
    id = SemiringId.MAP_ARGMAX
    zero = (0.0, frozenset())
    one = (1.0, frozenset())

    def _num_mul(self, a, b):
        return a * b

    def contains(self, v):
        return super().contains(v) and v[0] >= 0.0


class _MeuArgmax(_Argmax):
    id = SemiringId.MEU_ARGMAX
    zero = (NEG_INF, frozenset())
    one = (0.0, frozenset())

    def _num_mul(self, a, b):
        if a == NEG_INF or b == NEG_INF:
            return NEG_INF
        return a + b


SEMIRINGS: dict[SemiringId, Semiring] = {
    s.id: s
    for s in (
        _Probability(),
        _MaxTimes(),
        _MaxPlus(),
        _ExpectedUtility(),
        _NatPair(),
        _MapArgmax(),
        _MeuArgmax(),
    )
}


class TransformId(enum.Enum):
    IDENTITY = "identity"
    PROB_TO_MAP = "prob2map"
    EU_PROJECT = "euproject"
    RATIO = "ratio"


def _t_identity(v):
    return v


def _t_prob_to_map(v):
    return (v, frozenset())


def _t_eu_project(v):
    p, pu = v
    if p == 0.0:
        return (NEG_INF, frozenset())
    return (pu, frozenset())


def _t_ratio(v):
    n1, n2 = v
    if n2 == 0:
        return 0.0
    return n1 / n2


def _dom_eu_project(v):
    return v[0] == 1.0 or v == (0.0, 0.0)


def _dom_ratio(v):
    return 0 <= v[0] <= v[1]


@dataclass(frozen=True)
class TransformSpec:
    """A weight transformation with its declared inner and outer semirings.

    The identity transform is polymorphic: its semirings are fixed only by the
    instance using it, so both are None here. `hom_domain` restricts the set
    of values on which the transform is a product homomorphism; None means the
    whole inner domain.
    """

    id: TransformId
    inner: Optional[SemiringId]
    outer: Optional[SemiringId]
    fn: Callable
    hom_domain: Optional[Callable] = None


TRANSFORMS: dict[TransformId, TransformSpec] = {
    t.id: t
    for t in (
        TransformSpec(TransformId.IDENTITY, None, None, _t_identity),
        TransformSpec(
            TransformId.PROB_TO_MAP,
            SemiringId.PROBABILITY,
            SemiringId.MAP_ARGMAX,
            _t_prob_to_map,
        ),
        TransformSpec(
            TransformId.EU_PROJECT,
            SemiringId.EU,
            SemiringId.MEU_ARGMAX,
            _t_eu_project,
            _dom_eu_project,
        ),
        TransformSpec(
            TransformId.RATIO,
            SemiringId.NAT_PAIR,
            SemiringId.PROBABILITY,
            _t_ratio,
            _dom_ratio,
        ),
    )
}

def transform_semirings(
    t: TransformId, inner: Optional[SemiringId] = None, outer: Optional[SemiringId] = None
) -> tuple[Semiring, Semiring]:
    """Resolve the (inner, outer) semirings of a transform.

    Explicit arguments are required for the polymorphic identity transform and
    must match the declaration for the others.
    """
    spec = TRANSFORMS[t]
    inner = spec.inner or inner or SemiringId.PROBABILITY
    outer = spec.outer or outer or inner
    if spec.inner is not None and inner != spec.inner:
        raise InvalidValueError(f"{t.value} expects inner semiring {spec.inner.value}")
    if spec.outer is not None and outer != spec.outer:
        raise InvalidValueError(f"{t.value} expects outer semiring {spec.outer.value}")
    return SEMIRINGS[inner], SEMIRINGS[outer]


def check_homomorphism(
    t: TransformId,
    samples,
    inner: Optional[SemiringId] = None,
    outer: Optional[SemiringId] = None,
    enforce_domain: bool = True,
) -> bool:
    """Check t(a*b) = t(a)*t(b) on sample pairs and t(one) = one.

    `samples` is a list of (a, b) value pairs from the inner semiring. With
    `enforce_domain` each sample must lie in the transform's declared
    homomorphism domain (a precondition error otherwise); disabling the check
    allows demonstrating failure outside that domain.
    """
    sin, sout = transform_semirings(t, inner, outer)
    fn = TRANSFORMS[t].fn
    dom = TRANSFORMS[t].hom_domain
    if not sout.eq(fn(sin.one), sout.one):
        return False
    for a, b in samples:
        sin.check(a)
        sin.check(b)
        if enforce_domain and dom is not None and not (dom(a) and dom(b)):
            raise PreconditionError(
                f"sample outside the declared homomorphism domain of {t.value}"
            )
        if not sout.eq(fn(sin.mul(a, b)), sout.mul(fn(a), fn(b))):
            return False
    return True


def respects_zero(t: TransformId, inner: Optional[SemiringId] = None,
                  outer: Optional[SemiringId] = None) -> bool:
    """True iff the transform maps the inner additive identity to the outer one."""
    sin, sout = transform_semirings(t, inner, outer)
    return TRANSFORMS[t].fn(sin.zero) == sout.zero
