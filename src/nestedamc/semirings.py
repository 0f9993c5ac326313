"""Commutative semirings, literal labels, and weight transformations between them.

Values are plain Python objects: floats for the numeric semirings, pairs of
floats for expected utility, pairs of unbounded ints for counting, and
(number, frozenset-of-literals) pairs for the argmax semirings that track a
witness assignment alongside the optimum.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Optional

from .errors import ConfigError

NEG_INF = float("-inf")
_INF = float("inf")


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
    """An int or a float other than NaN."""
    if isinstance(v, float):
        return v == v
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """An int or a float other than NaN, inf and -inf."""
    return _is_real(v) and abs(v) != _INF


class Semiring:
    """One commutative semiring: a value domain with (add, mul, zero, one).

    `label_arity` is the number of numeric fields a literal label occupies in
    the textual CNF format. The argmax semirings use arity 1: the witness set
    of a parsed label is implicitly the labelled literal itself. `family`
    names the shape of the values; the identity transform joins only
    semirings of one family. `contains` is the label domain `parse_cnf`
    enforces.
    """

    id: SemiringId
    zero = None
    one = None
    label_arity = 1
    family = "real"

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def contains(self, v) -> bool:
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
        return _is_finite(v) and v >= 0

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

    def parse_label(self, lit, fields):
        return float(fields[0])

    def format_label(self, v):
        return repr(float(v))


class _ExpectedUtility(Semiring):
    id = SemiringId.EU
    zero = (0.0, 0.0)
    one = (1.0, 0.0)
    label_arity = 2
    family = "real-pair"

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def mul(self, a, b):
        (a1, b1), (a2, b2) = a, b
        return (a1 * a2, a2 * b1 + a1 * b2)

    def contains(self, v):
        return (
            isinstance(v, tuple)
            and len(v) == 2
            and _is_finite(v[0])
            and _is_finite(v[1])
        )

    def parse_label(self, lit, fields):
        return (float(fields[0]), float(fields[1]))

    def format_label(self, v):
        return f"{v[0]!r} {v[1]!r}"


class _NatPair(Semiring):
    id = SemiringId.NAT_PAIR
    zero = (0, 0)
    one = (1, 1)
    label_arity = 2
    family = "int-pair"

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

    family = "argmax"

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
        return super().contains(v) and _is_finite(v[0]) and v[0] >= 0.0


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


@dataclass(frozen=True)
class TransformSpec:
    """A weight transformation with its declared inner and outer semirings.

    The identity transform is polymorphic: its semirings are fixed only by the
    instance using it, so both are None here.
    """

    id: TransformId
    inner: Optional[SemiringId]
    outer: Optional[SemiringId]
    fn: Callable


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
        ),
        TransformSpec(
            TransformId.RATIO,
            SemiringId.NAT_PAIR,
            SemiringId.PROBABILITY,
            _t_ratio,
        ),
    )
}


def check_pairing(inner: SemiringId, outer: SemiringId, t: TransformId) -> None:
    """Raise ConfigError unless transform `t` maps `inner` values to `outer`."""
    spec = TRANSFORMS[t]
    if spec.inner is not None and spec.inner != inner:
        raise ConfigError(f"{t.value} expects inner semiring {spec.inner.value}")
    if spec.outer is not None and spec.outer != outer:
        raise ConfigError(f"{t.value} expects outer semiring {spec.outer.value}")
    if spec.inner is None and SEMIRINGS[inner].family != SEMIRINGS[outer].family:
        raise ConfigError(
            "identity transform between incompatible value domains"
            f" ({inner.value} -> {outer.value})"
        )
