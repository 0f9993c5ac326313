import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestedamc.errors import InvalidValueError, PreconditionError
from nestedamc.semirings import (
    NEG_INF,
    SEMIRINGS,
    TRANSFORMS,
    SemiringId,
    TransformId,
    check_homomorphism,
    litset_key,
    respects_zero,
)

APPROX = dict(rel=1e-9, abs=1e-12)
PROB = SEMIRINGS[SemiringId.PROBABILITY]
EU = SEMIRINGS[SemiringId.EU]


# ----------------------------------------------------------- golden examples


def test_probability_add_models():
    assert PROB.add(0.24, 0.16) == pytest.approx(0.40, **APPROX)


def test_maxplus_neutral():
    s = SEMIRINGS[SemiringId.MAX_PLUS]
    assert s.add(3.5, NEG_INF) == 3.5
    assert s.add(NEG_INF, -2.0) == -2.0


def test_natpair_componentwise():
    assert SEMIRINGS[SemiringId.NAT_PAIR].add((1, 2), (0, 1)) == (1, 3)


def test_eu_neutral_element():
    assert EU.mul((1.0, 0.0), (0.7, 3.0)) == (0.7, 3.0)


def test_eu_product():
    p, u = EU.mul((0.4, 8.0), (0.5, 1.0))
    assert p == pytest.approx(0.2, **APPROX)
    assert u == pytest.approx(4.4, **APPROX)


def test_probability_annihilation():
    assert PROB.mul(0.4, 0.0) == 0.0


def test_domain_mismatch_rejected():
    with pytest.raises(InvalidValueError):
        PROB.check((1, 2))
    with pytest.raises(InvalidValueError):
        SEMIRINGS[SemiringId.NAT_PAIR].check(0.5)
    with pytest.raises(InvalidValueError):
        SEMIRINGS[SemiringId.MAP_ARGMAX].check(0.5)
    # well-typed values pass through unchanged
    assert PROB.check(0.5) == 0.5
    assert SEMIRINGS[SemiringId.NAT_PAIR].check((1, 2)) == (1, 2)


def test_transform_ratio():
    assert TRANSFORMS[TransformId.RATIO].fn((1, 2)) == pytest.approx(0.5, **APPROX)
    assert TRANSFORMS[TransformId.RATIO].fn((0, 0)) == 0.0


def test_transform_identity():
    assert TRANSFORMS[TransformId.IDENTITY].fn(0.4) == 0.4


def test_transform_eu_project():
    val = TRANSFORMS[TransformId.EU_PROJECT].fn((0.0, 7.0))
    assert val[0] == NEG_INF
    assert TRANSFORMS[TransformId.EU_PROJECT].fn((1.0, 5.5)) == (5.5, frozenset())


def test_transform_prob_to_map():
    assert TRANSFORMS[TransformId.PROB_TO_MAP].fn(0.3) == (0.3, frozenset())
    assert TRANSFORMS[TransformId.PROB_TO_MAP].fn(0.0) == SEMIRINGS[SemiringId.MAP_ARGMAX].zero


def test_homomorphism_ratio_example():
    assert check_homomorphism(TransformId.RATIO, [((1, 2), (3, 4))])
    # t((3,8)) = 0.375 = 0.5 * 0.75


def test_homomorphism_eu_project_in_domain():
    assert check_homomorphism(
        TransformId.EU_PROJECT, [((1.0, 3.0), (1.0, -2.0)), ((0.0, 0.0), (1.0, 9.0))]
    )


def test_homomorphism_eu_project_fails_outside_domain():
    sample = [((0.5, 1.0), (0.5, 1.0))]
    with pytest.raises(PreconditionError):
        check_homomorphism(TransformId.EU_PROJECT, sample)
    assert not check_homomorphism(TransformId.EU_PROJECT, sample, enforce_domain=False)


def test_every_transform_respects_zero():
    assert respects_zero(TransformId.IDENTITY)
    assert respects_zero(
        TransformId.IDENTITY, SemiringId.PROBABILITY, SemiringId.MAX_TIMES
    )
    assert respects_zero(TransformId.PROB_TO_MAP)
    assert respects_zero(TransformId.EU_PROJECT)
    assert respects_zero(TransformId.RATIO)


# ------------------------------------------------------------- random values


def _litset(rng):
    return frozenset(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(rng.randint(0, 3)))


def sample_value(rng: random.Random, sr: SemiringId):
    if sr is SemiringId.PROBABILITY:
        return rng.random()
    if sr is SemiringId.MAX_TIMES:
        return rng.random() * 4
    if sr is SemiringId.MAX_PLUS:
        return NEG_INF if rng.random() < 0.15 else rng.uniform(-5, 5)
    if sr is SemiringId.EU:
        return (rng.random(), rng.uniform(-10, 10))
    if sr is SemiringId.NAT_PAIR:
        return (rng.randint(0, 1 << 70), rng.randint(0, 1 << 70))
    if sr is SemiringId.MAP_ARGMAX:
        r = 0.0 if rng.random() < 0.1 else rng.random() * 3
        return SEMIRINGS[sr]._canon(r, _litset(rng))
    if sr is SemiringId.MEU_ARGMAX:
        r = NEG_INF if rng.random() < 0.1 else rng.uniform(-5, 5)
        return SEMIRINGS[sr]._canon(r, _litset(rng))
    raise AssertionError(sr)


@pytest.mark.parametrize("sr", list(SemiringId))
def test_semiring_axioms(sr):
    s = SEMIRINGS[sr]
    rng = random.Random(sum(sr.value.encode()))
    for _ in range(300):
        a, b, c = (sample_value(rng, sr) for _ in range(3))
        assert s.eq(s.add(a, b), s.add(b, a))
        assert s.eq(s.mul(a, b), s.mul(b, a))
        assert s.eq(s.add(s.add(a, b), c), s.add(a, s.add(b, c)))
        assert s.eq(s.mul(s.mul(a, b), c), s.mul(a, s.mul(b, c)))
        assert s.eq(s.add(a, s.zero), a)
        assert s.eq(s.mul(a, s.one), a)
        assert s.eq(s.mul(a, s.zero), s.zero)
        assert s.eq(s.mul(s.zero, a), s.zero)
        # distributivity; witness components may differ only on engineered ties
        lhs = s.mul(a, s.add(b, c))
        rhs = s.add(s.mul(a, b), s.mul(a, c))
        if sr in (SemiringId.MAP_ARGMAX, SemiringId.MEU_ARGMAX):
            assert math.isclose(
                lhs[0], rhs[0], rel_tol=1e-9, abs_tol=1e-12
            ) or (lhs[0] == rhs[0] == NEG_INF)
        else:
            assert s.eq(lhs, rhs)


def test_natpair_exactness():
    s = SEMIRINGS[SemiringId.NAT_PAIR]
    big = 1 << 200
    assert s.mul((big, big + 1), (big, big)) == (big * big, (big + 1) * big)
    assert s.add((big, 0), (1, big)) == (big + 1, big)


@given(
    st.floats(min_value=0, max_value=10),
    st.sets(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), max_size=3),
    st.sets(st.sampled_from([-4, -3, -2, -1, 1, 2, 3, 4]), max_size=3),
)
@settings(max_examples=200)
def test_argmax_add_commutes_on_ties(r, s1, s2):
    s = SEMIRINGS[SemiringId.MAP_ARGMAX]
    a = s._canon(r, frozenset(s1))
    b = s._canon(r, frozenset(s2))
    assert s.add(a, b) == s.add(b, a)


def test_argmax_tie_break_is_lexicographic():
    s = SEMIRINGS[SemiringId.MAP_ARGMAX]
    a = (0.5, frozenset([-1, 2]))
    b = (0.5, frozenset([1, 2]))
    # negative literal of a variable sorts before the positive one
    assert s.add(a, b) == a
    assert litset_key(frozenset([-1])) < litset_key(frozenset([1]))


def test_homomorphism_bulk_samples():
    rng = random.Random(7)
    ratio_samples = []
    for _ in range(1000):
        n2 = rng.randint(0, 1 << 40)
        n1 = rng.randint(0, n2) if n2 else 0
        m2 = rng.randint(0, 1 << 40)
        m1 = rng.randint(0, m2) if m2 else 0
        ratio_samples.append(((n1, n2), (m1, m2)))
    assert check_homomorphism(TransformId.RATIO, ratio_samples)

    eu_samples = []
    for _ in range(1000):
        a = (0.0, 0.0) if rng.random() < 0.2 else (1.0, rng.uniform(-50, 50))
        b = (0.0, 0.0) if rng.random() < 0.2 else (1.0, rng.uniform(-50, 50))
        eu_samples.append((a, b))
    assert check_homomorphism(TransformId.EU_PROJECT, eu_samples)

    prob_samples = [(rng.random(), rng.random()) for _ in range(1000)]
    assert check_homomorphism(TransformId.PROB_TO_MAP, prob_samples)
    assert check_homomorphism(
        TransformId.IDENTITY, prob_samples,
        SemiringId.PROBABILITY, SemiringId.MAX_TIMES,
    )
