import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onsager import caches, lie, uea
from onsager.lie import (
    BasisElement,
    Kind,
    LIE_ZERO,
    LieElement,
    bracket,
    bracket_basis,
    generator,
    h,
    xminus,
    xplus,
)


def test_bracket_table_plus_minus():
    # [x+_j, x-_l] = h_{j+l} - h_{|j-l|}
    assert bracket(xplus(2), xminus(1)) == h(3) - h(1)
    assert bracket(xplus(1), xminus(1)) == h(2) - h(0)
    assert bracket(xplus(3), xminus(3)) == h(6) - h(0)


def test_bracket_table_h_x():
    assert bracket(h(2), xplus(1)) == 2 * xplus(3) + 2 * xplus(-1)
    assert bracket(h(1), xminus(2)) == -2 * xminus(3) - 2 * xminus(1)
    assert bracket(h(0), xplus(4)) == 4 * xplus(4)


def _composed_bracket_basis(a, b):
    """The bracket table as element arithmetic, with recursion for the
    swapped kinds: the reference the direct table must reproduce."""
    if a.kind == b.kind:
        return LIE_ZERO
    if a.kind > b.kind:
        return -_composed_bracket_basis(b, a)
    if a.kind == Kind.XMINUS and b.kind == Kind.XPLUS:
        j, l = b.index, a.index
        return -(h(j + l) - h(j - l))
    if a.kind == Kind.XMINUS and b.kind == Kind.H:
        l, k = a.index, b.index
        return lie._H_X_SCALE * (xminus(l + k) + xminus(l - k))
    k, j = a.index, b.index
    return lie._H_X_SCALE * (xplus(j + k) + xplus(j - k))


def test_bracket_table_matches_the_composed_definition():
    basis = ([BasisElement(Kind.H, k) for k in range(7)]
             + [BasisElement(kind, i) for kind in (Kind.XMINUS, Kind.XPLUS)
                for i in range(1, 7)])
    original = lie._H_X_SCALE
    try:
        for scale in (2, 3, Fraction(1, 2)):
            lie._H_X_SCALE = scale
            for a in basis:
                for b in basis:
                    got = bracket_basis(a, b)
                    want = _composed_bracket_basis(a, b)
                    assert type(got) is type(want) and got == want, (scale, a, b)
            caches.clear_all()
            # the table is read on every call, and a half-integral constant
            # still stops the PBW swap rule
            a, b = BasisElement(Kind.XPLUS, 1), BasisElement(Kind.H, 1)
            if scale == Fraction(1, 2):
                with pytest.raises(uea.NonIntegralBracket):
                    uea._swap(a, b)
            else:
                assert uea._swap(a, b) == {(b, a): 1, (BasisElement(Kind.XPLUS, 2),): -scale}
    finally:
        lie._H_X_SCALE = original
        caches.clear_all()


def test_h_commute():
    for k in range(4):
        for m in range(4):
            assert bracket(h(k), h(m)).is_zero


def test_index_symmetries():
    assert h(-3) == h(3)
    assert xplus(-2) == -xplus(2)
    assert xminus(-5) == -xminus(5)
    assert xplus(0).is_zero
    assert xminus(0).is_zero


def test_antisymmetry():
    rng = random.Random(0)
    kinds = [Kind.XMINUS, Kind.H, Kind.XPLUS]
    for _ in range(100):
        a = generator(rng.choice(kinds), rng.randint(0, 6))
        b = generator(rng.choice(kinds), rng.randint(0, 6))
        assert (bracket(a, b) + bracket(b, a)).is_zero


def test_jacobi_random_triples():
    rng = random.Random(12345)
    kinds = [Kind.XMINUS, Kind.H, Kind.XPLUS]
    for _ in range(500):
        a = generator(rng.choice(kinds), rng.randint(0, 8))
        b = generator(rng.choice(kinds), rng.randint(0, 8))
        c = generator(rng.choice(kinds), rng.randint(0, 8))
        total = (bracket(a, bracket(b, c))
                 + bracket(b, bracket(c, a))
                 + bracket(c, bracket(a, b)))
        assert total.is_zero


@given(st.integers(-6, 6), st.integers(-6, 6))
@settings(deadline=None)
def test_bilinearity(i, j):
    a = xplus(i) + h(abs(j))
    b = xminus(j)
    c = h(abs(i))
    lhs = bracket(a, b + c)
    rhs = bracket(a, b) + bracket(a, c)
    assert (lhs - rhs).is_zero


_FLIP = {Kind.XMINUS: Kind.XPLUS, Kind.H: Kind.H, Kind.XPLUS: Kind.XMINUS}


def tau(a: LieElement) -> LieElement:
    """Flip automorphism: x+ <-> x-, h -> -h."""
    return LieElement.over({BasisElement(_FLIP[b.kind], b.index): -n if b.kind == Kind.H else n
                            for b, n in a.num.items()}, a.den)


def test_tau_is_bracket_automorphism():
    rng = random.Random(7)
    kinds = [Kind.XMINUS, Kind.H, Kind.XPLUS]
    for _ in range(100):
        a = generator(rng.choice(kinds), rng.randint(0, 5))
        b = generator(rng.choice(kinds), rng.randint(0, 5))
        assert (tau(bracket(a, b)) - bracket(tau(a), tau(b))).is_zero
    assert tau(xplus(3)) == xminus(3)
    assert tau(h(2)) == -h(2)
    assert tau(tau(xminus(4))) == xminus(4)
    assert tau(h(2).scale(Fraction(1, 3)) - xplus(1)) == -h(2).scale(Fraction(1, 3)) - xminus(1)


def test_zero_behaviour():
    assert bracket(LIE_ZERO, xplus(1)).is_zero
    assert (xplus(2) - xplus(2)).is_zero
