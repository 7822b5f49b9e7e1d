import math

from onsager import loop
from onsager.lie import BasisElement, Kind, bracket, h, xminus, xplus
from onsager.loop import (
    LaurentPoly,
    embed,
    matrix_bracket,
    omega,
    onsager_A,
    onsager_G,
    sigma,
    tpow,
    verify_structure_constants,
)


def test_structure_constants_small():
    assert verify_structure_constants(3) == []
    assert verify_structure_constants(1) == []
    assert verify_structure_constants(0) == []


def test_embed_h0():
    m = embed(h(0))
    assert m.a11.is_zero and m.a22.is_zero
    assert m.a12 == LaurentPoly({(0, 1): -2})
    assert m.a21 == LaurentPoly({(0, 1): 2})


def test_realization_entries_have_int_numerators_in_lowest_terms():
    basis = [BasisElement(k, i) for k in Kind for i in range(k != Kind.H, 7)]
    images = [embed(b) for b in basis]
    images += [f(l) for l in range(-3, 4) for f in (onsager_A, onsager_G)]
    for m in images:
        for p in (m.a11, m.a12, m.a21, m.a22):
            assert type(p.den) is int and p.den > 0
            assert all(type(n) is int and n for n in p.num.values())
            assert all(r in (0, 1) for _, r in p.num)
            assert math.gcd(p.den, *p.num.values()) == 1


def test_embed_is_bracket_homomorphism():
    cases = [(xplus(2), xminus(1)), (h(3), xplus(1)), (h(2), xminus(4)),
             (xplus(1), xplus(3)), (xminus(2), xminus(2))]
    for a, b in cases:
        assert embed(bracket(a, b)) == matrix_bracket(embed(a), embed(b))


def test_embed_linear_and_faithful_on_basis():
    assert embed(xplus(2) + xminus(2)) == embed(xplus(2)) + embed(xminus(2))
    assert not embed(h(4)).is_zero
    assert embed(h(4)) != embed(h(2))


def test_sigma_fixes_embedded_generators():
    for k in range(0, 5):
        assert sigma(embed(h(k))) == embed(h(k))
    for j in range(1, 5):
        assert sigma(embed(xplus(j))) == embed(xplus(j))
        assert sigma(embed(xminus(j))) == embed(xminus(j))


def test_sigma_moves_generic_matrix():
    assert sigma(loop.X_PLUS.scale_poly(tpow(1))) != loop.X_PLUS.scale_poly(tpow(1))


def test_onsager_relations():
    for l in range(-3, 4):
        for m in range(-3, 4):
            g = onsager_G(l - m)
            assert matrix_bracket(onsager_A(l), onsager_A(m)) == g + g
            assert (matrix_bracket(onsager_G(l), onsager_A(m))
                    == onsager_A(m + l) - onsager_A(m - l))
            assert matrix_bracket(onsager_G(l), onsager_G(m)).is_zero


def test_omega_fixes_A_and_G():
    for l in range(-3, 4):
        assert omega(onsager_A(l)) == onsager_A(l)
        assert omega(onsager_G(l)) == onsager_G(l)


def test_G_symmetries():
    assert onsager_G(0).is_zero
    assert onsager_G(-2) == -onsager_G(2)
