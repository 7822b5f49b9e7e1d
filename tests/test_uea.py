import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onsager.lie import BasisElement, Kind, bracket_basis, generator, h, xminus, xplus
from onsager.uea import (
    UEAElement,
    UEA_ONE,
    UEA_ZERO,
    binomial,
    divided_power,
    from_lie,
    multiply,
    pbw_normal_form,
    rewrite,
)
from onsager import caches, lie, uea
from onsager.cli import main
from onsager.elements import binom, duv_rec, lambda_rec
from onsager.straighten import expand, move_x_past_lambda
from onsager.verify import SuiteConfig, run_suite


def _random_element(rng, nwords=2, nletters=3, max_index=4):
    kinds = [Kind.XMINUS, Kind.H, Kind.XPLUS]
    out = UEA_ZERO
    for _ in range(rng.randint(1, nwords)):
        word = UEA_ONE
        for _ in range(rng.randint(1, nletters)):
            g = generator(rng.choice(kinds), rng.randint(0, max_index))
            if g.is_zero:
                continue
            word = word.convolve(from_lie(g))
        out = out + word.scale(Fraction(rng.randint(-3, 3) or 1))
    return out


def test_normal_form_example():
    nf = pbw_normal_form(from_lie(xplus(1)).convolve(from_lie(xminus(1))))
    expected = (from_lie(xminus(1)).convolve(from_lie(xplus(1)))
                + from_lie(h(2)) - from_lie(h(0)))
    assert nf == pbw_normal_form(expected)


def test_normal_form_is_ordered_and_idempotent():
    rng = random.Random(1)
    for _ in range(50):
        a = _random_element(rng)
        nf = pbw_normal_form(a)
        for word in nf.coeffs:
            assert all(word[i] <= word[i + 1] for i in range(len(word) - 1))
        assert pbw_normal_form(nf) == nf


def test_confluence_leftmost_vs_rightmost():
    rng = random.Random(42)
    for _ in range(200):
        a = _random_element(rng)
        left = pbw_normal_form(a, strategy="leftmost")
        right = pbw_normal_form(a, strategy="rightmost")
        assert left == right


def test_strategies_take_different_routes():
    # the agreement test above only checks something if the routes differ
    w = (BasisElement(Kind.XPLUS, 1), BasisElement(Kind.H, 1), BasisElement(Kind.XMINUS, 1))
    left, right = {}, {}
    assert (rewrite(w, operator.gt, uea._swap, left)
            == rewrite(w, operator.gt, uea._swap, right, rightmost=True))
    assert set(left) != set(right)


def test_multiplication_associative():
    rng = random.Random(3)
    for _ in range(20):
        a, b, c = (pbw_normal_form(_random_element(rng, 2, 2, 3)) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


def test_divided_power_basics():
    x = xplus(2)
    assert divided_power(x, 0) == UEA_ONE
    assert divided_power(x, 1) == from_lie(x)
    u = from_lie(x)
    assert multiply(multiply(u, u), u) == divided_power(x, 3).scale(Fraction(6))


def test_powers_take_a_lie_element_only():
    # multiply trusts its operands to be normal forms, so a free product
    # here would give a non-normal power: only a Lie element is taken
    free = from_lie(xplus(1)).convolve(from_lie(xminus(1)))
    for power in (divided_power, binomial):
        for operand in (free, from_lie(xplus(1))):
            with pytest.raises(TypeError):
                power(operand, 2)


def test_divided_power_product_rule():
    for r in range(4):
        for s in range(4):
            lhs = multiply(divided_power(xminus(1), r), divided_power(xminus(1), s))
            rhs = divided_power(xminus(1), r + s).scale(Fraction(binom(r + s, s)))
            assert lhs == rhs


def test_binomial_of_h():
    # binom(h, 2) = h(h-1)/2
    b = binomial(h(2), 2)
    hh = from_lie(h(2))
    expected = multiply(hh, hh - UEA_ONE).scale(Fraction(1, 2))
    assert b == expected


@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 3))
@settings(deadline=None)
def test_normal_form_linear(j, l, k):
    a = from_lie(xplus(j)).convolve(from_lie(xminus(l)))
    b = divided_power(h(k), 2)
    lhs = pbw_normal_form(a + b)
    rhs = pbw_normal_form(a) + pbw_normal_form(b)
    assert lhs == rhs


# canonical letters: h from index 0, the x's from index 1
LETTERS = st.builds(lambda kind, i: BasisElement(kind, i if kind == Kind.H else i + 1),
                    st.sampled_from(list(Kind)), st.integers(0, 2))
MIXED = st.dictionaries(st.lists(LETTERS, max_size=4).map(tuple),
                        st.sampled_from([1, -2, 3, Fraction(1, 2), Fraction(-1, 3),
                                         Fraction(5, 6)]),
                        max_size=4)


@given(MIXED)
@settings(deadline=None)
def test_normal_form_over_mixed_denominators_is_termwise(coeffs):
    a = UEAElement(coeffs)
    for strategy in ("leftmost", "rightmost"):
        nf = pbw_normal_form(a, strategy)
        termwise = UEA_ZERO
        for w, c in a.items():
            termwise = termwise + pbw_normal_form(UEAElement({w: 1}), strategy).scale(c)
        assert nf == termwise
        for c in nf.coeffs.values():
            assert type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_deep_descent_both_strategies():
    # 1225 swaps deep: a recursive descent exhausts the interpreter stack
    letters = tuple(BasisElement(Kind.XPLUS, j) for j in range(50, 0, -1))
    expected = UEAElement({letters[::-1]: 1})
    for strategy in ("leftmost", "rightmost"):
        assert pbw_normal_form(UEAElement({letters: 1}), strategy) == expected


def test_unknown_strategy_rejected():
    a = from_lie(xplus(1)).convolve(from_lie(xminus(1)))
    with pytest.raises(ValueError):
        pbw_normal_form(a, "Rightmost")


def test_rightmost_keeps_out_of_the_cache():
    a = from_lie(xplus(7)).convolve(from_lie(h(5))).convolve(from_lie(xminus(6)))
    before, words = len(uea._NF_CACHE), len(caches.WORDS)
    pbw_normal_form(a, "rightmost")
    assert len(uea._NF_CACHE) == before and len(caches.WORDS) == words


def test_normal_words_are_the_word_tables_objects():
    # hash-consing: every word a cached normal form, a normal form or a
    # product holds is the one object the word table keeps for its value
    caches.clear_all()
    run_suite(SuiteConfig(max_index=2, max_order=2))
    table = caches.WORDS
    assert uea._NF_CACHE
    for nf in uea._NF_CACHE.values():
        for w in nf:
            assert table[w] is w
    rng = random.Random(5)
    for _ in range(100):
        a, b = (pbw_normal_form(_random_element(rng)) for _ in range(2))
        for w in (*a.num, *b.num, *multiply(a, b).num):
            assert table[w] is w


def test_swap_table_lives_in_the_normal_form_cache_rebuilt_after_corruption():
    assert any(c is uea._NF_CACHE for c in caches._REGISTRY)
    # x+_1 h_1 = h_1 x+_1 - [h_1, x+_1] = h_1 x+_1 - 2 x+_2
    a, b = BasisElement(Kind.XPLUS, 1), BasisElement(Kind.H, 1)
    word = from_lie(xplus(1)).convolve(from_lie(h(1)))
    target = (BasisElement(Kind.XPLUS, 2),)
    caches.clear_all()
    assert pbw_normal_form(word).coeffs[target] == -2
    assert uea._NF_CACHE[a, b] == uea._swap(a, b)
    caches.clear_all()
    assert not uea._NF_CACHE
    original = lie._H_X_SCALE
    try:
        for scale in (Fraction(3), 3):
            lie._H_X_SCALE = scale
            caches.clear_all()
            assert pbw_normal_form(word).coeffs[target] == -3
    finally:
        lie._H_X_SCALE = original
        caches.clear_all()
    assert pbw_normal_form(word).coeffs[target] == -2


def test_non_integral_bracket_is_rejected(capsys):
    # word normal forms are summed as integer numerators, so a half-integral
    # [h, x] constant must stop both strategies rather than go in silently
    word = from_lie(xplus(1)).convolve(from_lie(h(1)))
    original = lie._H_X_SCALE
    try:
        lie._H_X_SCALE = Fraction(1, 2)
        caches.clear_all()
        for strategy in ("leftmost", "rightmost"):
            with pytest.raises(uea.NonIntegralBracket, match=r"\[xp\(1\), h\(1\)\]"):
                pbw_normal_form(word, strategy)
        assert main(["normalize", "xp(1)*h(1)"]) == 2
        assert "non-integral structure constant" in capsys.readouterr().err
    finally:
        lie._H_X_SCALE = original
        caches.clear_all()


def _operand(rng):
    # a normal form, or a free product of letters; sometimes plus a constant
    a = _random_element(rng, nwords=3, nletters=3, max_index=3)
    if rng.random() < 0.5:
        a = pbw_normal_form(a)
    if rng.random() < 0.3:
        a = a + UEA_ONE.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
    return a


def _seam(u, v):
    if not u or not v or u[-1] <= v[0]:
        return "ordered"
    return "one kind" if u[-1].kind == v[0].kind else "rewritten"


def test_fused_product_matches_the_rightmost_oracle():
    rng = random.Random(17)
    seams = {"ordered": 0, "one kind": 0, "rewritten": 0}
    free = constants = 0
    for _ in range(300):
        a, b = _operand(rng), _operand(rng)
        na, nb = pbw_normal_form(a), pbw_normal_form(b)
        assert multiply(na, nb) == pbw_normal_form(a.convolve(b), "rightmost")
        free += na != a
        constants += () in a.num or () in b.num
        for u in na.num:
            for v in nb.num:
                seams[_seam(u, v)] += 1
    # every branch of the seam rule ran, and the oracle rewrote free products
    assert min(seams.values()) > 100 and free > 50 and constants > 50, (seams, free, constants)


_SIGMA_KIND = {Kind.XMINUS: Kind.XPLUS, Kind.H: Kind.H, Kind.XPLUS: Kind.XMINUS}


def _sigma(u):
    """The anti-involution sigma on a normal form: each word reversed, its
    x kinds swapped, and sorted back into PBW order (letters of one kind
    commute, so the sorted word is the same element)."""
    return UEAElement.over({tuple(sorted(BasisElement(_SIGMA_KIND[b.kind], b.index)
                                         for b in reversed(w))): n
                            for w, n in u.num.items()}, u.den)


def _sigma_failures():
    rng = random.Random(14)
    failures = 0
    for _ in range(300):
        a, b = (pbw_normal_form(_random_element(rng, max_index=3)) for _ in range(2))
        failures += _sigma(multiply(a, b)) != multiply(_sigma(b), _sigma(a))
    return failures


def _with_h2_xm1_tripled(monkeypatch, failures):
    """failures() on fresh caches with [h_2, x-_1] tripled in both orders."""
    original = uea.bracket_basis
    pair = {BasisElement(Kind.H, 2), BasisElement(Kind.XMINUS, 1)}

    def tripled(a, b):
        out = original(a, b)
        return out.scale(3) if {a, b} == pair else out

    with monkeypatch.context() as m:
        m.setattr(uea, "bracket_basis", tripled)
        caches.clear_all()
        try:
            return failures()
        finally:
            caches.clear_all()


def test_multiply_respects_the_sigma_anti_involution(monkeypatch):
    """sigma swaps x+_j and x-_j, fixes h_k and reverses products, so
    sigma(ab) = sigma(b) sigma(a).  It cannot see a corruption that is
    itself symmetric under sigma, such as a wrong ``lie._H_X_SCALE``."""
    caches.clear_all()
    assert _sigma_failures() == 0
    # negative control: the tripled constant breaks the symmetry
    assert _with_h2_xm1_tripled(monkeypatch, _sigma_failures) > 0


def test_sigma_fixes_lambda_and_swaps_the_d_ladders():
    """sigma fixes every Lambda_{j,l,k}, which lives in the commutative h
    block (the theorem audit and coordinates read candidates through it),
    and maps D+_{u,v}(j,l) to D-_{u,v}(l,j)."""
    caches.clear_all()
    index, order = range(1, 4), range(4)
    checks = [(_sigma(lambda_rec(j, l, k)), lambda_rec(j, l, k))
              for j in index for l in index for k in order]
    checks += [(_sigma(duv_rec(1, u, v, j, l)), duv_rec(-1, u, v, l, j))
               for j in index for l in index for u in order for v in order]
    assert len(checks) == 180
    assert [pair for pair in checks if pair[0] != pair[1]] == []



def test_sigma_maps_the_x_past_lambda_rewrites_onto_each_other():
    """sigma((x+_j)^(r) L_{k,m,n}) = L_{k,m,n} (x-_j)^(r), so it maps the
    rewrite I8 checks onto the one I9 checks, term by term."""
    caches.clear_all()
    pairs = [(k, m) for k in range(1, 4) for m in range(1, k + 1)]
    checks = [(_sigma(expand(move_x_past_lambda(1, j, r, pair, n))),
               expand(move_x_past_lambda(-1, j, r, pair, n)))
              for j in range(1, 4) for pair in pairs for r in range(4) for n in range(4)]
    assert len(checks) == 288
    assert [pair for pair in checks if pair[0] != pair[1]] == []

def _phi(n, u):
    """The index scaling phi_n on a normal form: every letter's index times
    n (h_0 stays).  It keeps the letters' order, so image words are normal."""
    return UEAElement.over({tuple(BasisElement(b.kind, n * b.index) for b in w): c
                            for w, c in u.num.items()}, u.den)


def _phi_failures():
    rng = random.Random(15)
    failures = 0
    for _ in range(200):
        a, b = (pbw_normal_form(_random_element(rng, max_index=3)) for _ in range(2))
        ab = multiply(a, b)
        for n in (2, 3):
            failures += _phi(n, ab) != multiply(_phi(n, a), _phi(n, b))
    return failures


def test_multiply_respects_the_index_scaling(monkeypatch):
    """phi_n scales every index by n.  The structure constants
    [x+_j, x-_l] = h_{j+l} - h_{|j-l|} and [h_k, x+-_j] = +-2(x+-_{j+k} +
    x+-_{j-k}) keep their form under it, so it is an endomorphism of U and
    phi_n(ab) = phi_n(a) phi_n(b).  It cannot see a corruption that is
    itself invariant under scaling, such as a wrong ``lie._H_X_SCALE``."""
    caches.clear_all()
    assert _phi_failures() == 0
    # negative control: [h_2, x-_1] is tripled but [h_4, x-_2] and
    # [h_6, x-_3] are not
    assert _with_h2_xm1_tripled(monkeypatch, _phi_failures) > 0


def test_lambda_and_d_scale_with_their_pair():
    # Lambda_{j,l,k} and D_{u,v}(j,l) are built from brackets of x+_j,
    # x-_l and h's on (j, l), so phi_n maps them to the scaled pair's
    for n in (2, 3):
        for j in range(1, 4):
            for l in range(1, 4):
                for k in range(4):
                    assert lambda_rec(n * j, n * l, k) == _phi(n, lambda_rec(j, l, k))
                for sign in (1, -1):
                    for u in range(4):
                        for v in range(4):
                            assert (duv_rec(sign, u, v, n * j, n * l)
                                    == _phi(n, duv_rec(sign, u, v, j, l)))


def test_bracket_kinds_keep_the_block_order():
    # the kind-block insertion in uea relies on this grading: letters of
    # one kind commute, and a bracket's letters have a kind between its
    # arguments' kinds
    def letters(kind):
        return [BasisElement(kind, i) for i in range(kind != Kind.H, 9)]

    for kind in Kind:
        for a in letters(kind):
            for b in letters(kind):
                assert bracket_basis(a, b).is_zero
    for x in (Kind.XMINUS, Kind.XPLUS):
        for a in letters(Kind.H):
            for b in letters(x):
                assert {g.kind for g in bracket_basis(a, b).num} <= {x}
                assert {g.kind for g in bracket_basis(b, a).num} <= {x}
    for a in letters(Kind.XPLUS):
        for b in letters(Kind.XMINUS):
            assert {g.kind for g in bracket_basis(a, b).num} <= {Kind.H}
            assert {g.kind for g in bracket_basis(b, a).num} <= {Kind.H}
