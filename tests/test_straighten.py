import collections
import hashlib
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onsager.elements import binom, d_triple, duv_rec, ladder, lambda_rec
from onsager.lie import LIE_ZERO, BasisElement, Kind, LieElement, bracket_basis, h, xminus, xplus
from onsager import caches
from onsager.uea import UEA_ONE, UEAElement, divided_power, from_lie, multiply, pbw_normal_form
from onsager.straighten import (
    M_ONE,
    AmbiguousSolution,
    LFactor,
    MForm,
    NoLambdaExpression,
    OutOfTruncation,
    XFactor,
    coordinates,
    divided_x,
    enumerate_basis,
    expand,
    expand_factor,
    expand_word,
    lfactor,
    mdegree,
    merge_lambda_pair,
    mform_coordinates,
    monomial,
    monomial_to_text,
    move_x_past_lambda,
    normalize_to_basis,
    straighten_plus_minus,
    straighten_same_x,
    _chain_correction,
)


def _random_word(rng, max_factors=4, max_index=3, max_order=2):
    word = []
    for _ in range(rng.randint(1, max_factors)):
        kind = rng.randrange(3)
        if kind == 1:
            word.append(lfactor(rng.randint(1, max_index),
                                rng.randint(1, max_index),
                                rng.randint(1, max_order)))
        else:
            sign = 1 if kind == 2 else -1
            word.append(XFactor(sign, rng.randint(1, max_index),
                                rng.randint(1, max_order)))
    return tuple(word)


def test_factor_kinds_with_equal_fields_are_distinct_keys():
    x, lam = XFactor(2, 1, 3), LFactor(2, 1, 3)
    assert x != lam and len({x: 1, lam: 2}) == 2
    assert MForm({(x,): 1}) != MForm({(lam,): 1})
    # plain tuples: hashing and equality run in C
    assert XFactor.__hash__ is tuple.__hash__ and LFactor.__hash__ is tuple.__hash__
    assert repr(x) == "XFactor(sign=2, index=1, order=3)"
    assert repr(lam) == "LFactor(j=2, l=1, order=3)"


def test_same_x_consolidation():
    coeff, factor = straighten_same_x(1, 2, 3, 4)
    assert coeff == binom(7, 3)
    assert factor == XFactor(1, 2, 7)
    nf = normalize_to_basis(monomial(XFactor(1, 1, 2), XFactor(1, 1, 3)))
    assert nf.coeffs == {(XFactor(1, 1, 5),): Fraction(10)}


def test_plus_minus_example():
    nf = normalize_to_basis(monomial(XFactor(1, 1, 1), XFactor(-1, 1, 1)))
    assert nf.coeffs == {
        (XFactor(-1, 1, 1), XFactor(1, 1, 1)): Fraction(1),
        (lfactor(1, 1, 1),): Fraction(-1),
    }


def test_identity7_against_pbw():
    for j, l in [(1, 1), (2, 1), (1, 2)]:
        for r in range(3):
            for s in range(3):
                lhs = multiply(divided_power(xplus(j), r),
                               divided_power(xminus(l), s))
                rhs = expand(straighten_plus_minus(j, r, l, s))
                assert lhs == rhs


def test_identity8_and_9_against_pbw():
    for r in range(3):
        for n in range(3):
            lhs = multiply(divided_power(xplus(1), r), lambda_rec(2, 1, n))
            rhs = expand(move_x_past_lambda(1, 1, r, (2, 1), n))
            assert lhs == rhs
            lhs = multiply(lambda_rec(2, 1, n), divided_power(xminus(1), r))
            rhs = expand(move_x_past_lambda(-1, 1, r, (2, 1), n))
            assert lhs == rhs


def _reference_move_x_past_lambda(sign, x_index, r, pair, n):
    """move_x_past_lambda with nothing cached: every ladder, its layers
    and the three-index D elements are rebuilt for each call."""
    k, m = pair
    gen = xplus if sign > 0 else xminus

    def d3(u):
        return LieElement.combine(((-1) ** (a + b) * binom(u, a) * binom(u, b),
                                   gen(x_index + (u - 2 * a) * k + (u - 2 * b) * m))
                                  for a in range(u + 1) for b in range(u + 1))

    terms = []
    for i in range(n + 1):
        lam = monomial(lfactor(k, m, n - i)) if n - i else M_ONE
        inner = ladder(lambda u, v: divided_x(d3(u).scale(u + 1), v), i, r, M_ONE)
        terms.append((1, lam * inner if sign > 0 else inner * lam))
    return MForm.combine(terms)


def test_move_x_past_lambda_matches_the_uncached_formula():
    grid = [(sign, x, r, (k, m), n) for sign in (1, -1) for x in range(1, 4)
            for r in range(4) for k in range(1, 4) for m in range(1, 4) for n in range(4)]
    want = {args: _reference_move_x_past_lambda(*args) for args in grid}
    # each on cold caches, then in the reverse order on the ladders and
    # layers the other arguments left behind
    for args in grid:
        caches.clear_all()
        assert move_x_past_lambda(*args) == want[args], args
    for args in grid:
        move_x_past_lambda(*args)
    for args in reversed(grid):
        assert move_x_past_lambda(*args) == want[args], args


def test_merge_lambda_pair_leading_term():
    for j, l in [(1, 1), (2, 1), (3, 2)]:
        for k in range(1, 4):
            for m in range(1, 4):
                out = merge_lambda_pair(j, l, k, m)
                assert out.coeffs[(lfactor(j, l, k + m),)] == binom(k + m, k)
                for word, c in out.coeffs.items():
                    assert c.denominator == 1
                    if word != (lfactor(j, l, k + m),):
                        assert mdegree(word) < k + m
                product = multiply(lambda_rec(j, l, k), lambda_rec(j, l, m))
                assert expand(out) == product


def test_chain_correction_keeps_h0_and_h1_apart():
    # h_2 - h_0 is -L_{1,1,1}, a chain factor
    assert _chain_correction(from_lie(h(2) - h(0))) == {(LFactor(1, 1, 1),): -1}
    # h_0 - h_1 leads with h_1, which no chain word does
    with pytest.raises(NoLambdaExpression):
        _chain_correction(from_lie(h(0) - h(1)))


# chain words: factors L_{t-1,1,q} with t in 2..8, q <= 3, degree <= 4
CHAIN_WORDS = (st.lists(st.integers(2, 8), max_size=4)
               .map(collections.Counter)
               .filter(lambda ts: max(ts.values(), default=0) <= 3)
               .map(lambda ts: tuple(LFactor(t - 1, 1, q) for t, q in sorted(ts.items()))))
CHAIN_COMBOS = st.dictionaries(CHAIN_WORDS, st.sampled_from([-3, -2, -1, 1, 2, 3]), max_size=3)
H_WORDS = st.lists(st.integers(0, 8), max_size=4).map(
    lambda ts: tuple(BasisElement(Kind.H, t) for t in sorted(ts)))
COEFFS = st.one_of(st.sampled_from([-3, -2, -1, 1, 2, 3]),
                   st.fractions(min_value=-2, max_value=2, max_denominator=4).filter(bool))


@given(CHAIN_COMBOS)
@settings(deadline=None, max_examples=150)
def test_chain_correction_inverts_expand(combo):
    target = expand(MForm(combo))
    assert _chain_correction(target) == combo
    # half the expansion is an integer combination only if every coefficient is even
    if all(c % 2 == 0 for c in combo.values()):
        assert _chain_correction(target.divide(2)) == {w: c // 2 for w, c in combo.items()}
    else:
        with pytest.raises(NoLambdaExpression):
            _chain_correction(target.divide(2))


@given(CHAIN_COMBOS, H_WORDS, COEFFS)
@settings(deadline=None, max_examples=150)
def test_chain_correction_of_a_disturbed_expansion(combo, word, c):
    target = expand(MForm(combo)) + UEAElement({word: c})
    try:
        got = _chain_correction(target)
    except NoLambdaExpression:
        return
    assert expand(MForm(got)) == target


def test_merge_small_case_exact():
    out = merge_lambda_pair(1, 1, 1, 1)
    assert out.coeffs == {
        (lfactor(1, 1, 2),): Fraction(2),
        (lfactor(1, 1, 1),): Fraction(3),
        (lfactor(3, 1, 1),): Fraction(-1),
    }


def test_normalize_preserves_meaning():
    rng = random.Random(99)
    for _ in range(30):
        m = monomial(*_random_word(rng))
        nf = normalize_to_basis(m)
        assert expand(nf) == expand(m)
        for word, c in nf.coeffs.items():
            # canonical: strictly increasing factors within categories
            cats = [0 if (isinstance(f, XFactor) and f.sign < 0)
                    else (1 if isinstance(f, LFactor) else 2) for f in word]
            assert cats == sorted(cats)
            assert c.denominator == 1


def test_enumerate_basis_counts():
    assert len(enumerate_basis(1, 1)) == 4
    assert len(enumerate_basis(3, 3)) == 455
    assert enumerate_basis(0, 5) == [()]
    # 1125 slots, more than the interpreter's default recursion limit
    assert len(enumerate_basis(1, 45)) == 1 + 45 + 45 * 46 // 2 + 45


def test_enumerate_basis_deterministic():
    assert enumerate_basis(2, 2) == enumerate_basis(2, 2)
    words = enumerate_basis(2, 2)
    assert all(mdegree(w) <= 2 for w in words)


@pytest.mark.parametrize("bounds, count, digest", [
    ((3, 3), 455, "f2942a0ee607bf3a30792b5efaf8ceaf5b7a51fdc56d90f46c4fb5f4cbff333f"),
    ((4, 2), 330, "880b963d92154f1767a93ef51e3afb06905fa2fb516a85ceeec097b2f241c8c4"),
    ((2, 4), 190, "0ea0575253cac36a6de475929d301d19dd915683b5023cdac351da61a1c03ef0"),
])
def test_enumerate_basis_order_is_pinned(bounds, count, digest):
    # candidate order fixes column order in the audits: report bytes
    texts = [monomial_to_text(w) for w in enumerate_basis(*bounds)]
    assert len(texts) == count
    assert hashlib.sha256(repr(texts).encode()).hexdigest() == digest


def test_coordinates_example():
    target = pbw_normal_form(multiply(from_lie(xplus(1)), from_lie(xminus(1))))
    coords = coordinates(target, 2, 1)
    nonzero = {w: c for w, c in coords.items() if c != 0}
    assert nonzero == {
        (XFactor(-1, 1, 1), XFactor(1, 1, 1)): Fraction(1),
        (lfactor(1, 1, 1),): Fraction(-1),
    }


def test_coordinates_out_of_truncation():
    with pytest.raises(OutOfTruncation):
        coordinates(from_lie(h(6)), 1, 1)


def test_coordinates_ambiguous_at_3_3():
    # the candidate monomials are linearly dependent at this truncation:
    # lam(1,1,1) + lam(3,1,1) - lam(2,2,1) expands to zero
    target = pbw_normal_form(multiply(from_lie(xplus(1)), from_lie(xminus(1))))
    with pytest.raises(AmbiguousSolution) as exc:
        coordinates(target, 3, 3)
    assert len(exc.value.kernel) == 77
    for vec in exc.value.kernel:
        assert expand(MForm(vec)).is_zero
    assert expand(MForm(exc.value.particular)) == target


def test_known_dependency():
    dep = (expand(monomial(lfactor(1, 1, 1))) + expand(monomial(lfactor(3, 1, 1)))
           - expand(monomial(lfactor(2, 2, 1))))
    assert pbw_normal_form(dep).is_zero


def test_mform_coordinates_constructive():
    coords = mform_coordinates(monomial(XFactor(1, 1, 1), XFactor(-1, 1, 1)), 2, 1)
    nonzero = {w: c for w, c in coords.items() if c != 0}
    assert nonzero == {
        (XFactor(-1, 1, 1), XFactor(1, 1, 1)): Fraction(1),
        (lfactor(1, 1, 1),): Fraction(-1),
    }


def test_mform_coordinates_bounds():
    with pytest.raises(OutOfTruncation):
        mform_coordinates(monomial(XFactor(1, 5, 1)), 3, 3)


def test_integrality_check():
    # all denominators 1; then one that is not, by both coordinate routes
    coords = mform_coordinates(monomial(XFactor(1, 1, 2), XFactor(-1, 1, 2)), 4, 3)
    assert coords and all(c.denominator == 1 for c in coords.values())
    half = monomial(XFactor(1, 1, 1)).scale(Fraction(1, 2))
    for coords in (mform_coordinates(half, 2, 2), coordinates(expand(half), 2, 2)):
        assert [c for c in coords.values() if c.denominator != 1]


@given(st.integers(1, 2), st.integers(1, 2), st.integers(0, 2), st.integers(0, 2))
@settings(deadline=None)
def test_property_plus_minus_straightening(j, l, r, s):
    lhs = multiply(divided_power(xplus(j), r), divided_power(xminus(l), s))
    rhs = expand(straighten_plus_minus(j, r, l, s))
    assert lhs == rhs


_ONE_SIDED = st.builds(
    lambda gen, coeffs: sum((gen(i).scale(c) for i, c in coeffs.items()), LIE_ZERO),
    st.sampled_from([xplus, xminus]),
    st.dictionaries(st.integers(1, 4), st.integers(-3, 3).filter(bool), min_size=1, max_size=4))


@given(_ONE_SIDED, st.integers(0, 4), st.integers(-3, 3))
@settings(deadline=None)
def test_property_divided_x(a, v, c):
    assert pbw_normal_form(expand(divided_x(a, v))) == pbw_normal_form(divided_power(a, v))
    # the ladder sum moves a layer's weight inside the divided power by this
    assert divided_x(a.scale(c), v) == divided_x(a, v).scale(c ** v)


def test_expand_word_is_the_normal_form_of_the_free_product():
    # longest words first, so shorter ones are read from cached prefixes
    caches.clear_all()
    for w in reversed(enumerate_basis(3, 3)):
        free = UEA_ONE
        for f in w:
            free = free.convolve(expand_factor(f))
        assert expand_word(w) == pbw_normal_form(free), w


def _grades(words) -> set:
    """The (charge, total-index parity) of each word: charge counts x+
    letters minus x- letters."""
    charge = {Kind.XMINUS: -1, Kind.H: 0, Kind.XPLUS: 1}
    return {(sum(charge[b.kind] for b in w), sum(b.index for b in w) % 2) for w in words}


def test_kernel_values_are_homogeneous_in_charge_and_parity():
    # the bracket adds grades
    letters = [BasisElement(k, i) for k in Kind for i in range(k != Kind.H, 7)]
    for a, b in itertools.product(letters, repeat=2):
        (grade,) = _grades([(a, b)])
        assert _grades((g,) for g in bracket_basis(a, b).num) <= {grade}, (a, b)
    # the constructions, at the default verify grid
    index, order = range(1, 4), range(4)
    values = [lambda_rec(j, l, k) for j in index for l in index for k in order]
    values += [duv_rec(s, u, v, j, l) for s in (1, -1) for u in order for v in order
               for j in index for l in index]
    values += [from_lie(d_triple(s, u, j, k, m)) for s in (1, -1) for u in order
               for j in index for k in index for m in index]
    # the straightening rules, at indices and orders <= 3
    values += [expand(straighten_plus_minus(j, r, l, s))
               for j in index for l in index for r in order for s in order]
    values += [expand(move_x_past_lambda(s, i, r, (k, m), n)) for s in (1, -1)
               for i in index for r in order for k in index for m in index if m <= k
               for n in order]
    values += [expand(merge_lambda_pair(j, l, k, m)) for j in index for l in index
               if l <= j for k in order if k for m in order if m]
    for u in values:
        assert len(_grades(u.num)) <= 1, u
