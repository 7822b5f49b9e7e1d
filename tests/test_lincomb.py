"""The shared sparse-combination behaviour of the four element types."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onsager.lie import BasisElement, Kind, LieElement
from onsager.loop import LaurentPoly
from onsager.straighten import LFactor, MForm, XFactor
from onsager.uea import UEAElement

XP1 = BasisElement(Kind.XPLUS, 1)
H2 = BasisElement(Kind.H, 2)

# each type with two distinct keys and its own zero and unit coefficient
CASES = {
    "lie": (LieElement, XP1, H2, Fraction(0), Fraction(1)),
    "uea": (UEAElement, (XP1, H2), (), Fraction(0), Fraction(1)),
    "mform": (MForm, (XFactor(1, 1, 2),), (LFactor(2, 1, 1),), Fraction(0), Fraction(1)),
    "laurent": (LaurentPoly, (3, 0), (-1, 1), Fraction(0), Fraction(1)),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_zero_coefficients_dropped_at_construction(case):
    cls, k1, k2, zero, one = case
    assert cls({k1: zero, k2: one}).coeffs == {k2: one}
    assert cls({k1: zero}).is_zero


def test_difference_with_itself_is_empty(case):
    cls, k1, k2, zero, one = case
    x = cls({k1: one, k2: one + one})
    assert (x - x).coeffs == {}
    assert (x + -x).coeffs == {}


def test_equal_elements_hash_equal(case):
    cls, k1, k2, zero, one = case
    a, b = cls({k1: one}), cls({k2: one + one})
    assert a + b == b + a
    assert hash(a + b) == hash(b + a)
    assert len({a + b, b + a, a}) == 2


def test_equal_coefficient_dicts_in_different_types_differ():
    coeffs = {(): Fraction(1)}
    assert LieElement(coeffs) != UEAElement(coeffs)
    assert MForm(coeffs) != UEAElement(coeffs)
    assert LieElement({XP1: Fraction(1)}) != UEAElement({XP1: Fraction(1)})


@pytest.mark.parametrize("name", ["lie", "uea", "mform", "laurent"])
def test_divide_is_exact_and_hands_integral_quotients_back_as_int(name):
    cls, k1, k2 = CASES[name][:3]
    q = cls({k1: 6, k2: -4}).divide(2)
    assert type(q) is cls and q.coeffs == {k1: 3, k2: -2}
    assert all(type(c) is int for c in q.coeffs.values())
    q = cls({k1: 6, k2: 1}).divide(4)
    assert q.coeffs == {k1: Fraction(3, 2), k2: Fraction(1, 4)}
    assert all(type(c) is Fraction for c in q.coeffs.values())
    # a Fraction coefficient divides exactly, and back to an int when whole
    q = cls({k1: Fraction(4, 3), k2: Fraction(6)}).divide(-2)
    assert q.coeffs == {k1: Fraction(-2, 3), k2: -3}
    assert type(q.coeffs[k1]) is Fraction and type(q.coeffs[k2]) is int
    for x in (cls({k1: 1}), cls()):
        with pytest.raises(ZeroDivisionError):
            x.divide(0)


# words over two letters, so that sums and convolutions collide and cancel
WORDS = st.lists(st.sampled_from([XP1, H2]), max_size=2).map(tuple)
COEFFS = st.one_of(st.integers(-3, 3),
                   st.fractions(min_value=-2, max_value=2, max_denominator=3))
DICTS = st.dictionaries(WORDS, COEFFS, max_size=5)


def _filtered(coeffs: dict) -> dict:
    return {k: c for k, c in coeffs.items() if c != 0}


def _summed(a: dict, b: dict, sign: int) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return _filtered(out)


@given(DICTS, DICTS, COEFFS, st.integers(-4, 4).filter(bool))
@settings(deadline=None)
def test_arithmetic_stores_no_zero_and_matches_full_filtering(da, db, c, d):
    a, b = UEAElement(da), UEAElement(db)
    fa, fb = _filtered(da), _filtered(db)
    convolved: dict = {}
    for ka, ca in fa.items():
        for kb, cb in fb.items():
            convolved[ka + kb] = convolved.get(ka + kb, 0) + ca * cb
    cases = [
        (a + b, _summed(fa, fb, 1)),
        (a - b, _summed(fa, fb, -1)),
        (a - a, {}),
        (-a, {k: -v for k, v in fa.items()}),
        (a.scale(c), _filtered({k: c * v for k, v in fa.items()})),
        (a.scale(0), {}),
        (a.divide(d), {k: Fraction(v, d) for k, v in fa.items()}),
        (a.convolve(b), _filtered(convolved)),
    ]
    for got, want in cases:
        assert type(got) is UEAElement
        assert all(v != 0 for v in got.coeffs.values())
        assert got.coeffs == want


def _canonical(u) -> bool:
    """Integer numerators, none zero, over a positive den in lowest terms."""
    return (type(u.den) is int and u.den > 0
            and all(type(n) is int and n for n in u.num.values())
            and math.gcd(u.den, *u.num.values()) == 1)


OPS = st.lists(st.tuples(st.sampled_from(["add", "sub", "neg", "scale", "divide", "convolve"]),
                         DICTS, COEFFS, st.integers(-6, 6).filter(bool)),
               max_size=6)


@given(DICTS, OPS)
@settings(deadline=None)
def test_numerators_over_one_denominator_match_a_fraction_reference(start, ops):
    u = UEAElement(start)
    ref = {k: Fraction(c) for k, c in _filtered(start).items()}
    for op, other, c, d in ops:
        v = UEAElement(other)
        vref = {k: Fraction(x) for k, x in _filtered(other).items()}
        if op == "add":
            u, ref = u + v, _summed(ref, vref, 1)
        elif op == "sub":
            u, ref = u - v, _summed(ref, vref, -1)
        elif op == "neg":
            u, ref = -u, {k: -x for k, x in ref.items()}
        elif op == "scale":
            u, ref = u.scale(c), _filtered({k: c * x for k, x in ref.items()})
        elif op == "divide":
            u, ref = u.divide(d), {k: x / d for k, x in ref.items()}
        else:
            convolved: dict = {}
            for ka, ca in ref.items():
                for kb, cb in vref.items():
                    convolved[ka + kb] = convolved.get(ka + kb, 0) + ca * cb
            u, ref = u.convolve(v), _filtered(convolved)
        assert type(u) is UEAElement and _canonical(u)
        assert u.coeffs == ref
        assert all(type(x) is (int if x.denominator == 1 else Fraction)
                   for x in u.coeffs.values())
        # the same value built from its true values is the same element
        same = UEAElement(ref)
        assert same == u and hash(same) == hash(u)


# Laurent polynomials as exponent -> (re, im) pairs of true values
GAUSSIAN = st.tuples(*[st.fractions(min_value=-2, max_value=2, max_denominator=4)] * 2)
LAURENT = st.dictionaries(st.integers(-2, 2), GAUSSIAN, max_size=4)


def _laurent(pairs: dict) -> LaurentPoly:
    return LaurentPoly({(e, r): part for e, z in pairs.items() for r, part in enumerate(z)})


@given(LAURENT, LAURENT)
@settings(deadline=None)
def test_laurent_product_is_the_gaussian_convolution(pa, pb):
    ref: dict = {}
    for ea, (ra, ia) in pa.items():
        for eb, (rb, ib) in pb.items():
            re, im = ref.get(ea + eb, (0, 0))
            ref[ea + eb] = (re + ra * rb - ia * ib, im + ra * ib + ia * rb)
    got = _laurent(pa) * _laurent(pb)
    assert type(got) is LaurentPoly and _canonical(got)
    assert got == _laurent(ref)
    # i*i = -1, and a product that cancels to zero stores nothing
    i = LaurentPoly({(0, 1): 1})
    assert i * i == LaurentPoly({(0, 0): -1})
    assert (_laurent(pa) * (i * i + LaurentPoly({(0, 0): 1}))).num == {}


def test_true_value_view_of_a_large_element_is_built_once():
    from onsager.expr import evaluate, parse
    from onsager.uea import pbw_normal_form

    u = pbw_normal_form(evaluate(parse("dp(xp(2),3)*lam(2,3,3)*dp(xm(3),2)")))
    assert len(u.num) == 1383 and u.den != 1
    assert u.coeffs is u.coeffs


def test_sum_and_bracket_fold_numerators_to_the_true_value():
    from onsager import lie
    from onsager.expr import evaluate, parse

    XM1 = BasisElement(Kind.XMINUS, 1)
    text = "1/2*xp(1) - 1/3*xp(1)*xm(1) + 5/6 - 1/6*xp(1) + h(2)"
    assert evaluate(parse(text)) == UEAElement(
        {(XP1,): Fraction(1, 3), (XP1, XM1): Fraction(-1, 3), (): Fraction(5, 6), (H2,): 1})

    def by_true_values(a, b):
        out = {}
        for ba, ca in a.items():
            for bb, cb in b.items():
                for g, v in lie.bracket_basis(ba, bb).items():
                    out[g] = out.get(g, 0) + ca * cb * v
        return LieElement(out)

    rng = random.Random(5)
    letters = [BasisElement(k, i) for k in Kind for i in range(k != Kind.H, 4)]
    original = lie._H_X_SCALE
    try:
        # a half-integral constant must still give the true value
        for scale in (2, Fraction(1, 2), Fraction(3)):
            lie._H_X_SCALE = scale
            for _ in range(40):
                a, b = (LieElement({g: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                                    for g in rng.sample(letters, 3)}) for _ in range(2))
                assert lie.bracket(a, b) == by_true_values(a, b)
        lie._H_X_SCALE = Fraction(1, 2)
        assert lie.bracket(lie.h(1), lie.xplus(1)) == LieElement(
            {BasisElement(Kind.XPLUS, 2): Fraction(1, 2)})
    finally:
        lie._H_X_SCALE = original


def _element(cls, k1, k2):
    """An element of cls over two keys with true values of mixed
    denominators, sometimes zero."""
    value = st.fractions(min_value=-3, max_value=3, max_denominator=6)
    return st.builds(lambda a, b: cls({k1: a, k2: b}), value, value)


@pytest.mark.parametrize("name", ["lie", "uea", "mform", "laurent"])
@given(data=st.data())
@settings(deadline=None)
def test_combine_is_the_chained_sum_in_lowest_terms(name, data):
    cls, k1, k2 = CASES[name][:3]
    terms = data.draw(st.lists(st.tuples(st.integers(-5, 5), _element(cls, k1, k2)),
                               max_size=5))
    den = data.draw(st.integers(1, 12))
    chained = cls()
    ref: dict = {}
    for c, x in terms:
        chained = chained + x.scale(c)
        for k, v in x.items():
            ref[k] = ref.get(k, 0) + c * Fraction(v)
    ref = {k: v / den for k, v in ref.items() if v}
    for got in (cls.combine(terms, den), cls.combine(iter(terms), den)):
        assert type(got) is cls and _canonical(got)
        assert got.coeffs == ref
        assert got == chained.divide(den)
    assert cls.combine([]) == cls() == cls.combine([], den)
    assert cls.combine(terms) == chained
