import itertools
import math
import random
from fractions import Fraction
from functools import reduce

from onsager import caches, elements, lie, uea
from onsager.lie import BasisElement, Kind, bracket, h, xminus, xplus
from onsager.expr import evaluate, parse
from onsager.straighten import XFactor, expand_word, lfactor
from onsager.uea import (
    UEAElement,
    binomial,
    divided_power,
    exponents,
    from_lie,
    kind_blocks,
    leading_word,
    multiply,
    pbw_normal_form,
    to_lie,
)
from onsager.elements import (
    binom,
    bracket_x_lambda1,
    d1_closed,
    d1_rec,
    d_triple,
    duv_multinomial,
    duv_rec,
    duv_series,
    exponent_tuples,
    lambda1,
    lambda_rec,
    lambda_series,
    p_closed,
    p_def,
    p_via_lambda_even,
    p_via_lambda_odd,
)


def test_binom():
    assert binom(5, 2) == 10
    assert binom(4, 0) == 1
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0


def test_p_spot_value():
    assert p_def(2, 1, 1) == h(4) - 4 * h(2) + 3 * h(0)


def test_p_dual_paths():
    for u in range(0, 7):
        for j in range(1, 5):
            for l in range(1, 5):
                assert p_def(u, j, l) == p_closed(u, j, l)


def test_p_symmetry_audit():
    for u in range(1, 7):
        for j in range(1, 5):
            for l in range(1, 5):
                assert p_closed(u, j, l) == p_closed(u, l, j)


def test_lambda1():
    assert lambda1(2, 1) == -(h(3) - h(1))
    assert lambda1(1, 1) == -(h(2) - h(0))


def test_bracket_x_lambda1_oracle():
    for k in range(1, 5):
        for j in range(1, 4):
            for l in range(1, 4):
                assert (bracket(xplus(k), lambda1(j, l))
                        == bracket_x_lambda1(k, j, l))


def test_d1_dual_paths():
    for sign in (1, -1):
        for u in range(0, 7):
            for j in range(1, 5):
                for l in range(1, 5):
                    assert d1_rec(sign, u, j, l) == d1_closed(sign, u, j, l)


def test_d1_base_cases():
    assert d1_closed(1, 0, 2, 3) == xplus(2)
    assert d1_closed(-1, 0, 2, 3) == xminus(3)


def test_lambda_dual_paths():
    for k in range(0, 7):
        for j in range(1, 4):
            for l in range(1, 4):
                assert lambda_rec(j, l, k) == lambda_series(j, l, k)


def test_integer_lambda_is_k_factorial_lambda():
    # k! Lambda_k is integral, so Lambda_k's one denominator divides k!
    for j in range(1, 4):
        for l in range(1, 4):
            for k in range(0, 5):
                lam = lambda_rec(j, l, k)
                assert math.factorial(k) % lam.den == 0
                n = lam.scale(math.factorial(k))
                assert n.den == 1 and all(type(c) is int for c in n.coeffs.values())
                assert lam == lambda_series(j, l, k)


def test_integer_lambda_is_flushed_with_the_bracket_table():
    # lambda_rec is built from p_def, which reads the [h, x] constant
    caches.clear_all()
    true = lambda_rec(1, 1, 2)
    assert elements._LAMBDA_CACHE[1, 1, 2] is true
    original = lie._H_X_SCALE
    try:
        lie._H_X_SCALE = Fraction(3)
        caches.clear_all()
        assert lambda_rec(1, 1, 2) != true
    finally:
        lie._H_X_SCALE = original
        caches.clear_all()
    assert lambda_rec(1, 1, 2) == true


def test_lambda_degenerate_orders():
    from onsager.uea import UEA_ONE, UEA_ZERO

    assert lambda_rec(1, 1, 0) == UEA_ONE
    assert lambda_rec(2, 1, -3) == UEA_ZERO


def test_duv_three_methods_agree():
    for sign in (1, -1):
        for u in range(0, 7):
            for v in range(0, 7 - u):
                for j in range(1, 4):
                    for l in range(1, 4):
                        a = duv_rec(sign, u, v, j, l)
                        assert a == duv_multinomial(sign, u, v, j, l)
                        assert a == duv_series(sign, u, v, j, l)


def test_exponent_tuples():
    # every tuple with sum k_i = total and sum i*k_i = weight, by brute
    # force, in increasing order of the reversed tuple
    for weight in range(7):
        for total in range(7):
            want = sorted((ks for ks in itertools.product(range(total + 1), repeat=weight + 1)
                           if sum(ks) == total
                           and sum(i * k for i, k in enumerate(ks)) == weight),
                          key=lambda ks: ks[::-1])
            assert exponent_tuples(weight, total) == want, (weight, total)


def test_d_triple_closed_form():
    # x(t^j (t^k - t^-k)^u (t^m - t^-m)^u), read with x_-e = -x_e and x_0 = 0
    assert d_triple(1, 1, 2, 1, 1) == xplus(4) - 2 * xplus(2)
    assert d_triple(-1, 1, 3, 2, 1) == xminus(6) - xminus(4) - xminus(2)


def test_closed_forms_match_the_unfolded_sums():
    # the paper's double sums, every term written out with no mirror fold,
    # halved where the form carries 1/2
    def alternating(n, i):
        return (-1) ** i * math.comb(n, i)

    for u in range(0, 11):
        for j, l in itertools.product(range(1, 4), repeat=2):
            if u:
                assert p_closed(u, j, l) == lie.LieElement.combine(
                    ((alternating(u, i) * alternating(u, k), h((u - 2 * i) * j + (u - 2 * k) * l))
                     for i in range(u + 1) for k in range(u + 1)), 2)
            for sign, gen in ((1, xplus), (-1, xminus)):
                a, b = (j, l) if sign > 0 else (l, j)
                assert d1_closed(sign, u, j, l) == lie.LieElement.combine(
                    ((alternating(u + 1, i) * alternating(u, k),
                      gen((u + 1 - 2 * i) * a + (u - 2 * k) * b))
                     for i in range(u + 2) for k in range(u + 1)), 2), (sign, u, j, l)
                for m in range(1, 4):
                    assert d_triple(sign, u, j, l, m) == lie.LieElement.combine(
                        ((alternating(u, n) * alternating(u, v),
                          gen(j + (u - 2 * n) * l + (u - 2 * v) * m))
                         for n in range(u + 1) for v in range(u + 1))), (sign, u, j, l, m)


def test_p_via_lambda():
    for j in range(1, 4):
        for l in range(1, 4):
            for n in range(0, 3):
                assert p_via_lambda_odd(n, j, l) == p_def(2 * n + 1, j, l)
            for n in range(1, 3):
                assert p_via_lambda_even(n, j, l) == p_def(2 * n, j, l)


def _family_values() -> list:
    """A value of every element family and expression call form."""
    mixed = xplus(1) + xminus(2) + h(1)
    values = [divided_power(mixed, 3), binomial(mixed, 2), binomial(h(2), 3)]
    for j, l in ((1, 1), (2, 1)):
        for k in range(4):
            values += [lambda_rec(j, l, k), lambda_series(j, l, k)]
    for sign in (1, -1):
        for u, v in ((0, 2), (1, 2), (2, 1), (2, 2)):
            values += [f(sign, u, v, 2, 1) for f in (duv_rec, duv_multinomial, duv_series)]
    calls = ["xp(2)", "xm(1)", "h(3)", "h(-2)", "lam(2,1,3)", "p(3,2,1)", "d1(+,2,2,1)",
             "d1(-,1,1,2)", "duv(+,1,2,2,1)", "duv(-,2,1,1,1)", "dt(+,1,2,1,1)",
             "dp(xp(1)+xm(2)+h(1),3)", "binom(h(2)-xp(1),2)", "[xp(2), xm(1)]"]
    values += [evaluate(parse(text)) for text in calls]
    values.append(evaluate(parse(" + ".join(f"{n}/3*{text}" for n, text in enumerate(calls, 1)))))
    xp, xm, lam, lam1 = XFactor(1, 2, 2), XFactor(-1, 1, 2), lfactor(2, 1, 2), lfactor(1, 1, 1)
    words = [(xp, lam), (lam, xp), (xm, lam, xp), (xp, lam, xm), (lam, xm, lam1, xp)]
    values += [expand_word(w) for w in words]
    return values


def test_element_families_are_normal_forms():
    # verify compares catalog sides by ==, which needs canonical values, and
    # uea.multiply takes normal forms: so every producer must return one
    for x in _family_values():
        assert pbw_normal_form(x, "rightmost") == x


def test_word_helpers_take_the_normal_words_apart():
    """uea's word helpers against the word format they read."""
    for u in _family_values():
        if u.num:
            assert leading_word(u) == u.words()[-1]
        for w in u.num:
            blocks = kind_blocks(w)
            assert sum(blocks, ()) == w
            for kind, block in zip(Kind, blocks):
                assert all(b.kind == kind for b in block)
                orders, k = exponents(block)
                assert tuple(BasisElement(kind, i) for i, m in orders for _ in range(m)) == block
                assert [i for i, _ in orders] == sorted({b.index for b in block})
                assert k == math.prod(math.factorial(m) for _, m in orders)
    for a in (xplus(2), xminus(1) - h(0).scale(Fraction(1, 3)), lie.LieElement()):
        assert to_lie(from_lie(a)) == a
    assert to_lie(evaluate(parse("xp(1)*xp(1)"))) is None


def _coproduct(u):
    """The coproduct on a normal form, as {(left word, right word): value}.
    Every letter is primitive, Delta x = x(x)1 + 1(x)x, so a word splits
    over the sub-multisets of each block of equal letters: taking r of m
    copies to the left counts binom(m, r) ways.  Sub-words of a normal word
    are normal, so both halves need no rewriting."""
    out: dict = {}
    for w, c in u.items():
        blocks = [(b, len(list(run))) for b, run in itertools.groupby(w)]
        for takes in itertools.product(*(range(m + 1) for _, m in blocks)):
            left = tuple(b for (b, _), r in zip(blocks, takes) for _ in range(r))
            right = tuple(b for (b, m), r in zip(blocks, takes) for _ in range(m - r))
            ways = math.prod(math.comb(m, r) for (_, m), r in zip(blocks, takes))
            out[left, right] = out.get((left, right), 0) + ways * c
    return {k: c for k, c in out.items() if c}


def _tensor_sum(pairs):
    """sum of a (x) b over the (a, b) pairs, as {(word, word): value}."""
    out: dict = {}
    for a, b in pairs:
        for v, x in a.items():
            for w, y in b.items():
                out[v, w] = out.get((v, w), 0) + x * y
    return {k: c for k, c in out.items() if c}


def _lambda_is_group_like(j, l, k):
    return _coproduct(lambda_rec(j, l, k)) == _tensor_sum(
        (lambda_rec(j, l, i), lambda_rec(j, l, k - i)) for i in range(k + 1))


def test_coproduct_of_lambda_and_d():
    """Lambda(u) = exp(-sum p_s u^s / s) with p_s primitive, so Lambda is
    group-like: Delta Lambda_k = sum_i Lambda_i (x) Lambda_{k-i}.  D_{u,v}
    is a coefficient of the v-th divided power of a series of primitive
    D_{m,1}, so Delta D_{u,v} = sum D_{u1,a} (x) D_{u2,b} over u1 + u2 = u
    and a + b = v.  The coproduct cannot see an error in a single-letter
    term, nor a wrong structure constant."""
    caches.clear_all()
    for j in range(1, 4):
        for l in range(1, 4):
            for k in range(5):
                assert _lambda_is_group_like(j, l, k)
            for sign in (1, -1):
                for u in range(4):
                    for v in range(4):
                        assert _coproduct(duv_rec(sign, u, v, j, l)) == _tensor_sum(
                            (duv_rec(sign, u1, a, j, l), duv_rec(sign, u - u1, v - a, j, l))
                            for u1 in range(u + 1) for a in range(v + 1))
    # control: +1 on one length-2 word of the cached Lambda_{2,1,3}
    true = elements._LAMBDA_CACHE[2, 1, 3]
    word = next(w for w in true.num if len(w) == 2)
    try:
        elements._LAMBDA_CACHE[2, 1, 3] = true + UEAElement({word: 1})
        assert not _lambda_is_group_like(2, 1, 3)
    finally:
        caches.clear_all()


def _short_normal_forms(rng: random.Random, n: int) -> list:
    """n normal forms of short expressions: products of two or three
    generators, divided powers of two-generator sums and Lambdas."""
    gens = [xplus(1), xplus(2), xminus(1), xminus(2), h(0), h(1), h(2)]
    out = []
    for _ in range(n):
        shape = rng.randrange(3)
        if shape == 0:
            factors = [from_lie(rng.choice(gens)) for _ in range(rng.randint(2, 3))]
            out.append(pbw_normal_form(reduce(UEAElement.convolve, factors)))
        elif shape == 1:
            a, b = rng.sample(gens, 2)
            out.append(divided_power(a + b.scale(rng.choice((1, -1, 2))), rng.randint(1, 2)))
        else:
            out.append(elements.lambda_rec(rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)))
    return out


def _coproduct_of_product(a, b, memo: dict) -> dict:
    """Delta a * Delta b in U (x) U, as {(word, word): value}: each pair of
    word pairs multiplies slot by slot, with the normal form of each
    product of two normal words kept in ``memo``."""
    def nf(v, w):
        got = memo.get((v, w))
        if got is None:
            got = memo[v, w] = multiply(UEAElement({v: 1}), UEAElement({w: 1})).items()
        return got

    out: dict = {}
    for (v1, v2), x in _coproduct(a).items():
        for (w1, w2), y in _coproduct(b).items():
            for p, c in nf(v1, w1):
                for q, d in nf(v2, w2):
                    out[p, q] = out.get((p, q), 0) + x * y * c * d
    return {k: c for k, c in out.items() if c}


def test_coproduct_of_multiply():
    """Delta is an algebra map, Delta(ab) = Delta a * Delta b, so it checks
    multiply on products of normal forms.  Like every coproduct check it is
    blind to an error in a single-letter term."""
    caches.clear_all()
    rng = random.Random(20061121)
    values = _short_normal_forms(rng, 60)
    memo: dict = {}
    try:
        for _ in range(200):
            a, b = rng.choice(values), rng.choice(values)
            assert _coproduct(multiply(a, b)) == _coproduct_of_product(a, b, memo)
        # control: +1 on the longest word of the cached normal form of the
        # word xp(1)*xm(1)*h(1); on a one-letter word Delta would not see it
        caches.clear_all()
        word = (BasisElement(Kind.XPLUS, 1), BasisElement(Kind.XMINUS, 1), BasisElement(Kind.H, 1))
        a, b = UEAElement({word[:1]: 1}), UEAElement({word[1:]: 1})
        multiply(a, b)  # caches the word's normal form under the word
        true = uea._NF_CACHE[word]
        longest = max(true, key=len)
        uea._NF_CACHE[word] = {**true, longest: true[longest] + 1}
        assert _coproduct(multiply(a, b)) != _coproduct_of_product(a, b, {})
    finally:
        caches.clear_all()
