"""The named element families and their duplicate computation paths.

Each family (power-sum elements p, the Lambda series, the D ladders) is
implemented at least twice: once from its defining recursion and once
from a closed form or generating series.  The verifier and the test
suite hold the paths against each other exactly.  Values are normal forms.
The closed forms are products of P_n(a) = (t^a - t^-a)^n read through the
loop realization x_k -> x (t^k - t^-k), h_k -> h (t^k + t^-k): generator
index normalization folds each exponent e onto -e.
"""

from __future__ import annotations

import math

from . import caches
from .lie import LIE_ZERO, LieElement, LinComb, add_scaled, bracket, h, xminus, xplus
from .uea import (
    UEA_ONE,
    UEA_ZERO,
    UEAElement,
    divided_power,
    from_lie,
    multiply,
)


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def laurent_power(a: int, n: int) -> LinComb:
    """P_n(a) = (t^a - t^-a)^n as {exponent: coefficient}; 0 for n < 0."""
    return LinComb.over(add_scaled({}, 1, (((n - 2 * i) * a, (-1) ** i * math.comb(n, i))
                                           for i in range(n + 1))))


def read_laurent(gen, poly: LinComb, den: int = 1) -> LieElement:
    """sum c_e gen(e) / den over the terms c_e t^e of ``poly``; gen's values have den 1."""
    out: dict = {}
    for e, c in poly.num.items():
        add_scaled(out, c, gen(e).num.items())
    return LieElement.over(out, poly.den * den)


def lambda1(a: int, b: int) -> LieElement:
    """Order-1 Lambda element -(h_{a+b} - h_{a-b}).

    Defined for arbitrary integer first argument; index normalization
    makes the value vanish when a = 0 and symmetric under sign flips.
    """
    return -(h(a + b) - h(a - b))


# Degree-one D elements, kept under a route tag and the arguments: the
# two routes the DU1 check compares never share an entry.
_D1_CACHE: dict = caches.register({})


@caches.memoized(_D1_CACHE, "rec")
def d1_rec(sign: int, u: int, j: int, l: int) -> LieElement:
    """Degree-1 D ladder from its defining half-bracket recursion
    D_{u,1} = (sign/2) [D_{u-1,1}, Lambda_{j,l,1}].

    The levels below u are built first, lowest first, so each is one
    half-bracket of the kept level below it and no call nests more than
    one deep.
    """
    if u < 0:
        return LIE_ZERO
    if u == 0:
        return xplus(j) if sign > 0 else xminus(l)
    for i in range(u - 1):
        d1_rec(sign, i, j, l)
    return bracket(d1_rec(sign, u - 1, j, l), lambda1(j, l)).scale(sign).divide(2)


@caches.memoized(_D1_CACHE, "closed")
def d1_closed(sign: int, u: int, j: int, l: int) -> LieElement:
    """Degree-1 D ladder 1/2 x(P_{u+1}(a) P_u(b)), (a, b) = (j, l) or (l, j) by sign."""
    a, b = (j, l) if sign > 0 else (l, j)
    gen = xplus if sign > 0 else xminus
    return read_laurent(gen, laurent_power(a, u + 1).convolve(laurent_power(b, u)), 2)


_P_CACHE: dict = caches.register({})


@caches.memoized(_P_CACHE)
def p_def(k: int, j: int, l: int) -> LieElement:
    """p_k(j,l) = [x+_j, D-_{k-1,1}(j,l)]."""
    return bracket(xplus(j), d1_rec(-1, k - 1, j, l))


def p_closed(u: int, j: int, l: int) -> LieElement:
    """p_u(j,l) = 1/2 h(P_u(j) P_u(l)) for u >= 1; p_0 = 0, as D_{-1,1} = 0."""
    if u < 1:
        return LIE_ZERO
    return read_laurent(h, laurent_power(j, u).convolve(laurent_power(l, u)), 2)


def bracket_x_lambda1(k: int, j: int, l: int) -> LieElement:
    """[x+_k, Lambda_{j,l,1}] written out as four raising terms."""
    return (
        2 * xplus(k + j + l)
        + 2 * xplus(k - j - l)
        - 2 * xplus(k + j - l)
        - 2 * xplus(k - j + l)
    )


# (j, l, k) -> Lambda_{j,l,k}
_LAMBDA_CACHE: dict = caches.register({})


@caches.memoized(_LAMBDA_CACHE)
def lambda_rec(j: int, l: int, k: int) -> UEAElement:
    """Lambda element of order k, by Newton's identity
    k*Lambda_k = -sum_{i=1..k} p_i Lambda_{k-i}.

    Lambda is 0 for k < 0 and 1 for k = 0.  Values live in the
    commutative h-subalgebra and are kept with sorted words; k! Lambda_k
    has integer coefficients, so the stored denominator divides k!.
    It recurses on k, so its order is bounded by the interpreter stack.
    """
    if k < 0:
        return UEA_ZERO
    if k == 0:
        return UEA_ONE
    return UEAElement.combine(
        ((-1, multiply(from_lie(p_def(i, j, l)), lambda_rec(j, l, k - i)))
         for i in range(1, k + 1)), k)


def _powers(s: list[UEAElement], n: int, top: int) -> list[list[UEAElement]]:
    """s^0 .. s^n, each listed by degree up to ``top``, for the series
    s[1] w + ... + s[D] w^D given by its normal-form coefficients (s[0] is
    not read).  s^m = s^(m-1) s degree by degree; s^m lies in the degrees
    m .. mD, so only products of terms in those supports are formed.  The
    callers read the last power s^n only in degree ``top``, so it is
    formed only there (its lower degrees are listed as zero)."""
    deg = len(s) - 1
    powers = [[UEA_ONE] + [UEA_ZERO] * top]
    for m in range(1, n + 1):
        prev, low = powers[-1], m if m < n else top
        powers.append([UEA_ZERO] * low + [UEAElement.combine(
            (1, multiply(prev[a], s[d - a]))
            for a in range(max(m - 1, d - deg), min((m - 1) * deg, d - 1) + 1))
            for d in range(low, top + 1)])
    return powers


def lambda_series(j: int, l: int, k: int) -> UEAElement:
    """Coefficient of u^k in exp(-sum_s p_s u^s / s), truncated at s=k."""
    if k < 0:
        return UEA_ZERO
    inner = [UEA_ZERO] + [(-from_lie(p_def(s, j, l))).divide(s) for s in range(1, k + 1)]
    # the u^k coefficient of exp(s) = sum_m s^m / m!, over the denominator k!
    return UEAElement.combine(((math.factorial(k) // math.factorial(m), power[k])
                               for m, power in enumerate(_powers(inner, k, k))),
                              math.factorial(k))


_DUV_CACHE: dict = caches.register({})


@caches.memoized(_DUV_CACHE)
def duv_rec(sign: int, u: int, v: int, j: int, l: int) -> UEAElement:
    """D_{u,v} by the 1/v convolution recursion.

    The levels below v are built first, lowest first, so each value they
    read is already kept and no call nests more than one deep.
    """
    if v < 0:
        return UEA_ZERO
    if v == 0:
        return UEA_ONE if u == 0 else UEA_ZERO
    for w in range(1, v):
        for t in range(u + 1):
            duv_rec(sign, t, w, j, l)
    return UEAElement.combine(
        ((1, multiply(from_lie(d1_rec(sign, i, j, l)), duv_rec(sign, u - i, v - 1, j, l)))
         for i in range(u + 1)), v)


def exponent_tuples(weight: int, total: int) -> list[tuple[int, ...]]:
    """Tuples (k_0..k_w) of nonnegatives with sum k_i = total and
    sum i*k_i = weight, in increasing order of the reversed tuple."""
    # tails (k_i..k_w) with their unspent total and weight, extended one
    # index down; k_0 takes the total left once the weight is spent
    partial = [((), total, weight)]
    for i in range(weight, 0, -1):
        partial = [((k,) + tail, left - k, rest - i * k)
                   for tail, left, rest in partial
                   for k in range(min(left, rest // i) + 1)]
    return [(left,) + tail for tail, left, rest in partial if rest == 0]


def ladder(power, weight: int, total: int, one):
    """Sum over exponent_tuples(weight, total) of the products
    one * power(i, k_i) * ... over the k_i > 0 by increasing i; ``*`` is
    ``multiply`` on a UEAElement and ``convolve`` on an MForm."""
    terms = []
    for ks in exponent_tuples(weight, total):
        term = one
        for i, k in enumerate(ks):
            if k:
                term = term * power(i, k)
                if term.is_zero:
                    break
        terms.append((1, term))
    return one.combine(terms)


def duv_multinomial(sign: int, u: int, v: int, j: int, l: int) -> UEAElement:
    """D_{u,v} as a sum of products of divided powers of the D ladder."""
    if v < 0:
        return UEA_ZERO
    if v == 0:
        return UEA_ONE if u == 0 else UEA_ZERO
    return ladder(lambda i, k: divided_power(d1_rec(sign, i, j, l), k), u, v, UEA_ONE)


def duv_series(sign: int, u: int, v: int, j: int, l: int) -> UEAElement:
    """D_{u,v} as the (u+v)-coefficient of the v-th divided power of the
    generating polynomial sum_m D_{m,1} w^{m+1} (truncated at m = u)."""
    if v < 0:
        return UEA_ZERO
    if v == 0:
        return UEA_ONE if u == 0 else UEA_ZERO
    poly = [UEA_ZERO] + [from_lie(d1_rec(sign, m, j, l)) for m in range(u + 1)]
    return _powers(poly, v, u + v)[v][u + v].divide(math.factorial(v))


@caches.memoized(_D1_CACHE, "triple")
def d_triple(sign: int, u: int, j: int, k: int, m: int) -> LieElement:
    """Three-index D element x(t^j P_u(k) P_u(m))."""
    poly = LinComb({j: 1}).convolve(laurent_power(k, u)).convolve(laurent_power(m, u))
    return read_laurent(xplus if sign > 0 else xminus, poly)


def p_via_lambda_odd(n: int, j: int, l: int) -> LieElement:
    """p_{2n+1}(j,l) as a double sum of order-1 Lambda elements."""
    return LieElement.combine(((-1) ** (k + i + 1) * binom(2 * n + 1, i) * binom(2 * n + 1, k),
                               lambda1((2 * n + 1 - 2 * i) * j, (2 * n + 1 - 2 * k) * l))
                              for i in range(n + 1) for k in range(n + 1))


def p_via_lambda_even(n: int, j: int, l: int) -> LieElement:
    """p_{2n}(j,l) as a double sum of order-1 Lambda elements."""
    return LieElement.combine(((-1) ** (k + i + 1) * binom(2 * n - 1, i) * binom(2 * n, k),
                               lambda1((2 * n - 1 - 2 * i) * j + (2 * n - 2 * k) * l, j))
                              for i in range(n) for k in range(2 * n + 1))
