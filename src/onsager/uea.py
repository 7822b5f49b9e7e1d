"""Enveloping-algebra layer: words over the basis and PBW normal forms.

Elements are rational combinations of words (finite sequences of
canonical basis elements).  The normal form rewriter repeatedly replaces
an adjacent descent ``ab`` (with a > b in the basis order) by
``ba + [a,b]``; the PBW theorem makes the result independent of the
rewriting strategy, which the test suite checks by running a second,
rightmost-descent strategy.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from . import caches
from .lie import BasisElement, LieElement, LinComb, ZERO, ONE, bracket_basis, compare

Word = tuple[BasisElement, ...]


class UEAElement(LinComb):
    __slots__ = ()

    def __mul__(self, other):
        if isinstance(other, UEAElement):
            return multiply(self, other)
        if isinstance(other, LieElement):
            return multiply(self, from_lie(other))
        return self.scale(other)

    def words(self) -> list[Word]:
        """Support in graded-lexicographic order (length, then entries)."""
        return sorted(self.coeffs, key=lambda w: (len(w), w))

    def __repr__(self):
        if self.is_zero:
            return "0"
        parts = []
        for w in self.words():
            c = self.coeffs[w]
            body = "*".join(f"{b.kind.name.lower()}_{b.index}" for b in w) or "1"
            parts.append(f"{c}*{body}")
        return " + ".join(parts)


UEA_ZERO = UEAElement()
UEA_ONE = UEAElement({(): ONE})


def from_lie(a: LieElement) -> UEAElement:
    return UEAElement({(b,): c for b, c in a.coeffs.items()})


def multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    return a.convolve(b)


def product(factors: Iterable[UEAElement]) -> UEAElement:
    out = UEA_ONE
    for f in factors:
        out = multiply(out, f)
    return out


_NF_CACHE: dict[tuple[Word, str], dict[Word, Fraction]] = caches.register({})


def _normal_form_word(w: Word, strategy: str) -> dict[Word, Fraction]:
    key = (w, strategy)
    cached = _NF_CACHE.get(key)
    if cached is not None:
        return cached

    descents = [i for i in range(len(w) - 1) if compare(w[i], w[i + 1]) > 0]
    if not descents:
        result = {w: ONE}
        _NF_CACHE[key] = result
        return result

    i = descents[0] if strategy == "leftmost" else descents[-1]
    a, b = w[i], w[i + 1]
    out: dict[Word, Fraction] = {}
    swapped = w[:i] + (b, a) + w[i + 2 :]
    for ww, cc in _normal_form_word(swapped, strategy).items():
        out[ww] = out.get(ww, ZERO) + cc
    for g, c in bracket_basis(a, b).coeffs.items():
        contracted = w[:i] + (g,) + w[i + 2 :]
        for ww, cc in _normal_form_word(contracted, strategy).items():
            out[ww] = out.get(ww, ZERO) + c * cc
    result = {ww: cc for ww, cc in out.items() if cc != 0}
    _NF_CACHE[key] = result
    return result


def pbw_normal_form(a: UEAElement, strategy: str = "leftmost") -> UEAElement:
    out: dict[Word, Fraction] = {}
    for w, c in a.coeffs.items():
        for ww, cc in _normal_form_word(w, strategy).items():
            out[ww] = out.get(ww, ZERO) + c * cc
    return UEAElement(out)


def equal(a: UEAElement, b: UEAElement) -> bool:
    return pbw_normal_form(a - b).is_zero


def power(a: UEAElement, k: int) -> UEAElement:
    out = UEA_ONE
    for _ in range(k):
        out = multiply(out, a)
    return out


def divided_power(a: UEAElement | LieElement, k: int) -> UEAElement:
    if isinstance(a, LieElement):
        a = from_lie(a)
    if k < 0:
        return UEA_ZERO
    return power(a, k).scale(Fraction(1, math.factorial(k)))


def binomial(a: UEAElement | LieElement, k: int) -> UEAElement:
    if isinstance(a, LieElement):
        a = from_lie(a)
    if k < 0:
        return UEA_ZERO
    out = UEA_ONE
    for i in range(k):
        out = multiply(out, a - UEA_ONE.scale(i))
    return out.scale(Fraction(1, math.factorial(k)))


def commutative_multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """Product with eager sorting; only valid when all letters commute
    (h-only elements, or x-elements of a single sign)."""
    out: dict[Word, Fraction] = {}
    for wa, ca in a.coeffs.items():
        for wb, cb in b.coeffs.items():
            w = tuple(sorted(wa + wb))
            out[w] = out.get(w, ZERO) + ca * cb
    return UEAElement(out)
