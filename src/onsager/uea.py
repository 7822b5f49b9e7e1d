"""Enveloping-algebra layer: words over the basis and PBW normal forms.

Elements are rational combinations of words (finite sequences of
canonical basis elements); :func:`multiply`, and every power built on
it, returns a normal form.  :func:`rewrite` is the package's one
rewriting engine; the PBW normal form runs it with the rule
``ab -> ba + [a,b]`` on descents a > b, and the straightening calculus
with its own factor order and rules.  The PBW theorem makes the result
independent of the rewriting strategy, which the test suite checks by
running a second, rightmost-descent strategy.
"""

from __future__ import annotations

import math
import operator

from . import caches
from .lie import BasisElement, LieElement, LinComb, basis_to_text, bracket_basis

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
        return sorted(self.num, key=lambda w: (len(w), w))

    _ordered = words

    @staticmethod
    def _show_key(w: Word) -> str:
        return "*".join(map(basis_to_text, w))


UEA_ZERO = UEAElement()
UEA_ONE = UEAElement({(): 1})


def from_lie(a: LieElement) -> UEAElement:
    return UEAElement.over({(b,): n for b, n in a.num.items()}, a.den)


def multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """The product in PBW normal form; ``a.convolve(b)`` is the free one."""
    return pbw_normal_form(a.convolve(b))


def rewrite(word: tuple, bad, rule, memo: dict, rightmost: bool = False) -> dict:
    """Normal form ``{word: coefficient}`` of one word under pair rewriting.

    The first (or last) adjacent pair with ``bad(a, b)`` is replaced by
    each term of ``rule(a, b).items()``; a word with no such pair is
    normal.  Every word met is memoized in ``memo``.  A step whose rule
    gives one term with coefficient 1 (a pure reordering) stores its
    target's entry under the word itself, so memo values are shared and
    must be treated as read-only.  The descent runs post-order on an
    explicit stack, so long rewrite chains need no Python recursion; the
    rules must terminate.
    """
    got = memo.get(word)
    if got is not None:
        return got
    stack = [word]
    pending: dict = {}  # word -> its rewritten pieces, until they are normal
    while stack:
        w = stack.pop()
        if w in memo:
            continue
        pieces = pending.pop(w, None)
        if pieces is not None:
            if len(pieces) == 1 and pieces[0][1] == 1:
                memo[w] = memo[pieces[0][0]]
                continue
            out: dict = {}
            for k, c in pieces:
                for ww, cc in memo[k].items():
                    old = out.get(ww)
                    out[ww] = c * cc if old is None else old + c * cc
            memo[w] = {ww: cc for ww, cc in out.items() if cc}
            continue
        for i in range(len(w) - 2, -1, -1) if rightmost else range(len(w) - 1):
            if bad(w[i], w[i + 1]):
                break
        else:
            memo[w] = {w: 1}
            continue
        head, tail = w[:i], w[i + 2:]
        pieces = pending[w] = [(head + mid + tail, c) for mid, c in rule(w[i], w[i + 1]).items()]
        stack.append(w)
        stack.extend(k for k, _ in pieces if k not in memo)
    return memo[word]


_NF_CACHE: dict[Word, dict[Word, int]] = caches.register({})


class NonIntegralBracket(ValueError):
    """A structure constant is not an integer.

    Word normal forms are summed as integer numerators over the input's
    denominator, which holds only while every bracket is integral.
    """


def _swap(a: BasisElement, b: BasisElement) -> dict:
    """ab = ba + [a,b]."""
    br = bracket_basis(a, b)
    if br.den != 1:
        raise NonIntegralBracket(f"non-integral structure constant: "
                                 f"[{basis_to_text(a)}, {basis_to_text(b)}] = {br}")
    return {(b, a): 1, **{(g,): c for g, c in br.num.items()}}


def _cached_swap(a: BasisElement, b: BasisElement) -> dict:
    """:func:`_swap` memoized in ``_NF_CACHE``.

    For a > b the ascent ba and single letters are normal, so ba + [a,b]
    is the normal form of the word ab and is stored under it.
    """
    got = _NF_CACHE.get((a, b))
    if got is None:
        got = _NF_CACHE[a, b] = _swap(a, b)
    return got


def pbw_normal_form(a: UEAElement, strategy: str = "leftmost") -> UEAElement:
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rightmost = strategy == "rightmost"
    # the oracle route shares no entries, not even the swap rule's
    memo, rule = ({}, _swap) if rightmost else (_NF_CACHE, _cached_swap)
    # word normal forms are integral, so a's numerators stay over its den
    out: dict = {}
    for w, n in a.num.items():
        for ww, c in rewrite(w, operator.gt, rule, memo, rightmost).items():
            old = out.get(ww)
            out[ww] = n * c if old is None else old + n * c
    return UEAElement.over(out, a.den)


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
    return power(a, k).divide(math.factorial(k))


def binomial(a: UEAElement | LieElement, k: int) -> UEAElement:
    if isinstance(a, LieElement):
        a = from_lie(a)
    if k < 0:
        return UEA_ZERO
    out = UEA_ONE
    for i in range(k):
        out = multiply(out, a - UEA_ONE.scale(i))
    return out.divide(math.factorial(k))
