"""Enveloping-algebra layer: words over the basis and PBW normal forms.

Elements are rational combinations of words.  :func:`multiply` takes
normal forms and returns one; the powers built on it take a Lie element.
A free value, such as a ``convolve`` product, enters through
:func:`pbw_normal_form`.  This module owns the word format: a word is a
tuple of ``lie.BasisElement`` letters, iterated in order (as
``cli.element_json_text`` writes them); other modules take words apart
only through :func:`kind_blocks`, :func:`exponents`,
:func:`leading_word`, :func:`descending_key` and :func:`to_lie`.  A
normal word is three blocks, x-, then h, then x+, each sorted; letters
of one kind commute.  So a word's normal form is a fold from the right:
each letter passes the lower-kind prefix of the normal words built so
far by ``ab -> ba + [a,b]`` and the rest joins at a seam inside the
letter's own kind.  Two normal words join at the seam without rewriting
when they are in order there or meet inside one kind.
Every normal word the leftmost route builds or returns is the one shared
object for its value in the word table ``caches.WORDS`` (see
:func:`_join`), so equal words in caches, elements and products are one
tuple; ``caches.clear_all`` clears the table with the caches.
:func:`rewrite` is the package's one pair-rewriting engine: the
straightening calculus runs it with its own factor order and rules, and
the PBW theorem's independence of the route is checked by running it on
rightmost descents a > b, an algorithm of its own, as an oracle.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from itertools import groupby

from . import caches
from .lie import BasisElement, Kind, LieElement, LinComb, add_scaled, basis_to_text, bracket_basis

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
        """Support in graded-lexicographic order (length, then entries):
        sorted by entries, then stably by length, with no key per word."""
        return sorted(sorted(self.num), key=len)

    _ordered = words

    @staticmethod
    def _show_key(w: Word) -> str:
        return "*".join(map(basis_to_text, w))


UEA_ZERO = UEAElement()
UEA_ONE = UEAElement({(): 1})


def from_lie(a: LieElement) -> UEAElement:
    return UEAElement.over({(b,): n for b, n in a.num.items()}, a.den)


def to_lie(u: UEAElement) -> LieElement | None:
    """The inverse of :func:`from_lie`: None when a word of ``u`` is not one letter."""
    if any(len(w) != 1 for w in u.num):
        return None
    return LieElement.over({w[0]: n for w, n in u.num.items()}, u.den)


def kind_blocks(w: Word) -> tuple[Word, Word, Word]:
    """The x-, h and x+ blocks of a normal word."""
    i, j = bisect_left(w, (Kind.H,)), bisect_left(w, (Kind.XPLUS,))
    return w[:i], w[i:j], w[j:]


def exponents(block: Word) -> tuple[list[tuple[int, int]], int]:
    """Each index of a one-kind block with its multiplicity m, increasing, and
    the product of the m!, which the block is over in its divided powers."""
    mult = [(b.index, len(list(run))) for b, run in groupby(block)]
    return mult, math.prod(math.factorial(m) for _, m in mult)


def leading_word(u: UEAElement) -> Word:
    """The last word of ``u.words()``, found without sorting; ``u`` is nonzero."""
    return max(u.num, key=lambda w: (len(w), w))


def descending_key(w: Word) -> tuple:
    """Sort key putting h-words largest first in the multiplicative order of
    leading-term division: length, then the indices read from the top down."""
    return -len(w), tuple(-b.index for b in reversed(w))


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

    It serves the straightening calculus and the rightmost PBW oracle;
    the default PBW route is the kind-block insertion of :func:`_insert`.
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
                add_scaled(out, c, memo[k].items())
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


# Normal forms {word: int}: of a word under the word, and of letter·head,
# for a normal word head of lower kinds only, under the pair (letter, head).
# A pair's second entry is a tuple, never a letter, so the keys stay apart.
_NF_CACHE: dict[Word | tuple[BasisElement, Word], dict[Word, int]] = caches.register({})

# The word table's lookup: _shared(w, w) is the table's object equal to w.
_shared = caches.WORDS.setdefault


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


@caches.memoized(_NF_CACHE)
def _cached_swap(a: BasisElement, b: BasisElement) -> dict:
    """:func:`_swap` on shared words.  For a > b the ascent ba and single
    letters are normal, so ba + [a,b] is the normal form of the word ab and
    is kept under it."""
    return {_shared(w, w): c for w, c in _swap(a, b).items()}


def _join(head: Word, tail: Word) -> Word:
    """The normal word of head·tail, both normal, when the seam is in
    order or inside one kind: the shared block is sorted.  The word is
    the word table's object for it."""
    if not head or not tail or head[-1] <= tail[0]:
        w = head + tail
    else:
        w = tuple(sorted(head + tail))
    return _shared(w, w)


def _insert(letter: BasisElement, word: Word):
    """Terms (word, coefficient) of the normal form of letter·word, word normal.

    Split the word into its lower-kind prefix and the rest.  The letter
    passes the prefix by :func:`_pass` and meets the rest at a seam in
    order or inside its own kind, which :func:`_join` closes.  Both steps
    rest on the bracket's kind grading: letters of one kind commute, and a
    bracket's letters have a kind between its arguments' kinds
    (``test_bracket_kinds_keep_the_block_order`` in tests/test_uea.py pins
    it).
    """
    i = bisect_left(word, (letter.kind,))
    if not i:
        return ((_join((letter,), word), 1),)
    head, tail = word[:i], word[i:]
    got = _NF_CACHE.get((letter, head))
    if got is None:
        got = _pass(letter, head)
    if not tail:
        return got.items()
    return [(_join(w, tail), c) for w, c in got.items()]


def _pass(letter: BasisElement, head: Word) -> dict:
    """Normal form ``{word: coefficient}`` of letter·head, where head is
    normal and every letter of head has a lower kind than the letter.

    The letter passes head one letter b at a time, a·b·rest =
    b·(a·rest) + [a,b]·rest.  b joins each term of a·rest at the front,
    as by the grading noted at :func:`_insert` the terms of a·rest and
    [a,b]·rest have letters of kinds from b's to a's only.  Each
    letter·prefix met is memoized in ``_NF_CACHE`` under (letter, prefix):
    a pass down head lists the missing ones level by level, and a pass
    back up computes them, so a long head needs no Python recursion.
    """
    levels = [{(letter, head): None}]
    while levels[-1]:
        need: dict = {}
        for a, w in levels[-1]:
            b, rest = w[0], w[1:]
            for mid in _cached_swap(a, b):
                y = mid[-1]  # mid is b·a, or one letter of [a,b]
                m = bisect_left(rest, (y.kind,))
                if m and (key := (y, rest[:m])) not in _NF_CACHE:
                    need[key] = None
        levels.append(need)
    for level in reversed(levels):
        for key in level:
            a, w = key
            b, rest = w[0], w[1:]
            out: dict = {}
            for mid, c in _cached_swap(a, b).items():
                terms = _insert(mid[-1], rest)
                if len(mid) == 2:  # b joins in after a passes rest
                    terms = [(_join((b,), v), cc) for v, cc in terms]
                add_scaled(out, c, terms)
            _NF_CACHE[key] = {v: c for v, c in out.items() if c}
    return _NF_CACHE[letter, head]


def _word_nf(word: Word) -> dict:
    """Normal form ``{word: coefficient}`` of one word.

    Past its longest normal suffix the word's letters fold in from the
    right through :func:`_insert`; each suffix so normalized is memoized
    in ``_NF_CACHE`` under itself.
    """
    got = _NF_CACHE.get(word)
    if got is not None:
        return got
    k = len(word) - 1
    while k > 0 and word[k - 1] <= word[k]:
        k -= 1
    if k <= 0:
        return {_shared(word, word): 1}
    nf: dict = {word[k:]: 1}
    for i in range(k - 1, -1, -1):
        suffix = word[i:]
        got = _NF_CACHE.get(suffix)
        if got is None:
            a, out = word[i], {}
            for w, c in nf.items():
                add_scaled(out, c, _insert(a, w))
            got = _NF_CACHE[suffix] = {w: c for w, c in out.items() if c}
        nf = got
    return nf


def multiply(a: UEAElement, b: UEAElement) -> UEAElement:
    """The normal form of a·b for normal forms a and b, as every producer
    in the package returns (a free value goes through
    :func:`pbw_normal_form` first); ``a.convolve(b)`` is the free product.

    Two normal words u, v join at the seam: u + v when ``u[-1] <= v[0]``;
    the one word with the shared block sorted when u[-1] and v[0] have
    one kind; else the word normal form of u + v.
    """
    out: dict = {}
    nb = b.num.items()
    for u, m in a.num.items():
        kind = u[-1].kind if u else Kind.XMINUS  # the empty word joins any word
        for v, n in nb:
            c = m * n
            if not v or kind <= v[0].kind:  # one term, added in place
                w = _join(u, v)
                old = out.get(w)
                out[w] = c if old is None else old + c
            else:
                add_scaled(out, c, _word_nf(u + v).items())
    return UEAElement.over(out, a.den * b.den)


def pbw_normal_form(a: UEAElement, strategy: str = "leftmost") -> UEAElement:
    """PBW normal form: x- block, h block, x+ block, each sorted.

    The default strategy, "leftmost", folds each word through the
    kind-block insertion and shares ``_NF_CACHE`` with :func:`multiply`.
    "rightmost" is the oracle, a different algorithm: :func:`rewrite` on
    the rightmost descent a > b, with a memo of its own and the unmemoized
    swap rule.  Word normal forms are integral, so the result keeps a's
    denominator.
    """
    if strategy not in ("leftmost", "rightmost"):
        raise ValueError(f"unknown strategy {strategy!r}")
    memo: dict = {}  # the oracle route shares no entries, not even the swap rule's
    out: dict = {}
    for w, n in a.num.items():
        if strategy == "leftmost":
            nf = _word_nf(w)
        else:
            nf = rewrite(w, operator.gt, _swap, memo, rightmost=True)
        add_scaled(out, n, nf.items())
    return UEAElement.over(out, a.den)


def divided_power(a: LieElement, k: int) -> UEAElement:
    """a^k / k!, multiplied one normal factor at a time."""
    if not isinstance(a, LieElement):
        raise TypeError(f"divided_power takes a LieElement, not {type(a).__name__}")
    if k < 0:
        return UEA_ZERO
    u, out = from_lie(a), UEA_ONE
    for _ in range(k):
        out = multiply(out, u)
    return out.divide(math.factorial(k))


def binomial(a: LieElement, k: int) -> UEAElement:
    """a(a-1)...(a-k+1) / k!."""
    if not isinstance(a, LieElement):
        raise TypeError(f"binomial takes a LieElement, not {type(a).__name__}")
    if k < 0:
        return UEA_ZERO
    u, out = from_lie(a), UEA_ONE
    for i in range(k):
        out = multiply(out, u - UEA_ONE.scale(i))
    return out.divide(math.factorial(k))
