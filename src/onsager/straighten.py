"""Rewriting products of integral generators into ordered monomials.

The integral form is generated by divided powers of the x generators
together with the Lambda elements of the Cartan part.  An ordered
monomial puts all minus-side divided powers first (indices increasing),
then Lambda factors (pairs increasing, at most one factor per pair),
then plus-side divided powers.  Everything here rewrites arbitrary
products of such factors into exact rational combinations of ordered
monomials, and reads coordinates, rank and leading-word collisions at a
finite truncation off the Lambda block, through the triangular decomposition.
"""

from __future__ import annotations

import functools
import heapq
import math
from bisect import bisect_left
from typing import NamedTuple, Union

from . import caches, linalg
from .lie import Kind, LieElement, LinComb, add_scaled, xminus, xplus
from .uea import (
    UEAElement,
    UEA_ONE,
    descending_key,
    divided_power,
    exponents,
    kind_blocks,
    leading_word,
    multiply,
    pbw_normal_form,
    rewrite,
)
from .elements import binom, d1_closed, d_triple, ladder, lambda_rec


class NoLambdaExpression(Exception):
    """The Lambda-product correction term fell outside the integral span."""


class OutOfTruncation(Exception):
    """No expression within the requested mdegree/index bounds."""


class AmbiguousSolution(Exception):
    """Candidate monomials at this truncation are linearly dependent.

    Carries a particular solution and a kernel basis (a :class:`Lift`:
    sized, and built as it is iterated) so callers can report the
    dependency instead of silently picking a representative.
    """

    def __init__(self, particular, kernel):
        super().__init__("candidate monomials are linearly dependent")
        self.particular = particular
        self.kernel = kernel


# Tuples, so a factor hashes and compares in C.  The trailing ``kind``
# tag keeps the two kinds apart even when their fields coincide.
# A factor's ``slot`` is its place in an ordered monomial: the block
# (minus 0, Lambda 1, plus 2), then the generator index or Lambda pair.
class XFactor(NamedTuple):
    sign: int  # +1 or -1
    index: int
    order: int
    kind: str = "x"

    @property
    def slot(self) -> tuple:
        return (1 + self.sign, self.index)

    def __repr__(self):
        return f"XFactor(sign={self.sign}, index={self.index}, order={self.order})"


class LFactor(NamedTuple):
    j: int
    l: int
    order: int
    kind: str = "lam"

    @property
    def slot(self) -> tuple:
        return (1, self.j, self.l)

    def __repr__(self):
        return f"LFactor(j={self.j}, l={self.l}, order={self.order})"


Factor = Union[XFactor, LFactor]
MWord = tuple  # tuple[Factor, ...]


def lfactor(j: int, l: int, k: int) -> LFactor:
    """Lambda factor on the canonical (larger, smaller) pair."""
    if j < 1 or l < 1 or k < 1:
        raise ValueError(f"bad Lambda factor ({j},{l},{k})")
    return LFactor(max(j, l), min(j, l), k)


def mdegree(word: MWord) -> int:
    return sum(f.order for f in word)


def word_key(word: MWord) -> tuple:
    """The monomial order, for deterministic output: mdegree, then
    length, then the factors' slots and orders."""
    return mdegree(word), len(word), tuple(f.slot + (f.order,) for f in word)


def monomial_to_text(word: MWord) -> str:
    """Surface syntax of a factor word, e.g. ``lam(2,1,1)*dp(xp(1),2)``."""
    if not word:
        return "1"
    parts = []
    for f in word:
        if isinstance(f, LFactor):
            parts.append(f"lam({f.j},{f.l},{f.order})")
        else:
            name = "xp" if f.sign > 0 else "xm"
            parts.append(f"dp({name}({f.index}),{f.order})")
    return "*".join(parts)


class MForm(LinComb):
    """Rational combination of products of integral-generator factors."""

    __slots__ = ()

    __mul__ = LinComb.convolve

    def words(self) -> list[MWord]:
        return sorted(self.num, key=word_key)

    _ordered = words
    _show_key = staticmethod(monomial_to_text)


M_ZERO = MForm()
M_ONE = MForm({(): 1})


def monomial(*factors: Factor) -> MForm:
    return MForm({tuple(factors): 1})


# ---------------------------------------------------------------------------
# Expansion back into the enveloping algebra (the semantic oracle).

_FACTOR_EXPAND: dict = caches.register({})
_WORD_EXPAND: dict = caches.register({})


@caches.memoized(_FACTOR_EXPAND)
def expand_factor(f: Factor) -> UEAElement:
    if isinstance(f, LFactor):
        return lambda_rec(f.j, f.l, f.order)
    return divided_power(xplus(f.index) if f.sign > 0 else xminus(f.index), f.order)


def expand_word(w: MWord) -> UEAElement:
    """Normal form of ``w``'s product, built onto its longest cached prefix."""
    cut = len(w)
    while cut and w[:cut] not in _WORD_EXPAND:
        cut -= 1
    val = _WORD_EXPAND[w[:cut]] if cut else UEA_ONE
    for cut in range(cut + 1, len(w) + 1):
        val = _WORD_EXPAND[w[:cut]] = multiply(val, expand_factor(w[cut - 1]))
    return val


def expand(m: MForm) -> UEAElement:
    """The PBW normal form of an ordered-monomial form."""
    return UEAElement.combine(((n, expand_word(w)) for w, n in m.num.items()), m.den)


# ---------------------------------------------------------------------------
# Divided powers of one-sided x combinations.

def divided_x(a: LieElement, v: int) -> MForm:
    """(a)^{(v)} for a combination of same-sign x generators.

    Since the generators commute, the divided power multiplies out as a
    sum over compositions of v across the support, each generator
    contributing c^{v_i} times its own divided power; each composition
    gives one distinct word.
    """
    if v < 0:
        return M_ZERO
    if v == 0:
        return M_ONE
    if a.is_zero:
        return M_ZERO
    support = a.support()
    kinds = {b.kind for b in support}
    if kinds == {Kind.XPLUS}:
        sign = 1
    elif kinds == {Kind.XMINUS}:
        sign = -1
    else:
        raise ValueError("divided_x needs a one-sided x combination")
    support = sorted(support, key=lambda b: b.index)
    last = support[-1]
    # extend the words one generator at a time, the last taking what is
    # left; each word's numerator is over a.den ** v
    words = [((), 1, v)]
    for b in support:
        n = a.num[b]
        words = [(word + (XFactor(sign, b.index, k),) if k else word,
                  coeff * n ** k, rem - k)
                 for word, coeff, rem in words
                 for k in ((rem,) if b == last else range(rem + 1))]
    return MForm.over({word: coeff for word, coeff, _ in words}, a.den ** v)


# The D ladders as ordered monomials and the layers they are summed from,
# each kept under a tag and its arguments.
_DUV_MFORM: dict = caches.register({})


@caches.memoized(_DUV_MFORM, "layer")
def _layer(a: LieElement, v: int) -> MForm:
    """divided_x(a, v), kept under the value of a, which both kinds of
    ladder are summed from."""
    return divided_x(a, v)


@caches.memoized(_DUV_MFORM, "duv")
def duv_mform(sign: int, u: int, v: int, j: int, l: int) -> MForm:
    """D_{u,v} expanded into divided powers of single generators.

    Multinomial form: sum over exponent tuples (k_0..k_u) with total v
    and weight u of the product of divided powers of the D_{i,1} layers.
    """
    if v < 0:
        return M_ZERO
    if v == 0:
        return M_ONE if u == 0 else M_ZERO
    return ladder(lambda i, k: _layer(d1_closed(sign, i, j, l), k), u, v, M_ONE)


# ---------------------------------------------------------------------------
# The straightening rules.

def straighten_same_x(sign: int, j: int, r: int, s: int) -> tuple[int, XFactor]:
    """Merge adjacent divided powers of one generator."""
    return binom(r + s, s), XFactor(sign, j, r + s)


def straighten_plus_minus(j: int, r: int, l: int, s: int) -> MForm:
    """Rewrite (x+_j)^{(r)} (x-_l)^{(s)} in (minus, Lambda, plus) order.

    Triple sum over (m, n, q) with m+n+q bounded by min(r, s); the two
    D blocks are expanded multinomially so the result is a combination
    of single-generator divided powers around a Lambda factor.
    """
    terms = []
    cutoff = min(r, s)
    for m in range(cutoff + 1):
        for n in range(cutoff - m + 1):
            mid = monomial(lfactor(j, l, n)) if n else M_ONE
            for q in range(cutoff - m - n + 1):
                left = duv_mform(-1, m, s - m - n - q, j, l)
                if left.is_zero:
                    continue
                right = duv_mform(1, q, r - m - n - q, j, l)
                if right.is_zero:
                    continue
                terms.append(((-1) ** (m + n + q), left * mid * right))
    return MForm.combine(terms)


@caches.memoized(_DUV_MFORM, "triple")
def _triple_ladder(sign: int, x_index: int, k: int, m: int, weight: int, total: int) -> MForm:
    """The ladder whose layer u is divided_x of (u+1) times the
    three-index D element; it does not depend on the Lambda order, so
    every order shares it."""
    return ladder(lambda u, v: _layer(d_triple(sign, u, x_index, k, m).scale(u + 1), v),
                  weight, total, M_ONE)


def move_x_past_lambda(sign: int, x_index: int, r: int,
                       pair: tuple[int, int], n: int) -> MForm:
    """Commute a divided x power through a Lambda factor.

    sign +1 rewrites (x+)^{(r)} L_{k,m,n} with the Lambda factors
    emerging on the left; sign -1 rewrites L_{k,m,n} (x-)^{(r)} with them
    on the right.  The ladder's layer u is (u+1) times the three-index D,
    since divided_x(c a, v) = c^v divided_x(a, v).
    """
    k, m = pair
    terms = []
    for i in range(n + 1):
        inner = _triple_ladder(sign, x_index, k, m, i, r)
        if n - i:
            lam = monomial(lfactor(k, m, n - i))
            inner = lam * inner if sign > 0 else inner * lam
        terms.append((1, inner))
    return MForm.combine(terms)


# ---------------------------------------------------------------------------
# Merging two Lambda factors on the same pair.
#
# The product L_{j,l,k} L_{j,l,m} is binom(k+m,k) L_{j,l,k+m} plus a
# correction of strictly lower filtration degree that must come out as
# an integer combination of Lambda products.  The correction is a
# combination of chain words, products of chain-pair factors
# L_{t-1,1,q} (t >= 2, one factor per t), found by division by leading
# terms in the h-words the remainder is written in.  Order h-words by
# length, then by their indices read from the top down: a multiplicative
# order, under which L_{t-1,1,1} = h_{t-2} - h_t leads with -h_t and a
# chain word of degree d leads with the h-word of its indices, each t
# repeated q times, at coefficient (-1)^d / prod q!.  So the largest
# word left names the next chain word and its coefficient, which must be
# an integer; a leading h_0 or h_1 is no chain word's.

_MERGE_CACHE: dict = caches.register({})


def _chain_correction(remainder: UEAElement) -> dict:
    """The chain words ``{word: int}`` whose expansions sum to ``remainder``.

    ``remainder`` is a combination of h-words.  Its largest word is
    divided out by the chain word that leads with it, whose cached
    expansion is subtracted in place from one numerator dict, until
    nothing is left.  Raises NoLambdaExpression when the largest word
    holds h_0 or h_1, or its chain coefficient is not an integer.
    """
    num, den = dict(remainder.num), remainder.den
    heap = [(descending_key(w), w) for w in num]  # the largest word comes out first
    heapq.heapify(heap)
    out: dict = {}
    while heap:
        _, w = heapq.heappop(heap)
        n = num[w]
        if not n:
            del num[w]
            continue
        chains, k = exponents(w)  # each t with its q, t increasing
        if chains and chains[0][0] < 2:
            raise NoLambdaExpression(f"h_0/h_1 in the leading word {UEAElement({w: 1})}")
        c, r = divmod(n * k, den)
        if r:
            raise NoLambdaExpression(
                f"non-integral chain coefficient at {UEAElement({w: 1})}")
        word = tuple(LFactor(t - 1, 1, q) for t, q in chains)
        out[word] = c = (-1) ** mdegree(word) * c
        e = expand_word(word)
        if den % e.den:
            g = e.den // math.gcd(den, e.den)
            num = {v: g * x for v, x in num.items()}
            den *= g
        f = c * (den // e.den)
        for v, x in e.num.items():
            old = num.get(v)
            if old is None:
                num[v] = -f * x
                heapq.heappush(heap, (descending_key(v), v))
            else:
                num[v] = old - f * x
        del num[w]
    return out


@caches.memoized(_MERGE_CACHE)
def _merge_canonical(j: int, l: int, k: int, m: int) -> MForm:
    """L_{j,l,k} L_{j,l,m} in ordered monomials, for j >= l."""
    lead = lfactor(j, l, k + m)
    lead_coeff = binom(k + m, k)
    remainder = (expand_word((lfactor(j, l, k), lfactor(j, l, m)))
                 - expand_factor(lead).scale(lead_coeff))
    return monomial(lead).scale(lead_coeff) + MForm(_chain_correction(remainder))


def merge_lambda_pair(j: int, l: int, k: int, m: int) -> MForm:
    return _merge_canonical(max(j, l), min(j, l), k, m)


# ---------------------------------------------------------------------------
# Normalization.

def _out_of_order(a: Factor, b: Factor) -> bool:
    return a.slot >= b.slot


def _rewrite_pair(a: Factor, b: Factor) -> MForm:
    if a.slot == b.slot:
        if isinstance(a, LFactor):
            return merge_lambda_pair(a.j, a.l, a.order, b.order)
        c, f = straighten_same_x(a.sign, a.index, a.order, b.order)
        return monomial(f).scale(c)
    if a.slot[0] == b.slot[0]:
        return monomial(b, a)
    if isinstance(a, LFactor):  # Lambda before a minus factor
        return move_x_past_lambda(-1, b.index, b.order, (a.j, a.l), a.order)
    if isinstance(b, LFactor):
        return move_x_past_lambda(1, a.index, a.order, (b.j, b.l), b.order)
    return straighten_plus_minus(a.index, a.order, b.index, b.order)


def normalize_to_basis(m: MForm) -> MForm:
    """Rewrite an arbitrary factor product into ordered monomials.

    Runs the shared engine :func:`uea.rewrite` on each word, rewriting
    the leftmost out-of-order pair by the rules above, with one memo per
    call.  The out-of-order rules strictly reduce either the mdegree of
    the messy part or an inversion count at fixed mdegree, so the
    rewriting terminates.  Every rule has integer coefficients, so the
    normal form is summed on ``m``'s numerators over its denominator.
    """
    memo: dict = {}
    result: dict = {}
    for word, n in m.num.items():
        add_scaled(result, n, rewrite(word, _out_of_order, _rewrite_pair, memo).items())
    return MForm.over(result, m.den)


# ---------------------------------------------------------------------------
# Candidate basis enumeration, coordinates and the theorem audit.
#
# U_Z = U_Z^- U_Z^0 U_Z^+ (Garland, J. Algebra 53, 1978).  A candidate
# a*lam*b, with a its minus factors and b its plus ones, expands to the one
# x- word of a, times lam's expansion in the commutative h block, times the
# one x+ word of b, over the factorials of a's and b's orders.  So the
# candidates of different blocks (a, b) have disjoint supports, and those of
# one block are, in the same order, the Lambda-only candidates of mdegree at
# most its budget M - deg a - deg b: a prefix of the Lambda block, as
# enumeration sorts by mdegree first.  So only the Lambda block is expanded
# and eliminated, and Lift carries its dependent candidates, leading-word
# clashes and kernel vectors to every block whose prefix holds them.  The
# audit eliminates it keeping the pivot rows alone (linalg.independent),
# coordinates with each row's combination of the inputs (linalg.rref), for
# the kernel and the solutions.  On the (6,4) Lambda block, 8,008 candidates
# of rank 3,165, rref took 8.1-8.8 s and grew the resident set by 43 MB,
# independent 7.2-7.5 s and 24 MB, in one process on 2 vCPUs.

# the most candidates the audit and coordinates take on: (7,4) has 480,700,
# (6,5) 736,281
MAX_CANDIDATES = 500_000


def candidate_count(max_mdegree: int, max_index: int) -> int:
    """C(slots + max_mdegree, max_mdegree), the number of candidates, with
    2N + N(N+1)/2 slots at index N.  Raises ValueError on bounds out of
    range, or when the count or the slots (which listing walks, even at
    mdegree 0) are above MAX_CANDIDATES, before anything is listed."""
    if max_mdegree < 0 or max_index < 1:
        raise ValueError("bounds must be positive")
    slots = 2 * max_index + max_index * (max_index + 1) // 2
    # with k = min(M, slots) >= 1 the count is at least slots + M and C(2k, k),
    # which passes MAX_CANDIDATES from k = 11: refused before the binomial,
    # which at large bounds is slow and too long to print
    if min(max_mdegree, slots) > 10 or (max_mdegree and slots + max_mdegree > MAX_CANDIDATES):
        raise ValueError(f"more than the {MAX_CANDIDATES} candidate monomials allowed on "
                         f"{slots} slots at mdegree {max_mdegree}, index {max_index}")
    count = math.comb(slots + max_mdegree, max_mdegree)
    if max(count, slots) > MAX_CANDIDATES:
        raise ValueError(f"{count} candidate monomials on {slots} slots at mdegree "
                         f"{max_mdegree}, index {max_index}, more than the "
                         f"{MAX_CANDIDATES} allowed")
    return count


def _slot_words(slots: list, budget: int) -> list[tuple[MWord, int]]:
    """Each word giving the slots, in order, nonnegative orders with total
    at most budget, paired with its unspent budget.  A slot is its factor
    with the order left open."""
    # extended one slot at a time: no recursion, so the slot count is not
    # bounded by the interpreter stack
    partial = [((), budget)]
    for slot in slots:
        partial = [(word + (slot(order),) if order else word, left - order)
                   for word, left in partial for order in range(left + 1)]
    return partial


def _x_slots(sign: int, max_index: int) -> list:
    return [functools.partial(XFactor, sign, i) for i in range(1, max_index + 1)]


def _lambda_slots(max_index: int) -> list:
    return [functools.partial(LFactor, j, l)
            for j in range(1, max_index + 1) for l in range(1, j + 1)]


def enumerate_basis(max_mdegree: int, max_index: int) -> list[MWord]:
    """All ordered monomials within the truncation, deterministically.

    Slots are the minus indices, the canonical Lambda pairs, and the
    plus indices, in slot order; a monomial assigns a nonnegative order
    to each slot with total at most max_mdegree.
    """
    candidate_count(max_mdegree, max_index)
    slots = _x_slots(-1, max_index) + _lambda_slots(max_index) + _x_slots(1, max_index)
    return sorted((word for word, _ in _slot_words(slots, max_mdegree)), key=word_key)


def _within_bounds(word: MWord, max_mdegree: int, max_index: int) -> bool:
    if mdegree(word) > max_mdegree:
        return False
    for f in word:
        top = max(f.j, f.l) if isinstance(f, LFactor) else f.index
        if top > max_index:
            return False
    return True


def lambda_block(max_mdegree: int, max_index: int) -> list[MWord]:
    """The Lambda-only candidates, in enumeration order; those of mdegree
    at most b are the first ``lambda_prefix(b, max_index)``."""
    return sorted((word for word, _ in _slot_words(_lambda_slots(max_index), max_mdegree)),
                  key=word_key)


def lambda_prefix(budget: int, max_index: int) -> int:
    """How many Lambda-only candidates have mdegree at most budget."""
    return math.comb(max_index * (max_index + 1) // 2 + budget, budget)


class Lift:
    """Facts about Lambda-block candidates, lifted to every block: items[k]
    ends at block[ends[k]], ends ascending, and is ``lift(a, items[k], b)``
    in each block (a, b) whose prefix holds that end.  The length is
    counted; the lifted items are built as they are read, in the
    enumeration order of their ends a + block[end] + b."""

    __slots__ = ("_block", "_items", "_ends", "_lift", "_counts")

    def __init__(self, block: list[MWord], max_mdegree: int, max_index: int,
                 items: list, ends: list[int], lift):
        self._block, self._items, self._ends, self._lift = block, items, ends, lift
        plus = _slot_words(_x_slots(1, max_index), max_mdegree)
        # each block (a, b) with how many items end in its prefix
        self._counts = [(a, b, bisect_left(ends, lambda_prefix(left + rest - max_mdegree,
                                                                max_index)))
                        for a, left in _slot_words(_x_slots(-1, max_index), max_mdegree)
                        for b, rest in plus if left + rest >= max_mdegree]

    def __len__(self) -> int:
        return sum(n for _, _, n in self._counts)

    def __iter__(self):
        block, items, ends, lift = self._block, self._items, self._ends, self._lift
        lifted = sorted(((a, k, b) for a, b, n in self._counts for k in range(n)),
                        key=lambda akb: word_key(akb[0] + block[ends[akb[1]]] + akb[2]))
        return (lift(a, items[k], b) for a, k, b in lifted)


def rank_and_collisions(max_mdegree: int, max_index: int) -> tuple[int, list[tuple]]:
    """The candidates' rank, and their leading-word collisions as pairs
    (first, later) in the later one's enumeration order: the Lambda block's
    dependent candidates and clashes, lifted, since a candidate's leading
    word is a's x- word, its Lambda part's, then b's x+ word."""
    count = candidate_count(max_mdegree, max_index)
    block = lambda_block(max_mdegree, max_index)
    expansions = [expand_word(w) for w in block]
    dependent = [i for i, pivot in enumerate(linalg.independent([e.num for e in expansions]))
                 if not pivot]
    seen: dict = {}  # each leading word's first position
    clashes = [(first, i) for i, e in enumerate(expansions)
               if (first := seen.setdefault(leading_word(e), i)) != i]
    rank = count - len(Lift(block, max_mdegree, max_index, dependent, dependent,
                            lambda a, i, b: a + block[i] + b))
    collisions = Lift(block, max_mdegree, max_index, clashes, [i for _, i in clashes],
                      lambda a, clash, b: tuple(a + block[i] + b for i in clash))
    return rank, list(collisions)


def coordinates(a: UEAElement, max_mdegree: int, max_index: int) -> dict:
    """Exact coordinates of a against the enumerated monomials.

    The target's PBW normal words are grouped by their x- and x+ parts,
    each group a block (see above), and each group's h part is solved
    against its budget's prefix of the Lambda block, after one exact
    elimination of that block.  Raises OutOfTruncation when no solution
    exists inside the bounds (an x part past them is found before
    anything is expanded) and AmbiguousSolution when the candidates are
    dependent (the kernel is attached for reporting).
    """
    candidate_count(max_mdegree, max_index)
    target = pbw_normal_form(a)
    outside = f"no expression within mdegree {max_mdegree}, index {max_index}"
    groups: dict = {}
    for w, n in target.num.items():
        minus, h_word, plus = kind_blocks(w)
        groups.setdefault((minus, plus), {})[h_word] = n
    parts = []
    for (minus, plus), h_part in groups.items():
        (m_orders, k_minus), (p_orders, k_plus) = exponents(minus), exponents(plus)
        x_minus = tuple(XFactor(-1, i, q) for i, q in m_orders)
        x_plus = tuple(XFactor(1, i, q) for i, q in p_orders)
        if not _within_bounds(x_minus + x_plus, max_mdegree, max_index):
            raise OutOfTruncation(outside)
        # the block's candidates are the Lambda block's over k_minus * k_plus
        h_num = {w: k_minus * k_plus * n for w, n in h_part.items()}
        budget = max_mdegree - mdegree(x_minus + x_plus)
        parts.append((x_minus, x_plus, lambda_prefix(budget, max_index), h_num))
    block = lambda_block(max_mdegree, max_index)
    expansions = [expand_word(w) for w in block]
    dens = [e.den for e in expansions]
    pivots, kernel = linalg.rref([e.num for e in expansions], dens)
    coords = {}
    for x_minus, x_plus, prefix, h_num in parts:
        solution = linalg.solve(pivots, dens, h_num, target.den, prefix)
        if solution is None:
            raise OutOfTruncation(outside)
        coords.update((x_minus + block[j] + x_plus, c) for j, c in solution.items())
    coords = dict(sorted(coords.items(), key=lambda item: word_key(item[0])))
    # a vector's own candidate, the one it sets to 1, is the last it uses
    kernel = Lift(block, max_mdegree, max_index, kernel, [max(v) for v in kernel],
                  lambda a, v, b: {a + block[j] + b: c for j, c in sorted(v.items())})
    if len(kernel):
        raise AmbiguousSolution(coords, kernel)
    return coords


def mform_coordinates(m: MForm, max_mdegree: int, max_index: int) -> dict:
    """Coordinates of a factor product, computed by rewriting.

    This is the constructive route: normalize and read the coefficients
    off the ordered monomials.  It scales to truncations where the
    generic linear solve does not, and is exact by the semantic
    preservation of the rewrite rules.
    """
    normal = normalize_to_basis(m)
    for w in normal.num:
        if not _within_bounds(w, max_mdegree, max_index):
            raise OutOfTruncation(
                f"monomial {w} exceeds mdegree {max_mdegree} or index {max_index}")
    return dict(normal.coeffs)

