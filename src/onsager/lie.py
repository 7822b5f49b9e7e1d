"""The Onsager algebra in its fixed-point basis.

Generators come in three families: lowering elements ``x-_l`` (l >= 1),
Cartan-like elements ``h_k`` (k >= 0) and raising elements ``x+_j``
(j >= 1).  Index normalization (``h_{-k} = h_k``, ``x_{-j} = -x_j``,
``x_0 = 0``) happens once, in :func:`generator`; all downstream code may
assume canonical basis elements.
"""

from __future__ import annotations

import math
from enum import IntEnum
from fractions import Fraction
from typing import NamedTuple


class Kind(IntEnum):
    """Generator family; the numeric value is the total-order rank."""

    XMINUS = 0
    H = 1
    XPLUS = 2


# Surface-syntax name of each family, shared by the element printer
# (``LinComb.__repr__``) and the JSON report writer.
KIND_NAMES = {Kind.XMINUS: "xm", Kind.H: "h", Kind.XPLUS: "xp"}


class BasisElement(NamedTuple):
    """Basis element; the tuple order (kind, then index) is the basis order."""

    kind: Kind
    index: int


def add_scaled(out: dict, c, terms) -> dict:
    """``out[k] += c*v`` for each (k, v) of terms, zeros kept; returns out."""
    for k, v in terms:
        old = out.get(k)
        out[k] = c * v if old is None else old + c * v
    return out


class LinComb:
    """Finite combination of keys with nonzero coefficients.

    The one sparse type behind every element of the package: Lie
    elements, PBW words, ordered monomials and Laurent polynomials.  An
    element stores integer numerators ``num`` (a dict, zeros dropped) over
    one positive ``int`` denominator ``den``, in lowest terms: gcd(den,
    every numerator) = 1, so equal elements have equal ``num`` and
    ``den``.  Arithmetic runs on the numerators and returns the operand's
    own subclass; equality is type-exact, so two kinds of element never
    compare equal by accident.  The constructor takes true values;
    :meth:`over` takes numerators and a denominator, and :meth:`combine`
    is the one scaled sum of elements.

    ``coeffs`` (and :meth:`items`) is the true-value view: an ``int``
    where a value is integral, else a ``Fraction``.  It is built at most
    once per element, is ``num`` itself when ``den`` is 1, and like
    ``num`` must be treated as read-only.
    """

    __slots__ = ("num", "den", "_view")

    def __init__(self, coeffs: dict | None = None):
        """Element with the true values ``coeffs`` (``int`` or ``Fraction``)."""
        num = {k: c for k, c in (coeffs or {}).items() if c}
        dens = [c.denominator for c in num.values() if type(c) is Fraction]
        den = math.lcm(*dens)
        if dens:
            num = {k: c.numerator * (den // c.denominator) if type(c) is Fraction
                   else c * den for k, c in num.items()}
        self.num, self.den = num, den
        self._view = num if den == 1 else None

    @classmethod
    def _raw(cls, num: dict, den: int):
        """Element on numerators already nonzero and in lowest terms."""
        out = cls.__new__(cls)
        out.num, out.den = num, den
        out._view = num if den == 1 else None
        return out

    @classmethod
    def over(cls, num: dict, den: int = 1):
        """Element ``num / den`` (``den`` > 0): zeros dropped, lowest terms.

        ``num`` becomes the element's own dict when it holds no zero and
        no common factor, so the caller must not touch it afterwards.
        """
        if 0 in num.values():
            num = {k: n for k, n in num.items() if n}
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: n // g for k, n in num.items()}
                den //= g
        return cls._raw(num, den)

    @property
    def coeffs(self) -> dict:
        view = self._view
        if view is None:
            den = self.den
            view = self._view = {k: n // den if n % den == 0 else Fraction(n, den)
                                 for k, n in self.num.items()}
        return view

    @property
    def is_zero(self) -> bool:
        return not self.num

    def items(self):
        return self.coeffs.items()

    @classmethod
    def combine(cls, terms, den: int = 1):
        """The element sum c*x / den over (``int`` c, element x) pairs.

        Numerators are summed over the lcm of the x's denominators, and
        brought to lowest terms once.
        """
        terms = [(c, x) for c, x in terms if c and x.num]
        common = math.lcm(*(x.den for _, x in terms))
        out: dict = {}
        for c, x in terms:
            add_scaled(out, c * (common // x.den), x.num.items())
        return cls.over(out, common * den)

    def __add__(self, other):
        return self.combine(((1, self), (1, other)))

    def __sub__(self, other):
        return self.combine(((1, self), (-1, other)))

    def __neg__(self):
        return self._raw({k: -n for k, n in self.num.items()}, self.den)

    def scale(self, c):
        """Product with an ``int`` or a ``Fraction``."""
        if type(c) is Fraction:
            return self.scale(c.numerator).divide(c.denominator)
        if not c:
            return self._raw({}, 1)
        den = self.den
        if den != 1:
            g = math.gcd(c, den)
            c, den = c // g, den // g
        return self._raw({k: c * n for k, n in self.num.items()}, den)

    def __rmul__(self, c):
        return self.scale(c)

    def divide(self, d: int):
        """Exact quotient by a nonzero ``int``."""
        if not d:
            raise ZeroDivisionError("division of a combination by zero")
        num = self.num if d > 0 else {k: -n for k, n in self.num.items()}
        d = abs(d)
        g = math.gcd(d, *num.values())
        if g != 1:
            num = {k: n // g for k, n in num.items()}
        return self._raw(num, self.den * (d // g))

    def convolve(self, other):
        """Keyed product: keys combine by ``+`` (tuples concatenate) and
        coefficients multiply."""
        out: dict = {}
        for ka, ca in self.num.items():
            for kb, cb in other.num.items():
                k = ka + kb
                c = ca * cb
                old = out.get(k)
                out[k] = c if old is None else old + c
        return self.over(out, self.den * other.den)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((self.den, frozenset(self.num.items())))

    def __repr__(self):
        """Surface syntax that ``expr.parse`` reads back, e.g.
        ``-h(0) + 1/2*xm(1)*xp(1)``: terms in the subclass's ``_ordered``
        key order, keys printed by its ``_show_key``, the empty key as a
        plain constant and unit coefficients left out.  Coefficients are
        written from ``num``/``den`` by :func:`ratio_text`."""
        num, den = self.num, self.den
        if not num:
            return "0"
        parts = []
        for k in self._ordered():
            n = num[k]
            a = abs(n)
            if not k:
                body = ratio_text(a, den)
            elif a == den:  # lowest terms: a unit coefficient
                body = self._show_key(k)
            else:
                body = f"{ratio_text(a, den)}*{self._show_key(k)}"
            if parts:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
            else:
                parts.append(body if n > 0 else f"-{body}")
        return " ".join(parts)


def ratio_text(n: int, den: int) -> str:
    """``str(Fraction(n, den))`` for ``den`` > 0, from one gcd and no
    ``Fraction``: the coefficient text of the printer and the JSON writer."""
    g = math.gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def basis_to_text(b: BasisElement) -> str:
    return f"{KIND_NAMES[b.kind]}({b.index})"


class LieElement(LinComb):
    """Finite rational combination of canonical basis elements."""

    __slots__ = ()

    def support(self) -> list[BasisElement]:
        return sorted(self.num)

    __mul__ = LinComb.scale
    _ordered = support
    _show_key = staticmethod(basis_to_text)


LIE_ZERO = LieElement()


def generator(kind: Kind, index: int) -> LieElement:
    """Normalized single generator, for any integer index."""
    if kind == Kind.H:
        return LieElement._raw({BasisElement(Kind.H, abs(index)): 1}, 1)
    if index == 0:
        return LIE_ZERO
    if index < 0:
        return LieElement._raw({BasisElement(kind, -index): -1}, 1)
    return LieElement._raw({BasisElement(kind, index): 1}, 1)


def xplus(j: int) -> LieElement:
    return generator(Kind.XPLUS, j)


def xminus(l: int) -> LieElement:
    return generator(Kind.XMINUS, l)


def h(k: int) -> LieElement:
    return generator(Kind.H, k)


# Scale of the [h, x] structure constants.  The true value is 2; tests
# corrupt this to exercise failure reporting in the verifier.  ``bracket``
# sums any rational constant exactly, but the PBW layer needs it integral:
# word normal forms are summed as integer numerators, and ``uea._swap``
# raises on a non-integral bracket.
_H_X_SCALE = 2


def bracket_basis(a: BasisElement, b: BasisElement) -> LieElement:
    """Structure constants on canonical basis elements.

    [x+_j, x-_l] = h_{j+l} - h_{|j-l|} and [h_k, x±_j] = ±S(x±_{j+k} +
    x±_{j-k}) with S = ``_H_X_SCALE``, read on every call, and x_{-i} =
    -x_i, x_0 = 0; the pair in the other order takes the opposite sign.
    The at most two terms go straight into one numerator dict.
    """
    ka, kb = a.kind, b.kind
    if ka == kb:
        return LIE_ZERO
    if ka != Kind.H and kb != Kind.H:
        j, l = (a.index, b.index) if ka == Kind.XPLUS else (b.index, a.index)
        s = 1 if ka == Kind.XPLUS else -1
        return LieElement._raw({BasisElement(Kind.H, j + l): s,
                                BasisElement(Kind.H, abs(j - l)): -s}, 1)
    # one h_k and one x: [h_k, x+] and [x-, h_k] carry +S, the others -S
    k, x = (a.index, b) if ka == Kind.H else (b.index, a)
    s = 1 if (ka == Kind.H) == (x.kind == Kind.XPLUS) else -1
    scale, den = _H_X_SCALE, 1
    if type(scale) is Fraction:
        scale, den = scale.numerator, scale.denominator
    s *= scale
    kind, i = x
    if not k:  # x_{i+0} + x_{i-0} = 2 x_i
        return LieElement.over({x: 2 * s}, den)
    num = {BasisElement(kind, i + k): s}
    if i != k:  # x_0 = 0 and x_{i-k} = -x_{k-i}
        num[BasisElement(kind, abs(i - k))] = s if i > k else -s
    return LieElement.over(num, den)


def bracket(a: LieElement, b: LieElement) -> LieElement:
    return LieElement.combine(((na * nb, bracket_basis(ba, bb))
                               for ba, na in a.num.items() for bb, nb in b.num.items()),
                              a.den * b.den)


_FLIP = {Kind.XMINUS: Kind.XPLUS, Kind.H: Kind.H, Kind.XPLUS: Kind.XMINUS}


def tau(a: LieElement) -> LieElement:
    """Flip automorphism: x+ <-> x-, h -> -h."""
    return LieElement.over({BasisElement(_FLIP[b.kind], b.index): -n if b.kind == Kind.H else n
                            for b, n in a.num.items()}, a.den)
