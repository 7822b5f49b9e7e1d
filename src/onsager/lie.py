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
        """Element ``num / den`` (``den`` > 0): zeros dropped, lowest terms."""
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

    def _common(self, other) -> tuple[dict, dict, int]:
        """Both numerator dicts over one denominator, the first a copy."""
        a, b = self.den, other.den
        if a == b:
            return dict(self.num), other.num, a
        den = math.lcm(a, b)
        fa, fb = den // a, den // b
        return ({k: fa * n for k, n in self.num.items()},
                {k: fb * n for k, n in other.num.items()}, den)

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
        out, add, den = self._common(other)
        return self.over(add_scaled(out, 1, add.items()), den)

    def __sub__(self, other):
        out, sub, den = self._common(other)
        return self.over(add_scaled(out, -1, sub.items()), den)

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
        plain constant and unit coefficients left out."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in self._ordered():
            c = self.coeffs[k]
            a = abs(c)
            if not k:
                body = str(a)
            elif a == 1:
                body = self._show_key(k)
            else:
                body = f"{a}*{self._show_key(k)}"
            if parts:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
            else:
                parts.append(body if c > 0 else f"-{body}")
        return " ".join(parts)


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
    """Structure constants on canonical basis elements."""
    if a.kind == b.kind:
        return LIE_ZERO
    if a.kind > b.kind:
        return -bracket_basis(b, a)
    # now a.kind < b.kind
    if a.kind == Kind.XMINUS and b.kind == Kind.XPLUS:
        # [x+_j, x-_l] = h_{j+l} - h_{|j-l|}
        j, l = b.index, a.index
        return -(h(j + l) - h(j - l))
    if a.kind == Kind.XMINUS and b.kind == Kind.H:
        # [h_k, x-_l] = -2(x-_{l+k} + x-_{l-k})
        l, k = a.index, b.index
        return _H_X_SCALE * (xminus(l + k) + xminus(l - k))
    # a.kind == H, b.kind == XPLUS: [h_k, x+_j] = 2(x+_{j+k} + x+_{j-k})
    k, j = a.index, b.index
    return _H_X_SCALE * (xplus(j + k) + xplus(j - k))


def bracket(a: LieElement, b: LieElement) -> LieElement:
    return LieElement.combine(((na * nb, bracket_basis(ba, bb))
                               for ba, na in a.num.items() for bb, nb in b.num.items()),
                              a.den * b.den)


_FLIP = {Kind.XMINUS: Kind.XPLUS, Kind.H: Kind.H, Kind.XPLUS: Kind.XMINUS}


def tau(a: LieElement) -> LieElement:
    """Flip automorphism: x+ <-> x-, h -> -h."""
    return LieElement.over({BasisElement(_FLIP[b.kind], b.index): -n if b.kind == Kind.H else n
                            for b, n in a.num.items()}, a.den)
