"""The Onsager algebra in its fixed-point basis.

Generators come in three families: lowering elements ``x-_l`` (l >= 1),
Cartan-like elements ``h_k`` (k >= 0) and raising elements ``x+_j``
(j >= 1).  Index normalization (``h_{-k} = h_k``, ``x_{-j} = -x_j``,
``x_0 = 0``) happens once, in :func:`generator`; all downstream code may
assume canonical basis elements.
"""

from __future__ import annotations

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


class LinComb:
    """Finite combination of keys with nonzero coefficients.

    The one sparse type behind every element of the package: Lie
    elements, PBW words, ordered monomials and Laurent polynomials all
    store ``coeffs`` as a plain dict, with zero coefficients dropped at
    construction so that equal elements have equal dicts.  Arithmetic
    returns the operand's own subclass, and equality is type-exact, so
    two kinds of element never compare equal by accident.  Coefficients
    are used as they come: integers stay ``int``, and a ``Fraction``
    enters only through :meth:`divide`, which hands an integral quotient
    back as an ``int``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = {k: c for k, c in (coeffs or {}).items() if c}

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def items(self):
        return self.coeffs.items()

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            old = out.get(k)
            out[k] = c if old is None else old + c
        return type(self)(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            old = out.get(k)
            out[k] = -c if old is None else old - c
        return type(self)(out)

    def __neg__(self):
        return type(self)({k: -c for k, c in self.coeffs.items()})

    def scale(self, c):
        return type(self)({k: c * v for k, v in self.coeffs.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def divide(self, d: int):
        """Exact quotient by a nonzero ``int``: each coefficient becomes
        ``Fraction(v, d)``, or its plain numerator when the denominator
        is 1."""
        if not d:
            raise ZeroDivisionError("division of a combination by zero")
        out = {}
        for k, v in self.coeffs.items():
            q = Fraction(v, d)
            out[k] = q.numerator if q.denominator == 1 else q
        return type(self)(out)

    def convolve(self, other):
        """Keyed product: keys combine by ``+`` (tuples concatenate,
        exponents add) and coefficients multiply."""
        out: dict = {}
        for ka, ca in self.coeffs.items():
            for kb, cb in other.coeffs.items():
                k = ka + kb
                c = ca * cb
                old = out.get(k)
                out[k] = c if old is None else old + c
        return type(self)(out)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

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
        return sorted(self.coeffs)

    __mul__ = LinComb.scale
    _ordered = support
    _show_key = staticmethod(basis_to_text)


LIE_ZERO = LieElement()


def generator(kind: Kind, index: int) -> LieElement:
    """Normalized single generator, for any integer index."""
    if kind == Kind.H:
        return LieElement({BasisElement(Kind.H, abs(index)): 1})
    if index == 0:
        return LIE_ZERO
    if index < 0:
        return LieElement({BasisElement(kind, -index): -1})
    return LieElement({BasisElement(kind, index): 1})


def xplus(j: int) -> LieElement:
    return generator(Kind.XPLUS, j)


def xminus(l: int) -> LieElement:
    return generator(Kind.XMINUS, l)


def h(k: int) -> LieElement:
    return generator(Kind.H, k)


# Scale of the [h, x] structure constants.  The true value is 2; tests
# corrupt this to exercise failure reporting in the verifier.
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
    out: dict = {}
    for ba, ca in a.coeffs.items():
        for bb, cb in b.coeffs.items():
            term = bracket_basis(ba, bb)
            if term.is_zero:
                continue
            c = ca * cb
            for g, v in term.coeffs.items():
                out[g] = out.get(g, 0) + c * v
    return LieElement(out)


def tau(a: LieElement) -> LieElement:
    """Flip automorphism: x+ <-> x-, h -> -h."""
    out: dict = {}
    for b, c in a.coeffs.items():
        if b.kind == Kind.H:
            out[b] = -c
        else:
            flipped = Kind.XMINUS if b.kind == Kind.XPLUS else Kind.XPLUS
            out[BasisElement(flipped, b.index)] = c
    return LieElement(out)
