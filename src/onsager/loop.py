"""Concrete realization inside the sl2 loop algebra.

2x2 traceless matrices over Laurent polynomials with Gaussian-rational
coefficients.  This module is a test oracle only: the abstract layer in
``lie.py`` never calls into it, which is what makes the structure
constant cross-checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .lie import BasisElement, Kind, LieElement, LinComb, bracket, generator


@dataclass(frozen=True)
class GaussianRational:
    """re + i*im with exact parts: ``int``, or a ``Fraction`` once a
    half has entered (``HALF``)."""

    re: int | Fraction = 0
    im: int | Fraction = 0

    def __add__(self, other):
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __rmul__(self, c: int):
        # 1*g is how a sum of Laurent polynomials adds (``lie.add_scaled``)
        return self if c == 1 else GaussianRational(c * self.re, c * self.im)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __bool__(self):
        return bool(self.re or self.im)

    def __repr__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"({self.re}{sign}{abs(self.im)}i)"


GR0 = GaussianRational()
GR1 = GaussianRational(1)
GR_I = GaussianRational(0, 1)


def gr(re=0, im=0) -> GaussianRational:
    return GaussianRational(re, im)


class LaurentPoly(LinComb):
    """Finite map exponent -> Gaussian-rational coefficient."""

    __slots__ = ()

    __mul__ = LinComb.convolve

    def invert_t(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return LaurentPoly({-e: c for e, c in self.coeffs.items()})

    def __repr__(self):
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}*t^{e}" for e, c in sorted(self.coeffs.items()))


LP0 = LaurentPoly()


def tpow(e: int, c: GaussianRational = GR1) -> LaurentPoly:
    return LaurentPoly({e: c})


def t_plus(k: int) -> LaurentPoly:
    """t^k + t^-k."""
    return tpow(k) + tpow(-k)


def t_minus(k: int) -> LaurentPoly:
    """t^k - t^-k."""
    return tpow(k) - tpow(-k)


@dataclass(frozen=True)
class LoopMatrix:
    a11: LaurentPoly = LP0
    a12: LaurentPoly = LP0
    a21: LaurentPoly = LP0
    a22: LaurentPoly = LP0

    def __add__(self, o):
        return LoopMatrix(self.a11 + o.a11, self.a12 + o.a12, self.a21 + o.a21, self.a22 + o.a22)

    def __sub__(self, o):
        return LoopMatrix(self.a11 - o.a11, self.a12 - o.a12, self.a21 - o.a21, self.a22 - o.a22)

    def __neg__(self):
        return LoopMatrix(-self.a11, -self.a12, -self.a21, -self.a22)

    def __matmul__(self, o):
        return LoopMatrix(
            self.a11 * o.a11 + self.a12 * o.a21,
            self.a11 * o.a12 + self.a12 * o.a22,
            self.a21 * o.a11 + self.a22 * o.a21,
            self.a21 * o.a12 + self.a22 * o.a22,
        )

    def scale_poly(self, f: LaurentPoly):
        return LoopMatrix(self.a11 * f, self.a12 * f, self.a21 * f, self.a22 * f)

    @property
    def is_zero(self):
        return self.a11.is_zero and self.a12.is_zero and self.a21.is_zero and self.a22.is_zero


M0 = LoopMatrix()

# sl2 raising generator with constant entries
X_PLUS = LoopMatrix(a12=tpow(0))

HALF = GaussianRational(Fraction(1, 2))
# Fixed-point sl2 frame: h = -i(x+ - x-), x(+/-) = (x+ + x- -/+ ih)/2
H_GAMMA = LoopMatrix(a12=tpow(0, -GR_I), a21=tpow(0, GR_I))
X_GAMMA_PLUS = LoopMatrix(
    a11=tpow(0, -HALF * GR_I), a12=tpow(0, HALF), a21=tpow(0, HALF), a22=tpow(0, HALF * GR_I)
)
X_GAMMA_MINUS = LoopMatrix(
    a11=tpow(0, HALF * GR_I), a12=tpow(0, HALF), a21=tpow(0, HALF), a22=tpow(0, -HALF * GR_I)
)


def embed_basis(b: BasisElement) -> LoopMatrix:
    if b.kind == Kind.H:
        return H_GAMMA.scale_poly(t_plus(b.index))
    if b.kind == Kind.XPLUS:
        return X_GAMMA_PLUS.scale_poly(t_minus(b.index))
    return X_GAMMA_MINUS.scale_poly(t_minus(b.index))


def embed(a: LieElement | BasisElement) -> LoopMatrix:
    if isinstance(a, BasisElement):
        return embed_basis(a)
    out = M0
    for b, c in a.coeffs.items():
        out = out + embed_basis(b).scale_poly(tpow(0, gr(c)))
    return out


def matrix_bracket(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    return (a @ b) - (b @ a)


def sigma(m: LoopMatrix) -> LoopMatrix:
    """Diagonal involution: negative transpose on sl2, t -> 1/t."""
    return LoopMatrix(
        -m.a11.invert_t(), -m.a21.invert_t(), -m.a12.invert_t(), -m.a22.invert_t()
    )


def omega(m: LoopMatrix) -> LoopMatrix:
    """Chevalley involution: swap-conjugation on sl2, t -> 1/t."""
    return LoopMatrix(
        m.a22.invert_t(), m.a21.invert_t(), m.a12.invert_t(), m.a11.invert_t()
    )


def onsager_A(m: int) -> LoopMatrix:
    """x+ (x) t^m + x- (x) t^-m."""
    return LoopMatrix(a12=tpow(m), a21=tpow(-m))


def onsager_G(l: int) -> LoopMatrix:
    """(1/2) h (x) (t^l - t^-l)."""
    half = t_minus(l).scale(HALF)
    return LoopMatrix(a11=half, a22=-half)


def verify_structure_constants(max_index: int):
    """Compare the abstract bracket with the matrix commutator on all
    basis pairs with indices up to ``max_index``.  Returns a list of
    failing (a, b) pairs (empty on success)."""
    basis: list[BasisElement] = []
    for k in range(0, max_index + 1):
        basis.append(BasisElement(Kind.H, k))
    for j in range(1, max_index + 1):
        basis.append(BasisElement(Kind.XMINUS, j))
        basis.append(BasisElement(Kind.XPLUS, j))

    failures = []
    for a in basis:
        ea = embed_basis(a)
        for b in basis:
            lhs = embed(bracket(generator(a.kind, a.index), generator(b.kind, b.index)))
            rhs = matrix_bracket(ea, embed_basis(b))
            if lhs != rhs:
                failures.append((a, b))
    return failures
