"""Concrete realization inside the sl2 loop algebra.

2x2 traceless matrices over Laurent polynomials with Gaussian-rational
coefficients.  This module is a test oracle only: the abstract layer in
``lie.py`` never calls into it, which is what makes the structure
constant cross-checks meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lie import BasisElement, Kind, LieElement, LinComb, bracket, generator


class LaurentPoly(LinComb):
    """Laurent polynomial with Gaussian-rational coefficients: the key
    ``(e, r)``, with r in {0, 1}, stands for i^r * t^e."""

    __slots__ = ()

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        """Keyed product: exponents add, and i*i = -1."""
        out: dict = {}
        for (ea, ra), na in self.num.items():
            for (eb, rb), nb in other.num.items():
                k = (ea + eb, ra ^ rb)
                c = -na * nb if ra & rb else na * nb
                old = out.get(k)
                out[k] = c if old is None else old + c
        return self.over(out, self.den * other.den)

    def invert_t(self) -> "LaurentPoly":
        """Substitute t -> 1/t."""
        return self._raw({(-e, r): n for (e, r), n in self.num.items()}, self.den)

    def __repr__(self):
        """Each exponent as ``(re±imi)*t^e``, exponents ascending."""
        if self.is_zero:
            return "0"
        coeffs = self.coeffs
        parts = []
        for e in sorted({e for e, _ in coeffs}):
            re, im = coeffs.get((e, 0), 0), coeffs.get((e, 1), 0)
            parts.append(f"({re}{'+' if im >= 0 else '-'}{abs(im)}i)*t^{e}")
        return " + ".join(parts)


LP0 = LaurentPoly()


def tpow(e: int, c: int = 1, r: int = 0) -> LaurentPoly:
    """c * i^r * t^e."""
    return LaurentPoly({(e, r): c})


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

# the constants 1 and i
ONE, IMAG = tpow(0), tpow(0, r=1)

# sl2 raising generator with constant entries
X_PLUS = LoopMatrix(a12=ONE)

# Fixed-point sl2 frame: h = -i(x+ - x-), x(+/-) = (x+ + x- -/+ ih)/2
H_GAMMA = LoopMatrix(a12=-IMAG, a21=IMAG)
X_GAMMA_PLUS = LoopMatrix(-IMAG.divide(2), ONE.divide(2), ONE.divide(2), IMAG.divide(2))
X_GAMMA_MINUS = LoopMatrix(IMAG.divide(2), ONE.divide(2), ONE.divide(2), -IMAG.divide(2))


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
    for b, n in a.num.items():
        out = out + embed_basis(b).scale_poly(tpow(0, n))
    return out.scale_poly(ONE.divide(a.den))


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
    half = t_minus(l).divide(2)
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
