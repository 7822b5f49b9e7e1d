"""Concrete realization inside the sl2 loop algebra.

2x2 traceless matrices over Laurent polynomials with Gaussian-rational
coefficients, each one sparse combination: the key ``(row, col, e, r)``,
with row, col and r in {0, 1}, stands for i^r * t^e in entry (row, col).
Sums, scaling and equality are ``LinComb``'s; ``@`` is the one product.
This module is a test oracle only: the abstract layer in ``lie.py``
never calls into it, which is what makes the structure constant
cross-checks meaningful.
"""

from __future__ import annotations

from .lie import BasisElement, Kind, LieElement, LinComb, add_scaled, bracket_basis


class LaurentPoly(LinComb):
    """One matrix entry: the key ``(e, r)``, with r in {0, 1}, stands for
    i^r * t^e."""

    __slots__ = ()

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


class LoopMatrix(LinComb):
    """2x2 matrix over Gaussian-rational Laurent polynomials."""

    __slots__ = ()

    def __matmul__(self, other: "LoopMatrix") -> "LoopMatrix":
        """Matrix product: exponents add, and i*i = -1."""
        rows: dict = {}
        for (k, j, e, r), n in other.num.items():
            rows.setdefault(k, []).append((j, e, r, n))
        out: dict = {}
        for (i, k, ea, ra), na in self.num.items():
            add_scaled(out, na, (((i, j, ea + eb, ra ^ rb), -nb if ra & rb else nb)
                                 for j, eb, rb, nb in rows.get(k, ())))
        return self.over(out, self.den * other.den)

    def entry(self, row: int, col: int) -> LaurentPoly:
        """Entry (row, col) in lowest terms."""
        return LaurentPoly.over({(e, r): n for (i, j, e, r), n in self.num.items()
                                 if i == row and j == col}, self.den)

    a11 = property(lambda self: self.entry(0, 0))
    a12 = property(lambda self: self.entry(0, 1))
    a21 = property(lambda self: self.entry(1, 0))
    a22 = property(lambda self: self.entry(1, 1))

    def __repr__(self):
        """The two rows, each ``[ left   right ]``."""
        return "\n".join("[ " + "   ".join(repr(self.entry(i, j)) for j in (0, 1)) + " ]"
                         for i in (0, 1))


def tpow(e: int) -> LoopMatrix:
    """t^e times the identity."""
    return LoopMatrix._raw({(0, 0, e, 0): 1, (1, 1, e, 0): 1}, 1)


def t_plus(k: int) -> LoopMatrix:
    """(t^k + t^-k) times the identity."""
    return tpow(k) + tpow(-k)


def t_minus(k: int) -> LoopMatrix:
    """(t^k - t^-k) times the identity."""
    return tpow(k) - tpow(-k)


# sl2 Cartan element diag(1, -1), with constant entries
H_SL2 = LoopMatrix({(0, 0, 0, 0): 1, (1, 1, 0, 0): -1})

# Fixed-point sl2 frame: h = -i(x+ - x-), x(+/-) = (x+ + x- -/+ ih)/2
H_GAMMA = LoopMatrix({(0, 1, 0, 1): -1, (1, 0, 0, 1): 1})
X_GAMMA_PLUS = LoopMatrix.over(
    {(0, 0, 0, 1): -1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1, (1, 1, 0, 1): 1}, 2)
X_GAMMA_MINUS = LoopMatrix.over(
    {(0, 0, 0, 1): 1, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1, (1, 1, 0, 1): -1}, 2)

# each family's frame element and the Laurent factor of its index
_FRAME = {Kind.H: (H_GAMMA, t_plus), Kind.XPLUS: (X_GAMMA_PLUS, t_minus),
          Kind.XMINUS: (X_GAMMA_MINUS, t_minus)}


def embed_basis(b: BasisElement) -> LoopMatrix:
    frame, factor = _FRAME[b.kind]
    return frame @ factor(b.index)


def embed(a: LieElement | BasisElement) -> LoopMatrix:
    if isinstance(a, BasisElement):
        return embed_basis(a)
    return LoopMatrix.combine(((n, embed_basis(b)) for b, n in a.num.items()), a.den)


def matrix_bracket(a: LoopMatrix, b: LoopMatrix) -> LoopMatrix:
    return (a @ b) - (b @ a)


def sigma(m: LoopMatrix) -> LoopMatrix:
    """Diagonal involution: negative transpose on sl2, t -> 1/t."""
    return LoopMatrix._raw({(j, i, -e, r): -n for (i, j, e, r), n in m.num.items()}, m.den)


def omega(m: LoopMatrix) -> LoopMatrix:
    """Chevalley involution: swap-conjugation on sl2, t -> 1/t."""
    return LoopMatrix._raw({(1 - i, 1 - j, -e, r): n for (i, j, e, r), n in m.num.items()},
                           m.den)


def onsager_A(m: int) -> LoopMatrix:
    """x+ (x) t^m + x- (x) t^-m."""
    return LoopMatrix({(0, 1, m, 0): 1, (1, 0, -m, 0): 1})


def onsager_G(l: int) -> LoopMatrix:
    """(1/2) h (x) (t^l - t^-l)."""
    return (H_SL2 @ t_minus(l)).divide(2)


def _basis(max_index: int) -> list[BasisElement]:
    return ([BasisElement(Kind.H, k) for k in range(max_index + 1)]
            + [BasisElement(kind, j) for j in range(1, max_index + 1)
               for kind in (Kind.XMINUS, Kind.XPLUS)])


def verify_structure_constants(max_index: int):
    """Compare the abstract bracket with the matrix commutator on all
    basis pairs with indices up to ``max_index``.  Returns a list of
    failing (a, b) pairs (empty on success)."""
    basis = _basis(max_index)
    # each basis element embedded once; a bracket's indices reach 2 * max_index
    images = {b: embed_basis(b) for b in _basis(2 * max_index)}
    failures = []
    for a in basis:
        for b in basis:
            br = bracket_basis(a, b)
            lhs = LoopMatrix.combine(((n, images[g]) for g, n in br.num.items()), br.den)
            if lhs != matrix_bracket(images[a], images[b]):
                failures.append((a, b))
    return failures
