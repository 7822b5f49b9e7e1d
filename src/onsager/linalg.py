"""Exact dense linear algebra over the rationals.

Small and boring on purpose: reduced row echelon form, rank, kernel
bases, and a solver that reports whether the solution is unique.  Sizes
here are at most a few hundred columns, so no sparsity tricks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

Row = list[Fraction]


def rref(matrix: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: list[Row]) -> int:
    return len(rref(matrix)[1])


@dataclass
class SolveResult:
    consistent: bool
    solution: list[Fraction] | None = None
    unique: bool = True
    kernel: list[list[Fraction]] = field(default_factory=list)


def solve_columns(columns: list[Row], target: Row) -> SolveResult:
    """Solve sum_i c_i * columns[i] = target.

    When the columns are dependent but the system is consistent, the
    returned particular solution sets all free variables to zero (free
    variables are the later columns, so earlier candidates are
    preferred) and a kernel basis is attached.
    """
    ncols = len(columns)
    nrows = len(target)
    aug = [[columns[c][r] for c in range(ncols)] + [target[r]] for r in range(nrows)]
    rows, pivots = rref(aug)
    if ncols in pivots:
        return SolveResult(consistent=False)
    pivots = [p for p in pivots if p < ncols]
    solution = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        solution[p] = rows[i][ncols]
    free = [c for c in range(ncols) if c not in set(pivots)]
    kernel = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][f]
        kernel.append(vec)
    return SolveResult(True, solution, unique=not free, kernel=kernel)
