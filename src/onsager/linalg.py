"""Exact sparse elimination over the rationals.

A vector is a dict from ordered keys to rational coefficients: the
``coeffs`` of any element (PBW words, h-indices), used as they are.
``rref`` reduces the inputs in order against pivot rows keyed by their
largest key, which is sparse row echelon under that order (the linear
algebra of Faugère's F4).  Each pivot row is scaled to lead 1 and
carries the combination of input positions it equals, so an input that
reduces to zero yields its dependency at once.

An input reduces to zero exactly when it lies in the span of the earlier
inputs, i.e. when it is a free column of the dense reduced echelon form
taken in input order.  The pivot set, the particular solution (free
variables 0) and the kernel vectors are therefore the dense ones.
"""

from __future__ import annotations

from fractions import Fraction

Vector = dict  # key -> coefficient, zeros dropped
Pivots = dict  # lead key -> (row with lead 1, {input position: coefficient})


def _add_multiple(acc: Vector, f, vec: Vector) -> None:
    """acc += f * vec in place, dropping the entries that cancel."""
    for k, c in vec.items():
        v = acc.get(k, 0) + f * c
        if v:
            acc[k] = v
        else:
            acc.pop(k, None)


def _reduce(pivots: Pivots, vec: Vector) -> tuple[Vector, Vector]:
    """Cancel the lead of vec against pivots until none matches.

    Returns (rest, used) with vec = rest + sum of used[i] * input i.
    """
    rest, used = dict(vec), {}
    while rest:
        lead = max(rest)
        pivot = pivots.get(lead)
        if pivot is None:
            break
        row, combo = pivot
        f = rest[lead]
        _add_multiple(rest, -f, row)
        _add_multiple(used, f, combo)
    return rest, used


def rref(vectors: list[Vector]) -> tuple[Pivots, list[Vector]]:
    """Row echelon form of the inputs; returns (pivots, kernel).

    Each kernel vector is the vanishing combination of one dependent
    input with the pivot inputs before it, that input at 1.
    """
    pivots: Pivots = {}
    kernel: list[Vector] = []
    for i, vec in enumerate(vectors):
        rest, used = _reduce(pivots, vec)
        combo = {i: 1}
        _add_multiple(combo, -1, used)
        if not rest:
            kernel.append(combo)
            continue
        lead = max(rest)
        inv = Fraction(1, rest[lead])
        pivots[lead] = ({k: c * inv for k, c in rest.items()},
                        {k: c * inv for k, c in combo.items()})
    return pivots, kernel


def solve_columns(columns: list[Vector], target: Vector) -> tuple[Vector | None, list[Vector]]:
    """Solve sum_i c_i * columns[i] = target; returns (solution, kernel).

    The solution is None when the target is outside the span.  With
    dependent columns it is the one that sets every free (later,
    dependent) column to zero, so earlier candidates are preferred.
    """
    pivots, kernel = rref(columns)
    rest, used = _reduce(pivots, target)
    return (None if rest else used), kernel
