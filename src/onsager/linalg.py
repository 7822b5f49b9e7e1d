"""Exact sparse elimination on integer numerators.

A vector is a dict from ordered keys to integer numerators, read over a
positive denominator of its own: the ``num`` and ``den`` of any element
(PBW words, h-indices), used as they are.  ``rref`` reduces the
numerators in input order against pivot rows keyed by their largest
key, which is sparse row echelon under that order (the linear algebra
of Faugère's F4).  It never divides: a reduction step is the
fraction-free ``rest := a*rest - b*row`` of Bareiss (Math. Comp. 22,
1968), with ``a`` and ``b`` the two leads over their gcd.  Each pivot
row carries the integer combination of input numerators it equals; the
two together are divided by their content, so they are primitive, and
the lead is positive.  An input that reduces to zero yields its
dependency at once.

Rationals appear only at output.  A dependency sum_j c_j * num_j = 0 is
the kernel vector with entries c_j * den_j, divided by its own input's
entry; a target reduced to zero the same way gives the solution against
the target's denominator.

An input reduces to zero exactly when it lies in the span of the earlier
inputs, i.e. when it is a free column of the dense reduced echelon form
taken in input order.  The pivot set, the particular solution (free
variables 0) and the kernel vectors are therefore the dense ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

Vector = dict  # key -> integer numerator, zeros dropped
Pivots = dict  # lead key -> (primitive row, {input position: integer})


def _add_multiple(acc: Vector, f: int, vec: Vector) -> None:
    """acc += f * vec in place, dropping the entries that cancel."""
    for k, c in vec.items():
        v = acc.get(k, 0) + f * c
        if v:
            acc[k] = v
        else:
            del acc[k]


def _reduce(pivots: Pivots, rest: Vector, combo: Vector) -> None:
    """Cancel the lead of rest against pivots, in place, until none matches.

    Each step is rest := a*rest - b*row, and the same on combo, so
    rest = sum of combo[i] * nums[i] holds throughout.
    """
    while rest:
        lead = max(rest)
        pivot = pivots.get(lead)
        if pivot is None:
            return
        row, used = pivot
        r, p = rest[lead], row[lead]
        g = gcd(r, p)
        a, b = p // g, r // g
        if a != 1:
            for vec in (rest, combo):
                for k in vec:
                    vec[k] *= a
        _add_multiple(rest, -b, row)
        _add_multiple(combo, -b, used)


def _quotients(combo: Vector, dens: list[int], own: int, own_den: int) -> Vector:
    """The values combo[j] * dens[j] / (combo[own] * own_den), own left out:
    an ``int`` where integral, else a ``Fraction``."""
    q = combo[own] * own_den
    out = {}
    for j, c in combo.items():
        if j != own:
            n = c * dens[j]
            out[j] = n // q if n % q == 0 else Fraction(n, q)
    return out


def rref(nums: list[Vector], dens: list[int]) -> tuple[Pivots, list[Vector]]:
    """Row echelon form of the inputs nums[i] / dens[i]; returns (pivots, kernel).

    Each kernel vector is the vanishing combination of one dependent
    input with the pivot inputs before it, that input at 1.
    """
    pivots: Pivots = {}
    kernel: list[Vector] = []
    for i, vec in enumerate(nums):
        rest, combo = dict(vec), {i: 1}
        _reduce(pivots, rest, combo)
        if not rest:
            kernel.append({i: 1, **_quotients(combo, dens, i, dens[i])})
            continue
        lead = max(rest)
        g = gcd(*rest.values(), *combo.values())
        if rest[lead] < 0:
            g = -g
        if g != 1:
            rest = {k: c // g for k, c in rest.items()}
            combo = {k: c // g for k, c in combo.items()}
        pivots[lead] = (rest, combo)
    return pivots, kernel


def solve_columns(nums: list[Vector], dens: list[int], target_num: Vector,
                  target_den: int) -> tuple[Vector | None, list[Vector]]:
    """Solve sum_i c_i * nums[i] / dens[i] = target_num / target_den.

    Returns (solution, kernel).  The solution is None when the target
    is outside the span.  With dependent columns it is the one that sets
    every free (later, dependent) column to zero, so earlier candidates
    are preferred.
    """
    pivots, kernel = rref(nums, dens)
    target = len(nums)
    rest, combo = dict(target_num), {target: 1}
    _reduce(pivots, rest, combo)
    if rest:
        return None, kernel
    # m * target_num + sum of combo[j] * nums[j] = 0, with m = combo[target]
    return _quotients(combo, dens, target, -target_den), kernel
