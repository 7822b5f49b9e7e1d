"""Exact sparse elimination on integer numerators.

A vector is a dict from ordered keys to integer numerators, read over a
positive denominator of its own: the ``num`` and ``den`` of any element
(PBW words, h-indices), used as they are.  ``rref`` reduces the
numerators in input order against pivot rows keyed by their largest
key, which is sparse row echelon under that order (the linear algebra
of Faugère's F4).  It never divides: a reduction step is the
fraction-free ``rest := a*rest - b*row`` of Bareiss (Math. Comp. 22,
1968), with ``a`` and ``b`` the two leads over their gcd.  In ``rref``
each pivot row carries the integer combination of input numerators it
equals, and an input that reduces to zero yields its dependency at
once; ``independent``, for ranks alone, keeps the rows only.  A pivot
is divided by its content, so it is primitive, and its lead is positive.

Rationals appear only at output.  A dependency sum_j c_j * num_j = 0 is
the kernel vector with entries c_j * den_j, divided by its own input's
entry.  ``solve`` reduces a target against ``rref``'s pivots as if it
were one more input, without keeping it: a target in the span reaches
zero, and its dependency, negated, is the solution.  ``solve_columns``
is the two in turn.

An input reduces to zero exactly when it lies in the span of the earlier
inputs, i.e. when it is a free column of the dense reduced echelon form
taken in input order.  The pivot set, the particular solution (free
variables 0) and the kernel vectors are therefore the dense ones.  The
pivot inputs are independent, so a target's combination of them is
unique: it lies in the span of the first n inputs exactly when that
combination uses none of the later ones.  The pivot inputs of a prefix
of the inputs are the pivot inputs of the whole that fall in it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd

Vector = dict  # key -> integer numerator, zeros dropped
Pivots = dict  # lead key -> (primitive row,), in rref (row, {input position: integer})


def _add_multiple(acc: Vector, f: int, vec: Vector) -> None:
    """acc += f * vec in place, dropping the entries that cancel."""
    for k, c in vec.items():
        v = acc.get(k, 0) + f * c
        if v:
            acc[k] = v
        else:
            del acc[k]


def _reduce(pivots: Pivots, vecs: tuple[Vector, ...]):
    """Cancel the lead of vecs[0] against pivots, in place, until none
    matches.  Returns the lead left, or None when vecs[0] reaches zero.

    Each step is vec := a*vec - b*row on every vector and its pivot row,
    so for (rest, combo) rest = sum of combo[i] * nums[i] holds throughout.
    """
    rest = vecs[0]
    while rest:
        lead = max(rest)
        pivot = pivots.get(lead)
        if pivot is None:
            return lead
        r, p = rest[lead], pivot[0][lead]
        g = gcd(r, p)
        a, b = p // g, r // g
        for vec, row in zip(vecs, pivot):
            if a != 1:
                for k in vec:
                    vec[k] *= a
            _add_multiple(vec, -b, row)
    return None


def _add_row(pivots: Pivots, vecs: tuple[Vector, ...]) -> bool:
    """Reduce vecs[0] against pivots; unless it reaches zero, store the
    vectors as the pivot under its lead, divided by their joint content,
    lead positive.  Returns whether a pivot was added."""
    lead = _reduce(pivots, vecs)
    if lead is None:
        return False
    g = gcd(*chain.from_iterable(map(dict.values, vecs)))
    if vecs[0][lead] < 0:
        g = -g
    if g != 1:
        vecs = tuple({k: c // g for k, c in vec.items()} for vec in vecs)
    pivots[lead] = vecs
    return True


def independent(nums: list[Vector]) -> list[bool]:
    """Whether each input is a pivot input, outside the span of the inputs
    before it: ``rref``'s rows alone, with no input combinations, kernel or
    denominators."""
    pivots: Pivots = {}
    return [_add_row(pivots, (dict(vec),)) for vec in nums]


def _quotients(combo: Vector, dens: list[int], q: int) -> Vector:
    """The values combo[j] * dens[j] / q: an ``int`` where integral, else a
    ``Fraction``."""
    out = {}
    for j, c in combo.items():
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
        combo = {i: 1}
        if not _add_row(pivots, (dict(vec), combo)):
            q = combo.pop(i) * dens[i]
            kernel.append({i: 1, **_quotients(combo, dens, q)})
    return pivots, kernel


def solve(pivots: Pivots, dens: list[int], target_num: Vector, target_den: int,
          n: int) -> Vector | None:
    """The combination sum_j c_j * nums[j] / dens[j] of ``rref``'s pivot
    inputs that equals target_num / target_den, as {j: c_j} with no zero,
    or None when the target is outside the span of the first n inputs."""
    combo = {-1: 1}  # the target, at a position no input has
    if _reduce(pivots, (dict(target_num), combo)) is not None:
        return None
    q = combo.pop(-1) * target_den
    if combo and max(combo) >= n:
        return None
    # combo[-1] * target_num + sum of combo[j] * nums[j] = 0, so c_j is
    # -combo[j] * dens[j] / (combo[-1] * target_den)
    return {j: -c for j, c in _quotients(combo, dens, q).items()}


def solve_columns(nums: list[Vector], dens: list[int], target_num: Vector,
                  target_den: int) -> tuple[Vector | None, list[Vector]]:
    """Solve sum_i c_i * nums[i] / dens[i] = target_num / target_den.

    Returns (solution, kernel).  The solution is None when the target
    is outside the span.  With dependent columns it is the one that sets
    every free (later, dependent) column to zero, so earlier candidates
    are preferred.
    """
    pivots, kernel = rref(nums, dens)
    return solve(pivots, dens, target_num, target_den, len(nums)), kernel
