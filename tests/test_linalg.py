import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from onsager.expr import evaluate, parse
from onsager.linalg import independent, rref, solve_columns
from onsager.straighten import enumerate_basis, expand_word
from onsager.uea import UEAElement, pbw_normal_form

# few keys and small coefficients, so that dependencies are common
KEYS = st.integers(0, 5)
COEFFS = st.integers(-3, 3).filter(bool)
DENS = st.integers(1, 6)
NUMS = st.lists(st.dictionaries(KEYS, COEFFS, max_size=4), max_size=9)


@st.composite
def inputs(draw):
    """Integer numerator vectors with a denominator each, 1 to 6."""
    nums = draw(NUMS)
    dens = draw(st.lists(DENS, min_size=len(nums), max_size=len(nums)))
    return nums, dens


def true_values(nums: list, dens: list) -> list:
    return [{k: Fraction(n, d) for k, n in vec.items()} for vec, d in zip(nums, dens)]


def combine(coeffs: dict, vectors: list) -> dict:
    """sum of coeffs[i] * vectors[i], zeros dropped."""
    out: dict = {}
    for i, f in coeffs.items():
        for k, c in vectors[i].items():
            out[k] = out.get(k, 0) + f * c
    return {k: c for k, c in out.items() if c}


def exact(vec: dict) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in vec.values())


# ---------------------------------------------------------------------------
# The reference: the same elimination in Fraction arithmetic on the true
# values, each pivot row scaled to lead 1.

def _ref_reduce(pivots: dict, vec: dict) -> tuple[dict, dict]:
    rest, used = dict(vec), {}
    while rest:
        lead = max(rest)
        pivot = pivots.get(lead)
        if pivot is None:
            break
        row, combo = pivot
        f = rest[lead]
        for acc, g, v in ((rest, -f, row), (used, f, combo)):
            for k, c in v.items():
                s = acc.get(k, 0) + g * c
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
    return rest, used


def ref_rref(vectors: list) -> tuple[dict, list]:
    pivots: dict = {}
    kernel: list = []
    for i, vec in enumerate(vectors):
        rest, used = _ref_reduce(pivots, vec)
        combo = {i: 1}
        for k, c in used.items():
            combo[k] = -c
        if not rest:
            kernel.append(combo)
            continue
        lead = max(rest)
        inv = Fraction(1, rest[lead])
        pivots[lead] = ({k: c * inv for k, c in rest.items()},
                        {k: c * inv for k, c in combo.items()})
    return pivots, kernel


def ref_solve_columns(columns: list, target: dict) -> tuple[dict | None, list]:
    pivots, kernel = ref_rref(columns)
    rest, used = _ref_reduce(pivots, target)
    return (None if rest else used), kernel


def assert_matches_reference(nums: list, dens: list, target=None):
    """Pivot keys, kernel and (for a target) solution == the reference's;
    returns (solution, kernel)."""
    pivots, kernel = rref(nums, dens)
    ref_pivots, ref_kernel = ref_rref(true_values(nums, dens))
    assert set(pivots) == set(ref_pivots)
    assert kernel == ref_kernel
    solution = None
    if target is not None:
        target_num, target_den = target
        solution, _ = solve_columns(nums, dens, target_num, target_den)
        ref_solution, _ = ref_solve_columns(true_values(nums, dens),
                                            true_values([target_num], [target_den])[0])
        assert solution == ref_solution
    return solution, kernel


@given(inputs(), st.dictionaries(KEYS, COEFFS, max_size=4), DENS)
@settings(deadline=None)
def test_rref_matches_the_fraction_reference(data, target_num, target_den):
    nums, dens = data
    assert_matches_reference(nums, dens, (target_num, target_den))
    # the rank-only elimination flags as dependent the reference's kernel owners
    dependent = {max(vec) for vec in ref_rref(true_values(nums, dens))[1]}
    assert independent(nums) == [i not in dependent for i in range(len(nums))]


@pytest.mark.parametrize("bounds", [(3, 3), (4, 2)])
def test_rref_matches_the_fraction_reference_on_expansions(bounds):
    expansions = [expand_word(w) for w in enumerate_basis(*bounds)]
    assert_matches_reference([e.num for e in expansions], [e.den for e in expansions])


@pytest.mark.parametrize("expr, bounds, outcome", [
    ("xp(1)*xm(1)", (2, 1), "unique"),
    ("xp(1)*xm(1)", (3, 3), "ambiguous"),
    ("dp(xp(1),2)*dp(xm(1),2)", (4, 2), "outside"),
])
def test_solve_columns_matches_the_fraction_reference_on_coords(expr, bounds, outcome):
    expansions = [expand_word(w) for w in enumerate_basis(*bounds)]
    nums, dens = [e.num for e in expansions], [e.den for e in expansions]
    target = pbw_normal_form(evaluate(parse(expr)))
    solution, kernel = assert_matches_reference(nums, dens, (target.num, target.den))
    assert outcome == ("outside" if solution is None else
                       "ambiguous" if kernel else "unique")
    if outcome == "ambiguous":
        assert len(kernel) == 77


@given(inputs())
@settings(deadline=None)
def test_rref_certifies_rank(data):
    nums, dens = data
    vectors = true_values(nums, dens)
    pivots, kernel = rref(nums, dens)
    assert len(pivots) + len(kernel) == len(vectors)
    # pivot rows have distinct positive leads, so they are independent;
    # each is primitive together with its integer combination of the
    # numerators, which it equals
    for lead, (row, combo) in pivots.items():
        assert max(row) == lead and row[lead] > 0
        assert all(type(c) is int for c in [*row.values(), *combo.values()])
        assert math.gcd(*row.values(), *combo.values()) == 1
        assert combine(combo, nums) == row
    # ... and each dependent input carries its own vanishing combination
    owners = []
    for vec in kernel:
        own = max(vec)
        assert vec[own] == 1 and exact(vec)
        assert combine(vec, vectors) == {}
        owners.append(own)
    assert len(set(owners)) == len(owners)


@given(inputs(), st.lists(st.integers(-2, 2), max_size=9))
@settings(deadline=None)
def test_solve_columns_reproduces_targets_in_the_span(data, weights):
    nums, dens = data
    vectors = true_values(nums, dens)
    coeffs = {i: w for i, w in enumerate(weights[:len(vectors)]) if w}
    target = combine(coeffs, vectors)
    target_den = math.lcm(*(c.denominator for c in target.values()))
    target_num = {k: int(c * target_den) for k, c in target.items()}
    solution, kernel = solve_columns(nums, dens, target_num, target_den)
    assert solution is not None and exact(solution)
    assert combine(solution, vectors) == target
    # free columns (the dependent inputs) stay at zero
    assert not set(solution) & {max(vec) for vec in kernel}
    assert len(kernel) == len(rref(nums, dens)[1])


@given(inputs(), COEFFS, DENS)
@settings(deadline=None)
def test_solve_columns_rejects_a_fresh_key(data, c, den):
    nums, dens = data
    solution, kernel = solve_columns(nums, dens, {6: c}, den)
    assert solution is None
    # the out-of-span target adds no dependency and drops none
    assert kernel == rref(nums, dens)[1]


# ---------------------------------------------------------------------------
# A rank certificate that does not trust the eliminator.

PRIME = 2**31 - 1


def rank_mod_p(nums: list) -> int:
    """Rank of the integer vectors over GF(PRIME), at most their rank over Q."""
    pivots: dict = {}
    for vec in nums:
        rest = {k: n % PRIME for k, n in vec.items() if n % PRIME}
        while rest:
            lead = max(rest)
            row = pivots.get(lead)
            if row is None:
                inv = pow(rest[lead], -1, PRIME)
                pivots[lead] = {k: c * inv % PRIME for k, c in rest.items()}
                break
            f = rest[lead]
            for k, c in row.items():
                v = (rest.get(k, 0) - f * c) % PRIME
                if v:
                    rest[k] = v
                else:
                    rest.pop(k, None)
    return len(pivots)


def test_rank_certificate_at_4_4():
    expansions = [expand_word(w) for w in enumerate_basis(4, 4)]
    nums = [e.num for e in expansions]
    pivots, kernel = rref(nums, [e.den for e in expansions])
    # lower bound: rank over GF(p) <= rank over Q
    assert rank_mod_p(nums) == len(pivots) == sum(independent(nums))
    # upper bound: independent kernel vectors (distinct owners, each the
    # largest input it uses) that really vanish
    assert len({max(vec) for vec in kernel}) == len(kernel)
    assert len(pivots) + len(kernel) == len(expansions)
    for vec in kernel:
        scale = math.lcm(*(Fraction(c).denominator for c in vec.values()))
        terms = [(int(c * scale), expansions[i]) for i, c in vec.items()]
        assert UEAElement.combine(terms).is_zero

