from fractions import Fraction

from hypothesis import given, settings, strategies as st

from onsager.linalg import rref, solve_columns

# few keys and small coefficients, so that dependencies are common
KEYS = st.integers(0, 5)
COEFFS = st.integers(-3, 3).filter(bool)
VECTORS = st.lists(st.dictionaries(KEYS, COEFFS, max_size=4), max_size=9)


def combine(coeffs: dict, vectors: list) -> dict:
    """sum of coeffs[i] * vectors[i], zeros dropped."""
    out: dict = {}
    for i, f in coeffs.items():
        for k, c in vectors[i].items():
            out[k] = out.get(k, 0) + f * c
    return {k: c for k, c in out.items() if c}


def exact(vec: dict) -> bool:
    return all(isinstance(c, (int, Fraction)) for c in vec.values())


@given(VECTORS)
@settings(deadline=None)
def test_rref_certifies_rank(vectors):
    pivots, kernel = rref(vectors)
    assert len(pivots) + len(kernel) == len(vectors)
    # pivot rows have distinct leads at 1, so they are independent ...
    for lead, (row, combo) in pivots.items():
        assert max(row) == lead and row[lead] == 1
        assert exact(row) and exact(combo)
        assert combine(combo, vectors) == row
    # ... and each dependent input carries its own vanishing combination
    owners = []
    for vec in kernel:
        own = max(vec)
        assert vec[own] == 1 and exact(vec)
        assert combine(vec, vectors) == {}
        owners.append(own)
    assert len(set(owners)) == len(owners)


@given(VECTORS, st.lists(st.integers(-2, 2), max_size=9))
@settings(deadline=None)
def test_solve_columns_reproduces_targets_in_the_span(vectors, weights):
    coeffs = {i: w for i, w in enumerate(weights[:len(vectors)]) if w}
    target = combine(coeffs, vectors)
    solution, kernel = solve_columns(vectors, target)
    assert solution is not None and exact(solution)
    assert combine(solution, vectors) == target
    # free columns (the dependent inputs) stay at zero
    assert not set(solution) & {max(vec) for vec in kernel}
    assert len(kernel) == len(rref(vectors)[1])


@given(VECTORS, COEFFS)
@settings(deadline=None)
def test_solve_columns_rejects_a_fresh_key(vectors, c):
    solution, _ = solve_columns(vectors, {6: c})
    assert solution is None
