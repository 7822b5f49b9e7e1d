"""The theorem audit and coordinates through the triangular decomposition.

``audit_theorem`` and ``coordinates`` expand and eliminate only the
Lambda block and read every block (x- part, x+ part) off its prefixes.
The full route, which expands every candidate and eliminates them all at
once, is kept here as the oracle they are held against.
"""

import contextlib
import hashlib
import io
import math

import pytest

from onsager import caches, linalg
from onsager.cli import _eval_arg, main
from onsager.elements import lambda_rec
from onsager.lie import BasisElement, Kind
from onsager.straighten import (
    AmbiguousSolution,
    OutOfTruncation,
    candidate_count,
    coordinates,
    enumerate_basis,
    expand_word,
    lambda_block,
    lambda_prefix,
)
from onsager.uea import leading_word, pbw_normal_form
from onsager.verify import SuiteConfig, audit_theorem


def full_audit(max_mdegree, max_index):
    """(count, rank, collisions) from every candidate's expansion: one
    ``independent`` for the rank, leading words in enumeration order."""
    basis = enumerate_basis(max_mdegree, max_index)
    expansions = [expand_word(w) for w in basis]
    rank = sum(linalg.independent([e.num for e in expansions]))
    seen, collisions = {}, []
    for word, e in zip(basis, expansions):
        lead = max(e.num, key=lambda w: (len(w), w))
        if lead in seen:
            collisions.append((seen[lead], word))
        else:
            seen[lead] = word
    return len(basis), rank, collisions


def full_coordinates(a, max_mdegree, max_index):
    """``coordinates`` by one ``solve_columns`` over every candidate's expansion."""
    basis = enumerate_basis(max_mdegree, max_index)
    expansions = [expand_word(w) for w in basis]
    target = pbw_normal_form(a)
    solution, kernel = linalg.solve_columns([e.num for e in expansions],
                                            [e.den for e in expansions],
                                            target.num, target.den)
    if solution is None:
        raise OutOfTruncation(f"no expression within mdegree {max_mdegree}, index {max_index}")
    coords = {basis[i]: c for i, c in sorted(solution.items())}
    if kernel:
        raise AmbiguousSolution(
            coords, [{basis[i]: c for i, c in sorted(v.items())} for v in kernel])
    return coords


def outcome(solver, a, max_mdegree, max_index):
    """The exception type and message or kernel dimension, the solution
    (or particular solution) and the kernel vectors: every dict's items
    in order, each value with its type."""
    def items(vec):
        return [(k, type(c), c) for k, c in vec.items()]

    try:
        coords = solver(a, max_mdegree, max_index)
    except OutOfTruncation as exc:
        return OutOfTruncation, str(exc), None, None
    except AmbiguousSolution as exc:
        return (AmbiguousSolution, len(exc.kernel), items(exc.particular),
                [items(v) for v in exc.kernel])
    return None, None, items(coords), None


@pytest.mark.parametrize("bounds", [(3, 3), (4, 2), (4, 4)])
def test_audit_matches_the_full_route(bounds):
    caches.clear_all()
    report = audit_theorem(*bounds)
    assert (report.count, report.rank, report.collisions) == full_audit(*bounds)


@pytest.mark.parametrize("expr, bounds, kind", [
    # the three `coords` commands of the benchmark's audit-coords workload
    ("xp(1)*xm(1)", (2, 1), None),
    ("xp(1)*xm(1)", (3, 3), AmbiguousSolution),
    ("dp(xp(1),2)*dp(xm(1),2)", (4, 2), OutOfTruncation),
    ("h(6)", (1, 1), OutOfTruncation),
    ("1/2*xp(1)", (2, 2), None),
    ("lam(2,1,2)*xp(1)", (3, 2), None),
    ("lam(3,1,2)+xm(1)*xp(2)", (4, 3), AmbiguousSolution),
    ("xp(1)*xm(1)", (4, 4), AmbiguousSolution),
    # in the Lambda block's span, but only past its block's budget of 1
    ("lam(1,1,2)*xp(1)", (2, 1), OutOfTruncation),
    # x parts with orders above 1, whose factorials scale the solution
    ("dp(xp(1),2)*dp(xm(1),2)", (4, 3), AmbiguousSolution),
])
def test_coordinates_match_the_full_route(expr, bounds, kind):
    caches.clear_all()
    a = _eval_arg(expr)
    got = outcome(coordinates, a, *bounds)
    assert got[0] is kind
    assert got == outcome(full_coordinates, a, *bounds)
    if bounds == (4, 4):
        assert got[1] == 3097


@pytest.mark.parametrize("bounds", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2), (4, 3)])
def test_coords_and_audit_agree_on_the_kernel(bounds):
    """Both read the candidates' dependency off the same lift: coordinates
    exist exactly when the audit finds no codimension, and otherwise the
    kernel has the codimension's dimension."""
    caches.clear_all()
    codimension = audit_theorem(*bounds).codimension
    a = _eval_arg("xp(1)*xm(1)")
    if codimension == 0:
        assert coordinates(a, *bounds)
    else:
        with pytest.raises(AmbiguousSolution) as exc:
            coordinates(a, *bounds)
        assert len(exc.value.kernel) == codimension
    assert codimension == {(3, 3): 77, (4, 3): 351}.get(bounds, 0)


def test_codimension_is_the_lambda_blocks_summed_over_the_blocks():
    """codim(M, N) = sum of n(d-) n(d+) codim_Lambda(M - d- - d+), with
    n(d) = C(d + N - 1, N - 1) x parts of degree d on each side."""
    def codimension(max_mdegree, max_index):
        block = lambda_block(max_mdegree, max_index)
        independent = linalg.independent([expand_word(w).num for w in block])
        codim = [lambda_prefix(b, max_index) - sum(independent[:lambda_prefix(b, max_index)])
                 for b in range(max_mdegree + 1)]
        n = [math.comb(d + max_index - 1, max_index - 1) for d in range(max_mdegree + 1)]
        return sum(n[dm] * n[dp] * codim[max_mdegree - dm - dp]
                   for dm in range(max_mdegree + 1) for dp in range(max_mdegree + 1 - dm))

    assert codimension(3, 3) == 77
    assert codimension(5, 4) == 15_864
    # the (5,4) audit's report, with 33,649 candidates of rank 17,785
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["audit", "theorem", "--mdegree", "5", "--index", "4",
                     "--format", "json"]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == (
        "0a0153ef786fadc238148e36f9d5d198c00e8fb9c46f9a0b73469f9dd7d21376")


@pytest.mark.parametrize("j, l", [(j, l) for j in range(1, 6) for l in range(1, j + 1)])
def test_lambda_leads_with_a_power_of_h_of_the_sum(j, l):
    """Lambda_{j,l,k} leads with h_{j+l}^k: its degree-k part is
    (h_{j-l} - h_{j+l})^k / k!, and words of one length are ordered so
    that, at the first index where two differ, fewer copies win."""
    for k in range(5):
        assert leading_word(lambda_rec(j, l, k)) == (BasisElement(Kind.H, j + l),) * k


@pytest.mark.parametrize("bounds", [(3, 3), (4, 3), (4, 4), (5, 4)])
def test_collisions_are_the_candidates_past_the_distinct_leads(bounds):
    """Leads multiply, so the all-pairs candidates lead with the monomials
    in the 2N x slots and the 2N - 1 letters h_2 .. h_2N: C(4N - 1 + M, M)
    distinct leading words, and every other candidate collides."""
    max_mdegree, max_index = bounds
    distinct = math.comb(4 * max_index - 1 + max_mdegree, max_mdegree)
    assert len(audit_theorem(*bounds).collisions) == candidate_count(*bounds) - distinct


def test_candidate_count_bounds_the_enumeration():
    assert candidate_count(3, 3) == len(enumerate_basis(3, 3)) == 455
    assert candidate_count(7, 4) == 480_700
    # (8,5) would list 13,884,156 candidates; it is refused before any is
    for call in (enumerate_basis, audit_theorem, lambda b, i: coordinates(_eval_arg("h(1)"), b, i),
                 lambda b, i: SuiteConfig(max_index=i, max_order=b).validate()):
        with pytest.raises(ValueError, match="13884156 candidate monomials on 25 slots"):
            call(8, 5)
        with pytest.raises(ValueError, match="bounds must be"):
            call(-1, 2)
    # one candidate, but listing it would walk every one of the 2,005,000 slots
    assert candidate_count(0, 995) == 1
    with pytest.raises(ValueError, match="1 candidate monomials on 2005000 slots"):
        coordinates(_eval_arg("h(1)"), 0, 2000)
