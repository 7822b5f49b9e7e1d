"""Identity catalog and structural audits.

Every named identity of the construction is a tagged check taking its
parameters as keyword arguments, evaluated by exact expansion to PBW
normal form.  One grid table, in report order, gives each tag its check
and the axes its parameters run over.  Failures are report content
carrying both sides of the offending instance; they are never raised.
The audits quantify structural facts (spans, ranks, triangularity) and
report findings rather than assuming them.
"""

from __future__ import annotations

import itertools
import time
from typing import NamedTuple

from . import linalg, loop
from .lie import LieElement, bracket, generator, h, xminus, xplus
from .uea import (
    UEAElement,
    UEA_ZERO,
    divided_power,
    from_lie,
    multiply,
)
from .elements import (
    binom,
    bracket_x_lambda1,
    d1_closed,
    d1_rec,
    d_triple,
    duv_multinomial,
    duv_rec,
    duv_series,
    lambda1,
    lambda_rec,
    lambda_series,
    p_closed,
    p_def,
    p_via_lambda_even,
    p_via_lambda_odd,
)
from .straighten import (
    NoLambdaExpression,
    XFactor,
    candidate_count,
    expand,
    expand_word,
    duv_mform,
    lfactor,
    mdegree,
    merge_lambda_pair,
    monomial,
    move_x_past_lambda,
    normalize_to_basis,
    rank_and_collisions,
    straighten_plus_minus,
)


class InstanceResult(NamedTuple):
    tag: str
    params: dict
    passed: bool
    counterexample: tuple[UEAElement, UEAElement] | None
    elapsed: float


class SuiteReport(NamedTuple):
    config: SuiteConfig
    results: list[InstanceResult]

    @property
    def n_pass(self) -> int:
        return sum(1 for r in self.results if r.passed)

    @property
    def n_fail(self) -> int:
        return sum(1 for r in self.results if not r.passed)

    @property
    def all_pass(self) -> bool:
        return self.n_fail == 0


Check = tuple[bool, tuple[UEAElement, UEAElement] | None]


def _eq(*sides: UEAElement | LieElement) -> Check:
    """Compare the sides in pairs, ``lhs, rhs, lhs, rhs, ...``: a pass, or
    the first pair that differs as the counterexample."""
    # both sides are canonical: in lowest terms, and in U in PBW normal form
    for lhs, rhs in zip(sides[::2], sides[1::2]):
        if lhs != rhs:
            if isinstance(lhs, LieElement):
                return False, (from_lie(lhs), from_lie(rhs))
            return False, (lhs, rhs)
    return True, None


# ---------------------------------------------------------------------------
# The catalog.  Each tag TAG has a check ``_chk_TAG`` taking its
# parameters as keyword arguments; its row of the grid table below names
# the values they run over.

def _chk_I5(j, l, r, k, m, n) -> Check:
    a, b = lambda_rec(j, l, r), lambda_rec(k, m, n)
    return _eq(multiply(a, b), multiply(b, a))


def _chk_I6(sign, j, r, s) -> Check:
    x = xplus(j) if sign > 0 else xminus(j)
    lhs = multiply(divided_power(x, r), divided_power(x, s))
    rhs = divided_power(x, r + s).scale(binom(r + s, s))
    return _eq(lhs, rhs)


def _chk_I7(j, r, l, s) -> Check:
    lhs = multiply(divided_power(xplus(j), r), divided_power(xminus(l), s))
    rhs = expand(straighten_plus_minus(j, r, l, s))
    return _eq(lhs, rhs)


def _chk_I8(j, r, k, m, n) -> Check:
    lhs = multiply(divided_power(xplus(j), r), lambda_rec(k, m, n))
    rhs = expand(move_x_past_lambda(1, j, r, (k, m), n))
    return _eq(lhs, rhs)


def _chk_I9(l, s, k, m, n) -> Check:
    lhs = multiply(lambda_rec(k, m, n), divided_power(xminus(l), s))
    rhs = expand(move_x_past_lambda(-1, l, s, (k, m), n))
    return _eq(lhs, rhs)


def _chk_XKL1(k, j, l) -> Check:
    return _eq(bracket(xplus(k), lambda1(j, l)), bracket_x_lambda1(k, j, l))


def _chk_XJLN(j, k, m, n) -> Check:
    lhs = multiply(from_lie(xplus(j)), lambda_rec(k, m, n))
    rhs = UEAElement.combine(
        ((-1) ** (r + s) * (i + 1) * binom(i, r) * binom(i, s),
         multiply(lambda_rec(k, m, n - i),
                  from_lie(xplus(j + (i - 2 * r) * k + (i - 2 * s) * m))))
        for i in range(n + 1) for r in range(i + 1) for s in range(i + 1))
    return _eq(lhs, rhs)


def _chk_DU1(sign, u, j, l) -> Check:
    return _eq(d1_rec(sign, u, j, l), d1_closed(sign, u, j, l))


def _chk_DUV(sign, u, v, j, l) -> Check:
    a = duv_rec(sign, u, v, j, l)
    return _eq(a, duv_multinomial(sign, u, v, j, l),
               a, duv_series(sign, u, v, j, l))


def _chk_LREC(j, l, k) -> Check:
    return _eq(lambda_rec(j, l, k), lambda_series(j, l, k))


def _chk_PU(u, j, l) -> Check:
    return _eq(p_def(u, j, l), p_closed(u, j, l))


def _chk_P2N1(n, j, l) -> Check:
    return _eq(p_via_lambda_odd(n, j, l), p_def(2 * n + 1, j, l))


def _chk_P2N(n, j, l) -> Check:
    return _eq(p_via_lambda_even(n, j, l), p_def(2 * n, j, l))


def _chk_PNEWD(u, k, j, l) -> Check:
    lhs = bracket(d1_closed(1, u, j, l), d1_closed(-1, k, j, l))
    return _eq(lhs, p_def(k + u + 1, j, l))


def _chk_BXP(i, j, k, m) -> Check:
    p = p_def(i, k, m)
    return _eq(bracket(xplus(j), p), d_triple(1, i, j, k, m).scale(-2),
               bracket(p, xminus(j)), d_triple(-1, i, j, k, m).scale(-2))


def _chk_BPD(m, u, j, l) -> Check:
    lhs = bracket(p_def(m, j, l), d1_closed(1, u, j, l))
    return _eq(lhs, d1_closed(1, m + u, j, l).scale(2))


def _chk_DU1L(u, n, j, l) -> Check:
    lhs = multiply(from_lie(d1_closed(1, u, j, l)), lambda_rec(j, l, n))
    rhs = UEAElement.combine(
        (i + 1, multiply(lambda_rec(j, l, n - i), from_lie(d1_closed(1, i + u, j, l))))
        for i in range(n + 1))
    return _eq(lhs, rhs)


def _chk_LDP(i, k, j, l) -> Check:
    lhs = multiply(lambda_rec(j, l, i), from_lie(d1_closed(1, k, j, l)))
    rhs = UEAElement.combine(
        (c, multiply(from_lie(d1_closed(1, k + t, j, l)), lambda_rec(j, l, i - t)))
        for t, c in enumerate((1, -2, 1)))
    return _eq(lhs, rhs)


def _chk_UD(sign, u, v, j, l) -> Check:
    ts = [multiply(from_lie(d1_closed(sign, i, j, l)), duv_rec(sign, u - i, v - 1, j, l))
          for i in range(u + 1)]
    rhs1 = UEAElement.combine((i, t) for i, t in enumerate(ts))
    rhs2 = UEAElement.combine((i + 1, t) for i, t in enumerate(ts))
    base = duv_rec(sign, u, v, j, l)
    return _eq(base.scale(u), rhs1, base.scale(u + v), rhs2)


def _chk_LDXM(n, v, j, l) -> Check:
    lhs = UEAElement.combine(
        (1, multiply(multiply(lambda_rec(j, l, i), duv_rec(1, n - i, v, j, l)),
                     from_lie(xminus(l))))
        for i in range(n + 1))
    terms = [(-(n + 1), multiply(lambda_rec(j, l, n + 1 - u), duv_rec(1, u, v - 1, j, l)))
             for u in range(n + 2)]
    terms += [(m + 1, multiply(multiply(from_lie(d1_closed(-1, m, j, l)),
                                        lambda_rec(j, l, n - m - k)),
                               duv_rec(1, k, v, j, l)))
              for m in range(n + 1) for k in range(n - m + 1)]
    return _eq(lhs, UEAElement.combine(terms))


def _chk_LL(j, l, k, m) -> Check:
    # the same cached NF(L_k L_m) that merge_lambda_pair starts from
    product = expand_word((lfactor(j, l, k), lfactor(j, l, m)))
    try:
        out = merge_lambda_pair(j, l, k, m)
    except NoLambdaExpression:
        return False, (product, UEA_ZERO)
    lead = (lfactor(j, l, k + m),)
    if out.coeffs.get(lead, 0) != binom(k + m, k):
        return False, (expand(out), product)
    if out.den != 1 or any(w != lead and mdegree(w) >= k + m for w in out.num):
        return False, (expand(out), product)
    return _eq(expand(out), product)


def _chk_BRKDEG(part, j, l, r, s) -> Check:
    if part == 1:
        a, b = XFactor(1, j, r), XFactor(-1, l, s)
    elif part == 2:
        a, b = XFactor(1, j, r), lfactor(j, l, s)
    else:
        a, b = lfactor(j, l, r), XFactor(-1, l, s)
    comm = normalize_to_basis(monomial(a, b)) - normalize_to_basis(monomial(b, a))
    bound = a.order + b.order
    if comm.den != 1 or any(mdegree(w) >= bound for w in comm.num):
        return False, (expand(comm), UEA_ZERO)
    return True, None


def _chk_CORINT(sign, u, v, j, l) -> Check:
    target = duv_rec(sign, u, v, j, l)
    nf = normalize_to_basis(duv_mform(sign, u, v, j, l))
    if nf.den != 1:
        return False, (expand(nf), target)
    return _eq(expand(nf), target)


def _chk_THMAUDIT(max_mdegree, max_index) -> Check:
    report = audit_theorem(max_mdegree, max_index)
    ok = report.independent and report.triangular and report.integral
    return ok, None


def _chk_REALIZE(max_index) -> Check:
    n = max_index
    failures = loop.verify_structure_constants(n)
    if failures:
        a, b = failures[0]
        return False, (from_lie(generator(a.kind, a.index)),
                       from_lie(generator(b.kind, b.index)))
    # the outer involution fixes every embedded generator
    gens = [h(k) for k in range(n + 1)]
    gens += [x for j in range(1, n + 1) for x in (xplus(j), xminus(j))]
    for x in gens:
        img = loop.embed(x)
        if loop.sigma(img) != img:
            return False, None
    # Onsager relations for A_m, G_l, all omega-fixed
    for l in range(-n, n + 1):
        for m in range(-n, n + 1):
            g = loop.onsager_G(l - m)
            lhs = loop.matrix_bracket(loop.onsager_A(l), loop.onsager_A(m))
            if lhs != g + g:
                return False, None
            lhs = loop.matrix_bracket(loop.onsager_G(l), loop.onsager_A(m))
            if lhs != loop.onsager_A(m + l) - loop.onsager_A(m - l):
                return False, None
            if not loop.matrix_bracket(loop.onsager_G(l), loop.onsager_G(m)).is_zero:
                return False, None
        if loop.omega(loop.onsager_A(l)) != loop.onsager_A(l):
            return False, None
        if loop.omega(loop.onsager_G(l)) != loop.onsager_G(l):
            return False, None
    return True, None


def _grid(max_index: int, max_order: int) -> dict[str, tuple]:
    """The catalog in report order: each tag's check and its axes,
    outermost first.  An axis is a name and its values, or a tuple of
    names and a list of value tuples."""
    index = range(1, max_index + 1)
    order0 = range(0, max_order + 1)
    order1 = range(1, max_order + 1)
    sign = ("sign", (1, -1))
    jl = (("j", "l"), [(j, l) for j in index for l in index])

    def canonical(a, b):
        return (a, b), [(j, l) for j in index for l in index if l <= j]

    rows = (
        (_chk_I5, canonical("j", "l"), canonical("k", "m"), ("r", order1), ("n", order1)),
        (_chk_I6, sign, ("j", index), ("r", order0), ("s", order0)),
        (_chk_I7, jl, ("r", order0), ("s", order0)),
        (_chk_I8, ("j", index), canonical("k", "m"), ("r", order0), ("n", order0)),
        (_chk_I9, ("l", index), canonical("k", "m"), ("s", order0), ("n", order0)),
        (_chk_XKL1, ("k", range(1, max_index + 2)), jl),
        (_chk_XJLN, ("j", index), canonical("k", "m"), ("n", order0)),
        (_chk_DU1, sign, ("u", order0), jl),
        (_chk_DUV, sign, ("u", order0), ("v", order0), jl),
        (_chk_LREC, canonical("j", "l"), ("k", order0)),
        (_chk_PU, ("u", range(1, 2 * max_order + 1)), jl),
        (_chk_P2N1, ("n", range(0, min(2, max_order) + 1)), jl),
        (_chk_P2N, ("n", range(1, min(2, max_order) + 1)), jl),
        (_chk_PNEWD, ("u", order0), ("k", order0), jl),
        (_chk_BXP, ("i", order1), ("j", index), canonical("k", "m")),
        (_chk_BPD, ("m", order1), ("u", order0), jl),
        (_chk_DU1L, ("u", order0), ("n", order0), jl),
        (_chk_LDP, ("i", order0), ("k", order0), jl),
        (_chk_UD, sign, ("u", order0), ("v", order1), jl),
        (_chk_LDXM, ("n", order0), ("v", order1), jl),
        (_chk_LL, canonical("j", "l"),
         (("k", "m"), [(k, m) for k in order1 for m in range(k, max_order + 1)])),
        (_chk_BRKDEG, ("part", (1, 2, 3)), jl, ("r", order1), ("s", order1)),
        (_chk_CORINT, sign, ("u", order0), ("v", order0), jl),
        (_chk_THMAUDIT, ("max_mdegree", (max_order,)), ("max_index", (max_index,))),
        (_chk_REALIZE, ("max_index", (max_index,))),
    )
    return {check.__name__.removeprefix("_chk_"): (check, axes) for check, *axes in rows}


CATALOG = tuple(_grid(1, 1))


def _instances(axes: list, check):
    """The grid's points as params dicts, keyed in the check's order."""
    code = check.__code__
    names = code.co_varnames[:code.co_argcount]
    for point in itertools.product(*(values for _, values in axes)):
        flat = {}
        for (key, _), value in zip(axes, point):
            flat.update(zip(key, value) if isinstance(key, tuple) else [(key, value)])
        yield {name: flat[name] for name in names}


class SuiteConfig(NamedTuple):
    max_index: int = 3
    max_order: int = 3
    tags: tuple[str, ...] = CATALOG
    # accepted for compatibility; the suite always runs in one thread
    jobs: int = 1

    def validate(self) -> None:
        unknown = [t for t in self.tags if t not in CATALOG]
        if unknown:
            raise ValueError(f"unknown tags: {','.join(unknown)}")
        if self.max_index < 1 or self.max_order < 1:
            raise ValueError("bounds must be >= 1")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if not self.tags:
            raise ValueError("no tags selected")
        if "THMAUDIT" in self.tags:
            candidate_count(self.max_order, self.max_index)


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    cfg.validate()
    results = []
    for tag, (check, axes) in _grid(cfg.max_index, cfg.max_order).items():
        if tag not in cfg.tags:
            continue
        for params in _instances(axes, check):
            t0 = time.perf_counter()
            passed, ce = check(**params)
            results.append(InstanceResult(tag, params, passed, ce, time.perf_counter() - t0))
    return SuiteReport(cfg, results)


# ---------------------------------------------------------------------------
# Structural audits.

class SpanReport(NamedTuple):
    parity: str
    cutoff: int
    dimension: int
    rank: int
    quotient: list[int]  # h-indices spanning the quotient


# the largest cutoff the span audit takes on.  Building the p-vectors is
# linear in their nonzeros and the certificate is one more pass: at 400,
# even (40,959 vectors) took 6.0 s and peaked at 54 MB, odd (24,323) 1.4 s
# and 33 MB, in one process on 2 vCPUs.  The fallback elimination runs only
# on a wrong p_closed and grows as the square of the vector count: 6.2 s at
# even cutoff 200, 165 s and 535 MB at even 400.
MAX_SPAN_CUTOFF = 400


def audit_span(parity: str, cutoff: int) -> SpanReport:
    """Rank of the power-sum span inside one parity class of the h-span.

    Collects every p_i(j,l) whose expansion stays within h-indices up
    to the cutoff and lands in the requested parity class, and reports
    its rank against the full h-span of that class.  The codimension
    (the coefficient-sum direction, e.g. h_0) is the finding.

    The rank is read off a certificate checked on the vectors built, in
    one pass over their nonzeros (McConnell, Mehlhorn, Näher and
    Schweitzer, Comput. Sci. Rev. 5, 2011).  P_i vanishes at t = 1, so
    each vector's numerators sum to 0 and the rank is at most the
    distinct keys less one; vectors with distinct leading keys are
    independent, so it is at least the distinct leads.  When the bounds
    meet, the leads are the pivot keys.  Only a wrong ``p_closed`` can
    part them, and then the pivot keys are taken from ``linalg.rref``.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    if cutoff < 1:
        raise ValueError("cutoff must be >= 1")
    if cutoff > MAX_SPAN_CUTOFF:
        raise ValueError(f"cutoff must be <= {MAX_SPAN_CUTOFF}")
    want = 0 if parity == "even" else 1
    indices = [k for k in range(cutoff, -1, -1) if k % 2 == want]
    nums = []
    for j in range(1, cutoff + 1):
        for l in range(1, j + 1):
            i = 1
            while i * (j + l) <= cutoff:
                if (i * (j + l)) % 2 == want:
                    nums.append({b.index: n for b, n in p_closed(i, j, l).num.items()})
                i += 1
    pivots = {max(vec) for vec in nums}
    if len(pivots) < len(set().union(*nums)) - 1 or any(sum(vec.values()) for vec in nums):
        pivots = linalg.rref(nums, [1] * len(nums))[0]
    quotient = [k for k in indices if k not in pivots]
    return SpanReport(parity, cutoff, len(indices), len(pivots), quotient)


class TheoremReport(NamedTuple):
    max_mdegree: int
    max_index: int
    count: int
    rank: int
    independent: bool
    triangular: bool
    collisions: list[tuple]
    sample_size: int
    integral: bool
    nonintegral: list[tuple]

    @property
    def codimension(self) -> int:
        return self.count - self.rank


def audit_theorem(max_mdegree: int, max_index: int) -> TheoremReport:
    """Independence, triangularity, and integrality at a truncation.

    Takes the exact rank of the candidate basis monomials and the
    collisions of their leading PBW words from ``rank_and_collisions``,
    then normalizes a sample of divided-power products to confirm integer
    coefficients.  Rank deficits and collisions are reported, not raised.
    """
    count = candidate_count(max_mdegree, max_index)
    rank, collisions = rank_and_collisions(max_mdegree, max_index)

    sample = []
    for j in range(1, max_index + 1):
        for l in range(1, max_index + 1):
            for r in range(1, max_mdegree + 1):
                for s in range(1, max_mdegree - r + 1):
                    sample.append((j, r, l, s))
    nonintegral = []
    for (j, r, l, s) in sample:
        nf = normalize_to_basis(monomial(XFactor(1, j, r), XFactor(-1, l, s)))
        if nf.den != 1:
            nonintegral.append((j, r, l, s))
    return TheoremReport(
        max_mdegree=max_mdegree,
        max_index=max_index,
        count=count,
        rank=rank,
        independent=rank == count,
        triangular=not collisions,
        collisions=collisions,
        sample_size=len(sample),
        integral=not nonintegral,
        nonintegral=nonintegral,
    )
