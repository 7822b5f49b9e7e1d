"""End-to-end acceptance checks for the kernel, the verifier, and the CLI.

Each test here is a top-level guarantee of the package: exact oracle
agreement, exact identity grids, integrality of the straightening data,
and deterministic reporting.  Time budgets are asserted explicitly.
"""

import itertools
import json
import random
import time
from fractions import Fraction

from onsager import lie, loop
from onsager.cli import main
from onsager.elements import (
    binom,
    d1_closed,
    d1_rec,
    duv_multinomial,
    duv_rec,
    duv_series,
    lambda_rec,
    lambda_series,
    p_closed,
    p_def,
)
from onsager.lie import Kind, generator
from onsager.straighten import (
    XFactor,
    duv_mform,
    lfactor,
    merge_lambda_pair,
    mform_coordinates,
    monomial,
)
from onsager.uea import multiply
from onsager.verify import SuiteConfig, audit_span, audit_theorem, run_suite


def _all_basis(max_index):
    out = [generator(Kind.H, k) for k in range(max_index + 1)]
    out += [generator(Kind.XPLUS, j) for j in range(1, max_index + 1)]
    out += [generator(Kind.XMINUS, l) for l in range(1, max_index + 1)]
    return out


def test_bracket_oracle_matches_matrix_bracket():
    start = time.monotonic()
    basis = _all_basis(6)
    for a, b in itertools.product(basis, repeat=2):
        lhs = loop.embed(lie.bracket(a, b))
        rhs = loop.matrix_bracket(loop.embed(a), loop.embed(b))
        assert lhs == rhs, (a, b)
    assert time.monotonic() - start < 10.0


def test_loop_realization_relations_and_involutions():
    start = time.monotonic()
    for l in range(-5, 6):
        for m in range(-5, 6):
            ga = loop.matrix_bracket(loop.onsager_G(l), loop.onsager_A(m))
            diff = loop.onsager_A(m + l) - loop.onsager_A(m - l)
            assert ga == diff, (l, m)
            g2 = loop.onsager_G(l - m)
            assert loop.matrix_bracket(loop.onsager_A(l), loop.onsager_A(m)) == g2 + g2
            assert loop.matrix_bracket(loop.onsager_G(l), loop.onsager_G(m)).is_zero
    for b in _all_basis(6):
        img = loop.embed(b)
        assert loop.sigma(img) == img, b
    for idx in range(-5, 6):
        assert loop.omega(loop.onsager_A(idx)) == loop.onsager_A(idx)
        assert loop.omega(loop.onsager_G(idx)) == loop.onsager_G(idx)
    assert time.monotonic() - start < 10.0


def test_jacobi_identity_random_triples():
    start = time.monotonic()
    rng = random.Random(2024)

    def pick():
        kind = rng.choice([Kind.XMINUS, Kind.H, Kind.XPLUS])
        low = 0 if kind is Kind.H else 1
        return generator(kind, rng.randint(low, 8))

    for _ in range(500):
        a, b, c = pick(), pick(), pick()
        total = (lie.bracket(a, lie.bracket(b, c))
                 + lie.bracket(b, lie.bracket(c, a))
                 + lie.bracket(c, lie.bracket(a, b)))
        assert total.is_zero, (a, b, c)
    assert time.monotonic() - start < 30.0


def test_dual_construction_paths_agree():
    start = time.monotonic()
    for j in range(1, 5):
        for l in range(1, 5):
            for u in range(1, 7):
                assert p_def(u, j, l) == p_closed(u, j, l)
                for sign in (+1, -1):
                    assert d1_rec(sign, u, j, l) == d1_closed(sign, u, j, l)
    for j in range(1, 4):
        for l in range(1, 4):
            for k in range(0, 7):
                assert lambda_rec(j, l, k) == lambda_series(j, l, k)
            for u in range(0, 7):
                for v in range(0, 7 - u):
                    for sign in (+1, -1):
                        a = duv_rec(sign, u, v, j, l)
                        b = duv_multinomial(sign, u, v, j, l)
                        c = duv_series(sign, u, v, j, l)
                        assert a == b and a == c
    assert time.monotonic() - start < 120.0


def test_spot_value_p2():
    expect = (lie.h(4) - lie.h(2).scale(4) + lie.h(0).scale(3))
    assert p_def(2, 1, 1) == expect


def test_straightening_identity_grid():
    start = time.monotonic()
    cfg = SuiteConfig(max_index=3, max_order=3,
                      tags=("I5", "I6", "I7", "I8", "I9"))
    report = run_suite(cfg)
    assert report.all_pass, [r for r in report.results if not r.passed][:3]
    assert time.monotonic() - start < 300.0


def test_auxiliary_identity_grid():
    start = time.monotonic()
    cfg = SuiteConfig(max_index=3, max_order=3,
                      tags=("XKL1", "XJLN", "PNEWD", "BXP", "BPD",
                            "DU1L", "LDP", "UD", "LDXM", "P2N1", "P2N"))
    report = run_suite(cfg)
    assert report.all_pass, [r for r in report.results if not r.passed][:3]
    assert time.monotonic() - start < 300.0


def test_commutator_degree_drop():
    cfg = SuiteConfig(max_index=3, max_order=3, tags=("BRKDEG",))
    report = run_suite(cfg)
    assert report.all_pass, [r for r in report.results if not r.passed][:3]


def test_lambda_merge_leading_term_and_integer_residual():
    for j, l in ((1, 1), (2, 1), (3, 2)):
        for k in range(1, 4):
            for m in range(1, 4):
                merged = merge_lambda_pair(j, l, k, m)
                lead = (lfactor(j, l, k + m),)
                assert merged.coeffs[lead] == binom(k + m, k), (j, l, k, m)
                for word, c in merged.coeffs.items():
                    assert c.denominator == 1, (j, l, k, m, word, c)
                product = multiply(lambda_rec(j, l, k), lambda_rec(j, l, m))
                from onsager.straighten import expand
                assert expand(merged) == product


def test_integral_coordinates_at_truncation():
    # Lambda, D, and divided-power products must land in the integer span
    # of the basis monomials at truncation (mdegree 6, index 4).
    start = time.monotonic()
    targets = []
    for j in range(1, 3):
        for l in range(1, 3):
            for u in range(1, 4):
                targets.append(monomial(lfactor(j, l, u)))
            for u in range(0, 5):
                for v in range(0, 5 - u):
                    for sign in (+1, -1):
                        targets.append(duv_mform(sign, u, v, j, l))
            for r in range(0, 4):
                for s in range(0, 4):
                    targets.append(monomial(XFactor(+1, j, r),
                                            XFactor(-1, l, s)))
    for target in targets:
        coords = mform_coordinates(target, 6, 4)
        assert all(c.denominator == 1 for c in coords.values())
    assert time.monotonic() - start < 600.0


def test_basis_audit_independence_and_triangularity():
    report = audit_theorem(3, 3)
    assert report.independent, (report.rank, report.count, report.codimension)
    assert report.triangular, report.collisions


def test_degree_one_span_codimension_finding():
    # Annotated finding: the degree-one p-span misses exactly one dimension
    # in each parity class (the coefficient-sum obstruction).
    for parity in ("even", "odd"):
        for cutoff in (6, 7):
            rep = audit_span(parity, cutoff)
            assert rep.rank == rep.dimension - 1, (parity, cutoff, rep)


def test_verify_reports_byte_identical_across_jobs(capsys):
    args = ["verify", "--suite", "I5,I6,XKL1,DU1", "--max-index", "2",
            "--max-order", "2", "--format", "json"]
    outputs = []
    for jobs in ("1", "2", "4"):
        assert main(args + ["--jobs", jobs]) == 0
        outputs.append(capsys.readouterr().out)
    assert main(args + ["--jobs", "1"]) == 0
    outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    json.loads(outputs[0])
