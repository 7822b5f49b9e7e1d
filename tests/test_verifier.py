import collections
from fractions import Fraction
import hashlib
import sys
import time

import pytest

import onsager.lie as lie
from onsager import caches, cli, elements, straighten, uea, verify
from onsager.elements import d1_closed, d1_rec
from onsager.lie import LinComb, bracket, xminus, xplus
from onsager.uea import UEAElement, from_lie, multiply, pbw_normal_form
from onsager.verify import (
    CATALOG,
    MAX_SPAN_VECTORS,
    SuiteConfig,
    audit_span,
    audit_theorem,
    run_suite,
    span_count,
)


@pytest.fixture
def corrupted_bracket():
    """Deliberately wrong [h, x] structure constant, caches flushed."""
    original = lie._H_X_SCALE
    lie._H_X_SCALE = Fraction(3)
    caches.clear_all()
    yield
    lie._H_X_SCALE = original
    caches.clear_all()


def test_catalog_is_complete_and_stable():
    assert len(CATALOG) == 25
    assert len(set(CATALOG)) == len(CATALOG)
    for tag in ("I5", "I6", "I7", "I8", "I9", "LL", "BRKDEG", "CORINT",
                "THMAUDIT", "REALIZE"):
        assert tag in CATALOG


def test_config_validation():
    with pytest.raises(ValueError):
        SuiteConfig(max_index=0).validate()
    with pytest.raises(ValueError):
        SuiteConfig(tags=("NOPE",)).validate()
    with pytest.raises(ValueError):
        SuiteConfig(jobs=0).validate()
    SuiteConfig().validate()


def test_run_suite_small_all_pass():
    report = run_suite(SuiteConfig(max_index=2, max_order=2,
                                   tags=("I6", "XKL1", "PU", "LL", "REALIZE")))
    assert report.all_pass
    assert report.n_fail == 0
    assert all(r.counterexample is None for r in report.results)


def test_run_suite_xkl1_wider_grid():
    report = run_suite(SuiteConfig(max_index=4, max_order=1, tags=("XKL1",)))
    assert report.all_pass


def test_report_order_independent_of_jobs():
    cfg1 = SuiteConfig(max_index=2, max_order=2, tags=("I6", "I7"), jobs=1)
    cfg4 = SuiteConfig(max_index=2, max_order=2, tags=("I6", "I7"), jobs=4)
    r1 = run_suite(cfg1)
    r4 = run_suite(cfg4)
    assert [(r.tag, r.params, r.passed) for r in r1.results] == \
           [(r.tag, r.params, r.passed) for r in r4.results]


def test_instance_sequence_is_pinned():
    # instance order and each params dict's key order are report bytes
    # (the text output of `verify` prints params in dict order)
    rows = [(i, o, r.tag, tuple(r.params.items()))
            for i, o in ((1, 1), (2, 1), (1, 3), (2, 2))
            for r in run_suite(SuiteConfig(max_index=i, max_order=o)).results]
    assert len(rows) == 1451
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == \
        "47674f79a7d900ba69648ab0c51637b8bc1d545d032172d8d8e1c12b0c88cb02"


def _cached_coefficients(value):
    # cache entries are elements, or raw {word: coefficient} normal forms
    return value.coeffs.values() if isinstance(value, LinComb) else value.values()


def test_cached_coefficients_are_exact():
    caches.clear_all()
    run_suite(SuiteConfig(max_index=2, max_order=2))
    # the bracket table has integer constants, so word normal forms do too
    assert uea._NF_CACHE
    for nf in uea._NF_CACHE.values():
        assert all(type(c) is int for c in nf.values())
    # elsewhere a division may bring in a Fraction, but an integral value
    # is an int, never a Fraction with denominator 1, and nothing is a float
    for cache in caches._REGISTRY:
        assert cache
        for value in cache.values():
            for c in _cached_coefficients(value):
                assert type(c) is int or (type(c) is Fraction and c.denominator != 1), c


def test_corruption_makes_i7_fail(corrupted_bracket):
    # the corrupted [h, x] constant enters the I7 identity once divided
    # powers of order >= 2 bring in Lambda and D factors
    report = run_suite(SuiteConfig(max_index=1, max_order=2, tags=("I7",)))
    assert not report.all_pass
    failing = [r for r in report.results if not r.passed]
    assert failing
    lhs, rhs = failing[0].counterexample
    assert not (lhs - rhs).is_zero


def test_corruption_makes_realize_fail(corrupted_bracket):
    report = run_suite(SuiteConfig(max_index=2, max_order=1, tags=("REALIZE",)))
    assert not report.all_pass
    failing = [r for r in report.results if not r.passed]
    assert failing[0].counterexample is not None


def test_integral_corruption_makes_i7_and_realize_fail():
    # a plain int constant takes the same route as Fraction(3)
    original = lie._H_X_SCALE
    try:
        lie._H_X_SCALE = 3
        caches.clear_all()
        assert not run_suite(SuiteConfig(max_index=1, max_order=2, tags=("I7",))).all_pass
        assert not run_suite(SuiteConfig(max_index=2, max_order=1, tags=("REALIZE",))).all_pass
    finally:
        lie._H_X_SCALE = original
        caches.clear_all()


# the default grid's failing instances per tag under the corrupted
# constant, as the suite reports them when no rule value outlives its instance
CORRUPTED_FAILURES = {
    "I7": 72, "I8": 162, "I9": 162, "XKL1": 36, "XJLN": 54, "DU1": 54, "PU": 45,
    "P2N1": 18, "P2N": 18, "PNEWD": 135, "BXP": 54, "BPD": 108, "DU1L": 108,
    "LDP": 108, "UD": 162, "LDXM": 81, "LL": 36, "CORINT": 162, "THMAUDIT": 1,
    "REALIZE": 1,
}


def test_corruption_fails_the_same_default_instances(corrupted_bracket):
    report = run_suite(SuiteConfig())
    assert collections.Counter(r.tag for r in report.results if not r.passed) \
        == CORRUPTED_FAILURES


def test_two_pair_checks_report_their_first_differing_pair(corrupted_bracket):
    # BXP and UD each compare two pairs; under the wrong constant both pairs
    # of these instances differ, and the counterexample is the first of them
    p = elements.p_def(1, 2, 1)
    bxp = [(from_lie(bracket(xplus(1), p)), from_lie(elements.d_triple(1, 1, 1, 2, 1))),
           (from_lie(bracket(p, xminus(1))), from_lie(elements.d_triple(-1, 1, 1, 2, 1)))]
    bxp = [(lhs, rhs.scale(-2)) for lhs, rhs in bxp]
    ts = [multiply(from_lie(d1_closed(-1, i, 2, 1)), elements.duv_rec(-1, 2 - i, 1, 2, 1))
          for i in range(3)]
    base = elements.duv_rec(-1, 2, 2, 2, 1)
    ud = [(base.scale(2), UEAElement.combine((i, t) for i, t in enumerate(ts))),
          (base.scale(4), UEAElement.combine((i + 1, t) for i, t in enumerate(ts)))]
    report = run_suite(SuiteConfig(max_index=2, max_order=2, tags=("BXP", "UD")))
    results = {(r.tag, tuple(r.params.items())): r for r in report.results}
    for key, pairs in (
            (("BXP", (("i", 1), ("j", 1), ("k", 2), ("m", 1))), bxp),
            (("UD", (("sign", -1), ("u", 2), ("v", 2), ("j", 2), ("l", 1))), ud)):
        assert all(lhs != rhs for lhs, rhs in pairs) and pairs[0] != pairs[1]
        assert not results[key].passed
        assert results[key].counterexample == pairs[0]


def _default_report(capsys) -> bytes:
    assert cli.main(["verify", "--format", "json"]) == 1
    return capsys.readouterr().out.encode()


def test_report_bytes_do_not_depend_on_cache_state(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    caches.clear_all()
    cold = _default_report(capsys)
    warm = _default_report(capsys)
    caches.clear_all()
    cleared = _default_report(capsys)
    assert cold == warm == cleared
    assert hashlib.sha256(cold).hexdigest() == \
        "bba11c2df063c0e283bcc0b3b937e0744159e457ac045afba011c9f049d01d79"


def test_the_two_degree_one_routes_share_no_entry():
    # DU1 compares two values built apart, even when both are cached
    for _ in range(2):
        for sign in (1, -1):
            for u in range(4):
                rec, closed = d1_rec(sign, u, 2, 1), d1_closed(sign, u, 2, 1)
                assert rec == closed and rec is not closed


def _record_calls(monkeypatch, fn) -> collections.Counter:
    """Count ``fn``'s calls by arguments, wherever the package binds it."""
    calls = collections.Counter()

    def recording(*args):
        calls[args] += 1
        return fn(*args)

    for name, module in list(sys.modules.items()):
        if name.startswith("onsager") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, recording)
    return calls


def test_memoized_builds_each_key_once(monkeypatch):
    monkeypatch.setattr(caches, "_REGISTRY", [])
    shared = caches.register({})
    built = collections.Counter()

    def family(tag):
        @caches.memoized(shared, tag)
        def value(a, b):
            """a toy family"""
            built[tag, a, b] += 1
            return [tag, a, b]
        return value

    first, second = family("first"), family("second")
    plain_cache = caches.register({})
    plain = caches.memoized(plain_cache)(lambda a, b: [a + b])
    kept = first(1, 2)
    for _ in range(3):
        assert first(1, 2) is kept and second(1, 2) is second(1, 2)
        assert first(2, 1) == ["first", 2, 1] and plain(1, 2) is plain(1, 2)
    # tags keep the two families apart in one dict; no tag keys the arguments
    assert shared == {("first", 1, 2): kept, ("first", 2, 1): ["first", 2, 1],
                      ("second", 1, 2): ["second", 1, 2]}
    assert plain_cache == {(1, 2): [3]}
    assert set(built.values()) == {1}
    assert first.__name__ == "value" and first.__doc__ == "a toy family"
    caches.clear_all()
    assert not shared and not plain_cache
    assert first(1, 2) == kept and first(1, 2) is not kept and built["first", 1, 2] == 2


def test_rule_values_are_built_once_per_distinct_argument(monkeypatch):
    caches.clear_all()
    triple_calls = _record_calls(monkeypatch, elements.d_triple)
    closed_calls = _record_calls(monkeypatch, elements.d1_closed)
    divided_calls = _record_calls(monkeypatch, straighten.divided_x)
    run_suite(SuiteConfig())
    # memoized builds once per key (test_memoized_builds_each_key_once), so
    # the entries kept under a tag are the evaluations of its family
    entries = collections.Counter(key[0] for key in elements._D1_CACHE)
    layers = sum(key[0] == "layer" for key in straighten._DUV_MFORM)
    caches.clear_all()

    assert entries["triple"] == len(triple_calls) == 144
    assert entries["closed"] == len(closed_calls) == 99
    # divided_x is not cached itself: each call is an evaluation, one per layer
    assert sum(divided_calls.values()) == len(divided_calls) == layers == 240


def test_suite_recovers_after_corruption_fixture(corrupted_bracket):
    # within the fixture the suite fails ...
    assert not run_suite(SuiteConfig(max_index=1, max_order=2, tags=("I7",))).all_pass


def test_suite_green_after_recovery():
    # ... and after fixture teardown everything passes again
    assert run_suite(SuiteConfig(max_index=1, max_order=2, tags=("I7",))).all_pass


def test_i5_failure_reports_both_products(monkeypatch):
    # Lambdas always commute, so stand non-commuting letters in for them:
    # order 1 of (1, 1) is x+_1 and order 1 of (2, 2) is x-_2
    def fake_rec(j, l, k):
        return from_lie(xplus(j) if j == 1 else xminus(j))

    monkeypatch.setattr(verify, "lambda_rec", fake_rec)
    passed, (lhs, rhs) = verify._chk_I5(j=1, l=1, r=1, k=2, m=2, n=1)
    assert not passed
    a, b = from_lie(xplus(1)), from_lie(xminus(2))
    assert lhs == pbw_normal_form(multiply(a, b))
    assert rhs == pbw_normal_form(multiply(b, a))
    assert lhs - rhs == pbw_normal_form(from_lie(bracket(xplus(1), xminus(2))))


def test_audit_span_examples():
    even6 = audit_span("even", 6)
    assert (even6.dimension, even6.rank) == (4, 3)
    assert even6.quotient == [0]
    odd7 = audit_span("odd", 7)
    assert (odd7.dimension, odd7.rank) == (4, 3)
    assert odd7.quotient == [1]
    even2 = audit_span("even", 2)
    assert (even2.dimension, even2.rank) == (2, 1)


def test_audit_span_validation():
    with pytest.raises(ValueError):
        audit_span("sideways", 4)
    with pytest.raises(ValueError):
        audit_span("even", 0)


def test_span_count_is_the_number_of_p_vectors_ranked():
    for parity, want in (("even", 0), ("odd", 1)):
        for cutoff in range(1, 41):
            built = sum(1 for j in range(1, cutoff + 1) for l in range(1, j + 1)
                        for i in range(1, cutoff // (j + l) + 1) if i * (j + l) % 2 == want)
            assert span_count(parity, cutoff) == built
    assert (span_count("even", 100), span_count("even", 200)) == (2538, 10231)


def test_audit_span_refuses_a_large_cutoff_at_once():
    # cutoff 400 has 40,959 even p-vectors, which would take minutes to rank
    t0 = time.perf_counter()
    for parity in ("even", "odd"):
        for cutoff in (400, 10 ** 18):
            with pytest.raises(ValueError, match=f"more than the {MAX_SPAN_VECTORS} "):
                audit_span(parity, cutoff)
    assert time.perf_counter() - t0 < 0.5


def test_audit_theorem_small():
    rep = audit_theorem(1, 1)
    assert rep.count == 4
    assert rep.rank == 4
    assert rep.independent and rep.triangular and rep.integral


def test_audit_theorem_degenerate():
    rep = audit_theorem(0, 4)
    assert rep.count == 1
    assert rep.independent


def test_audit_theorem_reports_dependency_at_2_3():
    # lam(1,1,1) + lam(3,1,1) - lam(2,2,1) = 0 enters at index 3
    rep = audit_theorem(2, 3)
    assert not rep.independent
    assert rep.codimension >= 1
    assert not rep.triangular
