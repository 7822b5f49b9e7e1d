import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from onsager import caches, cli, lie
from onsager.cli import main
from onsager.expr import (
    Bracket,
    Call,
    DomainError,
    ExprSyntaxError,
    Lit,
    Product,
    Sum,
    as_lie,
    evaluate,
    joined_product,
    parse,
)
from onsager.lie import KIND_NAMES, BasisElement, Kind, h, xminus, xplus
from onsager.straighten import (
    XFactor,
    duv_mform,
    expand,
    lfactor,
    merge_lambda_pair,
    monomial,
    normalize_to_basis,
)
from onsager.uea import UEA_ZERO, UEAElement, pbw_normal_form
from onsager.verify import CATALOG, InstanceResult, SuiteConfig, SuiteReport


# ---------------------------------------------------------------------------
# parser

def test_parse_product_minus():
    product = Product((Lit(Fraction(2)), Call("xp", (3,)), Call("xm", (1,))))
    assert parse("2*xp(3)*xm(1) - h(2)") == Sum(((1, product), (-1, Call("h", (2,)))))
    assert parse("-h(2)") == Sum(((-1, Call("h", (2,))),))
    assert parse("(h(2))") == Call("h", (2,))


def test_parse_divided_power():
    ast = parse("dp(xp(1),3)")
    assert ast == Call("dp", (Call("xp", (1,)), 3))


def test_parse_bracket_and_rationals():
    bracket = Bracket(Call("xp", (2,)), Call("xm", (1,)))
    assert parse("[xp(2), xm(1)] + 3/2") == Sum(((1, bracket), (1, Lit(Fraction(3, 2)))))


def test_integral_literal_quotient_is_int():
    for text in ("4/2*xp(1)", "6/3"):
        coeffs = evaluate(parse(text)).coeffs.values()
        assert coeffs and all(type(c) is int for c in coeffs)
    assert list(evaluate(parse("2/4*xp(1)")).coeffs.values()) == [Fraction(1, 2)]


def test_parse_signed_calls():
    parse("d1(+,2,1,1)")
    parse("duv(-,1,2,2,1)")
    parse("dt(+,1,1,2,2)")


def test_syntax_error_positions(capsys):
    with pytest.raises(ExprSyntaxError) as exc:
        parse("xp(1) +")
    assert exc.value.line == 1
    # only ASCII digits are digits: a superscript two or an Arabic-Indic one
    # is an unexpected character at its own position
    for text in ("h(\u00b2)", "h(\u0661)"):
        with pytest.raises(ExprSyntaxError) as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, 3)
        assert main(["normalize", text]) == 2
        assert capsys.readouterr().err.startswith("syntax error: 1:3: unexpected character")
    with pytest.raises(ExprSyntaxError):
        parse("xp(1,2)")
    with pytest.raises(ExprSyntaxError):
        parse("frob(1)")
    with pytest.raises(ExprSyntaxError):
        parse("xp(1) @ xm(1)")
    with pytest.raises(ExprSyntaxError):
        parse("1/0")


def test_repr_parses_back():
    for text in ("2*xp(3)*xm(1) - h(2)", "dp(xp(1),3)", "-lam(2,1,2)", "0", "-3/2",
                 "[h(2), xp(1)]", "binom(h(0),2)*xm(1)", "1/2*h(4) + 3",
                 "d1(+,1,2,1) + duv(-,0,2,1,1)", "dp(xm(2),2)*lam(2,1,2)*dp(xp(1),3)"):
        nf = pbw_normal_form(evaluate(parse(text)))
        assert evaluate(parse(repr(nf))) == nf, text
    for a in (xplus(1), h(0) - xminus(2).scale(Fraction(3, 2)), xplus(-3) + h(4).scale(-2)):
        assert as_lie(evaluate(parse(repr(a)))) == a
    for m in (normalize_to_basis(monomial(XFactor(1, 1, 2), XFactor(-1, 1, 2))),
              normalize_to_basis(monomial(XFactor(1, 2, 1), lfactor(2, 1, 1))),
              duv_mform(1, 1, 2, 2, 1), duv_mform(-1, 2, 3, 1, 1),
              merge_lambda_pair(2, 1, 1, 2), merge_lambda_pair(1, 1, 2, 2),
              normalize_to_basis(monomial())):
        assert pbw_normal_form(evaluate(parse(repr(m)))) == expand(m), repr(m)


def test_evaluate_negative_order_lambda_is_zero():
    assert evaluate(parse("lam(1,1,-2)")).is_zero


def test_evaluate_negative_index_normalized():
    a = evaluate(parse("xp(-3)"))
    b = evaluate(parse("-xp(3)"))
    assert a == b
    assert evaluate(parse("h(-2)")) == evaluate(parse("h(2)"))


def test_domain_errors():
    with pytest.raises(DomainError):
        evaluate(parse("lam(1,0,2)"))
    with pytest.raises(DomainError):
        evaluate(parse("p(0,1,1)"))
    with pytest.raises(DomainError):
        evaluate(parse("dp(xp(1)*xm(1), 2)"))  # not degree one
    with pytest.raises(DomainError):
        evaluate(parse("[xp(1)*xp(2), h(0)]"))


def test_evaluate_bracket_matches_table():
    out = evaluate(parse("[xp(2), xm(1)]"))
    assert out == evaluate(parse("h(3) - h(1)"))


# ---------------------------------------------------------------------------
# commands

def test_bracket_command(capsys):
    assert main(["bracket", "xp(2)", "xm(1)"]) == 0
    assert capsys.readouterr().out.strip() == "-h(1) + h(3)"


def test_normalize_command(capsys):
    assert main(["normalize", "xp(1)*xm(1)"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "-h(0) + h(2) + xm(1)*xp(1)"
    # emitted text parses back to the same element
    assert (pbw_normal_form(evaluate(parse(out)))
            == pbw_normal_form(evaluate(parse("xp(1)*xm(1)"))))
    # a 1225-swap rewrite chain needs no deep stack
    assert main(["normalize", "*".join(f"xp({j})" for j in range(50, 0, -1))]) == 0
    assert capsys.readouterr().out.strip() == "*".join(f"xp({j})" for j in range(1, 51))


def test_normalize_divided_power_of_a_sum(capsys):
    # divided_power normalizes after each factor; multiplying out all nine
    # three-letter factors first took about 7 s
    start = time.perf_counter()
    assert main(["normalize", "dp(xp(1)+xm(1)+h(1),9)"]) == 0
    assert time.perf_counter() - start < 3
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "cd9d59b60c24ec2ca9cd6d7ed7cd08418f30c00a5788927770a3299b9da99aa2"


def test_normalize_long_chain_needs_no_recursion(capsys):
    # x+_1 passes 1100 x-_1 letters: a recursive insertion ran out of stack
    # here and exited 2 with "input nests too deeply"
    try:
        assert main(["normalize", "xp(1)" + "*xm(1)" * 1100]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "381cbc4a03a02f53d86437445cd86fd1ce49fd6aad903d6015a1e9177350b832"
    finally:
        caches.clear_all()  # the chain's normal forms are long words


def test_normalize_json_schema(capsys):
    assert main(["normalize", "h(2)*xp(1)", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"words"}
    for word in payload["words"]:
        assert set(word) == {"coeff", "factors"}
        for f in word["factors"]:
            assert f["kind"] in ("xp", "xm", "h")
            assert isinstance(f["index"], int)


def test_evaluate_keeps_the_free_product_by_default():
    """The query-stream oracle normalizes this value by its own route."""
    word = (BasisElement(Kind.XPLUS, 1), BasisElement(Kind.XMINUS, 1))
    free = evaluate(parse("xp(1)*xm(1)"))
    assert free == UEAElement({word: 1})
    assert pbw_normal_form(free) != free


@pytest.mark.parametrize("text", [
    "dp(xp(2),3)*lam(2,1,2)*dp(xm(1),2)",  # the heavy shapes at indices <= 2
    "duv(+,3,2,2,1)*xm(1)*lam(2,1,2)",
    "(xp(1)+h(1))*lam(2,1,1)*(xm(2)-2*h(0))",  # sum factors
    "lam(2,1,2)*0*dp(xm(1),2)",
    "dp(xp(1),2)*3/4*lam(1,2,1)*xm(2)*2/3",
    "dp((xp(1)+h(1))*(xm(1)+h(2))-(xm(1)+h(2))*(xp(1)+h(1)),2)*lam(1,1,1)",
    "[(xp(2)+h(1))*lam(1,1,1)-lam(1,1,1)*(xp(2)+h(1)),xm(1)]*lam(1,1,1)*xm(1)",
    "xp(2)*xm(1)*h(1)*xm(2)*xp(1)",  # one run of one-word factors
])
def test_joined_product_is_the_normal_form_of_the_free_one(text):
    joined = evaluate(parse(text), joined_product)
    free = evaluate(parse(text))
    assert joined == pbw_normal_form(free) == pbw_normal_form(free, "rightmost")
    assert pbw_normal_form(joined) == joined


def test_coords_command(capsys):
    assert main(["coords", "xp(1)*xm(1)", "--mdegree", "2", "--index", "1"]) == 0
    out = capsys.readouterr().out
    assert "lam(1,1,1)" in out
    assert "integral: true" in out


def test_coords_out_of_truncation(capsys):
    assert main(["coords", "h(6)", "--mdegree", "1", "--index", "1"]) == 1
    assert "out of truncation" in capsys.readouterr().err


def test_verify_exit_codes(capsys):
    assert main(["verify", "--suite", "I6", "--max-index", "2",
                 "--max-order", "2"]) == 0
    capsys.readouterr()
    assert main(["verify", "--suite", "NOPE"]) == 2
    capsys.readouterr()
    assert main(["verify", "--suite", "I6", "--max-index", "0"]) == 2


def test_verify_json_report_schema(capsys):
    assert main(["verify", "--suite", "I7", "--max-index", "2",
                 "--max-order", "2", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"config", "results", "summary"}
    assert payload["summary"]["fail"] == 0
    for r in payload["results"]:
        assert set(r) == {"id", "params", "pass", "counterexample", "ms"}
        assert r["ms"] == 0


def test_verify_json_deterministic_across_jobs(capsys):
    args = ["verify", "--suite", "I6,XKL1", "--max-index", "2",
            "--max-order", "2", "--format", "json"]
    assert main(args + ["--jobs", "1"]) == 0
    first = capsys.readouterr().out
    assert main(args + ["--jobs", "4"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_audit_commands(capsys):
    assert main(["audit", "span", "--parity", "even", "--cutoff", "6"]) == 0
    out = capsys.readouterr().out
    assert "rank 3" in out and "h(0)" in out
    assert main(["audit", "theorem", "--mdegree", "1", "--index", "1",
                 "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 4 and payload["independent"] is True
    assert main(["audit", "theorem", "--mdegree", "3", "--index", "3",
                 "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "2501ab22a0034b4594f973d29e8ff2224d16f4c098e5366a46bcd295a4014175"
    assert main(["audit", "theorem", "--mdegree", "4", "--index", "4",
                 "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "eb19fc3d54d550395cc31adc3c4c79d24db26290727ef6027c257f50a4a73780"


@pytest.mark.parametrize("argv, code, want", [
    # the default grid: 3217 pass, and the one by-design failure exits 1
    ([], 1, "bba11c2df063c0e283bcc0b3b937e0744159e457ac045afba011c9f049d01d79"),
    # merges Lambda orders up to 8, past the default grid
    (["--suite", "LL", "--max-index", "3", "--max-order", "4"], 0,
     "89bf746b63648558706b218a467e4043a9d03bdb1ee4e0b7e41c865be88ff151"),
    # every route of the Lambda and D families at order 4, past the default grid
    (["--suite", "LREC,DUV,CORINT,I7,I8,I9", "--max-index", "3", "--max-order", "4"], 0,
     "ef437087d44380e94f17e78268fa5e4a74d12774cf2693a43f7491ac65457b87"),
], ids=["default", "LL-3-4", "ladders-3-4"])
def test_verify_report_digests(argv, code, want, monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    assert main(["verify", *argv, "--format", "json"]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == want


def test_corrupted_constant_report_digest(monkeypatch, capsys):
    """With one structure constant corrupted most instances fail, so every
    counterexample of the report is written through the CLI."""
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setattr(lie, "_H_X_SCALE", 3)
    caches.clear_all()
    try:
        assert main(["verify", "--format", "json"]) == 1
        out = capsys.readouterr().out.encode()
    finally:
        caches.clear_all()  # the caches hold values built with the wrong constant
    assert len(out) == 6_755_281
    assert hashlib.sha256(out).hexdigest() == \
        "521cac8c44da62561d5ac61451691b9e9944f6058d23a96a3e31213775e3cb93"


def test_degree_one_values_written_as_products(capsys):
    # [x+_1, x-_1] written as a commutator of words is h(2) - h(0)
    for argv in (["bracket", "{}", "xp(1)"], ["realize", "{}"], ["normalize", "dp({},2)"]):
        outs = []
        for value in ("xp(1)*xm(1)-xm(1)*xp(1)", "h(2)-h(0)"):
            assert main([arg.format(value) for arg in argv]) == 0, argv
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1], argv
    for text in ("[xp(1)*xp(2), h(0)]", "dp(xp(1)*xm(1),2)"):
        assert main(["normalize", text]) == 2
        assert capsys.readouterr().err == "domain error: expected a degree-one element\n"


def test_realize_command(capsys):
    assert main(["realize", "h(0)"]) == 0
    out = capsys.readouterr().out
    assert "2i" in out


def test_syntax_error_exit_code(capsys):
    assert main(["normalize", "xp(1"]) == 2
    assert "syntax error" in capsys.readouterr().err
    assert main(["normalize", "lam(1,0,2)"]) == 2
    capsys.readouterr()
    # out-of-range bounds are usage errors: a message and exit 2, no traceback
    for argv in (["coords", "xp(1)", "--mdegree", "-1", "--index", "1"],
                 ["coords", "xp(1)", "--mdegree", "1", "--index", "0"],
                 ["audit", "theorem", "--mdegree", "2", "--index", "0"],
                 ["audit", "span", "--parity", "even", "--cutoff", "0"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv
    # inputs that nest beyond the interpreter stack: a message and exit 2
    for expr in ("lam(1,1,1100)", "(" * 1200 + "h(1)" + ")" * 1200):
        assert main(["normalize", expr]) == 2
        assert capsys.readouterr().err == "error: input nests too deeply to evaluate\n"
    # a high D ladder does not nest: D_{0,v} is the v-th divided power of x+_j
    replies = []
    for expr in ("duv(+,0,1100,1,1)", "dp(xp(1),1100)"):
        assert main(["normalize", expr]) == 0, expr
        replies.append(capsys.readouterr().out)
    assert replies[0] == replies[1] and replies[0].startswith("1/")
    # flat sums and products do not nest
    assert main(["normalize", "+".join(["h(1)"] * 3000)]) == 0
    assert capsys.readouterr().out == "3000*h(1)\n"
    assert main(["normalize", "*".join(["h(1)"] * 3000)]) == 0
    assert capsys.readouterr().out == "*".join(["h(1)"] * 3000) + "\n"


def test_config_file_defaults(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "suite.cfg"
    cfg.write_text("max_index = 2\nmax_order = 1\ntags = I6\nformat = json\n",
                   encoding="utf-8")
    monkeypatch.setenv("ONSAGER_CONFIG", str(cfg))
    assert main(["verify"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["max_index"] == 2
    assert payload["config"]["tags"] == ["I6"]



def test_config_format_sets_every_command_default(tmp_path, monkeypatch, capsys):
    """``format = json`` is the default ``--format`` of every command that
    has one, not of verify alone."""
    cfg = tmp_path / "json.cfg"
    cfg.write_text("format = json\n", encoding="utf-8")
    for argv in (["normalize", "dp(xp(1),2)*xm(1)"], ["bracket", "xp(1)", "xm(2)"],
                 ["coords", "xp(1)*xm(1)", "--mdegree", "2", "--index", "1"],
                 ["audit", "theorem", "--mdegree", "2", "--index", "1"]):
        monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
        assert main(argv + ["--format", "json"]) == 0, argv
        want = capsys.readouterr().out
        monkeypatch.setenv(cli.ENV_CONFIG, str(cfg))
        assert main(argv) == 0, argv
        assert capsys.readouterr() == (want, ""), argv
        assert isinstance(json.loads(want), dict), argv

def test_config_file_malformed(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("what even is this\n", encoding="utf-8")
    monkeypatch.setenv("ONSAGER_CONFIG", str(cfg))
    assert main(["verify"]) == 2
    assert "error" in capsys.readouterr().err
    # an unknown format is refused by every command, not only by verify
    cfg.write_text("format = xml\n", encoding="utf-8")
    for argv in (["normalize", "h(1)"], ["bracket", "xp(1)", "xm(1)"],
                 ["coords", "h(1)", "--mdegree", "1", "--index", "1"], ["verify"],
                 ["audit", "span", "--parity", "even", "--cutoff", "2"],
                 ["audit", "theorem", "--mdegree", "1", "--index", "1"]):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: unknown format: xml\n")
    # a value that is not an integer is named with its key
    for key in ("max_index", "max_order", "jobs"):
        cfg.write_text(f"{key} = x\n", encoding="utf-8")
        assert main(["normalize", "h(1)"]) == 2
        assert capsys.readouterr() == ("", f"error: {key} must be an integer, not 'x'\n")


def test_verify_suite_tags_keep_catalog_order(capsys):
    assert main(["verify", "--suite", "XKL1,,I6", "--max-index", "1",
                 "--max-order", "1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["tags"] == ["I6", "XKL1"]
    assert main(["verify", "--suite", "NOPE,I6,,ZAP"]) == 2
    assert capsys.readouterr().err == "error: unknown tags: NOPE,ZAP\n"
    # unknown tags are named before the bounds are checked, and bad bounds
    # are still named when no tag is given
    assert main(["verify", "--suite", "BOGUS", "--max-index", "0"]) == 2
    assert capsys.readouterr() == ("", "error: unknown tags: BOGUS\n")
    assert main(["verify", "--suite", ",", "--max-index", "0"]) == 2
    assert capsys.readouterr() == ("", "error: bounds must be >= 1\n")


def test_verify_suite_naming_no_tag_exits_2(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    for suite in (",", ",,"):
        assert main(["verify", "--suite", suite]) == 2
        assert capsys.readouterr() == ("", "error: no tags selected\n")
    # an absent or empty --suite still selects every tag
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: seen.append(cfg) or SuiteReport(cfg, []))
    assert main(["verify"]) == 0 and main(["verify", "--suite", ""]) == 0
    assert [cfg.tags for cfg in seen] == [CATALOG, CATALOG]


# ---------------------------------------------------------------------------
# warm front end: one parser per config, JSON written in pieces

def test_parser_built_once_per_config(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PARSERS", {})
    built = []
    build_parser = cli.build_parser

    def counting(defaults, names):
        built.append((names, dict(defaults)))
        return build_parser(defaults, names)

    monkeypatch.setattr(cli, "build_parser", counting)
    seen = []

    def fake_run_suite(cfg):
        seen.append(cfg)
        return SuiteReport(cfg, [])

    monkeypatch.setattr(cli, "run_suite", fake_run_suite)
    config_a, config_b = tmp_path / "a.cfg", tmp_path / "b.cfg"
    config_a.write_text("max_index = 2\ntags = I6\nformat = json\n", encoding="utf-8")
    config_b.write_text("max_index = 1\ntags = XKL1\nformat = json\n", encoding="utf-8")

    def run(config):
        if config is None:
            monkeypatch.delenv("ONSAGER_CONFIG", raising=False)
        else:
            monkeypatch.setenv("ONSAGER_CONFIG", str(config))
        assert main(["verify"]) == 0
        return capsys.readouterr().out

    for _ in range(2):
        assert json.loads(run(config_a))["config"] == {
            "max_index": 2, "max_order": 3, "tags": ["I6"], "format": "json"}
        assert json.loads(run(config_b))["config"] == {
            "max_index": 1, "max_order": 3, "tags": ["XKL1"], "format": "json"}
        assert run(None) == "summary: pass=0 fail=0\n"
        assert seen[-1] == SuiteConfig()
    assert built == [(("verify",), {"max_index": 2, "suite": "I6", "format": "json"}),
                     (("verify",), {"max_index": 1, "suite": "XKL1", "format": "json"}),
                     (("verify",), {})]
    # a changed file is a new config and gets its own parser
    config_a.write_text("max_index = 2\nmax_order = 1\ntags = I6\nformat = json\n",
                        encoding="utf-8")
    assert json.loads(run(config_a))["config"]["max_order"] == 1
    assert len(built) == 4
    # a malformed config still exits 2, before any parser is looked up
    config_b.write_text("what even is this\n", encoding="utf-8")
    monkeypatch.setenv("ONSAGER_CONFIG", str(config_b))
    assert main(["verify"]) == 2
    assert capsys.readouterr().err.startswith("error: malformed line")
    assert len(built) == 4


@pytest.mark.parametrize("expr", ["xp(1)", "dp(xp(1),1100)"])
def test_closed_stdout_exits_1_without_traceback(expr):
    # the pipe's reader is gone before the child writes: a short reply
    # fails at the final flush, a long one inside the command itself
    src = Path(cli.__file__).resolve().parents[1]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "onsager.cli", "normalize", expr],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_reports_do_not_depend_on_the_hash_seed():
    # memo keys include element values and dicts keep insertion order, so
    # a seed-dependent iteration order would show in the report bytes
    src = Path(cli.__file__).resolve().parents[1]
    runs = {}
    for seed in ("0", "1", "12345"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        env.pop(cli.ENV_CONFIG, None)
        for argv in (("verify", "--max-index", "2", "--max-order", "2"),
                     ("audit", "theorem", "--mdegree", "3", "--index", "3")):
            proc = subprocess.run([sys.executable, "-m", "onsager.cli", *argv,
                                   "--format", "json"],
                                  capture_output=True, env=env, timeout=300)
            runs.setdefault(argv, set()).add((proc.returncode, proc.stdout))
    assert all(len(outs) == 1 for outs in runs.values())
    (code, out), = runs["audit", "theorem", "--mdegree", "3", "--index", "3"]
    assert code == 0 and hashlib.sha256(out).hexdigest() == (
        "2501ab22a0034b4594f973d29e8ff2224d16f4c098e5366a46bcd295a4014175")


def test_no_parser_built_at_import():
    src = Path(cli.__file__).resolve().parents[1]
    code = "import onsager.cli as cli; print(len(cli._PARSERS))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
    assert out == "0\n"


def test_import_is_light_and_main_sets_the_collector_policy():
    # the thresholds are the CLI's policy, set by main: importing the
    # package leaves a library user's collector as it was
    src = Path(cli.__file__).resolve().parents[1]
    code = "\n".join([
        "import gc, sys",
        "default = gc.get_threshold()",
        "import onsager.cli as cli",
        "heavy = sorted({'dataclasses', 'inspect'} & set(sys.modules))",
        "untouched = gc.get_threshold() == default",
        "cli.main(['audit', 'span', '--parity', 'even', '--cutoff', '6'])",
        "print(heavy, untouched, gc.get_threshold() == cli._GC_THRESHOLDS)",
    ])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(src)), check=True).stdout
    assert out.splitlines()[-1] == "[] True True"


def _commands(parser) -> list[str]:
    """The subcommands ``parser`` knows, in order."""
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


def test_a_request_builds_only_its_command_parser(monkeypatch, capsys):
    monkeypatch.delenv(cli.ENV_CONFIG, raising=False)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(cli, "_PARSERS", {})
    everything = ["normalize", "bracket", "coords", "verify", "audit", "realize"]
    assert main(["normalize", "xp(1)"]) == 0
    assert [_commands(p) for p in cli._PARSERS.values()] == [["normalize"]]
    # -h, no argument, an option or an unknown word first: the whole tree
    assert main(["-h"]) == 0
    assert [_commands(p) for p in cli._PARSERS.values()] == [["normalize"], everything]
    for argv in (["--format", "json"], ["bogus"]):
        assert main(argv) == 2
    capsys.readouterr()
    assert main([]) == 2
    assert capsys.readouterr().err == (
        "usage: onsager [-h] {normalize,bracket,coords,verify,audit,realize} ...\n"
        "onsager: error: the following arguments are required: command\n")
    assert len(cli._PARSERS) == 2
    # the installed script calls main() and the command comes from sys.argv
    monkeypatch.setattr(sys, "argv", ["onsager", "bracket", "xp(2)", "xm(1)"])
    assert main() == 0
    assert capsys.readouterr() == ("-h(1) + h(3)\n", "")
    assert _commands(list(cli._PARSERS.values())[-1]) == ["bracket"]


def element_to_json(u: UEAElement) -> dict:
    """The reference payload of an element: ``cli.element_json_text`` is its
    sorted compact dumps."""
    words = []
    for w in u.words():
        words.append({
            "coeff": str(u.coeffs[w]),
            "factors": [{"kind": KIND_NAMES[b.kind], "index": b.index} for b in w],
        })
    return {"words": words}


def report_to_json(report: SuiteReport) -> dict:
    """The reference payload of a verify report: ``cli._write_report_json``
    writes its sorted compact dumps."""
    cfg = report.config
    results = []
    for r in report.results:
        ce = None
        if r.counterexample is not None:
            lhs, rhs = r.counterexample
            ce = {"lhs": element_to_json(lhs), "rhs": element_to_json(rhs)}
        results.append({
            "id": r.tag,
            "params": r.params,
            "pass": r.passed,
            "counterexample": ce,
            "ms": 0,
        })
    return {
        "config": {
            "max_index": cfg.max_index,
            "max_order": cfg.max_order,
            "tags": list(cfg.tags),
            "format": "json",
        },
        "results": results,
        "summary": {"pass": report.n_pass, "fail": report.n_fail},
    }


def _dumps(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_emit_json_matches_one_dumps(monkeypatch, capsys):
    payloads = []  # what each command hands to _emit_json
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit_json", payloads.append)
        for argv in (
            ["audit", "span", "--parity", "even", "--cutoff", "6"],
            ["audit", "theorem", "--mdegree", "1", "--index", "1"],
            ["audit", "theorem", "--mdegree", "2", "--index", "2"],
            ["coords", "h(1)-h(1)", "--mdegree", "1", "--index", "1"],
            ["coords", "xp(1)*xm(1)", "--mdegree", "2", "--index", "1"],
        ):
            assert main(argv + ["--format", "json"]) == 0, argv
    assert payloads[1]["collisions"] == [] and payloads[3]["coordinates"] == []
    for payload in payloads:
        cli._emit_json(payload)
        assert capsys.readouterr().out == _dumps(payload)
    # normalize writes its reply as text; it is the dumps of element_to_json
    elements = []
    for expr in ("h(1)-h(1)", "dp(xp(3),3)*lam(3,3,3)*dp(xm(3),2)"):
        assert main(["normalize", expr, "--format", "json"]) == 0, expr
        elements.append(element_to_json(pbw_normal_form(evaluate(parse(expr)))))
        assert capsys.readouterr().out == _dumps(elements[-1])
    assert elements[0] == {"words": []}
    assert len(elements[1]["words"]) > 100
    # the verify report is written as text; it is the dumps of report_to_json
    report = SuiteReport(SuiteConfig(max_index=1, max_order=1, tags=("I5", "I6", "LL")), [
        InstanceResult("I5", {"j": 1}, True, None, 0.5),
        InstanceResult("I6", {"j": 1, "sign": -1}, False,
                       (pbw_normal_form(evaluate(parse("xp(1)*xm(1)"))),
                        pbw_normal_form(evaluate(parse("-3/2*h(2)")))), 0.5),
        # LL's shape: a product that should have vanished, against zero
        InstanceResult("LL", {"j": 1, "k": 1, "l": 1, "m": 1}, False,
                       (pbw_normal_form(evaluate(parse("lam(1,1,1)*xp(2)"))), UEA_ZERO), 0.5),
    ])
    payload = report_to_json(report)
    assert [r["counterexample"] is not None for r in payload["results"]] == [False, True, True]
    assert payload["results"][2]["counterexample"]["rhs"] == {"words": []}
    cli._write_report_json(report)
    assert capsys.readouterr().out == _dumps(payload)


def _old_repr(u):
    """``LinComb.__repr__`` as it was written on the ``Fraction`` view."""
    if not u.coeffs:
        return "0"
    parts = []
    for k in u._ordered():
        c = u.coeffs[k]
        a = abs(c)
        body = str(a) if not k else u._show_key(k) if a == 1 else f"{a}*{u._show_key(k)}"
        if parts:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            parts.append(body if c > 0 else f"-{body}")
    return " ".join(parts)


_LETTERS = st.one_of(
    st.builds(BasisElement, st.just(Kind.H), st.integers(0, 12)),
    st.builds(BasisElement, st.sampled_from((Kind.XMINUS, Kind.XPLUS)), st.integers(1, 12)),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.lists(_LETTERS, max_size=5).map(tuple),
                       st.integers(-40, 40), max_size=12),
       st.integers(1, 12))
def test_element_json_text_matches_dumps(num, den):
    """Words over all three kinds, the empty word among them, with negative
    numerators and denominators that often reduce a coefficient to an int."""
    u = UEAElement.over(num, den)
    assert cli.element_json_text(u) + "\n" == _dumps(element_to_json(u))
    assert u.words() == sorted(u.num, key=lambda w: (len(w), w))
    assert repr(u) == _old_repr(u)


def test_memory_error_exits_2_and_clears_caches(monkeypatch, capsys):
    def exhausted(_):
        raise MemoryError

    assert main(["normalize", "xp(2)*xm(1)"]) == 0
    assert any(caches._REGISTRY) and caches.WORDS
    capsys.readouterr()
    with monkeypatch.context() as patch:
        # normalize's product runs this on its run of one-word factors
        patch.setattr("onsager.expr.pbw_normal_form", exhausted)
        assert main(["normalize", "xp(1)*xm(1)"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("error: out of memory") and "Traceback" not in err
    assert not any(caches._REGISTRY) and not caches.WORDS
    # the process answers its next request as a fresh one would
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    want = next(c for c in golden if c["argv"] == ["normalize", "xp(1)*xm(1)"])
    assert main(["normalize", "xp(1)*xm(1)"]) == want["exit"]
    assert capsys.readouterr() == (want["stdout"], want["stderr"])


# ---------------------------------------------------------------------------
# fuzz: every input ends in a documented exit code, and printed normal
# forms parse back.  Integers stay small (lam(1,1,900) alone runs for
# minutes), and a product's factors carry at most three generators in all:
# `normalize` joins multi-word factors by `multiply`, but the test's own
# check normalizes the free product, where k factors of n words build n^k
# words first, and one inserted "*" must not make such a product.

_INDEX = st.integers(-3, 3)
_ORDER = st.integers(0, 3)
_SIGN = st.sampled_from("+-")


def _call(name, *args):
    return f"{name}({','.join(map(str, args))})"


# (text, bound on the PBW degree of its value)
_LEAVES = st.one_of(
    st.builds(lambda n, j: (_call(n, j), 1), st.sampled_from(("xp", "xm", "h")), _INDEX),
    st.builds(lambda j, l, k: (_call("lam", j, l, k), k), _INDEX, _INDEX, _ORDER),
    st.builds(lambda u, j, l: (_call("p", u, j, l), 1), _ORDER, _INDEX, _INDEX),
    st.builds(lambda s, u, j, l: (_call("d1", s, u, j, l), 1), _SIGN, _ORDER, _INDEX, _INDEX),
    st.builds(lambda s, u, v, j, l: (_call("duv", s, u, v, j, l), v),
              _SIGN, _ORDER, _ORDER, _INDEX, _INDEX),
    st.builds(lambda s, u, j, k, m: (_call("dt", s, u, j, k, m), 1),
              _SIGN, _ORDER, _INDEX, _INDEX, _INDEX),
    st.builds(lambda n, d: (f"{n}/{d}", 0), _ORDER, _ORDER),
    _ORDER.map(lambda n: (str(n), 0)),
)

_FORMS = ("+", "-", "*", "neg", "paren", "bracket", "dp", "binom")
_EXTRA_TOKENS = ("+", "-", "*", "/", "(", ")", "[", "]", ",", "0", "2", "h", "lam", "dp", "@")


@st.composite
def _expressions(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(_LEAVES)
    form = draw(st.sampled_from(_FORMS))
    a, da = draw(_expressions(depth - 1))
    if form == "neg":
        return f"-{a}", da
    if form == "paren":
        return f"({a})", da
    if form in ("dp", "binom"):
        n = draw(_ORDER)
        return _call(form, a, n), n
    b, db = draw(_expressions(depth - 1))
    if form == "bracket":
        return f"[{a}, {b}]", 1
    if form == "*" and da + db <= 3:
        return f"{a}*{b}", da + db
    return f"{a} {'-' if form == '-' else '+'} {b}", max(da, db)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_normalize_fuzz(data):
    tokens = re.findall(r"\d+|\w+|\S", data.draw(_expressions())[0])
    edit = data.draw(st.sampled_from(("keep", "insert", "delete")))
    if edit == "insert":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(_EXTRA_TOKENS)))
    elif edit == "delete":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    text = " ".join(tokens)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["normalize", "--", text])
    assert rc in (0, 1, 2), text
    if rc == 0:
        assert evaluate(parse(out.getvalue())) == pbw_normal_form(evaluate(parse(text))), text
    else:
        assert err.getvalue() and not out.getvalue(), text
