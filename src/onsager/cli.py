"""Command-line front end.

Subcommands: ``normalize``, ``bracket``, ``coords``, ``verify``,
``audit span``, ``audit theorem``, ``realize``.  Exit codes: 0 on
success / all-pass, 1 on identity failure or a computation that cannot
be completed (e.g. coordinates outside the truncation), 2 on usage
errors and on input that nests too deeply to evaluate.  All
diagnostics go to standard error; reports in JSON format are
byte-identical across runs with the same configuration.

The environment variable ``ONSAGER_CONFIG`` may point to a key=value
file providing defaults for the verify options (``max_index``,
``max_order``, ``tags``, ``jobs``, ``format``).

``main(argv)`` may be called repeatedly from one process.  Each call
reads the config file again; the argument parser is built once per
distinct set of config defaults, on first use, and kept.  JSON is
written in pieces by the C encoder, with the same bytes as one
``json.dumps(payload, sort_keys=True, separators=(",", ":"))``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import loop
from .lie import KIND_NAMES, bracket
from .uea import UEAElement, from_lie, pbw_normal_form
from .expr import (
    DomainError,
    ExprSyntaxError,
    as_lie,
    evaluate,
    parse,
)
from .straighten import (
    AmbiguousSolution,
    NoLambdaExpression,
    OutOfTruncation,
    coordinates,
    monomial_to_text,
)
from .verify import (
    _FORMATS,
    CATALOG,
    SuiteConfig,
    SuiteReport,
    audit_span,
    audit_theorem,
    run_suite,
)

ENV_CONFIG = "ONSAGER_CONFIG"


# ---------------------------------------------------------------------------
# JSON serialization

def element_to_json(u: UEAElement) -> dict:
    words = []
    for w in u.words():
        words.append({
            "coeff": str(u.coeffs[w]),
            "factors": [{"kind": KIND_NAMES[b.kind], "index": b.index} for b in w],
        })
    return {"words": words}


def report_to_json(report: SuiteReport) -> dict:
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
            "ms": 0,  # fixed so identical configs give identical bytes
        })
    return {
        "config": {
            "max_index": cfg.max_index,
            "max_order": cfg.max_order,
            "tags": list(cfg.tags),
            # jobs is accepted but not report content: reports must be
            # byte-identical whatever --jobs says
            "format": cfg.format,
        },
        "results": results,
        "summary": {"pass": report.n_pass, "fail": report.n_fail},
    }


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _emit_json(payload: dict) -> None:
    """Write ``payload`` as sorted compact JSON and a newline.

    ``json.dump`` always runs the pure-Python encoder, so each top-level
    key, each non-list value and each item of a list value is encoded
    with the C one and written at once; encoding the whole payload in one
    string would hold every chunk of a large verify report together.
    """
    write = sys.stdout.write
    write("{")
    sep = ""
    for key in sorted(payload):
        write(f"{sep}{_ENCODE(key)}:")
        sep = ","
        value = payload[key]
        if isinstance(value, list):
            write("[")
            item_sep = ""
            for item in value:
                write(item_sep + _ENCODE(item))
                item_sep = ","
            write("]")
        else:
            write(_ENCODE(value))
    write("}\n")


# ---------------------------------------------------------------------------
# Config file

def _load_config_defaults() -> dict:
    path = os.environ.get(ENV_CONFIG)
    if not path:
        return {}
    defaults: dict = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for raw in fh:
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"malformed line: {line!r}")
                key, value = (s.strip() for s in line.split("=", 1))
                if key in ("max_index", "max_order", "jobs"):
                    defaults[key] = int(value)
                elif key == "tags":
                    defaults["suite"] = value
                elif key == "format":
                    if value not in _FORMATS:
                        raise ValueError(f"unknown format: {value}")
                    defaults["format"] = value
                else:
                    raise ValueError(f"unknown key: {key!r}")
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return defaults


# ---------------------------------------------------------------------------
# Commands

def _eval_arg(text: str) -> UEAElement:
    return evaluate(parse(text))


def cmd_normalize(args) -> int:
    nf = pbw_normal_form(_eval_arg(args.expr))
    if args.format == "json":
        _emit_json(element_to_json(nf))
    else:
        print(nf)
    return 0


def cmd_bracket(args) -> int:
    out = from_lie(bracket(as_lie(_eval_arg(args.left)), as_lie(_eval_arg(args.right))))
    if args.format == "json":
        _emit_json(element_to_json(out))
    else:
        print(out)
    return 0


def cmd_coords(args) -> int:
    try:
        coords = coordinates(_eval_arg(args.expr), args.mdegree, args.index)
    except OutOfTruncation as exc:
        print(f"error: out of truncation: {exc}", file=sys.stderr)
        return 1
    except AmbiguousSolution as exc:
        print(f"error: coordinates not unique at this truncation "
              f"(kernel dimension {len(exc.kernel)})", file=sys.stderr)
        return 1
    except NoLambdaExpression as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    nonzero = {w: c for w, c in coords.items() if c != 0}
    integral = all(c.denominator == 1 for c in nonzero.values())
    if args.format == "json":
        _emit_json({
            "coordinates": [
                {"monomial": monomial_to_text(w), "coeff": str(c)}
                for w, c in sorted(nonzero.items(),
                                   key=lambda item: monomial_to_text(item[0]))
            ],
            "integral": integral,
        })
    else:
        for w, c in sorted(nonzero.items(), key=lambda item: monomial_to_text(item[0])):
            print(f"{str(c):>8}  {monomial_to_text(w)}")
        print(f"integral: {'true' if integral else 'false'}")
    return 0


def cmd_verify(args) -> int:
    tags = CATALOG
    if args.suite:
        requested = args.suite.split(",")
        unknown = [t for t in requested if t and t not in CATALOG]
        if unknown:
            print(f"error: unknown tags: {','.join(unknown)}", file=sys.stderr)
            return 2
        tags = tuple(t for t in CATALOG if t in requested)
    cfg = SuiteConfig(max_index=args.max_index, max_order=args.max_order,
                      tags=tags, jobs=args.jobs, format=args.format)
    report = run_suite(cfg)
    if args.format == "json":
        _emit_json(report_to_json(report))
    else:
        for r in report.results:
            status = "pass" if r.passed else "FAIL"
            params = ",".join(f"{k}={v}" for k, v in r.params.items())
            print(f"{r.tag:8s} {status}  {params}  ({r.elapsed * 1000:.1f} ms)")
        print(f"summary: pass={report.n_pass} fail={report.n_fail}")
    return 0 if report.all_pass else 1


def cmd_audit_span(args) -> int:
    report = audit_span(args.parity, args.cutoff)
    if args.format == "json":
        _emit_json({
            "parity": report.parity,
            "cutoff": report.cutoff,
            "dimension": report.dimension,
            "rank": report.rank,
            "quotient": [f"h({k})" for k in report.quotient],
        })
    else:
        print(f"parity {report.parity}, cutoff {report.cutoff}: "
              f"dimension {report.dimension}, rank {report.rank}")
        quotient = ", ".join(f"h({k})" for k in report.quotient) or "none"
        print(f"quotient directions: {quotient}")
    return 0


def cmd_audit_theorem(args) -> int:
    report = audit_theorem(args.mdegree, args.index)
    if args.format == "json":
        _emit_json({
            "max_mdegree": report.max_mdegree,
            "max_index": report.max_index,
            "count": report.count,
            "rank": report.rank,
            "independent": report.independent,
            "triangular": report.triangular,
            "collisions": [[monomial_to_text(a), monomial_to_text(b)]
                           for a, b in report.collisions],
            "sample_size": report.sample_size,
            "integral": report.integral,
        })
    else:
        print(f"monomials: {report.count}, rank: {report.rank} "
              f"({'independent' if report.independent else 'DEPENDENT, codimension ' + str(report.codimension)})")
        print(f"leading terms: "
              f"{'triangular' if report.triangular else str(len(report.collisions)) + ' collisions'}")
        print(f"integrality sample: {report.sample_size} products, "
              f"{'all integral' if report.integral else 'NON-INTEGRAL: ' + str(report.nonintegral)}")
    return 0


def cmd_realize(args) -> int:
    mat = loop.embed(as_lie(_eval_arg(args.expr)))
    for row in ((mat.a11, mat.a12), (mat.a21, mat.a22)):
        print("[ " + "   ".join(map(repr, row)) + " ]")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser(defaults: dict) -> _ArgumentParser:
    parser = _ArgumentParser(prog="onsager",
                             description="Exact kernel for the Onsager algebra "
                                         "and its integral enveloping form.")
    sub = parser.add_subparsers(dest="command", required=True)

    def fmt(p):
        p.add_argument("--format", choices=_FORMATS,
                       default=defaults.get("format", "text"))

    p = sub.add_parser("normalize", help="PBW normal form of an expression")
    p.add_argument("expr")
    fmt(p)
    p.set_defaults(func=cmd_normalize)

    p = sub.add_parser("bracket", help="Lie bracket of two degree-one expressions")
    p.add_argument("left")
    p.add_argument("right")
    fmt(p)
    p.set_defaults(func=cmd_bracket)

    p = sub.add_parser("coords", help="integral-basis coordinates at a truncation")
    p.add_argument("expr")
    p.add_argument("--mdegree", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    fmt(p)
    p.set_defaults(func=cmd_coords)

    p = sub.add_parser("verify", help="run the identity suite")
    p.add_argument("--suite", default=defaults.get("suite"),
                   help="comma-separated tags (default: all)")
    p.add_argument("--max-index", type=int, default=defaults.get("max_index", 3))
    p.add_argument("--max-order", type=int, default=defaults.get("max_order", 3))
    p.add_argument("--jobs", type=int, default=defaults.get("jobs", 1),
                   help="accepted for compatibility; the suite runs in one thread")
    fmt(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("audit", help="structural audits")
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    q = audit_sub.add_parser("span", help="power-sum span rank per parity class")
    q.add_argument("--parity", choices=("even", "odd"), required=True)
    q.add_argument("--cutoff", type=int, required=True)
    fmt(q)
    q.set_defaults(func=cmd_audit_span)

    q = audit_sub.add_parser("theorem", help="basis independence and triangularity")
    q.add_argument("--mdegree", type=int, required=True)
    q.add_argument("--index", type=int, required=True)
    fmt(q)
    q.set_defaults(func=cmd_audit_theorem)

    p = sub.add_parser("realize", help="matrix form under the loop realization")
    p.add_argument("expr")
    p.set_defaults(func=cmd_realize)

    return parser


# parsers by config defaults, built on first use (not at import); parsing
# leaves a parser unchanged and usage lines take COLUMNS when printed, so
# one parser serves every call with the same defaults
_PARSERS: dict[tuple, _ArgumentParser] = {}


def main(argv: list[str] | None = None) -> int:
    try:
        defaults = _load_config_defaults()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    key = tuple(sorted(defaults.items()))
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = build_parser(defaults)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ExprSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nests too deeply to evaluate", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
