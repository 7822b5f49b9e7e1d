"""Command-line front end.

Subcommands: ``normalize``, ``bracket``, ``coords``, ``verify``,
``audit span``, ``audit theorem``, ``realize``.  Exit codes: 0 on
success / all-pass, 1 on identity failure or a computation that cannot
be completed (e.g. coordinates outside the truncation), 2 on usage
errors, on input that nests too deeply to evaluate and when memory runs
out (every registered cache is then cleared).  A reader that closes
standard output early (``onsager normalize ... | head``) gets exit 1 and
no traceback: the rest of the output is dropped.  All diagnostics go to
standard error; reports in JSON format are
byte-identical across runs with the same configuration.

The environment variable ``ONSAGER_CONFIG`` may point to a key=value
file providing defaults for the verify options (``max_index``,
``max_order``, ``tags``, ``jobs``) and, with ``format``, the default
``--format`` of every command that has one.

``main(argv)`` may be called repeatedly from one process.  Each call
reads the config file again and builds only the parser of the command it
names (every command's when it names none), once per command and set of
config defaults, on first use, and kept.  Each call raises the garbage
collector's thresholds to ``_GC_THRESHOLDS``, as the kernel makes
millions of containers and almost no reference cycles; importing the
module leaves them alone.  Every JSON
reply has the bytes of one ``json.dumps(payload, sort_keys=True,
separators=(",", ":"))``.  An element has one writer,
:func:`element_json_text`, which builds its text straight from the
numerators with each letter's fragment built once: the replies of
``normalize`` and ``bracket`` and the verify report's counterexamples
go through it.  The verify report is written as text in one pass over
its results (:func:`_write_report_json`).  The ``coords`` and ``audit``
payloads are written in pieces by the C encoder (:func:`_emit_json`), so
a large reply is never held in one string.
The four expression commands evaluate ``*`` by
:func:`~onsager.expr.joined_product`, which returns the normal form.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

from . import caches, loop
from .lie import KIND_NAMES, bracket, ratio_text
from .uea import UEAElement, from_lie
from .expr import (
    DomainError,
    ExprSyntaxError,
    as_lie,
    evaluate,
    joined_product,
    parse,
)
from .straighten import (
    AmbiguousSolution,
    OutOfTruncation,
    coordinates,
    monomial_to_text,
)
from .verify import (
    CATALOG,
    SuiteConfig,
    SuiteReport,
    audit_span,
    audit_theorem,
    run_suite,
)

ENV_CONFIG = "ONSAGER_CONFIG"
_FORMATS = ("text", "json")


# ---------------------------------------------------------------------------
# JSON serialization

# {"index":i,"kind":"k"} of each letter printed so far: output text only,
# bounded by the distinct letters, so not a registered value cache
_LETTER_JSON: dict = {}


def element_json_text(u: UEAElement) -> str:
    """``u`` as sorted compact JSON, ``{"words":[{"coeff":..,"factors":[..]},..]}``
    in ``words()`` order, written from ``num``/``den``: no dict per word or
    letter, no ``Fraction`` and no encoder call."""
    num, den = u.num, u.den
    for b in set().union(*num).difference(_LETTER_JSON):
        _LETTER_JSON[b] = f'{{"index":{b.index},"kind":"{KIND_NAMES[b.kind]}"}}'
    letter = _LETTER_JSON.__getitem__
    words = ",".join(
        f'{{"coeff":"{ratio_text(num[w], den)}","factors":[{",".join(map(letter, w))}]}}'
        for w in u.words())
    return f'{{"words":[{words}]}}'


_ENCODE = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_report_json(report: SuiteReport) -> None:
    """Write the verify report as sorted compact JSON and a newline, one
    result at a time: no dict per result, word or letter."""
    cfg = report.config
    write = sys.stdout.write
    # jobs is accepted but not report content: reports must be
    # byte-identical whatever --jobs says
    config = _ENCODE({"format": "json", "max_index": cfg.max_index,
                      "max_order": cfg.max_order, "tags": list(cfg.tags)})
    write(f'{{"config":{config},"results":[')
    sep = ""
    for r in report.results:
        ce = "null"
        if r.counterexample is not None:
            lhs, rhs = r.counterexample
            ce = f'{{"lhs":{element_json_text(lhs)},"rhs":{element_json_text(rhs)}}}'
        # ms is fixed so identical configs give identical bytes
        write(f'{sep}{{"counterexample":{ce},"id":"{r.tag}","ms":0,'
              f'"params":{_ENCODE(r.params)},"pass":{"true" if r.passed else "false"}}}')
        sep = ","
    write(f'],"summary":{{"fail":{report.n_fail},"pass":{report.n_pass}}}}}\n')


def _emit_json(payload: dict) -> None:
    """Write ``payload`` as sorted compact JSON and a newline: the
    ``coords`` and ``audit`` replies.

    ``json.dump`` always runs the pure-Python encoder, so each top-level
    key, each non-list value and each item of a list value is encoded
    with the C one and written at once.  Encoding the whole payload in one
    string would hold every chunk together: for the (6,4) ``audit
    theorem`` reply (80,332 collisions, 8.7 MB) that raised peak RSS from
    124 to 142 MB.
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
                    try:
                        defaults[key] = int(value)
                    except ValueError:
                        raise ValueError(f"{key} must be an integer, not {value!r}") from None
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
    return evaluate(parse(text), joined_product)


def _write_element(u: UEAElement, fmt: str) -> int:
    if fmt == "json":
        # two writes: a concatenation would copy a large reply once more
        sys.stdout.write(element_json_text(u))
        sys.stdout.write("\n")
    else:
        print(u)
    return 0


def cmd_normalize(args) -> int:
    return _write_element(_eval_arg(args.expr), args.format)


def cmd_bracket(args) -> int:
    out = from_lie(bracket(as_lie(_eval_arg(args.left)), as_lie(_eval_arg(args.right))))
    return _write_element(out, args.format)


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
    # (monomial, coefficient) texts, sorted once for either format; a
    # coefficient is integral when its text has no denominator
    terms = sorted((monomial_to_text(w), str(c)) for w, c in coords.items() if c != 0)
    integral = all("/" not in c for _, c in terms)
    if args.format == "json":
        _emit_json({
            "coordinates": [{"monomial": m, "coeff": c} for m, c in terms],
            "integral": integral,
        })
    else:
        for m, c in terms:
            print(f"{c:>8}  {m}")
        print(f"integral: {'true' if integral else 'false'}")
    return 0


def cmd_verify(args) -> int:
    tags = CATALOG
    if args.suite:
        # known tags in catalog order, unknown ones after them for
        # SuiteConfig.validate to name
        requested = args.suite.split(",")
        tags = (*(t for t in CATALOG if t in requested),
                *(t for t in requested if t and t not in CATALOG))
    cfg = SuiteConfig(max_index=args.max_index, max_order=args.max_order,
                      tags=tags, jobs=args.jobs)
    report = run_suite(cfg)
    if args.format == "json":
        _write_report_json(report)
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
    print(loop.embed(as_lie(_eval_arg(args.expr))))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def _format_option(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("--format", choices=_FORMATS, default=defaults.get("format", "text"))


def _normalize_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("expr")
    _format_option(p, defaults)
    p.set_defaults(func=cmd_normalize)


def _bracket_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("left")
    p.add_argument("right")
    _format_option(p, defaults)
    p.set_defaults(func=cmd_bracket)


def _coords_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("expr")
    p.add_argument("--mdegree", type=int, required=True)
    p.add_argument("--index", type=int, required=True)
    _format_option(p, defaults)
    p.set_defaults(func=cmd_coords)


def _verify_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("--suite", default=defaults.get("suite"),
                   help="comma-separated tags (default: all)")
    p.add_argument("--max-index", type=int, default=defaults.get("max_index", 3))
    p.add_argument("--max-order", type=int, default=defaults.get("max_order", 3))
    p.add_argument("--jobs", type=int, default=defaults.get("jobs", 1),
                   help="accepted for compatibility; the suite runs in one thread")
    _format_option(p, defaults)
    p.set_defaults(func=cmd_verify)


def _audit_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    audit_sub = p.add_subparsers(dest="audit_command", required=True)

    q = audit_sub.add_parser("span", help="power-sum span rank per parity class")
    q.add_argument("--parity", choices=("even", "odd"), required=True)
    q.add_argument("--cutoff", type=int, required=True)
    _format_option(q, defaults)
    q.set_defaults(func=cmd_audit_span)

    q = audit_sub.add_parser("theorem", help="basis independence and triangularity")
    q.add_argument("--mdegree", type=int, required=True)
    q.add_argument("--index", type=int, required=True)
    _format_option(q, defaults)
    q.set_defaults(func=cmd_audit_theorem)


def _realize_args(p: argparse.ArgumentParser, defaults: dict) -> None:
    p.add_argument("expr")
    p.set_defaults(func=cmd_realize)


# every subcommand in usage order: its help line and what adds its arguments
_COMMANDS = {
    "normalize": ("PBW normal form of an expression", _normalize_args),
    "bracket": ("Lie bracket of two degree-one expressions", _bracket_args),
    "coords": ("integral-basis coordinates at a truncation", _coords_args),
    "verify": ("run the identity suite", _verify_args),
    "audit": ("structural audits", _audit_args),
    "realize": ("matrix form under the loop realization", _realize_args),
}


def build_parser(defaults: dict, names: tuple[str, ...]) -> argparse.ArgumentParser:
    """The parser of the subcommands ``names``, in the order given, with
    option defaults from the config file's ``defaults``."""
    parser = argparse.ArgumentParser(prog="onsager",
                                     description="Exact kernel for the Onsager algebra "
                                                 "and its integral enveloping form.")
    # a tree of some commands keeps the whole tree's usage line; the whole
    # tree lists its choices itself, so that its errors still name the
    # argument "command" (argparse names it by a metavar when there is one)
    metavar = None if len(names) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in names:
        help_text, add_arguments = _COMMANDS[name]
        add_arguments(sub.add_parser(name, help=help_text), defaults)
    return parser


# parsers by command names and config defaults, built on first use (not at
# import); parsing leaves a parser unchanged and usage lines take COLUMNS
# when printed, so one parser serves every call with the same key
_PARSERS: dict[tuple, argparse.ArgumentParser] = {}

# collector thresholds while the CLI runs: the kernel builds millions of
# dicts and tuples with almost no reference cycles, and the defaults
# (700, 10, 10) spend their time in passes over the growing caches.  Set by
# main, not at import, so library users keep the defaults; the collector
# stays on for the few cycles there are.
_GC_THRESHOLDS = (100_000, 50, 100)


def main(argv: list[str] | None = None) -> int:
    gc.set_threshold(*_GC_THRESHOLDS)
    try:
        defaults = _load_config_defaults()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if argv is None:
        argv = sys.argv[1:]
    # a request naming its command builds that command's parser only; any
    # other (no argument, -h, an option or an unknown word) gets them all
    names = (argv[0],) if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    key = (names, tuple(sorted(defaults.items())))
    parser = _PARSERS.get(key)
    if parser is None:
        parser = _PARSERS[key] = build_parser(defaults, names)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so
        # the flush at interpreter exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
    except MemoryError:
        caches.clear_all()  # so a warm process can answer its next request
        print("error: out of memory; the value is too large to compute", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
