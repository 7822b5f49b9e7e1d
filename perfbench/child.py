"""Program side of the benchmark: one process running the onsager package.

    child.py ready TIMING [--fault]
        import onsager.cli, stamp the time, exit (set-up time)
    child.py cold TIMING [--fault] -- ARGV...
        run onsager.cli.main(ARGV) once, exactly as the `onsager` command does
    child.py serve TIMING [--fault] [--trace SPANS]
        answer JSON-line requests {"argv": [...], "clear": bool} on stdin
        with onsager.cli.main, caches kept warm across requests

TIMING receives one JSON object: ``time.perf_counter`` stamps, which are
CLOCK_MONOTONIC and so comparable with the parent's, the peak RSS and
per-mode extras.  ``--fault`` sets ``lie._H_X_SCALE = Fraction(3)`` and
clears every cache; only the self-tests use it, to show the correctness
gate catches a wrong structure constant.
"""

import time

import onsager.cli as cli

READY = time.perf_counter()

import contextlib  # noqa: E402  (after the stamp: not part of set-up)
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402


def _write(path: str, payload: dict) -> None:
    payload["ready"] = READY
    payload["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _inject_fault() -> None:
    from onsager import caches, lie

    lie._H_X_SCALE = Fraction(3)
    caches.clear_all()


def cold(timing: str, argv: list[str]) -> int:
    instance_s: list[float] = []
    if argv and argv[0] == "verify":
        run_suite = cli.run_suite

        def capture(cfg):
            report = run_suite(cfg)
            instance_s.extend(r.elapsed for r in report.results)
            return report

        cli.run_suite = capture
    rc = cli.main(argv)
    sys.stdout.flush()
    _write(timing, {"end": time.perf_counter(), "rc": rc, "instance_s": instance_s})
    return rc


def serve(timing: str, spans_path: str | None) -> int:
    from onsager import caches

    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    replies = sys.stdout
    replies.write("ready\n")
    replies.flush()
    for n, line in enumerate(sys.stdin):
        request = json.loads(line)
        if request.get("clear"):
            caches.clear_all()
        if tracer:
            tracer.request = n
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(request["argv"])
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.note_caches()
        replies.write(json.dumps({"rc": rc, "out": out.getvalue(), "err": err.getvalue(),
                                  "s": elapsed}) + "\n")
        replies.flush()
    payload = {}
    if tracer:
        payload["trace"] = tracer.summary()
        tracer.dump(spans_path)
    _write(timing, payload)
    return 0


def main(args: list[str]) -> int:
    mode, timing, rest = args[0], args[1], args[2:]
    if "--" in rest:
        cut = rest.index("--")
        rest, argv = rest[:cut], rest[cut + 1:]
    else:
        argv = []
    if "--fault" in rest:
        _inject_fault()
    if mode == "ready":
        _write(timing, {})
        return 0
    if mode == "cold":
        return cold(timing, argv)
    if mode == "serve":
        spans = rest[rest.index("--trace") + 1] if "--trace" in rest else None
        return serve(timing, spans)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
