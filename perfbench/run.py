"""Benchmark of the onsager package: three workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program runs from ``src/`` there.

Workloads:
  verify-grid   `onsager verify --format json` at the default grid (index <= 3,
                order <= 3, 25 tags, 3218 instances), each in a cold process,
                once with --jobs 1 and once with --jobs 2; the seed picks which
                runs first.  Every kernel layer does bulk work on cold caches.
  audit-coords  cold `audit theorem --mdegree 3 --index 3`, the four span
                audits and one `coords` call per solver outcome (unique,
                ambiguous, no solution), in an order the seed shuffles.
                Dense elimination dominates.
  query-stream  one long-lived process and one closed-loop client sending the
                seeded stream of `normalize`, `bracket` and `realize` requests
                from queries.py through onsager.cli.main; caches stay warm.
                --seconds sets the stream length (60 light requests per second
                plus a fixed heavy set); the cold workloads are fixed-size.

End-to-end metrics, on every workload: setup_s (median over SETUP_SPAWNS
cold starts, from spawn to `import onsager.cli` done), wall_s (the work after
set-up), ops_per_s, p50_ms and p99_ms of one operation (a verify instance at
--jobs 1, an audit or coords command after set-up, a request as the client
sees it), and peak_rss_mb of the program processes.

With --trace 0 the run reports the end-to-end metrics; with --trace 1 it
repeats the workload inside traced processes (tracer.py) and reports the
per-layer metrics and the tracing overhead (traced minus untraced wall_s).
Every output is checked; on any mismatch the result carries no metrics and
the exit code is 1.  Lines before the last one are the environment header
and every metric by name with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CHILD = HERE / "child.py"

sys.path.insert(0, str(HERE))
import queries  # noqa: E402
import tracer  # noqa: E402

TIME_LIMIT_S = 170
SETUP_SPAWNS = 7

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "peak_rss_mb": "MB",
}

TAGS = (
    "I5", "I6", "I7", "I8", "I9",
    "XKL1", "XJLN", "DU1", "DUV", "LREC", "PU", "P2N1", "P2N",
    "PNEWD", "BXP", "BPD", "DU1L", "LDP", "UD", "LDXM",
    "LL", "BRKDEG", "CORINT", "THMAUDIT", "REALIZE",
)

CACHES = (
    "elements._D1_CACHE", "elements._DUV_CACHE", "elements._LAMBDA_CACHE",
    "elements._P_CACHE", "straighten._DUV_MFORM", "straighten._FACTOR_EXPAND",
    "straighten._MERGE_CACHE", "straighten._WORD_EXPAND", "uea._NF_CACHE",
)

PER_LAYER = {
    **{f"{fn}.{kind}": unit for fn in tracer.FUNCTIONS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "linalg.rref.cells": "count",
    **{f"verify.tag.{tag}.s": "s" for tag in TAGS},
    **{f"caches.{name}.entries": "count" for name in CACHES},
    "trace.overhead_s": "s",
}

# sha256 of the default-grid `verify --format json` report (pass 3217, fail 1)
VERIFY_DIGEST = "bba11c2df063c0e283bcc0b3b937e0744159e457ac045afba011c9f049d01d79"
VERIFY_INSTANCES = 3218
# sha256 of `audit theorem --mdegree 3 --index 3 --format json`
THEOREM_DIGEST = "2501ab22a0034b4594f973d29e8ff2224d16f4c098e5366a46bcd295a4014175"


# ---------------------------------------------------------------------------
# Program processes

class Reply:
    def __init__(self, rc: int, out: str, err: str, work_s: float, latency_s: float,
                 instance_s: list[float] = ()):
        self.rc, self.out, self.err = rc, out, err
        self.work_s = work_s  # inside the program, after set-up
        self.latency_s = latency_s  # as the caller sees it
        self.instance_s = instance_s  # per identity instance, for `verify`


class Program:
    """Starts onsager processes (child.py) on the checkout's sources."""

    def __init__(self, fault: bool = False):
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.env.pop("ONSAGER_CONFIG", None)
        self.flags = ["--fault"] if fault else []
        self.deadline = time.perf_counter() + TIME_LIMIT_S
        self.peak_rss_kb = 0
        self._n = 0
        OUT.mkdir(exist_ok=True)

    def timeout(self) -> float:
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise TimeoutError(f"benchmark exceeded {TIME_LIMIT_S} s")
        return left

    def _timing_file(self) -> Path:
        self._n += 1
        return OUT / f"timing-{os.getpid()}-{self._n}.json"

    def _read(self, path: Path) -> dict:
        data = json.loads(path.read_text(encoding="utf-8"))
        path.unlink()
        self.peak_rss_kb = max(self.peak_rss_kb, data["rss_kb"])
        return data

    def setup_s(self) -> float:
        """Median time from spawn to `import onsager.cli` done, over SETUP_SPAWNS."""
        samples = []
        for _ in range(SETUP_SPAWNS):
            path = self._timing_file()
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(CHILD), "ready", str(path)], env=self.env,
                           cwd=ROOT, check=True, timeout=self.timeout())
            samples.append(self._read(path)["ready"] - t0)
        return statistics.median(samples)

    def cold(self, argv: list[str]) -> Reply:
        """One cold process running `onsager ARGV`."""
        path = self._timing_file()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CHILD), "cold", str(path), *self.flags,
                               "--", *argv], env=self.env, cwd=ROOT, capture_output=True,
                              timeout=self.timeout())
        t1 = time.perf_counter()
        data = self._read(path)
        return Reply(proc.returncode, proc.stdout.decode(), proc.stderr.decode(),
                     data["end"] - data["ready"], t1 - t0, data["instance_s"])

    def serve(self, spans: Path | None = None) -> "Server":
        return Server(self, spans)


class Server:
    """A long-lived onsager process answering one request at a time."""

    def __init__(self, program: Program, spans: Path | None):
        self.program = program
        self.timing = program._timing_file()
        cmd = [sys.executable, str(CHILD), "serve", str(self.timing), *program.flags]
        if spans is not None:
            cmd += ["--trace", str(spans)]
        self.proc = subprocess.Popen(cmd, env=program.env, cwd=ROOT, text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.result: dict = {}

    def __enter__(self) -> "Server":
        if self.proc.stdout.readline() != "ready\n":
            raise RuntimeError("server did not start")
        return self

    def request(self, argv: list[str], clear: bool = False) -> Reply:
        self.program.timeout()
        line = json.dumps({"argv": argv, "clear": clear}) + "\n"
        t0 = time.perf_counter()
        self.proc.stdin.write(line)
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        t1 = time.perf_counter()
        if not answer:
            raise RuntimeError(f"server exited on request {argv}")
        data = json.loads(answer)
        return Reply(data["rc"], data["out"], data["err"], data["s"], t1 - t0)

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self.proc.stdin.close()
            if exc_type is None:
                self.proc.wait(timeout=self.program.timeout())
                if self.proc.returncode != 0:
                    raise RuntimeError(f"server exit code {self.proc.returncode}")
                self.result = self.program._read(self.timing)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Measurement helpers

def tail(samples: list[float]) -> tuple[str, float]:
    """Nearest-rank p99 when at least ten samples lie beyond it, else the
    highest percentile that has ten beyond it (the maximum for ten or fewer)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = -(-99 * n // 100)
    if n - rank >= 10:
        return "p99", ordered[rank - 1]
    if n <= 10:
        return "max", ordered[-1]
    return f"p{100 * (n - 10) / n:.1f}", ordered[n - 11]


class Result:
    def __init__(self, workload: str, caches: str):
        self.workload, self.caches = workload, caches
        self.attempted = self.failed = 0
        self.metrics: dict[str, tuple[float, str]] = {}  # reported in the JSON
        self.notes: dict[str, tuple[float, str]] = {}  # printed only
        self.mismatches: list[str] = []

    def record(self, attempted: int, failed: int, what: str) -> None:
        """Count operations checked; ``what`` describes the failed ones."""
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.mismatches.append(what)

    def latency(self, samples_s: list[float]) -> None:
        label, value = tail(samples_s)
        self.metrics["p50_ms"] = (statistics.median(samples_s) * 1000, "ms")
        self.metrics["p99_ms"] = (value * 1000, "ms")
        self.notes["latency_samples"] = (len(samples_s), "count")
        self.notes[f"latency_tail_is_{label}"] = (value * 1000, "ms")


def end_to_end(result: Result, program: Program, setup_s: float, wall_s: float,
               ops: int) -> None:
    result.metrics["setup_s"] = (setup_s, "s")
    result.metrics["wall_s"] = (wall_s, "s")
    result.metrics["ops_per_s"] = (ops / wall_s, "1/s")
    result.metrics["peak_rss_mb"] = (program.peak_rss_kb / 1024, "MB")


def layers(result: Result, summary: dict, tag_s: dict, overhead_s: float) -> None:
    for fn in tracer.FUNCTIONS:
        result.metrics[f"{fn}.calls"] = (summary["calls"][fn], "count")
        result.metrics[f"{fn}.self_s"] = (summary["self_s"][fn], "s")
    result.metrics["linalg.rref.cells"] = (summary["rref_cells"], "count")
    for tag in TAGS:
        result.metrics[f"verify.tag.{tag}.s"] = (tag_s.get(tag, 0.0), "s")
    for name in CACHES:
        result.metrics[f"caches.{name}.entries"] = (summary["cache_entries"].get(name, 0),
                                                    "count")
    result.metrics["trace.overhead_s"] = (overhead_s, "s")
    result.notes["trace.spans"] = (summary["spans"], "count")


def spans_file(workload: str) -> Path:
    return OUT / f"spans-{workload}.json"


# ---------------------------------------------------------------------------
# verify-grid

def verify_args(jobs: int, grid: tuple[str, ...] = ()) -> list[str]:
    return ["verify", "--format", "json", *grid, "--jobs", str(jobs)]


def verify_failures(out: str, rc: int) -> int:
    """Instances of a default-grid report that disagree with the expected
    one (pass 3217, fail 1: THMAUDIT); all of them when the bytes, the digest
    or the exit code are wrong but no single instance is."""
    try:
        report = json.loads(out)
    except json.JSONDecodeError:
        return VERIFY_INSTANCES
    wrong = sum(1 for r in report["results"] if r["pass"] != (r["id"] != "THMAUDIT"))
    ok = (rc == 1 and hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGEST
          and report["summary"] == {"pass": VERIFY_INSTANCES - 1, "fail": 1})
    return wrong or (0 if ok else VERIFY_INSTANCES)


def traced_verify(program: Program, grid: tuple[str, ...] = (),
                  spans: Path | None = None) -> tuple[str, dict, dict]:
    """Run the suite tag by tag in catalog order in one traced process (the
    cache state matches one --jobs 1 run) and rebuild the full report bytes."""
    from onsager.verify import CATALOG

    results, tag_s, totals = [], {}, {"pass": 0, "fail": 0}
    config = None
    with program.serve(spans) as server:
        for tag in CATALOG:
            reply = server.request(["verify", "--suite", tag, "--format", "json", *grid])
            report = json.loads(reply.out)
            config = report["config"]
            results += report["results"]
            totals = {k: totals[k] + report["summary"][k] for k in totals}
            tag_s[tag] = reply.work_s
    config["tags"] = list(CATALOG)
    combined = json.dumps({"config": config, "results": results, "summary": totals},
                          sort_keys=True, separators=(",", ":")) + "\n"
    return combined, tag_s, server.result["trace"]


def verify_grid(seed: int, seconds: int, trace: bool, program: Program) -> Result:
    result = Result("verify-grid", "cold")
    setup_s = program.setup_s()
    order = [1, 2]
    random.Random(seed).shuffle(order)
    runs = {jobs: program.cold(verify_args(jobs)) for jobs in order}
    # both reports must match one digest, so they are also byte-identical
    for jobs, reply in runs.items():
        result.record(VERIFY_INSTANCES, verify_failures(reply.out, reply.rc),
                      f"verify --jobs {jobs}: report or exit code differs")
    if trace:
        report, tag_s, summary = traced_verify(program, spans=spans_file(result.workload))
        result.record(VERIFY_INSTANCES, verify_failures(report, 1),
                      "traced verify report differs from the untraced one")
        layers(result, summary, tag_s, sum(tag_s.values()) - runs[1].work_s)
        return result
    wall_s = runs[1].work_s + runs[2].work_s
    end_to_end(result, program, setup_s, wall_s, 2 * VERIFY_INSTANCES)
    result.latency(runs[1].instance_s)
    result.notes["jobs1_wall_s"] = (runs[1].work_s, "s")
    result.notes["jobs2_wall_s"] = (runs[2].work_s, "s")
    return result


# ---------------------------------------------------------------------------
# audit-coords

def _theorem_ok(rc: int, out: str, err: str) -> bool:
    if rc != 0 or hashlib.sha256(out.encode()).hexdigest() != THEOREM_DIGEST:
        return False
    report = json.loads(out)
    return (report["count"], report["rank"], len(report["collisions"]), report["integral"]) \
        == (455, 378, 91, True)


# the light commands do a few milliseconds of work each, so they run
# LIGHT_RUNS times and every command counts with its median run
LIGHT_RUNS = 5


def _span(parity: str, cutoff: int, dimension: int, quotient: str):
    argv = ["audit", "span", "--parity", parity, "--cutoff", str(cutoff), "--format", "json"]
    expected = json.dumps({"cutoff": cutoff, "dimension": dimension, "parity": parity,
                           "quotient": [quotient], "rank": dimension - 1},
                          sort_keys=True, separators=(",", ":")) + "\n"
    return "span", argv, lambda rc, out, err: rc == 0 and out == expected, LIGHT_RUNS


def _coords(expr: str, mdegree: int, index: int, rc_want: int, out_want: str,
            err_want: str, runs: int = 1):
    argv = ["coords", expr, "--mdegree", str(mdegree), "--index", str(index),
            "--format", "json"]
    return "coords", argv, \
        lambda rc, out, err: (rc, out, err) == (rc_want, out_want, err_want), runs


# (kind, argv, check of (exit code, stdout, stderr), cold runs)
AUDIT_COMMANDS = (
    ("theorem", ["audit", "theorem", "--mdegree", "3", "--index", "3", "--format", "json"],
     _theorem_ok, 1),
    _span("even", 6, 4, "h(0)"),
    _span("even", 7, 4, "h(0)"),
    _span("odd", 6, 3, "h(1)"),
    _span("odd", 7, 4, "h(1)"),
    _coords("xp(1)*xm(1)", 2, 1, 0,
            '{"coordinates":[{"coeff":"1","monomial":"dp(xm(1),1)*dp(xp(1),1)"},'
            '{"coeff":"-1","monomial":"lam(1,1,1)"}],"integral":true}\n', "", LIGHT_RUNS),
    _coords("xp(1)*xm(1)", 3, 3, 1, "",
            "error: coordinates not unique at this truncation (kernel dimension 77)\n"),
    _coords("dp(xp(1),2)*dp(xm(1),2)", 4, 2, 1, "",
            "error: out of truncation: no expression within mdegree 4, index 2\n"),
)


def audit_coords(seed: int, seconds: int, trace: bool, program: Program) -> Result:
    result = Result("audit-coords", "cold")
    setup_s = program.setup_s()
    runs = [i for i, command in enumerate(AUDIT_COMMANDS) for _ in range(command[3])]
    random.Random(seed).shuffle(runs)
    replies: dict[int, list[Reply]] = {i: [] for i in range(len(AUDIT_COMMANDS))}
    for i in runs:
        _, argv, ok, _ = AUDIT_COMMANDS[i]
        reply = program.cold(argv)
        result.record(1, int(not ok(reply.rc, reply.out, reply.err)),
                      f"{' '.join(argv)}: wrong output")
        replies[i].append(reply)
    kinds = [command[0] for command in AUDIT_COMMANDS]
    work = [statistics.median(r.work_s for r in replies[i]) for i in replies]
    wall_s = sum(work)
    if trace:
        traced_s = 0.0
        with program.serve(spans_file(result.workload)) as server:
            for _, argv, ok, _ in AUDIT_COMMANDS:
                reply = server.request(argv, clear=True)
                result.record(1, int(not ok(reply.rc, reply.out, reply.err)),
                              f"traced {' '.join(argv)}: wrong output")
                traced_s += reply.work_s
        layers(result, server.result["trace"], {}, traced_s - wall_s)
        return result
    end_to_end(result, program, setup_s, wall_s, len(AUDIT_COMMANDS))
    result.latency(work)
    result.notes["audit_theorem_s"] = (sum(w for k, w in zip(kinds, work) if k == "theorem"), "s")
    result.notes["coords_s"] = (sum(w for k, w in zip(kinds, work) if k == "coords"), "s")
    return result


# ---------------------------------------------------------------------------
# query-stream

def play(program: Program, requests: list[list[str]], result: Result,
         spans: Path | None = None) -> tuple[float, list[float], dict]:
    """Send the stream closed-loop, then check every reply off the clock."""
    latencies, first, unstable = [], {}, set()
    with program.serve(spans) as server:
        t0 = time.perf_counter()
        for argv in requests:
            reply = server.request(argv)
            latencies.append(reply.latency_s)
            key = tuple(argv)
            if first.setdefault(key, (reply.rc, reply.out)) != (reply.rc, reply.out):
                unstable.add(key)
        wall_s = time.perf_counter() - t0
    counts = collections.Counter(map(tuple, requests))
    for key, (rc, out) in first.items():
        ok = key not in unstable and queries.check(list(key), rc, out)
        result.record(counts[key], 0 if ok else counts[key],
                      f"{list(key)}: disagrees with the oracle or with an earlier reply")
    return wall_s, latencies, server.result


def query_stream(seed: int, seconds: int, trace: bool, program: Program,
                 requests: list[list[str]] | None = None) -> Result:
    result = Result("query-stream", "warm")
    setup_s = program.setup_s()
    if requests is None:
        requests = queries.stream(seed, seconds)
    wall_s, latencies, _ = play(program, requests, result)
    if trace:
        traced_s, _, server = play(program, requests, result, spans_file(result.workload))
        layers(result, server["trace"], {}, traced_s - wall_s)
        return result
    end_to_end(result, program, setup_s, wall_s, len(requests))
    result.latency(latencies)
    return result


WORKLOADS = {
    "verify-grid": verify_grid,
    "audit-coords": audit_coords,
    "query-stream": query_stream,
}


# ---------------------------------------------------------------------------
# Reporting

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def environment(args, caches: str) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "commit": git_commit(),
        "workload": args.workload,
        "caches": caches,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def report(result: Result, args) -> dict:
    """Print the header and every metric by name; return the JSON result."""
    print("# environment " + json.dumps(environment(args, result.caches), sort_keys=True))
    names = PER_LAYER if args.trace else END_TO_END
    correct = result.failed == 0
    for name, (value, unit) in {**result.metrics, **result.notes}.items():
        print(f"{result.workload:13s} {name:40s} {value:>16.6f} {unit}")
    ratio = result.failed / max(result.attempted, 1)
    print(f"{result.workload:13s} {'failed_ratio':40s} {ratio:>16.6f} ratio "
          f"({result.failed} of {result.attempted})")
    for line in result.mismatches[:20]:
        print(f"# mismatch: {line}")
    metrics = {}
    if correct:
        metrics = {name: {"value": result.metrics[name][0], "unit": unit}
                   for name, unit in names.items()}
    return {"correct": correct, "attempted": result.attempted, "failed": result.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "onsager" / "cli.py").is_file():
        print(f"error: no onsager sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    sys.path.insert(0, str(ROOT / "src"))
    result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), Program())
    payload = report(result, args)
    print(json.dumps(payload, sort_keys=True))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
