"""Self-tests of the benchmark.  Run with ``python3 -m pytest perfbench -q``."""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import queries  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SMALL_GRID = ("--max-index", "2", "--max-order", "2")


def test_stream_is_deterministic_per_seed():
    first = queries.stream(7, 3)
    assert first == queries.stream(7, 3)
    assert first != queries.stream(8, 3)
    assert len(first) == 3 * queries.LIGHT_PER_SECOND \
        + len(queries.HEAVY) * queries.HEAVY_REPEATS
    assert sorted(map(tuple, first)) != sorted(map(tuple, queries.stream(8, 3)))


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_cache_names_cover_the_registry():
    import onsager.cli  # noqa: F401  (imports every module that registers a cache)
    from onsager import caches

    named = tracer.registered_caches()
    assert sorted(named) == sorted(run.CACHES)
    assert len(named) == len(caches._REGISTRY)


def test_self_time_is_safe_under_recursion():
    t = tracer.Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = t._wrap("elements.lambda_rec", depth)
    assert wrapped(5) == 5
    assert t.calls["elements.lambda_rec"] == 6
    root = next(s for s in t.spans if s[3] == -1)
    # self times of a call chain add up to the outermost span exactly
    assert t.self_ns["elements.lambda_rec"] == root[2] - root[1]
    assert all(s[3] == -1 or t.spans[s[3]][0] == "elements.lambda_rec" for s in t.spans)


def test_traced_verify_report_equals_untraced(tmp_path):
    program = run.Program()
    cold = program.cold(run.verify_args(1, SMALL_GRID))
    traced, tag_s, summary = run.traced_verify(program, SMALL_GRID, tmp_path / "spans.json")
    assert traced == cold.out
    assert set(tag_s) == set(run.TAGS)
    assert summary["calls"]["cli.main"] == len(run.TAGS)
    assert (tmp_path / "spans.json").stat().st_size > 0


def _play(fault: bool) -> dict:
    # each request uses an [h, x] structure constant
    requests = [["normalize", "xp(1)*h(2)*xm(1)", "--format", "json"],
                ["bracket", "h(1)", "xp(2)", "--format", "json"],
                ["realize", "[xm(1),h(1)]"]]
    result = run.query_stream(0, 1, False, run.Program(fault=fault), requests=requests)
    args = argparse.Namespace(workload="query-stream", seed=0, seconds=1, trace=0)
    return run.report(result, args)


def test_gate_passes_the_real_program():
    payload = _play(fault=False)
    assert payload["correct"] and payload["failed"] == 0
    assert set(payload["metrics"]) == set(run.END_TO_END)


def test_gate_catches_a_wrong_structure_constant():
    payload = _play(fault=True)
    assert not payload["correct"]
    assert payload["failed"] == 3 and payload["attempted"] == 3
    assert payload["metrics"] == {}


def test_tail_keeps_ten_samples_beyond_it():
    assert run.tail(list(range(1000))) == ("p99", 989)
    assert run.tail(list(range(100))) == ("p90.0", 89)
    assert run.tail([3.0, 1.0, 2.0]) == ("max", 3.0)


def test_verify_gate_counts_the_instances_that_disagree():
    results = [{"id": tag, "pass": tag != "THMAUDIT"} for tag in ("I5", "THMAUDIT", "LL")]
    report = json.dumps({"results": results, "summary": {"pass": 2, "fail": 1}})
    assert run.verify_failures(report, 1) == run.VERIFY_INSTANCES  # digest differs
    results[0]["pass"] = False
    assert run.verify_failures(json.dumps({"results": results, "summary": {}}), 1) == 1
    assert run.verify_failures("not json", 1) == run.VERIFY_INSTANCES
