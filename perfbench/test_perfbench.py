"""Tests of the benchmark's own code.  Run with ``python3 -m pytest perfbench``
from the repository root."""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import measure  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# --- span arithmetic --------------------------------------------------------

def test_self_time_of_synthetic_nested_spans():
    # a [0, 100] holds b [10, 40] and d [50, 70]; b holds c [20, 30].
    spans = [
        ["a", -1, 0, 100],
        ["b", 0, 10, 40],
        ["c", 1, 20, 30],
        ["d", 0, 50, 70],
    ]
    assert tracer.self_times(spans) == [50, 20, 10, 20]
    totals = tracer.layer_totals(spans)
    assert totals["a"] == {"busy": 100, "self": 50}
    assert totals["b"] == {"busy": 30, "self": 20}
    assert totals[""]["busy"] == 100


def test_nested_call_of_the_same_layer_is_busy_once():
    spans = [["x", -1, 0, 50], ["x", 0, 10, 20], ["y", -1, 60, 70]]
    totals = tracer.layer_totals(spans)
    assert totals["x"] == {"busy": 50, "self": 50}
    assert totals[""]["busy"] == 60


def test_recorder_spans_nest_and_self_times_add_up():
    recorder = tracer.Recorder()

    def inner(k):
        return sum(range(k))

    wrapped_inner = recorder.span("inner", inner)

    def outer():
        return wrapped_inner(1000) + wrapped_inner(2000)

    assert recorder.span("outer", outer)() == sum(range(1000)) + sum(range(2000))
    spans = recorder.spans
    assert [s[:2] for s in spans] == [["outer", -1], ["inner", 0], ["inner", 0]]
    own = tracer.self_times(spans)
    outer_span, first, second = spans
    assert own[0] == (outer_span[3] - outer_span[2]) - (first[3] - first[2]) - (second[3] - second[2])
    assert sum(own) == outer_span[3] - outer_span[2]
    assert recorder.counters == {"outer.calls": 1, "inner.calls": 2}


# --- output normalization ---------------------------------------------------

RECORD = {
    "schema_version": 1,
    "command": "selftest",
    "params": {"format": "json", "elapsed_s": 7},
    "relations": [],
    "verdicts": [
        {"id": 1, "verdict": "PASS", "detail": "ok", "elapsed_s": 0.25},
        {"id": 2, "verdict": "FAIL", "detail": "no", "elapsed_s": 1.5},
    ],
    "notes": ["elapsed_ms stays in notes"],
    "elapsed_ms": 1750.0,
}


def test_normalizer_removes_exactly_the_timing_fields():
    normalized = measure.normalize(RECORD)
    expected = json.loads(json.dumps(RECORD))
    del expected["elapsed_ms"]
    for verdict in expected["verdicts"]:
        del verdict["elapsed_s"]
    assert normalized == expected
    assert normalized["params"]["elapsed_s"] == 7
    assert RECORD["elapsed_ms"] == 1750.0  # the input is left untouched


def test_digest_ignores_timings_and_sees_everything_else():
    base = measure.digest(1, json.dumps(RECORD))
    retimed = json.loads(json.dumps(RECORD))
    retimed["elapsed_ms"] = 3.0
    retimed["verdicts"][0]["elapsed_s"] = 9.0
    assert measure.digest(1, json.dumps(retimed)) == base
    assert measure.digest(0, json.dumps(RECORD)) != base
    changed = json.loads(json.dumps(RECORD))
    changed["verdicts"][1]["detail"] = "yes"
    assert measure.digest(1, json.dumps(changed)) != base
    assert measure.digest(2, "") != measure.digest(2, "refused")


# --- percentile rule --------------------------------------------------------

def test_tail_percentile_examples():
    assert measure.tail_percentile(20) == 50
    assert measure.tail_percentile(40) == 75
    assert measure.tail_percentile(100) == 90
    assert measure.tail_percentile(1000) == 99
    assert measure.tail_percentile(5) == 50


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for count in range(20, 400):
        p = measure.tail_percentile(count)
        assert measure.beyond(count, p) >= 10
        assert p == 99 or measure.beyond(count, p + 1) < 10
        values = list(range(count))
        assert sum(v > measure.nearest_rank(values, p) for v in values) == measure.beyond(count, p)


# --- workloads and the benchmark definition ---------------------------------

def _golden():
    with open(os.path.join(ROOT, "perfbench", "golden.json")) as fh:
        return json.load(fh)


def test_golden_covers_every_grid_point():
    golden = _golden()
    assert "--help" in golden
    for argv in workloads.grid_points():
        assert workloads.key(argv) in golden


def test_sampling_is_seeded_and_stratified():
    costs = {k: v["ref_ms"] for k, v in _golden().items()}
    for workload in workloads.WORKLOADS:
        first = workloads.sample(workload, 1, costs)
        assert first == workloads.sample(workload, 1, costs)
        assert first != workloads.sample(workload, 2, costs)
        assert len(first) == sum(f.count for f in workload.families)
        for family in workload.families:
            picked = [argv for argv, _ in first if argv in family.grid]
            assert len(picked) == family.count


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        row[:3] for row in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        row[:3] for row in run.PER_LAYER]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS]
