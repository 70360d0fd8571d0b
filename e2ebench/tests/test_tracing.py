"""Span recording and the per-layer summary, on synthetic spans."""

import json
import os

import pytest

import tracing
from replay import UNITS


def test_timed_wrappers_nest_and_stay_idle_when_disabled():
    recorder = tracing.Recorder()
    inner = recorder.timed("inner", lambda x: x + 1)
    outer = recorder.timed("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert recorder.spans == []
    recorder.enabled = True
    assert outer(1) == 4
    (inner_id, inner_parent, inner_name, *_), (outer_id, outer_parent, outer_name, *_) = (
        recorder.spans
    )
    assert (inner_name, outer_name) == ("inner", "outer")
    assert inner_parent == outer_id and outer_parent is None


def test_counted_wrappers_sum_across_calls():
    recorder = tracing.Recorder()
    counted = recorder.counted("items", len, amount=lambda args: len(args[0]))
    recorder.enabled = True
    counted([1, 2, 3])
    counted([4])
    assert recorder.counters()["items"] == 4


def test_summary_reports_self_time_per_op_and_coverage():
    recorder = tracing.Recorder()
    recorder.spans = [
        (1, None, "op", 0.0, 0.010),
        (2, None, "serve.submit", 0.001, 0.007),  # server thread: no parent link
        (3, 2, "store.key", 0.002, 0.006),
        (4, 1, "http.body_wait", 0.007, 0.009),
        (5, None, "op", 0.020, 0.030),
        (6, None, "spool.claim_idle", 0.020, 0.030),  # idle polling covers nothing
    ]
    summary = tracing.summarize(recorder, [(1, 0.0, 0.010), (5, 0.020, 0.030)])
    metrics = summary["metrics"]
    assert metrics["serve.submit_ms"] == pytest.approx(2.0 / 2)
    assert metrics["store.key_ms"] == pytest.approx(4.0 / 2)
    assert metrics["http.body_wait_ms"] == pytest.approx(2.0 / 2)
    assert metrics["store.key_calls"] == 0.5
    assert metrics["http.stalled_share"] == 0.0
    assert metrics["trace.coverage"] == pytest.approx(0.008 / 0.020)
    assert summary["layer_self_ms"]["store keys"] == pytest.approx(2.0)


def test_benchmark_file_names_every_printed_metric():
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == UNITS
    assert [m["name"] for m in benchmark["end_to_end"]] == [
        "latency_p50_ms", "latency_tail_ms", "ops_per_s", "setup_s", "peak_rss_mb",
    ]
    assert [w["name"] for w in benchmark["workloads"]] == ["serve-warm", "serve-cold", "cli-sweep"]


def test_queue_wait_pairs_enqueue_and_claim_in_either_order():
    class Job:
        def __init__(self, job_id):
            self.id = job_id

    recorder = tracing.Recorder()
    recorder.enabled = True
    recorder.note_enqueued((), "a", 1.0)
    recorder.note_claimed((), Job("a"), 1.5)
    recorder.note_claimed((), Job("b"), 2.0)  # claimed before the enqueue call returned
    recorder.note_enqueued((), "b", 2.1)
    recorder.note_claimed((), None, 3.0)  # an idle poll
    assert recorder.queue_waits == [0.5, 0.0]
