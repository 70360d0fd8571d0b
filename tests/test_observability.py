"""The live-observability layer: traces, the tailer/exposition, fleet top.

Covers the PR 10 surface end to end at the unit level:

* ``repro.telemetry.trace`` — scope mechanics, record stamping and
  cross-process tree reconstruction (including queue-wait synthesis and
  the critical path);
* serve-side propagation — ``X-Trace-Id``, client-supplied trace hints,
  and the invisibility contract (tracing never perturbs tickets, ETags
  or response bytes);
* ``repro.telemetry.timeseries`` — the incremental tailer (partial
  lines, truncation, corrupt-line counting, checkpoints, window stats)
  and the Prometheus exposition it renders;
* ``repro.fleet.top`` — frame gathering/rendering and the refresh loop
  via its injection points;
* the ``repro fleet top`` / ``repro telemetry trace`` / ``repro
  telemetry export`` CLI commands.

The cross-*process* smoke (serve → worker → pool children reconstructed
from one trace id) runs in CI's serve-smoke job; here everything is
single-process and synthetic so it stays fast and deterministic.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.cli import main
from repro.engine import ResultStore
from repro.fleet import JobSpool
from repro.fleet.top import gather_frame, render_frame, run_top
from repro.serve import SimulationService
from repro.telemetry import core as telemetry
from repro.telemetry import timeseries
from repro.telemetry import trace as tracectx
from repro.telemetry.timeseries import (
    TelemetryTailer,
    metric_name,
    render_prometheus,
    validate_exposition,
)
from repro.telemetry.trace import (
    format_trace,
    list_traces,
    summarize_trace,
)


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    """Every test starts and ends with telemetry disabled and no scope."""
    telemetry.disable()
    yield
    telemetry.disable()


# --------------------------------------------------------------------- #
# trace scopes and stamping
# --------------------------------------------------------------------- #
class TestTraceContext:
    def test_mint_trace_id_shape(self):
        first, second = tracectx.mint_trace_id(), tracectx.mint_trace_id()
        assert len(first) == 16
        int(first, 16)  # hex
        assert first != second

    def test_attach_trace_nesting(self):
        assert tracectx.current_trace_id() is None
        with tracectx.attach_trace("aaaa", parent="span-1"):
            assert tracectx.current_trace_id() == "aaaa"
            assert tracectx.current_parent() == "span-1"
            with tracectx.attach_trace("bbbb"):
                assert tracectx.current_trace_id() == "bbbb"
                assert tracectx.current_parent() is None
            assert tracectx.current_trace_id() == "aaaa"
        assert tracectx.current_trace_id() is None

    def test_falsy_trace_is_a_noop_scope(self):
        with tracectx.attach_trace(None):
            assert tracectx.current_trace_id() is None
        with tracectx.attach_trace(""):
            assert tracectx.current_trace_id() is None

    def test_attach_carrier_forms(self):
        with tracectx.attach_carrier("cccc"):
            assert tracectx.current_trace_id() == "cccc"
        with tracectx.attach_carrier({"id": "dddd", "parent": "span-9"}):
            assert tracectx.current_trace_id() == "dddd"
            assert tracectx.current_parent() == "span-9"
        with tracectx.attach_carrier({}):
            assert tracectx.current_trace_id() is None
        with tracectx.attach_carrier(None):
            assert tracectx.current_trace_id() is None

    def test_stamp_marks_records_and_top_level_spans(self):
        with tracectx.attach_trace("eeee", parent="remote-1"):
            event = {"kind": "event", "name": "x"}
            tracectx.stamp(event)
            assert event["trace"] == "eeee"
            assert "trace_parent" not in event

            root_span = {"kind": "span", "name": "y", "parent_id": None}
            tracectx.stamp(root_span)
            assert root_span["trace_parent"] == "remote-1"

            child_span = {"kind": "span", "name": "z", "parent_id": "local-1"}
            tracectx.stamp(child_span)
            assert "trace_parent" not in child_span

    def test_stamp_never_overwrites(self):
        with tracectx.attach_trace("ffff", parent="remote-2"):
            record = {"kind": "span", "parent_id": None,
                      "trace": "orig", "trace_parent": "orig-parent"}
            tracectx.stamp(record)
            assert record["trace"] == "orig"
            assert record["trace_parent"] == "orig-parent"

    def test_stamp_without_scope_is_a_noop(self):
        record = {"kind": "span", "parent_id": None}
        tracectx.stamp(record)
        assert "trace" not in record

    def test_carrier_includes_current_span_id(self, tmp_path):
        telemetry.enable(str(tmp_path))
        with tracectx.attach_trace("abcd"):
            with telemetry.span("outer"):
                carrier = telemetry.trace_carrier()
                assert carrier["id"] == "abcd"
                assert carrier.get("parent")  # the live span's id
        telemetry.disable()
        assert telemetry.trace_carrier() is None


# --------------------------------------------------------------------- #
# reconstruction
# --------------------------------------------------------------------- #
def _synthetic_trace(trace="t1"):
    """A two-process serve → worker → chunk trace plus an unrelated record."""
    return [
        {"kind": "span", "name": "serve.request", "span_id": "s1",
         "parent_id": None, "process": "server", "ts": 10.0,
         "duration_seconds": 1.0, "trace": trace},
        {"kind": "event", "name": "queue.enqueue", "job": "job-a",
         "process": "server", "ts": 9.5, "trace": trace},
        {"kind": "span", "name": "worker.job", "span_id": "w1",
         "parent_id": None, "trace_parent": "s1", "process": "worker",
         "ts": 12.0, "duration_seconds": 1.5, "job": "job-a", "trace": trace},
        {"kind": "span", "name": "engine.chunk", "span_id": "c1",
         "parent_id": "w1", "process": "worker", "ts": 11.8,
         "duration_seconds": 0.8, "trace": trace},
        # noise that must not leak into the trace
        {"kind": "span", "name": "other", "span_id": "o1", "parent_id": None,
         "process": "elsewhere", "ts": 50.0, "duration_seconds": 5.0},
    ]


class TestTraceReconstruction:
    def test_summarize_links_across_processes(self):
        summary = summarize_trace(_synthetic_trace(), "t1")
        assert summary["spans"] == 3
        assert summary["events"] == 1
        assert summary["processes"] == ["server", "worker"]
        assert len(summary["roots"]) == 1
        root = summary["roots"][0]
        assert root["name"] == "serve.request"
        # worker.job attached through trace_parent, chunk through parent_id
        assert [child["name"] for child in root["children"]] == ["worker.job"]
        worker = root["children"][0]
        assert [child["name"] for child in worker["children"]] == ["engine.chunk"]
        # wall clock spans the whole tree: 9.0 (serve start) .. 12.0
        assert summary["started"] == pytest.approx(9.0)
        assert summary["wall_seconds"] == pytest.approx(3.0)

    def test_queue_wait_synthesis(self):
        summary = summarize_trace(_synthetic_trace(), "t1")
        queue = summary["queue"]
        assert queue == pytest.approx(
            {"jobs_enqueued": 1, "jobs_executed": 1,
             "mean_wait_seconds": 1.0, "max_wait_seconds": 1.0}
        )
        worker = summary["roots"][0]["children"][0]
        # enqueued at 9.5, started at 12.0 - 1.5 = 10.5
        assert worker["queue_wait_seconds"] == pytest.approx(1.0)

    def test_critical_path_is_the_latest_finishing_spine(self):
        path = summarize_trace(_synthetic_trace(), "t1")["critical_path"]
        assert [step["name"] for step in path] == [
            "serve.request", "worker.job", "engine.chunk",
        ]

    def test_format_trace_renders_the_tree(self):
        text = format_trace(summarize_trace(_synthetic_trace(), "t1"))
        assert "trace t1: 3 spans across 2 process(es)" in text
        assert "processes: server, worker" in text
        assert "queue_wait=1.000s" in text
        assert "critical path" in text
        # nesting by indentation
        assert "\nserve.request [server]" in text
        assert "\n  worker.job [worker]" in text
        assert "\n    engine.chunk [worker]" in text

    def test_unknown_trace_is_empty(self):
        summary = summarize_trace(_synthetic_trace(), "nope")
        assert summary["spans"] == 0 and summary["events"] == 0
        assert "no spans recorded" in format_trace(summary)

    def test_list_traces(self):
        events = _synthetic_trace("t1") + _synthetic_trace("t2")
        # make t2 start later so it lists first (newest first)
        for event in events[5:]:
            if "ts" in event:
                event["ts"] = event["ts"] + 100.0
        entries = list_traces(events)
        assert [entry["trace"] for entry in entries] == ["t2", "t1"]
        assert entries[1] == {
            "trace": "t1", "root": "serve.request", "spans": 3,
            "processes": 2, "started": pytest.approx(9.0),
            "wall_seconds": pytest.approx(3.0),
        }


# --------------------------------------------------------------------- #
# serve propagation + invisibility
# --------------------------------------------------------------------- #
def _service(tmp_path) -> SimulationService:
    store = ResultStore(str(tmp_path / "store"))
    spool = JobSpool(tmp_path / "spool")
    return SimulationService(store, spool)


def _body(**overrides) -> dict:
    body = {"kind": "sweep", "family": "edge-meg", "nodes": [12],
            "trials": 2, "seed": 3}
    body.update(overrides)
    return body


class TestServeTracing:
    def test_cold_submit_mints_and_stamps_a_trace(self, tmp_path):
        service = _service(tmp_path)
        result = service.submit(_body())
        assert result.status == 202
        trace_id = result.headers["X-Trace-Id"]
        assert len(trace_id) == 16
        assert result.payload["trace"] == trace_id
        # the spooled job descriptors carry the id as execution metadata
        job_ids = service.spool.pending_ids()
        assert job_ids
        for job_id in job_ids:
            path = os.path.join(service.spool.root, "jobs", f"{job_id}.json")
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            assert payload["trace"]["id"] == trace_id

    def test_client_supplied_trace_is_echoed(self, tmp_path):
        service = _service(tmp_path)
        result = service.submit(_body(trace="my-trace-01"))
        assert result.status == 202
        assert result.headers["X-Trace-Id"] == "my-trace-01"

    @pytest.mark.parametrize("bad", ["", "x" * 65, "bad trace!", 42, {"id": "x"}])
    def test_invalid_trace_hint_is_a_400(self, tmp_path, bad):
        service = _service(tmp_path)
        result = service.submit(_body(trace=bad))
        assert result.status == 400
        assert "trace must be a short alphanumeric id" in result.payload["error"]["message"]

    def test_trace_hint_does_not_perturb_identity(self, tmp_path):
        plain_service = _service(tmp_path / "a")
        traced_service = _service(tmp_path / "b")
        plain = plain_service.submit(_body())
        traced = traced_service.submit(_body(trace="abcdef0123456789"))
        assert plain.status == traced.status == 202
        assert plain.payload["ticket"] == traced.payload["ticket"]
        assert plain.headers["ETag"] == traced.headers["ETag"]
        # deterministic job ids: the trace hint never reaches the digest
        assert plain_service.spool.pending_ids() == traced_service.spool.pending_ids()

    def test_poll_echoes_the_submission_trace(self, tmp_path):
        service = _service(tmp_path)
        submitted = service.submit(_body(trace="roundtrip-trace"))
        polled = service.poll(submitted.payload["ticket"])
        assert polled.headers["X-Trace-Id"] == "roundtrip-trace"

    def test_metrics_text_is_valid_exposition(self, tmp_path):
        telemetry.enable(str(tmp_path / "telemetry"))
        service = _service(tmp_path)
        service.submit(_body())           # miss
        service.submit(_body())           # duplicate -> still cold/pending
        text = service.metrics_text()
        assert validate_exposition(text) > 0
        values = {}
        for line in text.splitlines():
            if line and not line.startswith("#"):
                name = line.split("{")[0].split(" ")[0]
                values[name] = float(line.rsplit(" ", 1)[1])
        assert values["repro_serve_requests_total"] >= 2
        assert values["repro_traces_total"] >= 0
        assert "repro_build_info" in values

    def test_metrics_text_without_telemetry_directory(self, tmp_path):
        service = _service(tmp_path)
        service.submit(_body())
        text = service.metrics_text()
        assert validate_exposition(text) > 0


# --------------------------------------------------------------------- #
# the incremental tailer
# --------------------------------------------------------------------- #
def _append(path, lines) -> None:
    with open(path, "a", encoding="utf-8") as handle:
        for line in lines:
            handle.write(line if isinstance(line, str) else json.dumps(line))
            handle.write("\n")


class TestTelemetryTailer:
    def test_incremental_poll(self, tmp_path):
        events = tmp_path / "events-a.jsonl"
        _append(events, [{"kind": "event", "name": "queue.done", "job": "j1",
                          "ts": 1.0, "process": "w1"}])
        tailer = TelemetryTailer(str(tmp_path), window=60.0)
        assert tailer.poll() == 1
        assert tailer.poll() == 0  # nothing new
        _append(events, [{"kind": "event", "name": "queue.done", "job": "j2",
                          "ts": 2.0, "process": "w1"}])
        assert tailer.poll() == 1
        assert tailer.events_total == 2

    def test_partial_line_stays_unread_until_complete(self, tmp_path):
        events = tmp_path / "events-a.jsonl"
        record = json.dumps({"kind": "event", "name": "x", "ts": 1.0})
        with open(events, "w", encoding="utf-8") as handle:
            handle.write(record[: len(record) // 2])  # mid-write
        tailer = TelemetryTailer(str(tmp_path))
        assert tailer.poll() == 0
        assert tailer.skipped_lines == 0
        with open(events, "a", encoding="utf-8") as handle:
            handle.write(record[len(record) // 2 :] + "\n")
        assert tailer.poll() == 1

    def test_truncation_resets_the_offset(self, tmp_path):
        events = tmp_path / "events-a.jsonl"
        _append(events, [{"kind": "event", "name": "x", "ts": 1.0}] * 3)
        tailer = TelemetryTailer(str(tmp_path))
        assert tailer.poll() == 3
        with open(events, "w", encoding="utf-8") as handle:  # truncate + rewrite
            handle.write(json.dumps({"kind": "event", "name": "y", "ts": 2.0}) + "\n")
        assert tailer.poll() == 1
        assert tailer.events_total == 4

    def test_corrupt_lines_are_counted_not_fatal(self, tmp_path):
        events = tmp_path / "events-a.jsonl"
        _append(events, [
            {"kind": "event", "name": "ok", "ts": 1.0},
            "{not json",
            '["not", "a", "dict"]',
            {"kind": "event", "name": "ok2", "ts": 2.0},
        ])
        tailer = TelemetryTailer(str(tmp_path))
        assert tailer.poll() == 2
        assert tailer.skipped_lines == 2

    def test_metrics_merge_counters_add_gauges_override(self, tmp_path):
        _append(tmp_path / "events-a.jsonl", [
            {"kind": "metrics", "ts": 1.0, "process": "a",
             "counters": {"jobs": 2}, "gauges": {"depth": 5},
             "timings": {"t": {"count": 1, "total": 1.0, "min": 1.0,
                               "max": 1.0, "mean": 1.0}}},
            {"kind": "metrics", "ts": 2.0, "process": "b",
             "counters": {"jobs": 3}, "gauges": {"depth": 1},
             "timings": {"t": {"count": 1, "total": 3.0, "min": 3.0,
                               "max": 3.0, "mean": 3.0}}},
        ])
        tailer = TelemetryTailer(str(tmp_path))
        tailer.poll()
        assert tailer.counters["jobs"] == 5
        assert tailer.gauges["depth"] == 1.0
        assert tailer.timings["t"] == {
            "count": 2, "total": 4.0, "min": 1.0, "max": 3.0, "mean": 2.0,
        }

    def test_report_state_is_bounded_and_ts_ordered(self, tmp_path, monkeypatch):
        monkeypatch.setattr(timeseries, "REQUEUE_LOG", 3)
        # File a sorts first but holds later events than file b.
        _append(tmp_path / "events-a.jsonl", [
            {"kind": "event", "name": "queue.requeue", "job": "j5", "ts": 5.0},
            {"kind": "event", "name": "queue.failed", "job": "j3", "ts": 3.0},
            {"kind": "span", "name": "worker.job", "job": "late", "process": "a",
             "ts": 9.0, "duration_seconds": 7.0},
        ] + [
            {"kind": "span", "name": "engine.run", "label": f"r{index}",
             "process": "a", "ts": 10.0 + index, "duration_seconds": float(index)}
            for index in range(6)
        ])
        _append(tmp_path / "events-b.jsonl", [
            {"kind": "event", "name": "queue.requeue", "job": "j4", "ts": 4.0},
            {"kind": "event", "name": "queue.requeue", "job": "j1", "ts": 1.0},
            {"kind": "span", "name": "worker.job", "job": "early", "process": "b",
             "ts": 2.0, "duration_seconds": 7.0},
        ])
        tailer = TelemetryTailer(str(tmp_path), top=3)
        tailer.poll()
        summary = tailer.summary()
        # the newest REQUEUE_LOG requeues by ts, oldest first
        assert [entry["job"] for entry in summary["requeues"]] == ["j3", "j4", "j5"]
        assert summary["queue"] == {"queue.requeue": 3, "queue.failed": 1}
        # top-N slowest; a tie goes to the earlier span
        assert [job["job"] for job in summary["slowest_jobs"]] == ["early", "late", "r5"]
        assert len(tailer._slowest) == 3

    def test_active_jobs_and_window_stats(self, tmp_path):
        now = 100.0
        _append(tmp_path / "events-a.jsonl", [
            {"kind": "event", "name": "queue.claim", "job": "j1",
             "worker": "w1", "ts": now - 30, "attempts": 1},
            {"kind": "event", "name": "queue.claim", "job": "j2",
             "worker": "w2", "ts": now - 20, "attempts": 1},
            {"kind": "span", "name": "worker.job", "job": "j2",
             "process": "w2", "ts": now - 10, "duration_seconds": 10.0},
            {"kind": "event", "name": "queue.done", "job": "j2",
             "ts": now - 10},
            {"kind": "event", "name": "queue.requeue", "job": "j3",
             "ts": now - 5},
        ])
        tailer = TelemetryTailer(str(tmp_path), window=60.0)
        tailer.poll()
        assert set(tailer.active_jobs) == {"j1"}  # j2 completed
        stats = tailer.window_stats(now=now)
        assert stats["jobs_completed"] == 1
        assert stats["jobs_requeued"] == 1
        assert stats["jobs_per_second"] == pytest.approx(1 / 60.0)
        assert stats["requeue_rate"] == pytest.approx(0.5)
        assert stats["job_latency_p50_seconds"] == pytest.approx(10.0)
        assert stats["worker_busy_seconds"]["w2"] == pytest.approx(10.0)
        # outside the window everything ages out
        empty = tailer.window_stats(now=now + 1000)
        assert empty["jobs_completed"] == 0
        assert empty["job_latency_count"] == 0

    def test_checkpoint_round_trip(self, tmp_path):
        events = tmp_path / "events-a.jsonl"
        _append(events, [{"kind": "event", "name": "x", "ts": 1.0}] * 4)
        first = TelemetryTailer(str(tmp_path))
        assert first.poll() == 4
        checkpoint = tmp_path / "tail.ckpt"
        first.save_checkpoint(str(checkpoint))

        resumed = TelemetryTailer(str(tmp_path))
        assert resumed.load_checkpoint(str(checkpoint))
        assert resumed.poll() == 0  # already consumed by the prior run
        _append(events, [{"kind": "event", "name": "y", "ts": 2.0}])
        assert resumed.poll() == 1

    def test_load_checkpoint_rejects_garbage(self, tmp_path):
        tailer = TelemetryTailer(str(tmp_path))
        assert not tailer.load_checkpoint(str(tmp_path / "missing"))
        bad = tmp_path / "bad.ckpt"
        bad.write_text("{not json")
        assert not tailer.load_checkpoint(str(bad))

    def test_exposition_renders_and_validates(self, tmp_path):
        _append(tmp_path / "events-a.jsonl", [
            {"kind": "metrics", "ts": 1.0, "process": "a",
             "counters": {"engine.store.hit": 3, "engine.store.miss": 1},
             "gauges": {}, "timings": {}},
            {"kind": "span", "name": "worker.job", "job": "j1", "trace": "t1",
             "process": "w1", "ts": 2.0, "duration_seconds": 1.0},
        ])
        tailer = TelemetryTailer(str(tmp_path))
        text = tailer.exposition(version="9.9.9")
        assert validate_exposition(text) > 0
        assert 'repro_build_info{version="9.9.9"} 1' in text
        assert "repro_engine_store_hit_total 3" in text
        assert "repro_traces_total 1" in text
        assert "repro_cache_hit_ratio 0.75" in text
        assert "repro_job_latency_seconds_count" in text

    def test_validate_exposition_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_exposition("repro_bad{unclosed 1\n")
        with pytest.raises(ValueError):
            validate_exposition("# TYPE repro_x wrongtype\nrepro_x 1\n")
        with pytest.raises(ValueError):
            validate_exposition("repro_x not-a-number\n")

    def test_metric_name_sanitizes(self):
        assert metric_name("engine.store.hit") == "repro_engine_store_hit"
        assert metric_name("weird chars!") == "repro_weird_chars_"

    def test_render_prometheus_escapes_labels(self):
        text = render_prometheus([
            {"name": "repro_x", "type": "gauge", "help": "an \"x\"\nvalue",
             "samples": [{"labels": {"k": 'a"b\\c'}, "value": 1}]},
        ])
        assert validate_exposition(text) == 1


# --------------------------------------------------------------------- #
# fleet top
# --------------------------------------------------------------------- #
def _spooled(tmp_path, jobs=3) -> JobSpool:
    spool = JobSpool(tmp_path / "spool")
    for index in range(jobs):
        spool.enqueue({"id": f"p1-job-{index:03d}", "kind": "sweep",
                       "store": f"stores/job-{index}"})
    return spool


class TestFleetTop:
    def test_gather_frame_spool_only(self, tmp_path):
        spool = _spooled(tmp_path)
        claimed = spool.claim("worker-1")
        frame = gather_frame(spool)
        assert frame["counts"] == {"total": 3, "pending": 2, "active": 1,
                                   "done": 0, "failed": 0}
        assert not frame["drained"]
        assert frame["eta_seconds"] is None  # no throughput yet
        workers = {row["worker"]: row for row in frame["workers"]}
        assert workers["worker-1"]["job"] == claimed.id
        assert "telemetry" not in frame
        assert json.dumps(frame)  # JSON-able as promised

    def test_gather_frame_with_tailer(self, tmp_path):
        spool = _spooled(tmp_path)
        spool.mark_done(spool.claim("w1").id)
        now = 100.0
        telemetry_dir = tmp_path / "telemetry"
        os.makedirs(telemetry_dir)
        _append(telemetry_dir / "events-w1.jsonl", [
            {"kind": "span", "name": "worker.job", "job": "p1-job-000",
             "process": "w1", "ts": now - 5, "duration_seconds": 12.0,
             "trace": "t1"},
            {"kind": "event", "name": "queue.done", "job": "p1-job-000",
             "ts": now - 5},
            {"kind": "event", "name": "queue.claim", "job": "p1-job-001",
             "worker": "w1", "ts": now - 40, "attempts": 2},
        ])
        tailer = TelemetryTailer(str(telemetry_dir), window=60.0)
        frame = gather_frame(spool, tailer, now=now)
        assert frame["jobs_per_second"] == pytest.approx(1 / 60.0)
        # 2 pending + 0 active leases remaining
        assert frame["eta_seconds"] == pytest.approx(2 * 60.0)
        assert frame["telemetry"]["traces"] == 1
        assert frame["in_flight"][0] == {
            "job": "p1-job-001", "worker": "w1", "attempts": 2,
            "running_seconds": pytest.approx(40.0),
        }
        workers = {row["worker"]: row for row in frame["workers"]}
        assert workers["w1"]["busy_fraction"] == pytest.approx(12.0 / 60.0)

    def test_render_frame_panels(self, tmp_path):
        spool = _spooled(tmp_path, jobs=2)
        job = spool.claim("worker-long-name")
        spool.heartbeat(job.id)
        frame = gather_frame(spool)
        text = render_frame(frame, width=100)
        assert "repro fleet top —" in text
        assert "jobs: 2 total | 1 pending  1 active" in text
        assert "worker-long-name" in text
        assert "eta: unknown" in text

    def test_render_frame_truncates_to_width(self, tmp_path):
        frame = gather_frame(_spooled(tmp_path))
        for line in render_frame(frame, width=40).splitlines():
            assert len(line) <= 40

    def test_run_top_once_writes_one_plain_frame(self, tmp_path):
        spool = _spooled(tmp_path)
        stream = io.StringIO()
        code = run_top(str(spool.root), once=True, stream=stream)
        assert code == 0
        out = stream.getvalue()
        assert out.count("repro fleet top —") == 1
        assert "\x1b[" not in out  # no ANSI without a TTY

    def test_run_top_until_drained(self, tmp_path):
        spool = _spooled(tmp_path, jobs=1)
        spool.mark_done(spool.claim("w1").id)
        stream = io.StringIO()
        sleeps = []
        code = run_top(str(spool.root), follow_until_drained=True,
                       stream=stream, sleep=sleeps.append)
        assert code == 0
        assert sleeps == []  # drained on the first frame

    def test_run_top_keyboard_interrupt_is_clean(self, tmp_path):
        spool = _spooled(tmp_path)

        def interrupt(_):
            raise KeyboardInterrupt

        stream = io.StringIO()
        code = run_top(str(spool.root), stream=stream, sleep=interrupt)
        assert code == 0
        assert stream.getvalue().endswith("\n")

    def test_run_top_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError, match="interval must be positive"):
            run_top(str(_spooled(tmp_path).root), interval=0)


# --------------------------------------------------------------------- #
# CLI surfaces
# --------------------------------------------------------------------- #
def _traced_run(tmp_path):
    """A tiny traced sweep through the real CLI; returns the telemetry dir."""
    telemetry_dir = tmp_path / "telemetry"
    argv = ["sweep", "edge-meg", "--nodes", "12", "--trials", "2", "--seed", "1",
            "--results-dir", str(tmp_path / "store"),
            "--telemetry", str(telemetry_dir)]
    with tracectx.attach_trace("cli-trace-0001"):
        assert main(argv) == 0
    return telemetry_dir


class TestObservabilityCli:
    def test_telemetry_trace_lists_and_renders(self, tmp_path, capsys):
        telemetry_dir = _traced_run(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "trace", "--telemetry", str(telemetry_dir)]) == 0
        listing = capsys.readouterr().out
        assert "cli-trace-0001" in listing

        json_path = tmp_path / "trace.json"
        assert main(["telemetry", "trace", "cli-trace-0001",
                     "--telemetry", str(telemetry_dir),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "trace cli-trace-0001" in out
        summary = json.loads(json_path.read_text())
        assert summary["spans"] >= 1
        assert summary["critical_path"]

    def test_telemetry_trace_unknown_id(self, tmp_path, capsys):
        telemetry_dir = _traced_run(tmp_path)
        capsys.readouterr()
        assert main(["telemetry", "trace", "feedfeedfeedfeed",
                     "--telemetry", str(telemetry_dir)]) == 1
        assert "no events for trace" in capsys.readouterr().err

    def test_telemetry_export_with_checkpoint(self, tmp_path, capsys):
        telemetry_dir = _traced_run(tmp_path)
        capsys.readouterr()
        checkpoint = tmp_path / "export.ckpt"
        output = tmp_path / "metrics.prom"
        assert main(["telemetry", "export", "--telemetry", str(telemetry_dir),
                     "--check", "--checkpoint", str(checkpoint),
                     "--output", str(output)]) == 0
        text = output.read_text()
        assert validate_exposition(text) > 0
        assert "repro_traces_total 1" in text
        assert json.loads(checkpoint.read_text())["offsets"]

    def test_telemetry_export_missing_directory(self, tmp_path, capsys):
        assert main(["telemetry", "export",
                     "--telemetry", str(tmp_path / "nope")]) == 2
        assert "telemetry" in capsys.readouterr().err

    def test_fleet_top_once(self, tmp_path, capsys):
        spool = _spooled(tmp_path)
        assert main(["fleet", "top", str(spool.root), "--once"]) == 0
        assert "repro fleet top —" in capsys.readouterr().out

    def test_fleet_top_json_needs_once(self, tmp_path, capsys):
        spool = _spooled(tmp_path)
        assert main(["fleet", "top", str(spool.root), "--json"]) == 2
        assert "--json" in capsys.readouterr().err
        assert main(["fleet", "top", str(spool.root), "--once", "--json"]) == 0
        frame = json.loads(capsys.readouterr().out)
        assert frame["counts"]["total"] == 3

    def test_fleet_top_missing_spool(self, tmp_path, capsys):
        assert main(["fleet", "top", str(tmp_path / "nope"), "--once"]) == 2
        assert "spool" in capsys.readouterr().err

    def test_report_surfaces_skipped_lines(self, tmp_path, capsys):
        telemetry_dir = _traced_run(tmp_path)
        _append(next(iter(telemetry_dir.glob("events-*.jsonl"))),
                ["{corrupt line"])
        capsys.readouterr()
        json_path = tmp_path / "report.json"
        assert main(["telemetry", "report", str(telemetry_dir),
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "skipped 1 corrupt/truncated line(s)" in out
        assert json.loads(json_path.read_text())["skipped_lines"] == 1


# --------------------------------------------------------------------- #
# invisibility: tracing never changes what the platform computes
# --------------------------------------------------------------------- #
class TestTraceInvisibility:
    def test_store_bytes_identical_with_and_without_tracing(self, tmp_path):
        argv = ["sweep", "edge-meg", "--nodes", "12", "--trials", "3",
                "--seed", "9"]

        def run(tag, traced):
            store = tmp_path / tag
            extra = ["--results-dir", str(store)]
            if traced:
                extra += ["--telemetry", str(tmp_path / f"{tag}-telemetry")]
                with tracectx.attach_trace("invisibility-check"):
                    assert main(argv + extra) == 0
            else:
                assert main(argv + extra) == 0
            return b"".join(
                sorted(path.read_bytes() for path in store.glob("*.jsonl"))
            )

        assert run("plain", traced=False) == run("traced", traced=True)
