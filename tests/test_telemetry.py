"""Tests for repro.telemetry: tracer, metrics, logging, report, invisibility.

Two contracts matter most:

* **disabled means invisible** — with no active telemetry the module-level
  primitives are no-ops, and *enabling* telemetry must not change a single
  computed byte (RNG streams and result stores untouched): sweep and
  experiment stores written with telemetry on are ``cmp``-identical to
  stores written with it off;
* **the data is truthful** — spans nest, metrics aggregate across process
  boundaries, the report merge survives crashed writers, and the CLI
  surfaces (``--telemetry``, ``repro telemetry report``,
  ``repro fleet status --json``) expose it all.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.cli import main
from repro.engine import Engine, ResultStore, TrialSpec
from repro.fleet import JobSpool, run_worker, sweep_job_payloads
from repro.meg.edge_meg import EdgeMEG
from repro.telemetry import core as telemetry
from repro.telemetry.log import (
    LOG_LEVEL_ENV,
    _CurrentStdoutHandler,
    configure,
    get_logger,
    resolve_level,
)
from repro.telemetry.report import format_report, load_events, telemetry_report
from repro.telemetry.timeseries import TelemetryTailer


@pytest.fixture(autouse=True)
def _no_leaked_telemetry():
    """Every test starts and ends with telemetry disabled."""
    telemetry.disable()
    yield
    telemetry.disable()


def _events(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _write_events(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(record) + "\n" for record in records)


def _spec(trials: int = 4, seed: int = 5) -> TrialSpec:
    model = EdgeMEG(24, p=0.1, q=0.5)
    return TrialSpec.from_model(model, num_trials=trials, seed=seed)


class TestCorePrimitives:
    def test_disabled_primitives_are_noops(self):
        assert telemetry.active() is None
        telemetry.count("x")
        telemetry.gauge("x", 1.0)
        telemetry.timing("x", 1.0)
        telemetry.event("x", detail="dropped")
        span = telemetry.span("x")
        with span as inner:
            assert inner.add(outcome="ignored") is inner
        # One shared null span, not an allocation per call.
        assert telemetry.span("y") is span

    def test_span_records_duration_parent_and_fields(self, tmp_path):
        instance = telemetry.Telemetry(str(tmp_path), process="p1")
        with instance.span("outer", label="sweep") as outer:
            with instance.span("inner") as inner:
                pass
        instance.close()
        records = _events(instance.path)
        spans = {record["name"]: record for record in records if record["kind"] == "span"}
        assert spans["inner"]["parent_id"] == outer.span_id
        assert spans["outer"]["parent_id"] is None
        assert spans["outer"]["label"] == "sweep"
        assert spans["inner"]["span_id"] == inner.span_id
        assert spans["inner"]["duration_seconds"] >= 0.0
        for record in records:
            assert record["process"] == "p1"
            assert record["ts"] > 0

    def test_span_records_exception_type(self, tmp_path):
        instance = telemetry.Telemetry(str(tmp_path), process="p1")
        with pytest.raises(ValueError):
            with instance.span("doomed"):
                raise ValueError("boom")
        instance.close()
        (record,) = [r for r in _events(instance.path) if r["kind"] == "span"]
        assert record["error"] == "ValueError"

    def test_metrics_accumulate_and_flush_once(self, tmp_path):
        instance = telemetry.Telemetry(str(tmp_path), process="p1")
        instance.count("jobs")
        instance.count("jobs", 2)
        instance.gauge("util", 0.25)
        instance.gauge("util", 0.75)
        for value in (1.0, 3.0, 2.0):
            instance.timing("step", value)
        instance.close()
        instance.close()  # idempotent
        metrics = [r for r in _events(instance.path) if r["kind"] == "metrics"]
        assert len(metrics) == 1
        assert metrics[0]["counters"] == {"jobs": 3}
        assert metrics[0]["gauges"] == {"util": 0.75}
        timing = metrics[0]["timings"]["step"]
        assert timing["count"] == 3
        assert timing["min"] == 1.0
        assert timing["max"] == 3.0
        assert timing["mean"] == pytest.approx(2.0)

    def test_in_memory_instance_drops_events_but_keeps_metrics(self):
        instance = telemetry.Telemetry(directory=None, process="child")
        assert instance.path is None
        instance.event("dropped")
        with instance.span("also-dropped"):
            instance.count("kernel", 4)
        snapshot = instance.metrics_snapshot()
        assert snapshot["counters"] == {"kernel": 4}
        instance.close()

    def test_merge_metrics_folds_child_snapshots(self):
        parent = telemetry.Telemetry(directory=None, process="parent")
        child = telemetry.Telemetry(directory=None, process="child")
        parent.count("trials", 2)
        parent.timing("chunk", 1.0)
        child.count("trials", 3)
        child.timing("chunk", 5.0)
        child.gauge("depth", 7.0)
        parent.merge_metrics(child.metrics_snapshot())
        parent.merge_metrics(None)  # tolerated
        merged = parent.metrics_snapshot()
        assert merged["counters"] == {"trials": 5}
        assert merged["gauges"] == {"depth": 7.0}
        assert merged["timings"]["chunk"]["count"] == 2
        assert merged["timings"]["chunk"]["max"] == 5.0

    def test_enable_disable_lifecycle(self, tmp_path):
        first = telemetry.enable(str(tmp_path), process="one")
        assert telemetry.active() is first
        second = telemetry.enable(str(tmp_path), process="two")
        assert telemetry.active() is second
        telemetry.disable()
        assert telemetry.active() is None
        telemetry.disable()  # idempotent

    def test_deactivate_only_clears_matching_instance(self):
        first = telemetry.activate(telemetry.Telemetry(process="one"))
        telemetry.deactivate(telemetry.Telemetry(process="other"))
        assert telemetry.active() is first
        telemetry.deactivate(first)
        assert telemetry.active() is None

    def test_default_process_id_embeds_pid(self):
        assert str(os.getpid()) in telemetry.default_process_id()
        instance = telemetry.Telemetry()
        assert instance.pid == os.getpid()


class TestInvisibility:
    """Enabling telemetry must not change any computed result."""

    def test_engine_samples_identical_with_telemetry_on(self, tmp_path):
        baseline = Engine(workers=2).run(_spec()).flooding_times
        telemetry.enable(str(tmp_path / "tel"))
        try:
            observed = Engine(workers=2).run(_spec()).flooding_times
        finally:
            telemetry.disable()
        assert observed == baseline

    def test_sweep_store_bytes_identical_with_telemetry_on(self, tmp_path):
        argv = ["sweep", "edge-meg", "--nodes", "16,24", "--trials", "3", "--seed", "7"]
        assert main(argv + ["--results-dir", str(tmp_path / "off")]) == 0
        assert main(
            argv
            + ["--results-dir", str(tmp_path / "on"),
               "--telemetry", str(tmp_path / "tel")]
        ) == 0
        off = (tmp_path / "off" / "results.jsonl").read_bytes()
        on = (tmp_path / "on" / "results.jsonl").read_bytes()
        assert on == off
        assert telemetry.active() is None  # main() disabled it again
        assert list((tmp_path / "tel").glob("events-*.jsonl"))

    def test_experiment_store_and_report_identical_with_telemetry_on(self, tmp_path):
        argv = ["experiment", "E7", "--scale", "small", "--seed", "3"]
        assert main(
            argv + ["--results-dir", str(tmp_path / "off"),
                    "--json", str(tmp_path / "off.json")]
        ) == 0
        assert main(
            argv + ["--results-dir", str(tmp_path / "on"),
                    "--json", str(tmp_path / "on.json"),
                    "--telemetry", str(tmp_path / "tel")]
        ) == 0
        assert (
            (tmp_path / "on" / "results.jsonl").read_bytes()
            == (tmp_path / "off" / "results.jsonl").read_bytes()
        )
        assert (tmp_path / "on.json").read_bytes() == (tmp_path / "off.json").read_bytes()

    def test_telemetry_env_fallback_enables(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TELEMETRY", str(tmp_path / "tel"))
        argv = ["sweep", "edge-meg", "--nodes", "16", "--trials", "2", "--seed", "1",
                "--results-dir", str(tmp_path / "store")]
        assert main(argv) == 0
        assert list((tmp_path / "tel").glob("events-*.jsonl"))


class TestEngineInstrumentation:
    def test_run_span_counters_and_cache_metrics(self, tmp_path):
        instance = telemetry.enable(str(tmp_path / "tel"), process="eng")
        try:
            engine = Engine(workers=2, store=ResultStore(str(tmp_path / "store")))
            assert not engine.run(_spec()).from_cache
            assert engine.run(_spec()).from_cache
            snapshot = instance.metrics_snapshot()
        finally:
            telemetry.disable()
        counters = snapshot["counters"]
        assert counters["engine.store.miss"] == 1
        assert counters["engine.store.hit"] == 1
        assert counters["engine.store.put"] == 1
        assert counters["engine.chunks"] >= 1
        assert counters["engine.executor.process"] == 1
        assert sum(
            value for name, value in counters.items()
            if name.startswith("engine.backend.")
        ) == _spec().num_trials  # only the uncached run dispatched kernels
        assert "engine.chunk.execute_seconds" in snapshot["timings"]
        spans = [r for r in _events(instance.path) if r["kind"] == "span"]
        cached_flags = sorted(r["cached"] for r in spans if r["name"] == "engine.run")
        assert cached_flags == [False, True]

    def test_pool_children_ship_kernel_metrics(self, tmp_path):
        trials = 6
        spec = _spec(trials=trials)
        for executor in ("process", "thread"):
            instance = telemetry.enable(str(tmp_path / executor), process=executor)
            try:
                Engine(workers=2, executor=executor).run(spec)
                counters = instance.metrics_snapshot()["counters"]
                timings = instance.metrics_snapshot()["timings"]
            finally:
                telemetry.disable()
            # Kernel dispatch happened in pool children; every trial's count
            # must still reach the parent registry.
            backend_total = sum(
                value for name, value in counters.items()
                if name.startswith("engine.backend.")
            )
            assert backend_total == trials, executor
            assert counters["engine.chunks"] == 2
            assert "kernel.rounds" in timings, executor
            assert "engine.chunk.queue_wait_seconds" in timings

    def test_kernel_flood_counters(self, tmp_path):
        instance = telemetry.enable(str(tmp_path), process="kern")
        try:
            Engine(backend="vectorized").run(_spec(trials=3))
            counters = instance.metrics_snapshot()["counters"]
            timings = instance.metrics_snapshot()["timings"]
        finally:
            telemetry.disable()
        assert counters["kernel.flood.vectorized"] == 3
        assert timings["kernel.rounds"]["count"] == 3
        assert timings["kernel.frontier_peak"]["max"] >= 1

    def test_store_merge_instrumentation(self, tmp_path):
        a = ResultStore(str(tmp_path / "a"))
        b = ResultStore(str(tmp_path / "b"))
        a.put("k1", {"value": 1})
        b.put("k2", {"value": 2})
        instance = telemetry.enable(str(tmp_path / "tel"), process="merge")
        try:
            ResultStore(str(tmp_path / "merged")).merge(str(tmp_path / "a"), str(tmp_path / "b"))
            counters = instance.metrics_snapshot()["counters"]
            timings = instance.metrics_snapshot()["timings"]
        finally:
            telemetry.disable()
        assert counters["store.merges"] == 1
        assert timings["store.lock_wait_seconds"]["count"] >= 1
        merge_events = [
            r for r in _events(instance.path)
            if r["kind"] == "event" and r["name"] == "store.merge"
        ]
        assert merge_events[0]["records"] == 2
        assert merge_events[0]["sources"] == 2


class TestWorkerInstrumentation:
    def _spool(self, tmp_path, **kwargs):
        spool = JobSpool(str(tmp_path / "spool"), **kwargs)
        payloads = sweep_job_payloads("edge-meg", [16], 2, 7, 1)
        for payload in payloads:
            spool.enqueue(payload)
        return spool

    def test_worker_spans_and_queue_events(self, tmp_path):
        instance = telemetry.enable(str(tmp_path / "tel"), process="w")
        try:
            spool = self._spool(tmp_path)
            assert run_worker(
                spool.root, worker_id="w-1", exit_when_empty=True, log=lambda *_: None
            ) == 0
        finally:
            telemetry.disable()
        records = _events(instance.path)
        job_spans = [r for r in records if r.get("name") == "worker.job"]
        assert [r["outcome"] for r in job_spans] == ["done"]
        nested = [r for r in records if r.get("name") == "job.execute"]
        assert nested[0]["parent_id"] == job_spans[0]["span_id"]
        event_names = {r["name"] for r in records if r["kind"] == "event"}
        assert {"worker.start", "worker.exit", "queue.enqueue",
                "queue.claim", "queue.done"} <= event_names

    def test_profile_dir_writes_hotspots(self, tmp_path):
        spool = self._spool(tmp_path)
        profile_dir = tmp_path / "profiles"
        assert run_worker(
            spool.root, worker_id="w-1", exit_when_empty=True,
            log=lambda *_: None, profile_dir=str(profile_dir),
        ) == 0
        (profile,) = list(profile_dir.glob("profile-w-1-*.txt"))
        content = profile.read_text()
        assert "cumulative" in content
        assert "execute_job" in content

    def test_failed_job_emits_requeue_forensics(self, tmp_path):
        instance = telemetry.enable(str(tmp_path / "tel"), process="w")
        try:
            spool = JobSpool(str(tmp_path / "spool"), max_attempts=2)
            spool.write_config()  # the worker joins with the same retry budget
            spool.enqueue({"id": "bad-job", "kind": "sweep", "family": "nope",
                           "nodes": [8], "trials": 1, "seed": 0, "shard": [0, 1],
                           "store": "stores/bad-job"})
            run_worker(spool.root, worker_id="w-1", exit_when_empty=True,
                       log=lambda *_: None)
        finally:
            telemetry.disable()
        records = _events(instance.path)
        outcomes = [r["outcome"] for r in records if r.get("name") == "worker.job"]
        assert outcomes == ["failed", "failed"]
        summary = telemetry_report(str(tmp_path / "tel"))
        assert summary["queue"]["queue.requeue"] == 1
        assert summary["queue"]["queue.failed"] == 1
        assert [entry["name"] for entry in summary["requeues"]] == [
            "queue.requeue", "queue.failed",
        ]
        assert spool.failed_ids() == ["bad-job"]


class TestReport:
    def test_load_events_merges_sorts_and_skips_garbage(self, tmp_path):
        (tmp_path / "events-b.jsonl").write_text(
            json.dumps({"ts": 2.0, "process": "b", "kind": "event", "name": "later"})
            + "\n{truncated",
        )
        (tmp_path / "events-a.jsonl").write_text(
            json.dumps({"ts": 1.0, "process": "a", "kind": "event", "name": "earlier"})
            + "\n\n",
        )
        events = load_events(str(tmp_path))
        assert [event["name"] for event in events] == ["earlier", "later"]

    def test_load_events_missing_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_events(str(tmp_path / "nope"))

    def test_summarize_and_format_cover_all_sections(self, tmp_path):
        events = [
            {"ts": 1.0, "process": "w1", "kind": "span", "name": "worker.job",
             "job": "job-slow", "duration_seconds": 2.0},
            {"ts": 4.0, "process": "w1", "kind": "span", "name": "worker.job",
             "job": "job-fast", "duration_seconds": 0.5},
            {"ts": 4.5, "process": "coord", "kind": "span", "name": "fleet.drain",
             "duration_seconds": 4.0},
            {"ts": 2.0, "process": "coord", "kind": "event", "name": "queue.requeue",
             "job": "job-slow", "attempts": 1, "error": "lease expired after 61.0s"},
            {"ts": 5.0, "process": "w1", "kind": "metrics",
             "counters": {"engine.store.hit": 1, "engine.store.miss": 3,
                          "engine.store.put": 3, "engine.backend.vectorized": 4},
             "gauges": {"engine.pool.utilization": 0.5},
             "timings": {"store.lock_wait_seconds":
                         {"count": 2, "total": 0.1, "min": 0.02, "max": 0.08,
                          "mean": 0.05}}},
        ]
        _write_events(tmp_path / "events-mixed.jsonl", events)
        summary = telemetry_report(str(tmp_path), top=1)
        assert summary["events"] == 5
        assert summary["phases"]["worker.job"]["count"] == 2
        assert summary["phases"]["worker.job"]["mean_seconds"] == pytest.approx(1.25)
        assert summary["store"]["hit_rate"] == pytest.approx(0.25)
        assert summary["workers"]["w1"]["busy_seconds"] == pytest.approx(2.5)
        assert len(summary["slowest_jobs"]) == 1
        assert summary["slowest_jobs"][0]["job"] == "job-slow"
        assert summary["queue"] == {"queue.requeue": 1}

        rendered = format_report(summary)
        for needle in (
            "phase wall-clock breakdown:", "worker.job", "hit rate 25%",
            "store lock wait:", "worker utilization:", "slowest jobs:",
            "queue transitions: requeue=1", "requeue forensics:",
            "lease expired", "kernel dispatch: vectorized=4",
        ):
            assert needle in rendered, needle

    def test_report_and_exposition_agree_on_newest_gauge(self, tmp_path, capsys):
        # The file that sorts later by name holds the older gauge: every
        # view must still report the value with the latest ts.
        _write_events(tmp_path / "events-a.jsonl", [
            {"ts": 2.0, "process": "a", "kind": "metrics", "gauges": {"g": 2.0}},
        ])
        _write_events(tmp_path / "events-b.jsonl", [
            {"ts": 1.0, "process": "b", "kind": "metrics", "gauges": {"g": 1.0}},
        ])
        json_path = tmp_path / "report.json"
        assert main(["telemetry", "report", str(tmp_path),
                     "--json", str(json_path)]) == 0
        assert json.loads(json_path.read_text())["metrics"]["gauges"] == {"g": 2.0}
        text = TelemetryTailer(str(tmp_path)).exposition()
        assert "\nrepro_g 2\n" in text

    def test_telemetry_report_round_trip(self, tmp_path):
        instance = telemetry.enable(str(tmp_path), process="p")
        try:
            with telemetry.span("engine.run", label="demo"):
                telemetry.count("engine.store.miss")
        finally:
            telemetry.disable()
        summary = telemetry_report(str(tmp_path))
        assert summary["phases"]["engine.run"]["count"] == 1
        assert summary["store"]["misses"] == 1
        assert instance.path is not None


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("worker").name == "repro.worker"

    def test_resolve_level(self, monkeypatch):
        assert resolve_level("debug") == logging.DEBUG
        assert resolve_level(logging.WARNING) == logging.WARNING
        monkeypatch.setenv(LOG_LEVEL_ENV, "warning")
        assert resolve_level(None) == logging.WARNING
        monkeypatch.delenv(LOG_LEVEL_ENV)
        assert resolve_level(None) == logging.INFO
        with pytest.raises(ValueError, match="unknown log level"):
            resolve_level("chatty")

    def test_configure_is_idempotent_and_captures_current_stdout(self, capsys):
        logger = configure("info")
        configure("debug")
        handlers = [
            handler for handler in logger.handlers
            if isinstance(handler, _CurrentStdoutHandler)
        ]
        assert len(handlers) == 1
        assert logger.level == logging.DEBUG
        # The handler resolves sys.stdout per emit, so pytest's capture
        # (installed after configure) still sees the output.
        get_logger("worker").info("hello from the daemon")
        out = capsys.readouterr().out
        assert "repro.worker: hello from the daemon" in out

    def test_worker_logs_through_cli(self, tmp_path, capsys):
        spool = JobSpool(str(tmp_path / "spool"))
        spool.write_config()
        code = main(["worker", "--spool", str(spool.root), "--exit-when-empty"])
        assert code == 0
        out = capsys.readouterr().out
        assert "exiting after 0 job(s)" in out

    def test_env_level_applies_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        # REPRO_LOG_LEVEL alone silences the daemon's INFO progress lines.
        monkeypatch.setenv(LOG_LEVEL_ENV, "error")
        spool = JobSpool(str(tmp_path / "spool"))
        spool.write_config()
        assert main(["worker", "--spool", str(spool.root), "--exit-when-empty"]) == 0
        assert "exiting after" not in capsys.readouterr().out

    def test_cli_flag_beats_environment(self, tmp_path, capsys, monkeypatch):
        # An explicit --log-level always wins over REPRO_LOG_LEVEL.
        monkeypatch.setenv(LOG_LEVEL_ENV, "error")
        spool = JobSpool(str(tmp_path / "spool"))
        spool.write_config()
        assert main(["worker", "--spool", str(spool.root), "--exit-when-empty",
                     "--log-level", "info"]) == 0
        assert "exiting after 0 job(s)" in capsys.readouterr().out


class TestTelemetryCli:
    def test_report_command(self, tmp_path, capsys):
        store = tmp_path / "store"
        tel = tmp_path / "tel"
        argv = ["sweep", "edge-meg", "--nodes", "16", "--trials", "2", "--seed", "1",
                "--results-dir", str(store), "--telemetry", str(tel)]
        assert main(argv) == 0
        capsys.readouterr()
        json_path = tmp_path / "summary.json"
        assert main(["telemetry", "report", str(tel), "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "telemetry:" in out
        assert "phase wall-clock breakdown:" in out
        summary = json.loads(json_path.read_text())
        assert summary["events"] > 0
        assert summary["store"]["misses"] >= 1

    def test_report_command_missing_directory(self, tmp_path, capsys):
        assert main(["telemetry", "report", str(tmp_path / "nope")]) == 2
        assert "no telemetry directory" in capsys.readouterr().err

    def test_report_command_empty_directory(self, tmp_path, capsys):
        os.makedirs(tmp_path / "empty")
        assert main(["telemetry", "report", str(tmp_path / "empty")]) == 1
        assert "no telemetry events" in capsys.readouterr().err

    def test_fleet_status_json(self, tmp_path, capsys):
        spool = JobSpool(str(tmp_path / "spool"))
        spool.enqueue({"id": "job-a", "kind": "sweep", "store": "stores/job-a"})
        assert main(["fleet", "status", str(spool.root), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["pending"] == 1
        assert payload["metrics"]["requeues"] == 0

    def test_worker_profile_requires_telemetry_dir(self, tmp_path, capsys):
        spool = JobSpool(str(tmp_path / "spool"))
        code = main(["worker", "--spool", str(spool.root), "--exit-when-empty",
                     "--profile"])
        assert code == 2
        assert "--profile needs a telemetry directory" in capsys.readouterr().err

    def test_invalid_log_level_rejected(self, tmp_path, capsys):
        code = main(["worker", "--spool", str(tmp_path / "spool"),
                     "--exit-when-empty", "--log-level", "shouty"])
        assert code == 2
        assert "unknown log level" in capsys.readouterr().err
