"""The one fold over telemetry events, and Prometheus text exposition.

A :class:`TelemetryTailer` follows a telemetry directory's per-process
``events-*.jsonl`` files by byte offset and is the only code that folds
telemetry records.  Every view reads its state: ``GET /metrics`` and
``repro telemetry export`` (:meth:`TelemetryTailer.exposition`), ``repro
fleet top`` (:mod:`repro.fleet.top`) and ``repro telemetry report``
(:meth:`TelemetryTailer.summary`, after one final poll).  The fold keeps:

* merged **cumulative metrics** from the ``metrics`` events flushed by
  closed processes: counters add, timing aggregates merge, and for a gauge
  the value with the latest ``ts`` wins, whatever order the files are
  read in;
* **run-report state** — per-process event counts, first/last ``ts`` and
  busy seconds, per-span-name phases, queue-transition counts, the newest
  requeue/failure events and the slowest job spans (a top-N heap), all
  bounded so a tailer living inside ``repro serve`` does not grow with the
  number of events;
* **windowed rates** over the last ``window`` seconds — jobs/s, failure
  and requeue rates, p50/p95 job latency (from ``worker.job`` spans) and
  per-worker busy fractions;
* **in-flight state** — jobs claimed but not yet done/failed/requeued,
  with claimant and age;
* distinct trace ids seen and the count of corrupt lines skipped.

:func:`read_events` is the one reader of event files: it parses the
complete lines from a byte offset and counts corrupt ones.  A live poll
leaves an unterminated tail (a process mid-write) for the next poll; a
final poll also parses it, so a crashed writer's torn last line counts as
skipped.

:func:`render_prometheus` serialises metric families into the Prometheus
text exposition format (version 0.0.4) without any third-party client
library, and :func:`validate_exposition` is the strict parser the CI
``metrics-smoke`` step runs against a real ``GET /metrics`` scrape.
Offsets survive restarts via :meth:`TelemetryTailer.save_checkpoint` /
:meth:`TelemetryTailer.load_checkpoint`, so ``repro telemetry export
--checkpoint`` can be scraped repeatedly without re-reading history.
"""

from __future__ import annotations

import bisect
import glob
import heapq
import json
import os
import re
import time
from collections import deque
from typing import Optional

from repro.telemetry.core import _Aggregate

__all__ = [
    "DEFAULT_TOP",
    "DEFAULT_WINDOW_SECONDS",
    "TelemetryTailer",
    "event_paths",
    "metric_name",
    "read_events",
    "render_prometheus",
    "validate_exposition",
]

#: Window (seconds) over which rates and latency quantiles are computed.
DEFAULT_WINDOW_SECONDS = 60.0

#: Slowest job spans the tailer keeps (``repro telemetry report --top``).
DEFAULT_TOP = 5

#: Requeue/failure events kept for forensics (the newest by ``ts``).
REQUEUE_LOG = 1000

#: Span names treated as "one unit of scheduled work" for the slowest jobs.
JOB_SPANS = ("worker.job", "engine.run", "engine.run_shard")

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_EVENT_GLOB = "events-*.jsonl"


def event_paths(directory: str) -> list[str]:
    """The per-process event files of a telemetry directory, sorted by name."""
    return sorted(glob.glob(os.path.join(directory, _EVENT_GLOB)))


def read_events(
    path: str, offset: int = 0, final: bool = False
) -> tuple[list[dict], int, int]:
    """Parse one event file from byte ``offset``: ``(records, skipped, end)``.

    Only newline-terminated lines are read and ``end`` is the offset just
    past the last of them, so a live reader leaves a line a process is still
    writing for its next read.  A ``final`` read also parses that
    unterminated tail: once a run is over it is a crashed writer's torn last
    line.  ``skipped`` counts the lines that are not JSON objects.
    """
    with open(path, "rb") as handle:
        handle.seek(offset)
        chunk = handle.read()
    consumed = len(chunk) if final else chunk.rfind(b"\n") + 1
    records: list[dict] = []
    skipped = 0
    for raw in chunk[:consumed].splitlines():
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError:  # JSONDecodeError and UnicodeDecodeError
            skipped += 1
            continue
        if isinstance(record, dict):
            records.append(record)
        else:
            skipped += 1
    return records, skipped, offset + consumed


def metric_name(name: str, prefix: str = "repro") -> str:
    """A telemetry metric name as a valid Prometheus identifier.

    ``serve.cache.hit`` -> ``repro_serve_cache_hit``; a leading digit after
    sanitisation is guarded with an underscore.
    """
    sanitized = _NAME_RE.sub("_", str(name))
    full = f"{prefix}_{sanitized}" if prefix else sanitized
    if full[0].isdigit():
        full = "_" + full
    return full


def _format_value(value: float) -> str:
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.10g}"


def _escape_label(value: str) -> str:
    return str(value).replace("\\", r"\\").replace("\n", r"\n").replace('"', r'\"')


def _escape_help(value: str) -> str:
    # HELP text escapes only backslash and newline (no quote escaping).
    return str(value).replace("\\", r"\\").replace("\n", r"\n")


def render_prometheus(families: list[dict]) -> str:
    """Serialise metric families into Prometheus text exposition format.

    Each family: ``{"name", "type", "help", "samples"}`` where a sample is
    ``{"value", "labels"?, "suffix"?}`` — the suffix carries summary
    children (``_sum`` / ``_count``) under the parent family name.
    """
    lines: list[str] = []
    for family in families:
        name = family["name"]
        lines.append(f"# HELP {name} {_escape_help(family.get('help', name))}")
        lines.append(f"# TYPE {name} {family.get('type', 'untyped')}")
        for sample in family.get("samples", []):
            labels = sample.get("labels") or {}
            rendered = ""
            if labels:
                pairs = ",".join(
                    f'{key}="{_escape_label(value)}"'
                    for key, value in sorted(labels.items())
                )
                rendered = "{" + pairs + "}"
            lines.append(
                f"{name}{sample.get('suffix', '')}{rendered} "
                f"{_format_value(sample['value'])}"
            )
    return "\n".join(lines) + "\n"


_METRIC_LINE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^{}]*)\})?"
    r" (?P<value>[-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf|NaN))"
    r"(?: [0-9]+)?$"
)
_LABEL_RE = re.compile(r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$')
_HEADER_RE = re.compile(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)(?: (.*))?$")
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def validate_exposition(text: str) -> int:
    """Strictly validate Prometheus text exposition; returns the sample count.

    Raises :class:`ValueError` naming the first offending line.  Checks the
    line grammar, label pair syntax, declared metric types, and that every
    sample belongs to the most recently declared ``# TYPE`` family (modulo
    the ``_sum`` / ``_count`` / ``_bucket`` children summaries and
    histograms are allowed).
    """
    samples = 0
    declared: dict[str, str] = {}
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            header = _HEADER_RE.match(line)
            if header is None:
                raise ValueError(f"line {number}: malformed comment {line!r}")
            if header.group(1) == "TYPE":
                kind = (header.group(3) or "").strip()
                if kind not in _VALID_TYPES:
                    raise ValueError(
                        f"line {number}: invalid metric type {kind!r}"
                    )
                declared[header.group(2)] = kind
            continue
        match = _METRIC_LINE_RE.match(line)
        if match is None:
            raise ValueError(f"line {number}: malformed sample {line!r}")
        labels = match.group("labels")
        if labels:
            for pair in _split_label_pairs(labels):
                if not _LABEL_RE.match(pair):
                    raise ValueError(
                        f"line {number}: malformed label pair {pair!r}"
                    )
        name = match.group("name")
        base = re.sub(r"_(sum|count|bucket|min|max)$", "", name)
        if name not in declared and base not in declared:
            raise ValueError(f"line {number}: sample {name!r} has no # TYPE")
        samples += 1
    if samples == 0:
        raise ValueError("exposition contains no samples")
    return samples


def _split_label_pairs(labels: str) -> list[str]:
    """Split ``a="x",b="y"`` on commas outside quoted label values."""
    pairs, buffer, quoted, escaped = [], [], False, False
    for char in labels:
        if escaped:
            buffer.append(char)
            escaped = False
            continue
        if char == "\\":
            buffer.append(char)
            escaped = True
            continue
        if char == '"':
            quoted = not quoted
        if char == "," and not quoted:
            pairs.append("".join(buffer))
            buffer = []
        else:
            buffer.append(char)
    if buffer:
        pairs.append("".join(buffer))
    return pairs


def _quantile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank quantile of an already-sorted sample list."""
    if not ordered:
        return 0.0
    index = min(len(ordered) - 1, max(0, int(round(fraction * (len(ordered) - 1)))))
    return ordered[index]


class TelemetryTailer:
    """Incrementally follow and fold a telemetry directory's event files.

    Parameters
    ----------
    directory:
        The shared telemetry directory (``events-*.jsonl`` files).
    window:
        Sliding window in seconds for rates and latency quantiles.
    top:
        Slowest job spans kept for :meth:`summary`.
    """

    def __init__(
        self,
        directory: str,
        window: float = DEFAULT_WINDOW_SECONDS,
        top: int = DEFAULT_TOP,
    ) -> None:
        self.directory = str(directory)
        self.window = float(window)
        self.top = int(top)
        self._offsets: dict[str, int] = {}
        # cumulative state
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        self._gauge_ts: dict[str, float] = {}
        self._timings: dict[str, _Aggregate] = {}
        self.events_total = 0
        self.skipped_lines = 0
        self.trace_ids: set[str] = set()
        self.processes: dict[str, dict] = {}
        self.phases: dict[str, dict] = {}
        self.queue_transitions: dict[str, int] = {}
        self.active_jobs: dict[str, dict] = {}
        self._requeue_log: list[tuple] = []  # (ts, seq, entry), ts-sorted, capped
        self._slowest: list[tuple] = []  # min-heap of (duration, -ts, -seq, entry)
        # windowed samples (pruned against ``window``)
        self._completions: deque = deque()
        self._failures: deque = deque()
        self._requeues: deque = deque()
        self._job_samples: deque = deque()  # (end_ts, duration, process)

    @property
    def timings(self) -> dict[str, dict]:
        """Merged timing aggregates in their serialised (``as_dict``) form."""
        return {name: aggregate.as_dict() for name, aggregate in self._timings.items()}

    # ------------------------------------------------------------------ #
    # ingestion
    # ------------------------------------------------------------------ #
    def poll(self, final: bool = False) -> int:
        """Consume newly appended lines; returns events ingested.

        ``final`` also consumes each file's unterminated tail (see
        :func:`read_events`): the post-hoc read of a finished run.
        """
        ingested = 0
        for path in event_paths(self.directory):
            name = os.path.basename(path)
            offset = self._offsets.get(name, 0)
            try:
                size = os.path.getsize(path)
            except OSError:
                continue
            if size < offset:
                offset = 0  # file was truncated/replaced: start over
            if size == offset:
                continue
            records, skipped, self._offsets[name] = read_events(path, offset, final)
            self.skipped_lines += skipped
            for record in records:
                self._ingest(record)
            ingested += len(records)
        return ingested

    def _ingest(self, record: dict) -> None:
        self.events_total += 1
        ts = float(record.get("ts", 0.0))
        process = str(record.get("process", "?"))
        entry = self.processes.get(process)
        if entry is None:
            entry = self.processes[process] = {
                "events": 0, "first_ts": ts, "last_ts": ts, "busy_seconds": 0.0,
            }
        entry["events"] += 1
        entry["first_ts"] = min(entry["first_ts"], ts)
        entry["last_ts"] = max(entry["last_ts"], ts)
        trace_id = record.get("trace")
        if trace_id:
            self.trace_ids.add(str(trace_id))
        kind = record.get("kind")
        if kind == "metrics":
            self._merge_metrics(record, ts)
        elif kind == "span":
            self._ingest_span(record, ts, process)
        elif kind == "event":
            self._ingest_event(record, ts)

    def _ingest_span(self, record: dict, ts: float, process: str) -> None:
        name = str(record.get("name", "?"))
        duration = float(record.get("duration_seconds", 0.0))
        phase = self.phases.setdefault(
            name, {"count": 0, "total_seconds": 0.0, "max_seconds": 0.0}
        )
        phase["count"] += 1
        phase["total_seconds"] += duration
        phase["max_seconds"] = max(phase["max_seconds"], duration)
        if name in JOB_SPANS and self.top > 0:
            # Ties go to the earlier span, as in a ts-ordered stable sort.
            item = (
                duration,
                -ts,
                -self.events_total,  # unique: the entry dicts are never compared
                {
                    "name": name,
                    "job": record.get("job") or record.get("label"),
                    "process": record.get("process"),
                    "duration_seconds": duration,
                },
            )
            if len(self._slowest) < self.top:
                heapq.heappush(self._slowest, item)
            elif item > self._slowest[0]:
                heapq.heapreplace(self._slowest, item)
        if name == "worker.job":
            self.processes[process]["busy_seconds"] += duration
            self._job_samples.append((ts, duration, process))
            job = record.get("job")
            if job is not None:
                self.active_jobs.pop(str(job), None)

    def _ingest_event(self, record: dict, ts: float) -> None:
        name = str(record.get("name", "?"))
        if not name.startswith("queue."):
            return
        self.queue_transitions[name] = self.queue_transitions.get(name, 0) + 1
        job = record.get("job")
        if name == "queue.claim" and job is not None:
            self.active_jobs[str(job)] = {
                "worker": record.get("worker"),
                "since": ts,
                "attempts": record.get("attempts"),
            }
            return
        if name in ("queue.done", "queue.requeue", "queue.failed"):
            if job is not None:
                self.active_jobs.pop(str(job), None)
            bucket = {
                "queue.done": self._completions,
                "queue.requeue": self._requeues,
                "queue.failed": self._failures,
            }[name]
            bucket.append(ts)
        if name in ("queue.requeue", "queue.failed"):
            entry = {
                "name": name,
                "job": job,
                "attempts": record.get("attempts"),
                "error": record.get("error"),
            }
            bisect.insort(self._requeue_log, (ts, self.events_total, entry))
            if len(self._requeue_log) > REQUEUE_LOG:
                del self._requeue_log[0]

    def _merge_metrics(self, record: dict, ts: float) -> None:
        for name, value in record.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in record.get("gauges", {}).items():
            # The newest observation wins, whichever file is read first.
            if ts >= self._gauge_ts.get(name, float("-inf")):
                self.gauges[name] = float(value)
                self._gauge_ts[name] = ts
        for name, serialized in record.get("timings", {}).items():
            self._timings.setdefault(name, _Aggregate()).merge(serialized)

    # ------------------------------------------------------------------ #
    # checkpoints
    # ------------------------------------------------------------------ #
    def checkpoint(self) -> dict:
        """The tailer's resumable read position (JSON-able)."""
        return {"version": 1, "offsets": dict(self._offsets)}

    def save_checkpoint(self, path: str) -> None:
        """Persist :meth:`checkpoint` atomically to ``path``."""
        staging = f"{path}.tmp"
        with open(staging, "w", encoding="utf-8") as handle:
            json.dump(self.checkpoint(), handle, sort_keys=True)
        os.replace(staging, path)

    def load_checkpoint(self, path: str) -> bool:
        """Adopt offsets saved by a prior run; ``False`` if absent/corrupt."""
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
            offsets = payload["offsets"]
        except (OSError, ValueError, KeyError, TypeError):
            return False
        if not isinstance(offsets, dict):
            return False
        self._offsets = {str(name): int(offset) for name, offset in offsets.items()}
        return True

    # ------------------------------------------------------------------ #
    # windowed statistics
    # ------------------------------------------------------------------ #
    def _prune(self, now: float) -> None:
        horizon = now - self.window
        for bucket in (self._completions, self._failures, self._requeues):
            while bucket and bucket[0] < horizon:
                bucket.popleft()
        while self._job_samples and self._job_samples[0][0] < horizon:
            self._job_samples.popleft()

    def window_stats(self, now: Optional[float] = None) -> dict:
        """Rates over the sliding window, ending at ``now`` (wall clock)."""
        now = time.time() if now is None else float(now)
        self._prune(now)
        done = len(self._completions)
        requeues = len(self._requeues)
        failures = len(self._failures)
        durations = sorted(sample[1] for sample in self._job_samples)
        transitions = done + requeues + failures
        busy: dict[str, float] = {}
        horizon = now - self.window
        for end, duration, process in self._job_samples:
            overlap = min(end, now) - max(end - duration, horizon)
            if overlap > 0:
                busy[process] = busy.get(process, 0.0) + overlap
        return {
            "window_seconds": self.window,
            "jobs_completed": done,
            "jobs_failed": failures,
            "jobs_requeued": requeues,
            "jobs_per_second": done / self.window if self.window > 0 else 0.0,
            "requeue_rate": requeues / transitions if transitions else 0.0,
            "job_latency_p50_seconds": _quantile(durations, 0.50),
            "job_latency_p95_seconds": _quantile(durations, 0.95),
            "job_latency_sum_seconds": sum(durations),
            "job_latency_count": len(durations),
            "worker_busy_seconds": busy,
        }

    def cache_hit_ratio(self, extra: Optional[dict] = None) -> Optional[float]:
        """Cumulative store/serve cache hit ratio across all sources seen."""
        counters = dict(self.counters)
        for name, value in ((extra or {}).get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
        hits = counters.get("engine.store.hit", 0) + counters.get("serve.cache.hit", 0)
        misses = (
            counters.get("engine.store.miss", 0) + counters.get("serve.cache.miss", 0)
        )
        return hits / (hits + misses) if hits + misses else None

    # ------------------------------------------------------------------ #
    # run report
    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """The run-report view of the folded state (``repro telemetry report``).

        Phase breakdown, merged metrics, store hit rate, per-process busy
        time over the process's observed wall span, the slowest job spans
        and requeue forensics in ``ts`` order.
        """
        counters = self.counters
        hits = counters.get("engine.store.hit", 0)
        misses = counters.get("engine.store.miss", 0)
        timings = self.timings
        workers = {}
        for process, entry in self.processes.items():
            busy = entry["busy_seconds"]
            if busy:
                wall = entry["last_ts"] - entry["first_ts"]
                workers[process] = {
                    "busy_seconds": busy,
                    "wall_seconds": wall,
                    "utilization": min(1.0, busy / wall) if wall > 0 else 1.0,
                }
        return {
            "events": self.events_total,
            "skipped_lines": self.skipped_lines,
            "processes": {name: dict(entry) for name, entry in self.processes.items()},
            "phases": {
                name: dict(phase, mean_seconds=phase["total_seconds"] / phase["count"])
                for name, phase in self.phases.items()
            },
            "metrics": {
                "counters": dict(counters),
                "gauges": dict(self.gauges),
                "timings": timings,
            },
            "store": {
                "hits": hits,
                "misses": misses,
                "puts": counters.get("engine.store.put", 0),
                "hit_rate": hits / (hits + misses) if hits + misses else None,
                "lock_wait": timings.get("store.lock_wait_seconds"),
            },
            "workers": workers,
            "slowest_jobs": [item[-1] for item in sorted(self._slowest, reverse=True)],
            "queue": dict(self.queue_transitions),
            "requeues": [item[-1] for item in self._requeue_log],
        }

    # ------------------------------------------------------------------ #
    # exposition
    # ------------------------------------------------------------------ #
    def prometheus_families(
        self,
        extra: Optional[dict] = None,
        now: Optional[float] = None,
        version: Optional[str] = None,
    ) -> list[dict]:
        """Metric families for :func:`render_prometheus`.

        ``extra`` is a live in-process registry snapshot (the ``repro
        serve`` process's own counters, which are not flushed to disk until
        shutdown); its counters add to the tailed cumulative state, and its
        gauges, observed now and so the newest, override it.
        """
        counters = dict(self.counters)
        gauges = dict(self.gauges)
        timings: dict[str, _Aggregate] = {}
        for source in (self.timings, (extra or {}).get("timings") or {}):
            for name, serialized in source.items():
                timings.setdefault(name, _Aggregate()).merge(serialized)
        if extra:
            for name, value in (extra.get("counters") or {}).items():
                counters[name] = counters.get(name, 0) + value
            gauges.update(extra.get("gauges") or {})

        families = []
        if version is not None:
            families.append(
                {
                    "name": "repro_build_info",
                    "type": "gauge",
                    "help": "Package version of the exporting process.",
                    "samples": [{"labels": {"version": version}, "value": 1}],
                }
            )
        for name in sorted(counters):
            families.append(
                {
                    "name": metric_name(name) + "_total",
                    "type": "counter",
                    "help": f"Cumulative telemetry counter {name}.",
                    "samples": [{"value": counters[name]}],
                }
            )
        for name in sorted(gauges):
            families.append(
                {
                    "name": metric_name(name),
                    "type": "gauge",
                    "help": f"Telemetry gauge {name}.",
                    "samples": [{"value": gauges[name]}],
                }
            )
        for name in sorted(timings):
            aggregate = timings[name]
            base = metric_name(name)
            families.append(
                {
                    "name": base,
                    "type": "summary",
                    "help": f"Telemetry timing aggregate {name}.",
                    "samples": [
                        {"suffix": "_sum", "value": aggregate.total},
                        {"suffix": "_count", "value": aggregate.count},
                        {"suffix": "_min", "value": aggregate.minimum},
                        {"suffix": "_max", "value": aggregate.maximum},
                    ],
                }
            )

        stats = self.window_stats(now=now)
        families.extend(self._window_families(stats))
        ratio = self.cache_hit_ratio(extra)
        if ratio is not None:
            families.append(
                {
                    "name": "repro_cache_hit_ratio",
                    "type": "gauge",
                    "help": "Cumulative cache hit ratio (store + serve).",
                    "samples": [{"value": ratio}],
                }
            )
        families.extend(
            [
                {
                    "name": "repro_telemetry_events_total",
                    "type": "counter",
                    "help": "Telemetry events ingested by the tailer.",
                    "samples": [{"value": self.events_total}],
                },
                {
                    "name": "repro_telemetry_skipped_lines_total",
                    "type": "counter",
                    "help": "Corrupt or truncated telemetry lines skipped.",
                    "samples": [{"value": self.skipped_lines}],
                },
                {
                    "name": "repro_traces_total",
                    "type": "counter",
                    "help": "Distinct trace ids observed.",
                    "samples": [{"value": len(self.trace_ids)}],
                },
                {
                    "name": "repro_jobs_in_flight",
                    "type": "gauge",
                    "help": "Jobs claimed but not yet done/failed/requeued.",
                    "samples": [{"value": len(self.active_jobs)}],
                },
            ]
        )
        return families

    @staticmethod
    def _window_families(stats: dict) -> list[dict]:
        window = {"window_seconds": stats["window_seconds"]}
        return [
            {
                "name": "repro_jobs_per_second",
                "type": "gauge",
                "help": "Job completion rate over the sliding window.",
                "samples": [{"labels": window, "value": stats["jobs_per_second"]}],
            },
            {
                "name": "repro_requeue_rate",
                "type": "gauge",
                "help": "Requeues over job transitions in the sliding window.",
                "samples": [{"labels": window, "value": stats["requeue_rate"]}],
            },
            {
                "name": "repro_job_latency_seconds",
                "type": "summary",
                "help": "worker.job span durations over the sliding window.",
                "samples": [
                    {
                        "labels": {"quantile": "0.5"},
                        "value": stats["job_latency_p50_seconds"],
                    },
                    {
                        "labels": {"quantile": "0.95"},
                        "value": stats["job_latency_p95_seconds"],
                    },
                    {"suffix": "_sum", "value": stats["job_latency_sum_seconds"]},
                    {"suffix": "_count", "value": stats["job_latency_count"]},
                ],
            },
        ]

    def exposition(
        self,
        extra: Optional[dict] = None,
        now: Optional[float] = None,
        version: Optional[str] = None,
    ) -> str:
        """One :meth:`poll` + the rendered Prometheus exposition text."""
        self.poll()
        return render_prometheus(
            self.prometheus_families(extra=extra, now=now, version=version)
        )
