"""Run reports over a telemetry directory: ``repro telemetry report``.

A report is a view, not a second fold: :func:`telemetry_report` runs one
final :class:`~repro.telemetry.timeseries.TelemetryTailer` poll over every
``events-*.jsonl`` file (one per process that ran with ``--telemetry DIR``)
and returns :meth:`~repro.telemetry.timeseries.TelemetryTailer.summary`,
the same state ``GET /metrics``, ``repro telemetry export`` and ``repro
fleet top`` read.  :func:`format_report` renders it:

* **phase breakdown** — wall-clock totals per span name (engine batches,
  worker jobs, fleet fan-in phases);
* **store behaviour** — cache hit rate, puts, lock-wait aggregates;
* **worker utilization** — per process, busy time (job-span seconds) over
  the process's observed wall span;
* **slowest jobs** — the top-N ``worker.job`` / ``engine.run`` spans;
* **requeue forensics** — the ``queue.requeue`` / ``queue.failed`` events
  with their attempt counts and errors.

Reading is tolerant: a corrupt or truncated line (the torn tail of a
crashed process) is counted in ``skipped_lines`` and skipped, and unknown
event kinds are counted but otherwise ignored — forensics must work on
exactly the runs that went wrong.  :func:`load_events` returns the raw
events instead, for ``repro telemetry trace``.
"""

from __future__ import annotations

import os

from repro.telemetry.timeseries import (
    DEFAULT_TOP,
    TelemetryTailer,
    event_paths,
    read_events,
)

__all__ = ["format_report", "load_events", "telemetry_report"]


def _require_directory(directory: str) -> None:
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"no telemetry directory at {directory}")


def load_events(directory: str) -> list[dict]:
    """Every parseable event in ``directory``'s event files, in ``ts`` order.

    The raw events ``repro telemetry trace`` rebuilds span trees from; read
    with :func:`~repro.telemetry.timeseries.read_events` like a final poll.
    """
    _require_directory(directory)
    events: list[dict] = []
    for path in event_paths(directory):
        events.extend(read_events(path, final=True)[0])
    events.sort(key=lambda record: record.get("ts", 0.0))
    return events


def telemetry_report(directory: str, top: int = DEFAULT_TOP) -> dict:
    """One final tailer poll of ``directory``, as the report dict."""
    _require_directory(directory)
    tailer = TelemetryTailer(directory, top=top)
    tailer.poll(final=True)
    return tailer.summary()


def format_report(summary: dict) -> str:
    """Human-readable rendering of :func:`telemetry_report`'s dict."""
    lines = [
        f"telemetry: {summary['events']} event(s) from "
        f"{len(summary['processes'])} process(es)"
    ]
    if summary.get("skipped_lines"):
        lines.append(
            f"warning: skipped {summary['skipped_lines']} corrupt/truncated "
            f"line(s) while reading event files"
        )

    if summary["phases"]:
        lines.append("phase wall-clock breakdown:")
        ordered = sorted(
            summary["phases"].items(), key=lambda kv: kv[1]["total_seconds"], reverse=True
        )
        for name, phase in ordered:
            lines.append(
                f"  {name:<24} x{phase['count']:<5} total {phase['total_seconds']:8.3f}s  "
                f"mean {phase['mean_seconds']:8.3f}s  max {phase['max_seconds']:8.3f}s"
            )

    store = summary["store"]
    if store["hits"] or store["misses"] or store["puts"]:
        rate = "n/a" if store["hit_rate"] is None else f"{store['hit_rate']:.0%}"
        lines.append(
            f"store: {store['hits']} hit(s), {store['misses']} miss(es), "
            f"{store['puts']} put(s)  (hit rate {rate})"
        )
        if store["lock_wait"]:
            wait = store["lock_wait"]
            lines.append(
                f"store lock wait: x{wait['count']} total {wait['total']:.4f}s "
                f"max {wait['max']:.4f}s"
            )

    if summary["workers"]:
        lines.append("worker utilization:")
        for process, entry in sorted(summary["workers"].items()):
            lines.append(
                f"  {process:<32} busy {entry['busy_seconds']:8.3f}s / "
                f"{entry['wall_seconds']:8.3f}s  ({entry['utilization']:.0%})"
            )

    if summary["slowest_jobs"]:
        lines.append("slowest jobs:")
        for job in summary["slowest_jobs"]:
            lines.append(
                f"  {job['duration_seconds']:8.3f}s  {job['name']}  "
                f"{job['job'] or '?'}  [{job['process']}]"
            )

    if summary["queue"]:
        transitions = ", ".join(
            f"{name.split('.', 1)[1]}={count}"
            for name, count in sorted(summary["queue"].items())
        )
        lines.append(f"queue transitions: {transitions}")

    if summary["requeues"]:
        lines.append("requeue forensics:")
        for entry in summary["requeues"]:
            lines.append(
                f"  {entry['name']}  job={entry['job']}  "
                f"attempts={entry['attempts']}  {entry['error'] or ''}".rstrip()
            )

    kernels = {
        name.split(".")[-1]: int(value)
        for name, value in summary["metrics"]["counters"].items()
        if name.startswith("engine.backend.")
    }
    if kernels:
        lines.append(
            "kernel dispatch: "
            + ", ".join(f"{name}={count}" for name, count in sorted(kernels.items()))
        )
    return "\n".join(lines)
