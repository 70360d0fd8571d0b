"""repro.telemetry — structured tracing, metrics, and run reporting.

See :mod:`repro.telemetry.core` for the tracer/metrics registry,
:mod:`repro.telemetry.trace` for cross-process trace propagation and
reconstruction, :mod:`repro.telemetry.timeseries` for the event tailer
(the one fold over telemetry events) and Prometheus exposition,
:mod:`repro.telemetry.report` for the ``repro telemetry report`` view of
it, and :mod:`repro.telemetry.log` for stdlib ``logging`` wiring.
"""

from repro.telemetry.core import (
    Telemetry,
    activate,
    active,
    count,
    current_span_id,
    deactivate,
    default_process_id,
    disable,
    enable,
    event,
    gauge,
    span,
    timing,
    trace_carrier,
)
from repro.telemetry.log import LOG_FORMAT, configure, get_logger
from repro.telemetry.report import format_report, load_events, telemetry_report
from repro.telemetry.timeseries import (
    TelemetryTailer,
    render_prometheus,
    validate_exposition,
)
from repro.telemetry.trace import (
    attach_carrier,
    attach_trace,
    current_trace_id,
    format_trace,
    list_traces,
    mint_trace_id,
    summarize_trace,
)

__all__ = [
    "LOG_FORMAT",
    "Telemetry",
    "TelemetryTailer",
    "activate",
    "active",
    "attach_carrier",
    "attach_trace",
    "configure",
    "count",
    "current_span_id",
    "current_trace_id",
    "deactivate",
    "default_process_id",
    "disable",
    "enable",
    "event",
    "format_report",
    "format_trace",
    "gauge",
    "get_logger",
    "list_traces",
    "load_events",
    "mint_trace_id",
    "render_prometheus",
    "span",
    "summarize_trace",
    "telemetry_report",
    "timing",
    "trace_carrier",
    "validate_exposition",
]
