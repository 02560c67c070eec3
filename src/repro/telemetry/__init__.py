"""repro.telemetry — structured tracing, metrics and profiling.

Three cooperating pieces:

* **Event tracing** — typed, deterministic events
  (:mod:`repro.telemetry.events`) written by a
  :class:`~repro.telemetry.recorder.TraceRecorder` to a pluggable sink
  (:mod:`repro.telemetry.sinks`).  The default :class:`NullSink` makes
  every instrumentation site a single attribute check; a
  :class:`JsonlSink` produces a byte-reproducible trace of an entire
  run, identical under serial and ``--jobs N`` execution.
* **Metrics registry** — named counters/gauges/histograms
  (:mod:`repro.telemetry.metrics`) with Prometheus-text and JSON
  exporters; the simulation result dataclasses read their counters from
  per-run registries.
* **Profiling** — :func:`span`/:func:`timed`
  (:mod:`repro.telemetry.profiling`) time the hot paths (planning,
  selection, ``on_request``, SRM staging) into span histograms, kept out
  of the deterministic event stream by design.
* **Request tracing** — :mod:`repro.telemetry.tracing` assembles the
  same spans into per-request causal trees under deterministic request
  IDs (derived from arrival sequence, never the clock), retained in a
  bounded ring for the service's ``/v1/debug/*`` endpoints.
* **Forensics** — :mod:`repro.telemetry.forensics` consumes recorded
  traces after the fact: indexed reading (:class:`TraceLog`),
  cache-state reconstruction with invariant checks, cross-policy
  divergence diffing, byte-miss anomaly detection, and Chrome
  trace-event export (``repro-fbc analyze / diff-traces /
  export-chrome``).

See the README's *Observability* section for a guided tour and
``repro-fbc trace`` for the CLI entry point.
"""

from repro.telemetry.events import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    FaultInjected,
    FileAdmitted,
    FileEvicted,
    JobArrived,
    PlanComputed,
    StageCompleted,
    StageFailedOver,
    StageRetried,
    StageStarted,
    TraceEvent,
    WindowRolled,
    encode_event,
    event_from_dict,
    event_to_dict,
    validate_event,
    validate_trace_file,
)
from repro.telemetry.metrics import (
    PROMETHEUS_CONTENT_TYPE,
    Counter,
    Gauge,
    Histogram,
    MetricsFamily,
    MetricsRegistry,
)
from repro.telemetry.profiling import span, span_profile, timed
from repro.telemetry.tracing import (
    REQUEST_ID_HEADER,
    RequestTrace,
    RequestTracer,
    SpanNode,
    active_request,
    request_id_for_job,
)
from repro.telemetry.recorder import (
    NULL_RECORDER,
    TraceRecorder,
    current_recorder,
    recorder_from_spec,
    use_recorder,
)
from repro.telemetry.sinks import JsonlSink, NullSink, RingSink, TraceSink

__all__ = [
    # events
    "TraceEvent",
    "JobArrived",
    "PlanComputed",
    "FileAdmitted",
    "FileEvicted",
    "StageStarted",
    "StageRetried",
    "StageFailedOver",
    "StageCompleted",
    "FaultInjected",
    "WindowRolled",
    "EVENT_TYPES",
    "EVENT_SCHEMA",
    "event_to_dict",
    "encode_event",
    "event_from_dict",
    "validate_event",
    "validate_trace_file",
    # sinks
    "TraceSink",
    "NullSink",
    "JsonlSink",
    "RingSink",
    # recorder
    "TraceRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "recorder_from_spec",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsFamily",
    "MetricsRegistry",
    "PROMETHEUS_CONTENT_TYPE",
    # profiling
    "span",
    "timed",
    "span_profile",
    # request tracing
    "REQUEST_ID_HEADER",
    "RequestTrace",
    "RequestTracer",
    "SpanNode",
    "active_request",
    "request_id_for_job",
]
