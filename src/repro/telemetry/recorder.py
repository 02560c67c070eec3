"""The :class:`TraceRecorder`: sequenced event emission + ambient context.

A recorder binds a :class:`~repro.telemetry.sinks.TraceSink` to a
monotonic sequence counter and a :class:`~repro.telemetry.metrics.MetricsRegistry`
for profiling spans.  Instrumentation sites obtain the *ambient*
recorder (a :mod:`contextvars` variable, installed with
:func:`use_recorder`) and guard construction on :attr:`TraceRecorder.active`::

    rec = current_recorder()
    ...
    if rec.active:
        rec.emit(FileAdmitted(file=f, bytes=size, cause="demand"))

With the default :data:`NULL_RECORDER` the guard is a single attribute
read, so uninstrumented runs pay effectively nothing.

Determinism
-----------
Events carry no host state; the recorder assigns ``seq`` in emission
order.  Worker processes buffer their events (see
:func:`repro.experiments.common.parallel_map`) and the parent replays the
buffers in work-item order through :meth:`TraceRecorder.replay`, so a
``--jobs N`` run writes byte-for-byte the trace a serial run writes.

Profiling spans record *host* durations and therefore go to the metrics
registry, never into the event stream.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterable, Iterator

from repro.errors import ConfigError
from repro.telemetry.events import TraceEvent
from repro.telemetry.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.telemetry.sinks import JsonlSink, NullSink, RingSink, TraceSink
from repro.telemetry.tracing import active_request

__all__ = [
    "TraceRecorder",
    "NULL_RECORDER",
    "current_recorder",
    "use_recorder",
    "recorder_from_spec",
]


class _NoopSpan:
    """Reusable do-nothing context manager for inactive profiling."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()

_perf_counter = time.perf_counter


class _Span:
    """Times one ``with`` block into a registry histogram.

    When a request trace is open in this context (the coordinator
    service's tracing layer), the span additionally grows that request's
    causal tree — same clock readings, two consumers.  Host timings end
    up in the registry and the request ring only, never the event trace.
    """

    __slots__ = ("_hist", "_name", "_t0", "_request", "_node")

    def __init__(self, hist, name: str):
        # _t0, _request and _node are set by __enter__
        self._hist = hist
        self._name = name

    def __enter__(self) -> "_Span":
        self._request = request = active_request()
        self._t0 = t0 = _perf_counter()
        if request is not None:
            self._node = request.begin_span(self._name, t0)
        return self

    def __exit__(self, *exc) -> None:
        end = _perf_counter()
        self._hist.observe(end - self._t0)
        request = self._request
        if request is not None and self._node is not None:
            request.end_span(self._node, end)
        return None


class TraceRecorder:
    """Sequenced event emission plus span profiling.

    Parameters
    ----------
    sink:
        Where events go; ``None`` (or a :class:`NullSink`) disables event
        emission entirely.
    registry:
        Profiling/metrics registry; created on demand when omitted.
    profile:
        Enable :meth:`span` timing.  Defaults to ``True`` whenever the
        sink is active or a registry was supplied, ``False`` otherwise
        (so the null recorder is a true no-op).
    start_seq:
        First sequence number to assign (default 0).  Checkpoint
        recovery primes a fresh recorder with the next sequence of the
        truncated trace so the stitched file keeps a contiguous ``seq``.
    """

    __slots__ = ("sink", "_registry", "_profile", "_seq", "active", "_span_hists")

    def __init__(
        self,
        sink: TraceSink | None = None,
        *,
        registry: MetricsRegistry | None = None,
        profile: bool | None = None,
        start_seq: int = 0,
    ):
        if start_seq < 0:
            raise ConfigError(f"start_seq must be non-negative, got {start_seq}")
        self.sink = sink if sink is not None else NullSink()
        self._registry = registry
        self.active = self.sink.active
        if profile is None:
            profile = self.active or registry is not None
        self._profile = profile
        self._seq = start_seq
        #: span name -> its registry histogram, resolved once per name
        self._span_hists: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    # events

    def emit(self, event: TraceEvent) -> None:
        """Write one event with the next sequence number (if active)."""
        if not self.active:
            return
        self.sink.emit(self._seq, event)
        self._seq += 1

    def replay(self, events: Iterable[TraceEvent]) -> None:
        """Re-emit buffered events, assigning fresh sequence numbers."""
        for event in events:
            self.emit(event)

    @property
    def events_emitted(self) -> int:
        return self._seq

    def close(self) -> None:
        self.sink.close()

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc) -> None:
        # Closing on the error path too guarantees a JsonlSink is flushed
        # even when the traced run raises (the partial trace stays usable).
        self.close()
        return None

    # ------------------------------------------------------------------ #
    # profiling

    @property
    def profiling(self) -> bool:
        return self._profile

    @property
    def registry(self) -> MetricsRegistry:
        if self._registry is None:
            self._registry = MetricsRegistry()
        return self._registry

    def span(self, name: str) -> "_Span | _NoopSpan":
        """A context manager timing its block into ``span_<name>_seconds``.

        The histogram is looked up in the registry the first time a name
        is seen and cached on the recorder after that."""
        if not self._profile:
            return _NOOP_SPAN
        hist = self._span_hists.get(name)
        if hist is None:
            hist = self._span_hists[name] = self.registry.histogram(
                f"span_{name.replace('.', '_')}_seconds",
                f"duration of {name}",
                buckets=DEFAULT_LATENCY_BUCKETS,
            )
        return _Span(hist, name)


#: the inert default recorder: inactive sink, no profiling
NULL_RECORDER = TraceRecorder(NullSink(), profile=False)

_current: ContextVar[TraceRecorder] = ContextVar(
    "repro_telemetry_recorder", default=NULL_RECORDER
)


def current_recorder() -> TraceRecorder:
    """The ambient recorder (the :data:`NULL_RECORDER` unless installed)."""
    return _current.get()


@contextmanager
def use_recorder(recorder: TraceRecorder) -> Iterator[TraceRecorder]:
    """Install ``recorder`` as the ambient recorder for the ``with`` block."""
    token = _current.set(recorder)
    try:
        yield recorder
    finally:
        _current.reset(token)


def recorder_from_spec(spec: str) -> TraceRecorder:
    """Build a recorder from a CLI spec string.

    * ``null`` / ``none`` / ``off`` — inert recorder;
    * ``jsonl:<path>`` — write a JSONL trace to ``<path>``;
    * ``ring`` / ``ring:<capacity>`` — in-memory buffer.
    """
    kind, sep, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind in ("null", "none", "off"):
        if sep:
            raise ConfigError(
                f"telemetry spec {spec!r}: {kind!r} takes no argument"
            )
        return TraceRecorder(NullSink(), profile=False)
    if kind == "jsonl":
        if not arg:
            raise ConfigError(f"telemetry spec {spec!r} needs a path")
        return TraceRecorder(JsonlSink(arg))
    if kind == "ring":
        if arg:
            try:
                capacity: int | None = int(arg)
            except ValueError:
                raise ConfigError(
                    f"telemetry spec {spec!r}: ring capacity must be an "
                    f"int, got {arg!r}"
                ) from None
        else:
            capacity = None
        return TraceRecorder(RingSink(capacity))
    raise ConfigError(
        f"unknown telemetry spec {spec!r}; expected null, jsonl:<path> or "
        "ring[:<capacity>]"
    )
