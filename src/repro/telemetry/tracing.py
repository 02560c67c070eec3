"""Causal request tracing: per-request span trees in a bounded ring.

The coordinator service answers "where did this request's time go?"
with one :class:`RequestTrace` per HTTP request: a tree of named spans
(``http.request`` at the root, ``core.plan`` / ``cache.admit`` /
``cache.evict`` / ``srm.stage`` / ``journal.commit`` below it) whose
timings come from the host clock.  Finished traces land in the
:class:`RequestTracer`'s bounded ring (plus a second ring of requests
over a slow threshold) and, optionally, a JSONL *profile stream* —
one line per request, written to its own file.

Determinism contract
--------------------
Request **identifiers** are deterministic: they derive from arrival
sequence numbers (``req-<job index>`` for job submissions,
``http-<n>`` for read-side requests), never from the wall clock, so
the same replay resolves to the same IDs.  Span **timings** are host
observations and therefore live only here, in registry histograms and
in the profile stream — never in the decision trace.  ``trace.jsonl``
stays byte-identical whether tracing is enabled or not (the RPR001
rule allowlists this module for exactly that reason).

Instrumentation sites do not import this module directly: the ambient
:meth:`~repro.telemetry.recorder.TraceRecorder.span` context manager
reports into the active request's tree (one context-var read) whenever
a request is open, so the same ``span("core.plan")`` that feeds the
``span_core_plan_seconds`` histogram also grows the causal tree.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from contextvars import ContextVar
from typing import IO, Any, Iterator

from repro.errors import ConfigError

__all__ = [
    "REQUEST_ID_HEADER",
    "SpanNode",
    "RequestTrace",
    "RequestTracer",
    "active_request",
    "request_id_for_job",
]

#: the header loadgen (or any client) uses to hand the service a
#: correlation id; the service echoes its own id back under it too
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: the root span every traced request opens
ROOT_SPAN = "http.request"


def request_id_for_job(job_index: int) -> str:
    """The deterministic request id of job ``job_index`` (arrival seq)."""
    if job_index < 0:
        raise ConfigError(f"job index must be non-negative, got {job_index}")
    return f"req-{job_index:08d}"


class SpanNode:
    """One timed span: name, host start/end, nested children."""

    __slots__ = ("name", "start_s", "end_s", "children")

    def __init__(self, name: str, start_s: float):
        self.name = name
        self.start_s = start_s
        self.end_s: float | None = None
        self.children: list["SpanNode"] = []

    @property
    def duration_s(self) -> float:
        end = time.perf_counter() if self.end_s is None else self.end_s
        return max(0.0, end - self.start_s)

    def as_dict(self, origin_s: float) -> dict[str, Any]:
        """JSON form with microsecond offsets relative to ``origin_s``."""
        return {
            "name": self.name,
            "start_us": round((self.start_s - origin_s) * 1e6, 1),
            "duration_us": round(self.duration_s * 1e6, 1),
            "children": [c.as_dict(origin_s) for c in self.children],
        }


class RequestTrace:
    """The span tree of one request, rooted at ``http.request``.

    Spans open and close strictly nested (they are ``with`` blocks), so
    a plain stack tracks the insertion point.  ``request_id`` starts as
    a provisional read-side id and is re-pointed at the job-derived id
    once the submission path knows its arrival index.
    """

    __slots__ = (
        "request_id",
        "route",
        "client_id",
        "job",
        "status",
        "root",
        "_stack",
    )

    def __init__(self, request_id: str, *, route: str, client_id: str | None = None):
        self.request_id = request_id
        self.route = route
        self.client_id = client_id
        self.job: int | None = None
        self.status: int | None = None
        self.root = SpanNode(ROOT_SPAN, time.perf_counter())
        self._stack: list[SpanNode] = [self.root]

    # ------------------------------------------------------------------ #
    # span recording (driven by TraceRecorder spans)

    def begin_span(self, name: str, start_s: float) -> SpanNode:
        node = SpanNode(name, start_s)
        self._stack[-1].children.append(node)
        self._stack.append(node)
        return node

    def end_span(self, node: SpanNode, end_s: float) -> None:
        node.end_s = end_s
        # spans are context managers, so mismatches would be a bug in the
        # instrumentation; unwind defensively instead of corrupting the tree
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top is node:
                return

    def finish(self, status: int | None = None) -> None:
        if status is not None:
            self.status = status
        while len(self._stack) > 1:
            open_node = self._stack.pop()
            if open_node.end_s is None:
                open_node.end_s = time.perf_counter()
        if self.root.end_s is None:
            self.root.end_s = time.perf_counter()

    # ------------------------------------------------------------------ #
    # views

    @property
    def duration_s(self) -> float:
        return self.root.duration_s

    def span_seconds(self, name: str) -> float:
        """Total duration of every span named ``name`` in the tree."""
        total = 0.0
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.name == name:
                total += node.duration_s
            stack.extend(node.children)
        return total

    def breakdown(self) -> dict[str, float]:
        """The client-correlatable server-side latency split (seconds)."""
        return {
            "server_s": self.duration_s,
            "plan_s": self.span_seconds("core.plan"),
            "apply_s": (
                self.span_seconds("cache.admit")
                + self.span_seconds("srm.stage")
                + self.span_seconds("journal.commit")
            ),
        }

    def as_dict(self) -> dict[str, Any]:
        return {
            "request_id": self.request_id,
            "route": self.route,
            "client_id": self.client_id,
            "job": self.job,
            "status": self.status,
            "duration_ms": round(self.duration_s * 1e3, 3),
            "breakdown_ms": {
                k.removesuffix("_s") + "_ms": round(v * 1e3, 3)
                for k, v in self.breakdown().items()
            },
            "spans": self.root.as_dict(self.root.start_s),
        }


_ACTIVE: ContextVar[RequestTrace | None] = ContextVar(
    "repro_telemetry_active_request", default=None
)


def active_request() -> RequestTrace | None:
    """The request being traced in this context, if any."""
    return _ACTIVE.get()


class RequestTracer:
    """Bounded rings of finished :class:`RequestTrace` objects.

    ``capacity`` of 0 disables tracing entirely (the :meth:`request`
    context manager becomes a no-op yielding ``None``) — that is the
    tracing-disabled leg of the differential test and the baseline leg
    of the ``tracing_overhead`` benchmark.  The optional
    ``profile_stream`` receives one JSON line per finished request;
    it is a *profile* artifact (host timings), kept strictly separate
    from the deterministic decision trace.
    """

    def __init__(
        self,
        capacity: int = 256,
        *,
        slow_threshold_s: float = 0.1,
        profile_stream: IO[str] | None = None,
    ):
        if capacity < 0:
            raise ConfigError(f"capacity must be non-negative, got {capacity}")
        if slow_threshold_s <= 0:
            raise ConfigError(
                f"slow_threshold_s must be positive, got {slow_threshold_s}"
            )
        self.capacity = capacity
        self.slow_threshold_s = slow_threshold_s
        self._ring: deque[RequestTrace] = deque(maxlen=max(capacity, 1))
        self._slow: deque[RequestTrace] = deque(maxlen=max(capacity, 1))
        self._profile_stream = profile_stream
        self.requests_traced = 0
        self._http_seq = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def next_read_id(self) -> str:
        """A deterministic id for a read-side (non-job) request."""
        rid = f"http-{self._http_seq:08d}"
        self._http_seq += 1
        return rid

    @contextmanager
    def request(
        self, request_id: str, *, route: str, client_id: str | None = None
    ) -> Iterator[RequestTrace | None]:
        """Trace one request: installs the span tree as ambient context."""
        if not self.enabled:
            yield None
            return
        trace = RequestTrace(request_id, route=route, client_id=client_id)
        token = _ACTIVE.set(trace)
        try:
            yield trace
        finally:
            _ACTIVE.reset(token)
            trace.finish()
            self._record(trace)

    def _record(self, trace: RequestTrace) -> None:
        self.requests_traced += 1
        self._ring.append(trace)
        if trace.duration_s >= self.slow_threshold_s:
            self._slow.append(trace)
        if self._profile_stream is not None:
            self._profile_stream.write(
                json.dumps(trace.as_dict(), sort_keys=True) + "\n"
            )
            self._profile_stream.flush()

    # ------------------------------------------------------------------ #
    # debug-endpoint views

    def recent(self, limit: int | None = None) -> list[dict[str, Any]]:
        """Most recent finished requests, newest last."""
        traces = list(self._ring)
        if limit is not None:
            traces = traces[-limit:]
        return [t.as_dict() for t in traces]

    def slow(self, threshold_s: float | None = None) -> list[dict[str, Any]]:
        """Recent requests at or over the (possibly overridden) threshold."""
        if threshold_s is None:
            return [t.as_dict() for t in self._slow]
        # an explicit threshold filters the full ring: the slow ring only
        # retains requests over the configured default
        return [t.as_dict() for t in self._ring if t.duration_s >= threshold_s]

    def find(self, request_id: str) -> dict[str, Any] | None:
        """The ring entry for ``request_id``, if it is still resident."""
        for trace in reversed(self._ring):
            if trace.request_id == request_id:
                return trace.as_dict()
        return None

    def payload(self) -> dict[str, Any]:
        """The ``GET /v1/debug/requests`` body."""
        return {
            "capacity": self.capacity,
            "requests_traced": self.requests_traced,
            "slow_threshold_ms": round(self.slow_threshold_s * 1e3, 3),
            "requests": self.recent(),
        }
