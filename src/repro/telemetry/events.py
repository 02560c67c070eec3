"""Typed trace events and their line schema.

Every observable decision in the stack — a job arriving, a plan being
computed, files moving in and out of the cache, staging attempts on the
timed grid, injected faults, metric windows rolling over — is one frozen
dataclass below.  Events are *pure data*: no wall-clock timestamps, no
machine identifiers, nothing that is not a deterministic function of the
(seeded) simulation.  That is what makes a JSONL trace byte-identical
across reruns and across serial vs. ``--jobs N`` execution.

Simulated time (``t``) on the grid events *is* deterministic and is
included; host time never is, so profiling data lives in the
:class:`~repro.telemetry.metrics.MetricsRegistry` instead of the trace.

``EVENT_SCHEMA`` is the single source of truth for the serialized line
format; :func:`validate_event` / :func:`validate_trace_file` check
arbitrary JSONL against it (used by the CI trace smoke job).
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import (
    TelemetryError,
    TraceTruncatedWarning,
    TraceValidationError,
)

__all__ = [
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
    "warn_torn_tail",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class of all trace events (never emitted itself)."""

    #: machine name of the event class, stable across versions
    kind = "abstract"


@dataclass(frozen=True)
class JobArrived(TraceEvent):
    """A request entered the service loop (before admission checks)."""

    kind = "JobArrived"
    job: int  # 0-based arrival index within the run
    request_id: int
    n_files: int
    bytes_requested: int


@dataclass(frozen=True)
class PlanComputed(TraceEvent):
    """A replacement policy finished its decision for one request."""

    kind = "PlanComputed"
    policy: str
    loads: int
    prefetches: int
    evictions: int
    hit: bool


@dataclass(frozen=True)
class FileAdmitted(TraceEvent):
    """A file entered the cache (``cause``: demand | prefetch | staged)."""

    kind = "FileAdmitted"
    file: str
    bytes: int
    cause: str


@dataclass(frozen=True)
class FileEvicted(TraceEvent):
    """A policy removed a file to make room.

    ``detail`` carries the policy's own eviction rationale — Landlord's
    residual credit, OptFileBundle's history degree — so divergent
    decisions between algorithms can be explained from the trace alone.
    """

    kind = "FileEvicted"
    file: str
    bytes: int
    policy: str
    detail: dict | None = None


@dataclass(frozen=True)
class StageStarted(TraceEvent):
    """The SRM began one staging attempt for a file."""

    kind = "StageStarted"
    file: str
    bytes: int
    site: str
    attempt: int  # 1-based attempt number
    t: float  # simulated time


@dataclass(frozen=True)
class StageRetried(TraceEvent):
    """A staging attempt failed; a retry was scheduled after ``delay``."""

    kind = "StageRetried"
    file: str
    attempt: int  # failed attempts so far
    delay: float
    t: float


@dataclass(frozen=True)
class StageFailedOver(TraceEvent):
    """A retry re-resolved a file to a different replica site."""

    kind = "StageFailedOver"
    file: str
    from_site: str
    to_site: str
    t: float


@dataclass(frozen=True)
class StageCompleted(TraceEvent):
    """A file finished staging into the disk cache."""

    kind = "StageCompleted"
    file: str
    bytes: int
    site: str
    t: float


@dataclass(frozen=True)
class FaultInjected(TraceEvent):
    """The fault injector fired (``fault``: drive | transfer | latency_spike)."""

    kind = "FaultInjected"
    fault: str
    component: str


@dataclass(frozen=True)
class WindowRolled(TraceEvent):
    """A metrics window closed (learning-curve time series)."""

    kind = "WindowRolled"
    index: int
    jobs: int
    byte_miss_ratio: float
    request_hit_ratio: float


EVENT_TYPES: dict[str, type[TraceEvent]] = {
    cls.kind: cls
    for cls in (
        JobArrived,
        PlanComputed,
        FileAdmitted,
        FileEvicted,
        StageStarted,
        StageRetried,
        StageFailedOver,
        StageCompleted,
        FaultInjected,
        WindowRolled,
    )
}

#: field name -> allowed JSON types, per event kind.  ``bool`` is listed
#: before ``int`` checks because bool is an int subclass in Python.
_INT = (int,)
_NUM = (int, float)
_STR = (str,)
_BOOL = (bool,)
_DICT_OR_NULL = (dict, type(None))

EVENT_SCHEMA: dict[str, dict[str, tuple[type, ...]]] = {
    "JobArrived": {
        "job": _INT,
        "request_id": _INT,
        "n_files": _INT,
        "bytes_requested": _INT,
    },
    "PlanComputed": {
        "policy": _STR,
        "loads": _INT,
        "prefetches": _INT,
        "evictions": _INT,
        "hit": _BOOL,
    },
    "FileAdmitted": {"file": _STR, "bytes": _INT, "cause": _STR},
    "FileEvicted": {
        "file": _STR,
        "bytes": _INT,
        "policy": _STR,
        "detail": _DICT_OR_NULL,
    },
    "StageStarted": {
        "file": _STR,
        "bytes": _INT,
        "site": _STR,
        "attempt": _INT,
        "t": _NUM,
    },
    "StageRetried": {"file": _STR, "attempt": _INT, "delay": _NUM, "t": _NUM},
    "StageFailedOver": {
        "file": _STR,
        "from_site": _STR,
        "to_site": _STR,
        "t": _NUM,
    },
    "StageCompleted": {"file": _STR, "bytes": _INT, "site": _STR, "t": _NUM},
    "FaultInjected": {"fault": _STR, "component": _STR},
    "WindowRolled": {
        "index": _INT,
        "jobs": _INT,
        "byte_miss_ratio": _NUM,
        "request_hit_ratio": _NUM,
    },
}

_ADMIT_CAUSES = frozenset({"demand", "prefetch", "staged"})
_FAULT_KINDS = frozenset({"drive", "transfer", "latency_spike"})


_FIELD_NAMES: dict[type, tuple[str, ...]] = {}


def event_to_dict(seq: int, event: TraceEvent) -> dict[str, Any]:
    """The serialized (JSONL line) form of one event.

    The returned dict is fresh but *shallow*: a nested payload (e.g.
    ``FileEvicted.detail``) is shared with the event, not deep-copied —
    events are frozen and callers serialize immediately, so the copy
    ``dataclasses.asdict`` would make is pure overhead on the hot path.
    """
    names = _FIELD_NAMES.get(type(event))
    if names is None:
        names = tuple(f.name for f in fields(event))
        _FIELD_NAMES[type(event)] = names
    out: dict[str, Any] = {"seq": seq, "kind": event.kind}
    for name in names:
        out[name] = getattr(event, name)
    return out


_encode_str = json.encoder.encode_basestring_ascii
_int_repr = int.__repr__
_float_repr = float.__repr__
_isfinite = math.isfinite


def _encode_fallback(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _encode_value(value: Any) -> str:
    """One value exactly as ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))`` writes it.  Only exact builtin types take a
    fast path; subclasses (``IntEnum``, ``str`` subclasses), non-finite
    floats, containers other than str-keyed dicts and anything unknown
    go through ``json.dumps`` itself."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is int:
        return _int_repr(value)
    if t is float and _isfinite(value):
        return _float_repr(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if t is dict:
        for key in value:
            if type(key) is not str:
                return _encode_fallback(value)
        # unique str keys: sorting the items never compares two values
        items = sorted(value.items())
        return (
            "{"
            + ",".join([_encode_str(k) + ":" + _encode_value(v) for k, v in items])
            + "}"
        )
    return _encode_fallback(value)


#: declared field type -> the generated encoder's inline fast path: an
#: exact str goes straight to the C string encoder, an exact int needs no
#: call (an f-string formats it as ``int.__repr__`` does)
_INLINE = {
    "str": "_encode_str({v}) if type({v}) is str",
    "int": "{v} if type({v}) is int",
}


def _literal(text: str) -> str:
    """``text`` as literal f-string source between single quotes."""
    return (
        text.replace("\\", "\\\\")
        .replace("'", "\\'")
        .replace("{", "{{")
        .replace("}", "}}")
    )


def _compile_encoder(
    cls: type[TraceEvent],
) -> Callable[[int, TraceEvent], str]:
    """Generate the line encoder of one event class.

    The keys are laid out once, in sorted order, as literal ``"key":``
    prefixes with the ``kind`` string spliced in, so encoding an event
    is one f-string over its field values.  A field declared ``str`` or
    ``int`` tests that exact type inline; any other value (including a
    declared field holding an unexpected type) goes through
    :func:`_encode_value`.
    """
    # annotations are strings here (postponed evaluation); an event class
    # with evaluated annotations simply takes the generic path
    declared = {f.name: str(f.type) for f in fields(cls)}
    if {"seq", "kind"} & set(declared):
        raise TelemetryError(f"{cls.__name__}: 'seq' and 'kind' are reserved")
    declared["seq"] = "int"
    loads: list[str] = []
    parts: list[str] = []
    for i, name in enumerate(sorted(("kind", *declared))):
        key = ("," if i else "") + _encode_str(name) + ":"
        if name == "kind":
            parts.append(_literal(key + _encode_value(cls.kind)))
            continue
        var = f"v{i}"
        loads.append(f"    {var} = {name if name == 'seq' else 'e.' + name}\n")
        expr = f"_encode_value({var})"
        inline = _INLINE.get(declared[name])
        if inline is not None:
            expr = f"{inline.format(v=var)} else {expr}"
        parts.append(_literal(key) + "{" + expr + "}")
    src = (
        "def encode(seq, e):\n"
        + "".join(loads)
        + "    return f'{{"
        + "".join(parts)
        + "}}'\n"
    )
    namespace: dict[str, Any] = {
        "_encode_str": _encode_str,
        "_encode_value": _encode_value,
    }
    exec(src, namespace)
    namespace["encode"].__qualname__ = f"encode_{cls.__name__}"
    encode: Callable[[int, TraceEvent], str] = namespace["encode"]
    return encode


_ENCODERS: dict[type, Callable[[int, TraceEvent], str]] = {}


def encode_event(seq: int, event: TraceEvent) -> str:
    """The canonical JSONL line of one event (without the newline).

    Byte-for-byte ``json.dumps(event_to_dict(seq, event),
    sort_keys=True, separators=(",", ":"))``, built without the
    intermediate dict by a per-class encoder generated on first use.
    Every JSONL sink writes through this one function.
    """
    encode = _ENCODERS.get(type(event))
    if encode is None:
        encode = _ENCODERS[type(event)] = _compile_encoder(type(event))
    return encode(seq, event)


def event_from_dict(record: Mapping[str, Any]) -> TraceEvent:
    """Rebuild a typed event from its serialized form (validates first)."""
    validate_event(record)
    cls = EVENT_TYPES[record["kind"]]
    return cls(**{f.name: record[f.name] for f in fields(cls)})


def validate_event(record: Mapping[str, Any]) -> None:
    """Check one serialized event against :data:`EVENT_SCHEMA`.

    Raises :class:`~repro.errors.TraceValidationError` naming the first
    violation (with the offending field on its ``field`` attribute);
    returns ``None`` on success.
    """
    kind = record.get("kind")
    if kind not in EVENT_SCHEMA:
        raise TraceValidationError(f"unknown event kind {kind!r}", field="kind")
    schema = EVENT_SCHEMA[kind]
    seq = record.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise TraceValidationError(
            f"{kind}: 'seq' must be a non-negative int, got {seq!r}", field="seq"
        )
    for name, allowed in schema.items():
        if name not in record:
            raise TraceValidationError(
                f"{kind}: missing field {name!r}", field=name
            )
        value = record[name]
        if isinstance(value, bool) and bool not in allowed:
            raise TraceValidationError(
                f"{kind}.{name}: bool is not a valid value", field=name
            )
        if not isinstance(value, allowed):
            raise TraceValidationError(
                f"{kind}.{name}: expected {'/'.join(t.__name__ for t in allowed)}, "
                f"got {type(value).__name__}",
                field=name,
            )
    extra = set(record) - set(schema) - {"seq", "kind"}
    if extra:
        first = sorted(extra)[0]
        raise TraceValidationError(
            f"{kind}: unexpected fields {sorted(extra)}", field=first
        )
    if kind == "FileAdmitted" and record["cause"] not in _ADMIT_CAUSES:
        raise TraceValidationError(
            f"FileAdmitted.cause must be one of {sorted(_ADMIT_CAUSES)}, "
            f"got {record['cause']!r}",
            field="cause",
        )
    if kind == "FaultInjected" and record["fault"] not in _FAULT_KINDS:
        raise TraceValidationError(
            f"FaultInjected.fault must be one of {sorted(_FAULT_KINDS)}, "
            f"got {record['fault']!r}",
            field="fault",
        )


def warn_torn_tail(path: Any, lineno: int, byte_offset: int, reason: str) -> None:
    """Issue the standard :class:`TraceTruncatedWarning` for a torn tail.

    Shared by :func:`validate_trace_file` and the forensics trace loader
    so both report the same recovery hint: the byte offset of the intact
    prefix, i.e. what the file should be truncated to.
    """
    warnings.warn(
        TraceTruncatedWarning(
            f"{path}: line {lineno} is a torn final line ({reason}); "
            f"intact prefix is {byte_offset} bytes",
            path=str(path),
            byte_offset=byte_offset,
            lineno=lineno,
        ),
        stacklevel=3,
    )


def validate_trace_file(path: str | Path) -> int:
    """Validate every line of a JSONL trace; return the event count.

    Also checks that ``seq`` is a contiguous 0-based sequence, which any
    single-recorder trace must satisfy.  On failure raises
    :class:`~repro.errors.TraceValidationError` locating the first invalid
    record: the message (and the exception's ``lineno``/``field``
    attributes) carry the 1-based line number and the offending field.

    A final line that lacks its trailing newline and does not parse is
    the signature of a crash-torn write, not of corruption: it is
    reported as a recoverable :class:`~repro.errors.TraceTruncatedWarning`
    (carrying the byte offset of the intact prefix) and excluded from the
    count, so post-crash traces remain analyzable.
    """
    count = 0
    offset = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            has_newline = raw.endswith(b"\n")
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                if not has_newline:
                    warn_torn_tail(path, lineno, offset, f"bad UTF-8: {exc}")
                    return count
                raise TraceValidationError(
                    f"{path}: line {lineno}: not valid UTF-8: {exc}",
                    path=str(path),
                    lineno=lineno,
                ) from None
            if not line:
                offset += len(raw)
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if not has_newline:
                    warn_torn_tail(path, lineno, offset, f"not valid JSON: {exc}")
                    return count
                raise TraceValidationError(
                    f"{path}: line {lineno}: not valid JSON: {exc}",
                    path=str(path),
                    lineno=lineno,
                ) from None
            try:
                validate_event(record)
            except TraceValidationError as exc:
                field = f" (field {exc.field!r})" if exc.field else ""
                raise TraceValidationError(
                    f"{path}: line {lineno}{field}: {exc}",
                    path=str(path),
                    lineno=lineno,
                    field=exc.field,
                ) from None
            if record["seq"] != count:
                raise TraceValidationError(
                    f"{path}: line {lineno} (field 'seq'): seq {record['seq']} "
                    f"out of order (expected {count})",
                    path=str(path),
                    lineno=lineno,
                    field="seq",
                ) from None
            count += 1
            offset += len(raw)
    return count
