"""Trace sinks: where a :class:`~repro.telemetry.recorder.TraceRecorder` writes.

* :class:`NullSink` — the default; marks the recorder inactive so
  instrumentation sites skip event construction entirely (near-zero
  overhead — one attribute check per site).
* :class:`JsonlSink` — one canonical JSON object per line, encoded by
  :func:`~repro.telemetry.events.encode_event` (sorted keys, fixed
  separators: exactly ``json.dumps(event_to_dict(seq, event),
  sort_keys=True, separators=(",", ":"))``), so a deterministic event
  stream yields a byte-identical file.  Every JSONL trace writer — this
  sink and the durable runner's — goes through that one encoder.
* :class:`RingSink` — an in-memory (optionally bounded) buffer of typed
  events; used by tests and by the per-worker buffering that keeps
  ``--jobs N`` traces deterministic.

Durability
----------
A :class:`JsonlSink` registers a :func:`weakref.finalize` callback, so
its buffer is flushed and the file closed at interpreter exit (or
garbage collection) even when the owner forgets to call :meth:`close` —
a crash-adjacent run still leaves a readable trace.  :meth:`flush`
pushes buffered lines to the OS on demand (optionally fsync'ing), and
:attr:`bytes_written` tracks the exact byte offset of the durable-write
frontier, which the checkpoint/recovery layer records so a resumed run
can truncate a torn tail and append from a known-good boundary.
"""

from __future__ import annotations

import abc
import os
import weakref
from collections import deque
from pathlib import Path
from typing import IO

from repro.errors import ConfigError
from repro.telemetry.events import TraceEvent, encode_event

__all__ = ["TraceSink", "NullSink", "JsonlSink", "RingSink"]


class TraceSink(abc.ABC):
    """Destination for a sequenced event stream."""

    #: recorders short-circuit all emission when the sink is inactive
    active: bool = True

    @abc.abstractmethod
    def emit(self, seq: int, event: TraceEvent) -> None:
        """Consume one event; ``seq`` is the recorder-assigned sequence."""

    def close(self) -> None:
        """Flush and release resources (idempotent)."""


class NullSink(TraceSink):
    """Discards everything; the recorder never even constructs events."""

    active = False

    def emit(self, seq: int, event: TraceEvent) -> None:  # pragma: no cover
        pass


def _close_file(fh: IO[bytes]) -> None:
    # runs via weakref.finalize: at gc, explicit close(), or interpreter
    # exit — whichever comes first
    if not fh.closed:
        fh.close()


class JsonlSink(TraceSink):
    """Appends canonical JSON lines to ``path``.

    ``append=False`` (default) truncates on open; ``append=True`` keeps
    existing content and continues counting :attr:`bytes_written` from
    the current file size (the recovery path truncates the file to the
    checkpoint offset first, then appends).
    """

    def __init__(self, path: "str | Path", *, append: bool = False):
        self.path = Path(path)
        # binary mode: one encode per line (its length IS the byte
        # offset advance) and a single buffer layer under flush(),
        # which the durable runner calls at every checkpoint boundary
        mode = "ab" if append else "wb"
        self._fh: IO[bytes] = open(self.path, mode)
        self.lines_written = 0
        self.bytes_written = self.path.stat().st_size if append else 0
        self._finalizer = weakref.finalize(self, _close_file, self._fh)

    def emit(self, seq: int, event: TraceEvent) -> None:
        self.emit_line(encode_event(seq, event))

    def emit_line(self, line: str) -> None:
        """Write one already-encoded canonical JSON line (the durable
        runner encodes once and shares the line with its replay check)."""
        data = line.encode("utf-8") + b"\n"
        self._fh.write(data)
        self.lines_written += 1
        self.bytes_written += len(data)

    def flush(self, *, sync: bool = False) -> None:
        """Push buffered lines to the OS; ``sync`` additionally fsyncs."""
        if self._fh.closed:
            return
        self._fh.flush()
        if sync:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        self._finalizer()


class RingSink(TraceSink):
    """Keeps the last ``capacity`` events in memory (``None`` = unbounded)."""

    def __init__(self, capacity: int | None = None):
        if capacity is not None and capacity < 1:
            raise ConfigError(f"RingSink capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[tuple[int, TraceEvent]] = deque(maxlen=capacity)

    def emit(self, seq: int, event: TraceEvent) -> None:
        self._events.append((seq, event))

    @property
    def events(self) -> list[TraceEvent]:
        """Retained events, oldest first."""
        return [event for _seq, event in self._events]

    @property
    def sequenced(self) -> list[tuple[int, TraceEvent]]:
        """Retained ``(seq, event)`` pairs, oldest first."""
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def clear(self) -> None:
        self._events.clear()
