"""The write-ahead journal: length-prefixed, CRC32-checked frames.

One frame is appended per state-mutating job *after* the telemetry
trace lines for that job are written (and, in ``always`` mode, forced
to disk — there the journal never acknowledges a decision whose trace
evidence could be lost; in the buffered default, recovery instead drops
any frame whose trace evidence did not survive).  Frame layout::

    +----------------+----------------+------------------------+
    | length (u32 BE)| crc32 (u32 BE) | payload (canonical JSON)|
    +----------------+----------------+------------------------+

inside segment files ``wal-NNNNNN.log`` that each begin with an 8-byte
magic.  A crash can only tear the *final* frame of the *final* segment
(appends are sequential), so the reader silently discards a short tail
there; a full-length frame whose CRC32 mismatches, or a torn tail in an
interior segment, is genuine corruption and raises
:class:`~repro.errors.JournalCorruptError`.

Checkpointing truncates the journal by rotating to a fresh segment and
deleting every older one — the checkpoint subsumes their frames.
"""

from __future__ import annotations

import json
import os
import re
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

from repro.durability.atomicio import fsync_dir
from repro.errors import JournalCorruptError, JournalError

__all__ = [
    "JOURNAL_MAGIC",
    "JournalFrame",
    "JournalWriter",
    "JournalReader",
    "read_journal_dir",
]

#: segment file preamble: format name + version
JOURNAL_MAGIC = b"FBCWAL01"

_HEADER = struct.Struct(">II")  # (payload length, payload crc32)
_SEGMENT_RE = re.compile(r"^wal-(\d{6})\.log$")

#: rotate segments beyond this many payload bytes (checkpoints usually
#: truncate long before this is reached)
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024


def _encode_payload(payload: dict[str, Any]) -> bytes:
    # compact, insertion-ordered JSON: the CRC covers the raw bytes as
    # written, so no canonical key order is required
    return json.dumps(payload, separators=(",", ":")).encode("utf-8")


def _segment_name(index: int) -> str:
    return f"wal-{index:06d}.log"


def segment_index(path: Path) -> int:
    """The numeric index of a ``wal-NNNNNN.log`` path."""
    m = _SEGMENT_RE.match(path.name)
    if m is None:
        raise JournalError(f"not a journal segment file: {path.name!r}")
    return int(m.group(1))


def list_segments(journal_dir: str | Path) -> list[Path]:
    """Segment files under ``journal_dir``, ordered by index."""
    d = Path(journal_dir)
    if not d.is_dir():
        return []
    found = [p for p in d.iterdir() if _SEGMENT_RE.match(p.name)]
    return sorted(found, key=segment_index)


@dataclass(frozen=True)
class JournalFrame:
    """One decoded journal frame."""

    payload: dict[str, Any]
    segment: str
    offset: int

    @property
    def job(self) -> int:
        """The simulation job index this frame records."""
        return int(self.payload["job"])


class JournalWriter:
    """Appends frames to the current segment, rotating as needed.

    ``fsync`` policy:

    * ``"rotate"`` (default) — appends are buffered; a kill (or power
      cut) may lose the buffered tail, which shrinks the replay oracle
      and degrades recovery to re-execution from the newest surviving
      checkpoint rather than breaking it (segments are fsync'd only on
      size rotation);
    * ``"always"`` — additionally fsync every frame and every
      truncation; power-failure-proof at a substantial throughput cost.
    """

    def __init__(
        self,
        journal_dir: str | Path,
        *,
        max_segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        fsync: str = "rotate",
    ):
        if fsync not in ("rotate", "always"):
            raise JournalError(f"fsync must be 'rotate' or 'always', got {fsync!r}")
        if max_segment_bytes < 1:
            raise JournalError(
                f"max_segment_bytes must be positive, got {max_segment_bytes}"
            )
        self.journal_dir = Path(journal_dir)
        self.journal_dir.mkdir(parents=True, exist_ok=True)
        self._max_segment_bytes = max_segment_bytes
        self._fsync_mode = fsync
        #: every segment in the directory, oldest first: listed once here,
        #: then kept current by this (the directory's only) writer
        self._segments = list_segments(self.journal_dir)
        self._next_index = (
            segment_index(self._segments[-1]) + 1 if self._segments else 0
        )
        self._fh: Any = None
        self._segment_path: Path | None = None
        self._segment_bytes = 0
        self.frames_appended = 0
        self._open_segment()

    # ------------------------------------------------------------------ #

    @property
    def current_segment(self) -> Path:
        assert self._segment_path is not None
        return self._segment_path

    def _open_segment(self) -> None:
        path = self.journal_dir / _segment_name(self._next_index)
        self._next_index += 1
        fh = open(path, "xb")
        fh.write(JOURNAL_MAGIC)
        fh.flush()
        self._fh = fh
        self._segments.append(path)
        self._segment_path = path
        self._segment_bytes = len(JOURNAL_MAGIC)

    def append(
        self, payload: dict[str, Any], *, encoded: bytes | None = None
    ) -> None:
        """Append one frame (buffered; flushed + fsync'd in ``always`` mode).

        In ``rotate`` mode frames sit in the writer's buffer until it
        fills, the segment rotates, :meth:`flush` is called, or the
        writer closes.  Losing buffered frames to a kill is safe:
        recovery re-executes every unacknowledged job from the newest
        checkpoint, and drops any surviving frame whose trace evidence
        was lost with the other buffer.

        ``encoded`` lets a hot caller supply the serialized payload
        bytes itself; it must equal ``_encode_payload(payload)`` (the
        CRC covers whatever bytes are given).
        """
        if self._fh is None:
            raise JournalError("journal writer is closed")
        data = _encode_payload(payload) if encoded is None else encoded
        frame = _HEADER.pack(len(data), zlib.crc32(data)) + data
        self._fh.write(frame)
        if self._fsync_mode == "always":
            self._fh.flush()
            os.fsync(self._fh.fileno())
        self._segment_bytes += len(frame)
        self.frames_appended += 1
        if self._segment_bytes >= self._max_segment_bytes:
            self.rotate()

    def flush(self) -> None:
        """Push buffered frames to the OS (page cache)."""
        if self._fh is not None:
            self._fh.flush()

    def rotate(self) -> None:
        """fsync + close the current segment and start the next one."""
        self._close_current(sync=True)
        self._open_segment()

    def truncate_to_checkpoint(self) -> None:
        """Delete every journaled frame: the checkpoint subsumes them.

        The outgoing segment is closed *without* an fsync — it is
        unlinked in the same breath, so there is nothing worth pushing
        to stable storage.  Losing the unlinks to a power cut is also
        harmless: stale segments only hold pre-checkpoint frames, which
        recovery filters out by job index.
        """
        if self._fh is not None:
            self._fh.flush()
            self._fh.close()
            self._fh = None
        for seg in self._segments:
            seg.unlink()
        self._segments.clear()
        self._open_segment()
        if self._fsync_mode == "always":
            fsync_dir(self.journal_dir)

    def _close_current(self, *, sync: bool) -> None:
        if self._fh is not None:
            self._fh.flush()
            if sync:
                os.fsync(self._fh.fileno())
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        # ``rotate`` mode only fsyncs at size-rotation boundaries; the
        # closing flush is kill-safe on its own (page cache is
        # kernel-side), so stable storage is "always"-mode territory.
        self._close_current(sync=self._fsync_mode == "always")

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class JournalReader:
    """Streams frames from one segment file."""

    def __init__(self, path: str | Path, *, tolerate_torn_tail: bool = False):
        self.path = Path(path)
        self.tolerate_torn_tail = tolerate_torn_tail
        #: set after iteration: True when a torn final frame was discarded
        self.torn = False

    def __iter__(self) -> Iterator[JournalFrame]:
        with open(self.path, "rb") as fh:
            magic = fh.read(len(JOURNAL_MAGIC))
            if magic != JOURNAL_MAGIC:
                raise JournalCorruptError(
                    f"{self.path}: bad journal magic {magic!r}",
                    path=str(self.path),
                    offset=0,
                )
            offset = len(JOURNAL_MAGIC)
            while True:
                header = fh.read(_HEADER.size)
                if not header:
                    return
                if len(header) < _HEADER.size:
                    self._torn(offset, "truncated frame header")
                    return
                length, crc = _HEADER.unpack(header)
                data = fh.read(length)
                if len(data) < length:
                    self._torn(offset, "truncated frame payload")
                    return
                if zlib.crc32(data) != crc:
                    raise JournalCorruptError(
                        f"{self.path}: frame at offset {offset} fails its "
                        "CRC32 check",
                        path=str(self.path),
                        offset=offset,
                    )
                payload = json.loads(data.decode("utf-8"))
                yield JournalFrame(
                    payload=payload, segment=str(self.path), offset=offset
                )
                offset += _HEADER.size + length

    def _torn(self, offset: int, what: str) -> None:
        if not self.tolerate_torn_tail:
            raise JournalCorruptError(
                f"{self.path}: {what} at offset {offset}",
                path=str(self.path),
                offset=offset,
            )
        self.torn = True


def read_journal_dir(journal_dir: str | Path) -> tuple[list[JournalFrame], bool]:
    """All valid frames across a journal directory, in append order.

    Tolerates a torn final frame in the *last* segment only (the only
    place a crash can leave one); returns ``(frames, torn)``.  Raises
    :class:`~repro.errors.JournalCorruptError` for interior corruption.
    """
    segments = list_segments(journal_dir)
    frames: list[JournalFrame] = []
    torn = False
    for i, seg in enumerate(segments):
        reader = JournalReader(seg, tolerate_torn_tail=(i == len(segments) - 1))
        frames.extend(reader)
        torn = reader.torn
    return frames, torn
