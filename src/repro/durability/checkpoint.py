"""Versioned, atomically-written simulation checkpoints.

A checkpoint is one JSON document ``ckpt-NNNNNN.json`` (``N`` = index of
the next job to execute) carrying the full serialized simulation state
(every component's ``export_state()``), the telemetry high-water marks
(trace byte offset and next sequence number) and a whole-document CRC32.
Writes go through :func:`repro.durability.atomicio.atomic_write_bytes`,
so a crash leaves either the previous checkpoint set or the new one —
never a torn file.  The loader walks checkpoints newest-first and falls
back past any that fail the CRC or schema check, so a corrupted latest
checkpoint degrades recovery (more journal replay) instead of killing
it.

The documented on-disk format is **checkpoint schema v1**; bump
:data:`CHECKPOINT_SCHEMA_VERSION` on any incompatible change (the
RPR005 drift linter cross-checks the README against this constant).
"""

from __future__ import annotations

import json
import os
import re
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.durability.atomicio import atomic_write_bytes
from repro.errors import CheckpointError

__all__ = [
    "CHECKPOINT_SCHEMA_VERSION",
    "Checkpoint",
    "write_checkpoint",
    "load_checkpoint",
    "latest_checkpoint",
    "list_checkpoints",
]

#: on-disk checkpoint format version (see module docstring)
CHECKPOINT_SCHEMA_VERSION = 1

#: how many checkpoints to retain (the newest may be torn-adjacent in
#: pathological filesystems; one predecessor is the fallback)
KEEP_CHECKPOINTS = 2

#: top-level keys every checkpoint document must carry
CHECKPOINT_REQUIRED_KEYS = frozenset(
    {"schema_version", "job", "arrivals_consumed", "trace_offset",
     "trace_seq", "state", "crc32"}
)

_CKPT_RE = re.compile(r"^ckpt-(\d{6})\.json$")


#: one reusable canonical encoder (``json.dumps`` would build one per
#: call); exported states are trees, so the cycle check is skipped
_ENCODER = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), check_circular=False
)


def _canonical(doc: dict[str, Any]) -> bytes:
    # ensure_ascii (the default) makes the text pure ASCII
    return _ENCODER.encode(doc).encode("ascii")


@dataclass(frozen=True)
class Checkpoint:
    """One validated checkpoint document."""

    path: Path
    doc: dict[str, Any]

    @property
    def job(self) -> int:
        """Index of the next job to execute after restoring this state."""
        return int(self.doc["job"])

    @property
    def arrivals_consumed(self) -> int:
        return int(self.doc["arrivals_consumed"])

    @property
    def trace_offset(self) -> int:
        """Telemetry-trace byte length at the checkpoint boundary."""
        return int(self.doc["trace_offset"])

    @property
    def trace_seq(self) -> int:
        """Next telemetry sequence number at the checkpoint boundary."""
        return int(self.doc["trace_seq"])

    @property
    def state(self) -> dict[str, Any]:
        return self.doc["state"]


def list_checkpoints(checkpoint_dir: str | Path) -> list[Path]:
    """Checkpoint files under ``checkpoint_dir``, oldest first."""
    try:
        names = os.listdir(checkpoint_dir)
    except (FileNotFoundError, NotADirectoryError):
        return []
    found = sorted(
        (int(m.group(1)), name) for name in names if (m := _CKPT_RE.match(name))
    )
    d = Path(checkpoint_dir)
    return [d / name for _, name in found]


def write_checkpoint(
    checkpoint_dir: str | Path,
    *,
    job: int,
    arrivals_consumed: int,
    trace_offset: int,
    trace_seq: int,
    state: dict[str, Any],
    keep: int = KEEP_CHECKPOINTS,
    fsync: bool = True,
) -> Path:
    """Atomically write a checkpoint and prune old ones; returns its path.

    ``fsync=False`` keeps the temp-file + rename atomicity (kill-safe)
    but skips pushing the bytes to stable storage — the durable runner's
    default ``"rotate"`` mode uses this, accepting that a power cut may
    fall back to an older checkpoint.
    """
    d = Path(checkpoint_dir)
    doc: dict[str, Any] = {
        "schema_version": CHECKPOINT_SCHEMA_VERSION,
        "job": int(job),
        "arrivals_consumed": int(arrivals_consumed),
        "trace_offset": int(trace_offset),
        "trace_seq": int(trace_seq),
        "state": state,
    }
    # Serialize once: the CRC covers the canonical form *without* the
    # crc32 key (mirroring load_checkpoint, which pops it and
    # re-canonicalizes the parsed dict — so on-disk key order is free),
    # and the stored document is that same body with the CRC spliced on.
    body = _canonical(doc)
    crc = zlib.crc32(body)
    doc["crc32"] = crc
    missing = CHECKPOINT_REQUIRED_KEYS - set(doc)
    if missing:
        raise CheckpointError(f"checkpoint missing keys: {sorted(missing)}")
    path = d / f"ckpt-{job:06d}.json"
    data = body[:-1] + b',"crc32":%d}' % crc
    try:
        atomic_write_bytes(path, data, fsync=fsync)
    except FileNotFoundError:
        # the first checkpoint of a run creates the directory
        d.mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(path, data, fsync=fsync)
    for old in list_checkpoints(d)[:-keep]:
        old.unlink()
    return path


def load_checkpoint(path: str | Path) -> Checkpoint:
    """Load and validate one checkpoint file (CRC + schema version)."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable checkpoint: {exc}") from None
    if not isinstance(doc, dict):
        raise CheckpointError(f"{path}: checkpoint is not a JSON object")
    missing = CHECKPOINT_REQUIRED_KEYS - set(doc)
    if missing:
        raise CheckpointError(f"{path}: checkpoint missing keys {sorted(missing)}")
    recorded_crc = doc.pop("crc32")
    actual_crc = zlib.crc32(_canonical(doc))
    if recorded_crc != actual_crc:
        raise CheckpointError(
            f"{path}: checkpoint CRC mismatch "
            f"(recorded {recorded_crc}, actual {actual_crc})"
        )
    doc["crc32"] = recorded_crc
    if doc["schema_version"] != CHECKPOINT_SCHEMA_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint schema "
            f"v{doc['schema_version']} (this build reads "
            f"v{CHECKPOINT_SCHEMA_VERSION})"
        )
    return Checkpoint(path=path, doc=doc)


def latest_checkpoint(checkpoint_dir: str | Path) -> Checkpoint | None:
    """The newest checkpoint that validates; falls back past corrupt ones."""
    for path in reversed(list_checkpoints(checkpoint_dir)):
        try:
            return load_checkpoint(path)
        except CheckpointError:
            continue
    return None
