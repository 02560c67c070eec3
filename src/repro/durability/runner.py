"""The durable engine: one journaled coordinator behind every durable mode.

:class:`JournaledCoordinator` owns a *run directory*::

    <run_dir>/
        manifest.json     simulation + durability parameters (atomic)
        workload.jsonl    the workload (file catalog + future bundles)
        trace.jsonl       telemetry trace (flushed at every checkpoint)
        journal/          write-ahead log, one frame per serviced job
        checkpoints/      versioned state snapshots (+ journal truncation)
        result.json       final metrics (batch runs, only on completion)

Two front ends feed it arrivals.  :func:`run_durable` and
:func:`resume_run` feed it a workload trace (through the admission queue
when ``queue_length > 1``); :class:`repro.service.state.CoordinatorState`
feeds it HTTP jobs one at a time and keeps its own ``arrivals.jsonl``.

The per-job commit order is **trace first, journal second**: a job's
telemetry lines are written before its journal frame.  Each line is
encoded once, by :func:`~repro.telemetry.events.encode_event` (the
canonical encoder behind every JSONL sink, so the durable trace is the
batch simulator's byte for byte), and the same string feeds the replay
check and the service's response.  In the default
``"rotate"`` mode both files are OS-buffered between checkpoints (a
checkpoint always flushes the trace before recording its offset), so a
kill may lose the buffered tail of either file; recovery keeps only
journal frames whose trace evidence survived and re-executes everything
else from the newest checkpoint.  In ``"always"`` mode each job's trace
bytes are forced to disk before its frame is appended and fsync'd,
making the journal a strict per-job commit record.  Every
``checkpoint_every`` jobs the full simulation state — cache residency,
the policy's exported state, metrics, the admission queue — is
snapshotted atomically and the journal is truncated.

Recovery (:meth:`JournaledCoordinator.recover`) works by
**re-execution**: it restores the latest valid checkpoint, truncates the
telemetry trace to the checkpoint's byte offset, and the front end
re-feeds the arrivals from there.  The surviving journal tail acts as an
oracle: each frame records its job's *trace byte range* (the trace lines
themselves are the event payload), and recovery captures those original
bytes before truncating, after dropping any trailing frames whose trace
bytes did not survive the crash.  Each re-executed job must reproduce
its journaled frame and its trace bytes exactly, otherwise
:class:`~repro.errors.ReplayDivergenceError` fires.  Because every
component restores *exactly* (heap orders, RNG state, tie-break
counters), the stitched trace is byte-identical to an uninterrupted
run's; ``verify`` additionally replays the stitched trace through
:func:`repro.telemetry.forensics.reconstruct` and checks the
reconstructed residency against the live cache.
"""

from __future__ import annotations

import enum
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

from repro.cache.registry import make_policy
from repro.cache.state import CacheState
from repro.core.history import TruncationMode
from repro.core.request import Request
from repro.durability.atomicio import atomic_write_bytes, atomic_write_json, fsync_dir
from repro.durability.checkpoint import (
    Checkpoint,
    latest_checkpoint,
    write_checkpoint,
)
from repro.durability.journal import (
    _HEADER,
    DEFAULT_SEGMENT_BYTES,
    JournalFrame,
    JournalWriter,
    list_segments,
    read_journal_dir,
)
from repro.errors import ConfigError, DurabilityError, ReplayDivergenceError
from repro.faults.crash import CrashInjector, CrashSpec
from repro.sim.coordinator import CoordinatorCore, JobOutcome
from repro.sim.metrics import MetricsCollector
from repro.sim.queueing import AdmissionQueue, QueueDiscipline
from repro.sim.simulator import (
    SimulationConfig,
    SimulationResult,
    _queued,
)
from repro.telemetry.events import TraceEvent, encode_event
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.recorder import TraceRecorder, use_recorder
from repro.telemetry.sinks import JsonlSink
from repro.workload.trace import Trace

__all__ = [
    "MANIFEST_SCHEMA_VERSION",
    "DurabilityConfig",
    "DurableReport",
    "JournaledCoordinator",
    "run_durable",
    "resume_run",
]

#: on-disk manifest format version
MANIFEST_SCHEMA_VERSION = 1

#: policy kwargs that arrive as enums and must round-trip through JSON
_ENUM_KWARGS: dict[str, type[enum.Enum]] = {"truncation": TruncationMode}


@dataclass(frozen=True)
class DurabilityConfig:
    """Parameters of the durable engine (orthogonal to the simulation).

    Attributes
    ----------
    run_dir:
        The run directory (created if missing; must not already contain
        another run's manifest).
    checkpoint_every:
        Snapshot the full state every N jobs (journal is truncated at
        each snapshot, bounding recovery re-execution to < N jobs).
    fsync:
        ``"rotate"`` (default) — trace and journal are OS-buffered
        between checkpoints and all artifacts are written atomically; a
        kill (or power cut) may lose the buffered tail of either file,
        which shrinks the replay oracle or falls back to an older
        checkpoint — recovery always succeeds by re-execution.
        ``"always"`` — flush + fsync every journal frame, checkpoint
        and per-job trace boundary; a strict per-job commit record,
        power-failure-proof, slow.
    max_segment_bytes:
        Journal segment rotation threshold.
    crash:
        Optional :class:`~repro.faults.crash.CrashSpec` injecting a
        deterministic crash (testing/chaos only).
    """

    run_dir: Path
    checkpoint_every: int = 100
    fsync: str = "rotate"
    max_segment_bytes: int = DEFAULT_SEGMENT_BYTES
    crash: CrashSpec | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "run_dir", Path(self.run_dir))
        if self.checkpoint_every < 1:
            raise ConfigError(
                f"checkpoint_every must be >= 1, got {self.checkpoint_every}"
            )
        if self.fsync not in ("rotate", "always"):
            raise ConfigError(
                f"fsync must be 'rotate' or 'always', got {self.fsync!r}"
            )
        if self.max_segment_bytes < 1:
            raise ConfigError(
                f"max_segment_bytes must be positive, got {self.max_segment_bytes}"
            )


@dataclass(frozen=True)
class DurableReport:
    """Outcome of a completed durable (or resumed) run."""

    result: SimulationResult
    run_dir: Path
    trace_path: Path
    #: jobs serviced by *this* process (a resume excludes checkpointed jobs)
    jobs_executed: int
    #: index of the first job this process executed (0 for a cold run)
    resumed_from_job: int
    #: re-executed jobs that were verified against surviving journal frames
    replayed_jobs: int
    checkpoints_written: int


class _TeeSink(JsonlSink):
    """A :class:`JsonlSink` that also keeps the current job's lines in
    :attr:`lines` (the replay check and the service's response both read
    them).  Lines are encoded once, by the one canonical encoder every
    JSONL sink uses, :func:`~repro.telemetry.events.encode_event`."""

    def __init__(self, path: Path, *, append: bool):
        super().__init__(path, append=append)
        self.lines: list[str] = []

    def emit(self, seq: int, event: TraceEvent) -> None:
        line = encode_event(seq, event)
        self.emit_line(line)
        self.lines.append(line)


# ---------------------------------------------------------------------- #
# manifest (de)serialization


def _config_to_manifest(
    config: SimulationConfig, durability: DurabilityConfig
) -> dict[str, Any]:
    kwargs: dict[str, Any] = {}
    for key, value in config.policy_kwargs.items():
        kwargs[key] = value.value if isinstance(value, enum.Enum) else value
    try:
        json.dumps(kwargs)
    except TypeError as exc:
        raise ConfigError(
            f"policy_kwargs are not JSON-serializable ({exc}); durable runs "
            "require a replayable manifest"
        ) from None
    return {
        "schema_version": MANIFEST_SCHEMA_VERSION,
        "workload": "workload.jsonl",
        "config": {
            "cache_size": config.cache_size,
            "policy": config.policy,
            "policy_kwargs": kwargs,
            "queue_length": config.queue_length,
            "discipline": config.discipline.value,
            "queue_mode": config.queue_mode,
            "warmup": config.warmup,
            "check_invariants": config.check_invariants,
        },
        "durability": {
            "checkpoint_every": durability.checkpoint_every,
            "fsync": durability.fsync,
            "max_segment_bytes": durability.max_segment_bytes,
        },
    }


def load_manifest(
    run_dir: Path, *, kind: str, crash: CrashSpec | None = None
) -> tuple[SimulationConfig, DurabilityConfig, dict[str, Any]]:
    """Read ``run_dir``'s manifest, refusing another kind of run.

    ``kind`` is ``"batch"`` (manifests without a ``kind`` key) or
    ``"service"``; nothing in the run directory is touched.  Returns the
    simulation and durability configs (``crash`` armed) and the document.
    """
    path = run_dir / "manifest.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DurabilityError(f"{path}: unreadable run manifest: {exc}") from None
    if doc.get("schema_version") != MANIFEST_SCHEMA_VERSION:
        raise DurabilityError(
            f"{path}: unsupported manifest schema "
            f"v{doc.get('schema_version')!r} (this build reads "
            f"v{MANIFEST_SCHEMA_VERSION})"
        )
    if doc.get("kind", "batch") != kind:
        raise DurabilityError(
            f"{path}: not a {kind} run (kind={doc.get('kind', 'batch')!r}); "
            "resume it through its own front end"
        )
    cfg, dur = doc["config"], doc["durability"]
    kwargs = dict(cfg.get("policy_kwargs") or {})
    for key, enum_cls in _ENUM_KWARGS.items():
        if key in kwargs and isinstance(kwargs[key], str):
            kwargs[key] = enum_cls(kwargs[key])
    config = SimulationConfig(
        cache_size=int(cfg["cache_size"]),
        policy=str(cfg["policy"]),
        policy_kwargs=kwargs,
        queue_length=int(cfg["queue_length"]),
        discipline=QueueDiscipline(cfg["discipline"]),
        queue_mode=str(cfg["queue_mode"]),
        warmup=int(cfg["warmup"]),
        check_invariants=bool(cfg["check_invariants"]),
    )
    durability = DurabilityConfig(
        run_dir=run_dir,
        checkpoint_every=int(dur["checkpoint_every"]),
        fsync=str(dur["fsync"]),
        max_segment_bytes=int(dur["max_segment_bytes"]),
        crash=crash,
    )
    return config, durability, dict(doc)


# ---------------------------------------------------------------------- #
# the engine


def _append_torn_frame(journal: JournalWriter) -> None:
    # a header promising more payload than follows: exactly the tail a
    # mid-write crash leaves
    journal.flush()  # keep buffered frames ahead of the injected tear
    with open(journal.current_segment, "ab") as fh:
        fh.write(_HEADER.pack(1 << 16, 0) + b'{"torn":')
        fh.flush()


def _check_frame(
    expected: JournalFrame,
    actual: dict[str, Any],
    *,
    actual_bytes: bytes,
    oracle: bytes,
    oracle_base: int,
) -> None:
    """One re-executed job against its surviving journal frame + trace bytes."""
    if expected.payload != actual:
        diff_keys = sorted(
            k
            for k in set(expected.payload) | set(actual)
            if expected.payload.get(k) != actual.get(k)
        )
        raise ReplayDivergenceError(
            f"job {actual['job']}: re-execution diverged from journal frame "
            f"({expected.segment} @ {expected.offset}) on {diff_keys}"
        )
    start = int(actual["trace_start"]) - oracle_base
    end = int(actual["trace_offset"]) - oracle_base
    if oracle[start:end] != actual_bytes:
        raise ReplayDivergenceError(
            f"job {actual['job']}: re-executed trace bytes differ from the "
            f"journaled originals (trace range {actual['trace_start']}.."
            f"{actual['trace_offset']})"
        )


class JournaledCoordinator:
    """The single-writer durable coordinator over one run directory.

    Open one with :meth:`create` (fresh run directory) or :meth:`recover`
    (an interrupted one), feed it arrivals with :meth:`run` (an iterator,
    through the admission queue when one is configured) or :meth:`submit`
    (one at a time), then call :meth:`end_recovery` once every
    persisted arrival has been re-fed, and :meth:`close` at the end.
    The recorder's spans and the metrics collector share one registry,
    ``recorder.registry`` (the service exposes it).
    """

    def __init__(
        self,
        config: SimulationConfig,
        durability: DurabilityConfig,
        workload: Trace,
        *,
        checkpoint: Checkpoint | None = None,
    ):
        self.config = config
        self.durability = durability
        self.run_dir = durability.run_dir
        self.trace_path = self.run_dir / "trace.jsonl"
        self.sizes = workload.catalog.as_dict()
        restored = None if checkpoint is None else checkpoint.state
        self._sink = _TeeSink(self.trace_path, append=restored is not None)
        registry = MetricsRegistry()
        self.recorder = TraceRecorder(
            self._sink,
            registry=registry,
            start_seq=0 if checkpoint is None else checkpoint.trace_seq,
        )
        with use_recorder(self.recorder):
            self.cache = (
                CacheState.restore(restored["cache"])
                if restored is not None
                else CacheState(config.cache_size)
            )
            self.policy = make_policy(
                config.policy, future=workload.bundles(), **config.policy_kwargs
            )
            self.policy.bind(self.cache, self.sizes)
            if restored is not None:
                self.policy.import_state(restored["policy"])
            self.metrics = MetricsCollector(warmup=config.warmup, registry=registry)
            if restored is not None:
                self.metrics.import_state(restored["metrics"])
            self.queue: AdmissionQueue | None = None
            if config.queue_length > 1:
                self.queue = AdmissionQueue(
                    config.queue_length, config.discipline, sizes=self.sizes
                )
                if restored is not None and restored.get("queue") is not None:
                    self.queue.import_state(restored["queue"])
            self.core = CoordinatorCore(
                cache=self.cache,
                policy=self.policy,
                sizes=self.sizes,
                metrics=self.metrics,
                recorder=self.recorder,
                check_invariants=config.check_invariants,
            )
        self.journal = JournalWriter(
            self.run_dir / "journal",
            max_segment_bytes=durability.max_segment_bytes,
            fsync=durability.fsync,
        )
        self._injector = (
            CrashInjector(durability.crash) if durability.crash is not None else None
        )
        self._strict = durability.fsync == "always"
        # the journal tail re-execution must reproduce (set by recover)
        self._tail: Sequence[JournalFrame] = ()
        self._oracle = b""
        self._oracle_base = self._sink.bytes_written
        self.next_job = self.resumed_from_job = (
            0 if checkpoint is None else checkpoint.job
        )
        self.arrivals_consumed = (
            0 if checkpoint is None else checkpoint.arrivals_consumed
        )
        #: re-executed jobs verified against surviving journal frames
        self.replayed = 0
        self.checkpoints_written = 0

    # ------------------------------------------------------------------ #
    # opening a run directory

    @classmethod
    def create(
        cls,
        config: SimulationConfig,
        durability: DurabilityConfig,
        workload: Trace,
        *,
        workload_bytes: bytes,
        manifest_extra: dict[str, Any] | None = None,
    ) -> "JournaledCoordinator":
        """Initialise a fresh run directory: stage ``workload_bytes`` (the
        dump of ``workload``) and write the manifest (plus
        ``manifest_extra``).  Refuses a directory that already holds a
        run."""
        run_dir = durability.run_dir
        if (run_dir / "manifest.json").exists():
            raise DurabilityError(
                f"{run_dir} already contains a run; resume it or use a "
                "fresh directory"
            )
        manifest = _config_to_manifest(config, durability)
        manifest.update(manifest_extra or {})
        run_dir.mkdir(parents=True, exist_ok=True)
        sync = durability.fsync == "always"
        atomic_write_bytes(run_dir / "workload.jsonl", workload_bytes, fsync=sync)
        atomic_write_json(run_dir / "manifest.json", manifest, fsync=sync)
        return cls(config, durability, workload)

    @classmethod
    def recover(
        cls,
        config: SimulationConfig,
        durability: DurabilityConfig,
        workload: Trace,
        *,
        arrivals: int,
    ) -> "JournaledCoordinator":
        """The recovery prologue: position a new engine at the newest
        valid checkpoint (falling back past corrupt ones; job 0 without
        one), with the surviving journal tail as its replay oracle.

        ``arrivals`` is how many arrivals the front end can re-feed;
        frames of jobs beyond them are dropped.  The caller re-feeds
        every arrival from :attr:`arrivals_consumed` on, then calls
        :meth:`end_recovery`.
        """
        run_dir = durability.run_dir
        ckpt = latest_checkpoint(run_dir / "checkpoints")
        frames, _torn = read_journal_dir(run_dir / "journal")
        start_job, consumed, trace_offset = (
            (0, 0, 0)
            if ckpt is None
            else (ckpt.job, ckpt.arrivals_consumed, ckpt.trace_offset)
        )
        if consumed > arrivals:
            raise DurabilityError(
                f"checkpoint consumed {consumed} arrivals but only {arrivals} "
                "are on record"
            )
        # A crash between checkpoint write and journal truncation leaves
        # frames the checkpoint already subsumes; frames whose arrival did
        # not survive were never acknowledged.  Only the rest re-executes.
        tail = [f for f in frames if start_job <= f.job < arrivals]

        trace_path = run_dir / "trace.jsonl"
        existing = trace_path.read_bytes() if trace_path.exists() else b""
        if len(existing) < trace_offset:
            raise DurabilityError(
                f"{trace_path} holds {len(existing)} bytes but the checkpoint "
                f"records {trace_offset}"
            )
        # Capture the journal-acknowledged trace bytes of the tail jobs
        # before truncating: they are the replay oracle.  In the default
        # buffered ("rotate") mode the two files flush independently, so a
        # kill can leave frames whose trace bytes never reached disk; those
        # frames have no evidence to verify against — drop them and let
        # re-execution regenerate their jobs.  trace_offset is monotone
        # across frames, so trimming from the end keeps a verifiable prefix.
        while tail and int(tail[-1].payload["trace_offset"]) > len(existing):
            tail.pop()
        oracle = b""
        if tail:
            oracle = existing[trace_offset : int(tail[-1].payload["trace_offset"])]
        with open(trace_path, "ab") as fh:
            fh.truncate(trace_offset)
            fh.flush()
            os.fsync(fh.fileno())
        # The journal tail is now held in memory (the oracle); re-executed
        # jobs re-journal themselves, so old segments are cleared first.
        for segment in list_segments(run_dir / "journal"):
            segment.unlink()
        fsync_dir(run_dir / "journal")
        engine = cls(config, durability, workload, checkpoint=ckpt)
        engine._tail, engine._oracle = tail, oracle
        return engine

    # ------------------------------------------------------------------ #
    # feeding arrivals

    def run(self, arrivals: Iterable[Request]) -> None:
        """Commit every arrival as one job, in admission-queue order when a
        queue is configured (the batch feeder)."""
        requests = self._counted(arrivals)
        if self.queue is not None:
            requests = _queued(
                requests,
                self.queue,
                self.policy.score,
                self.config.queue_mode,
                # a run interrupted mid-drain empties its restored queue first
                drain_first=len(self.queue) > 0,
            )
        with use_recorder(self.recorder):
            for request in requests:
                self._commit(request)

    def submit(self, request: Request) -> tuple[JobOutcome, list[str]]:
        """Commit one arrival as the next job, bypassing any admission
        queue (the online feeder); returns its outcome and trace lines."""
        self.arrivals_consumed += 1
        return self._commit(request)

    def _counted(self, arrivals: Iterable[Request]) -> Iterator[Request]:
        for request in arrivals:
            self.arrivals_consumed += 1
            yield request

    def _commit(self, request: Request) -> tuple[JobOutcome, list[str]]:
        job = self.next_job
        lines: list[str] = []
        self._sink.lines = lines
        trace_start = self._sink.bytes_written
        outcome = self.core.submit(job, request)
        # commit order: the job's trace lines are written before its
        # frame.  "always" additionally forces them to disk first,
        # making the frame a strict per-job commit record; the
        # buffered default lets recovery trim evidence-less frames.
        if self._strict:
            self._sink.flush(sync=True)
        trace_offset = self._sink.bytes_written
        seq = self.recorder.events_emitted
        consumed = self.arrivals_consumed
        frame = {
            "job": job,
            "request_id": request.request_id,
            "trace_start": trace_start,
            "trace_offset": trace_offset,
            "seq": seq,
            "arrivals_consumed": consumed,
        }
        # hand-rolled serialization of the all-int frame; must match
        # _encode_payload(frame) byte-for-byte (~6x faster than
        # json.dumps on this hot path)
        encoded = (
            f'{{"job":{job},"request_id":{request.request_id},'
            f'"trace_start":{trace_start},"trace_offset":{trace_offset},'
            f'"seq":{seq},"arrivals_consumed":{consumed}}}'
        ).encode("ascii")
        if self.replayed < len(self._tail):
            _check_frame(
                self._tail[self.replayed],
                frame,
                actual_bytes="".join(line + "\n" for line in lines).encode("utf-8"),
                oracle=self._oracle,
                oracle_base=self._oracle_base,
            )
            self.replayed += 1
        with self.recorder.span("journal.commit"):
            self.journal.append(frame, encoded=encoded)
            if self._injector is not None:
                self._injector.tick(torn_hook=lambda: _append_torn_frame(self.journal))
            if (job + 1) % self.durability.checkpoint_every == 0:
                self._checkpoint(job + 1)
        self.next_job = job + 1
        return outcome, lines

    def _checkpoint(self, job: int) -> None:
        # the trace is always flushed before the checkpoint that records
        # its offset, so a surviving checkpoint never points past the end
        # of the surviving trace
        self._sink.flush(sync=self._strict)
        write_checkpoint(
            self.run_dir / "checkpoints",
            job=job,
            arrivals_consumed=self.arrivals_consumed,
            trace_offset=self._sink.bytes_written,
            trace_seq=self.recorder.events_emitted,
            state={
                "cache": self.cache.export_state(),
                "policy": self.policy.export_state(),
                "metrics": self.metrics.export_state(),
                "queue": None if self.queue is None else self.queue.export_state(),
            },
            fsync=self._strict,
        )
        self.journal.truncate_to_checkpoint()
        self.checkpoints_written += 1

    # ------------------------------------------------------------------ #
    # finishing

    def end_recovery(self, *, verify: bool) -> None:
        """Check that re-execution reproduced every surviving journal
        frame; ``verify`` also reconstructs the stitched trace and checks
        it against the live cache."""
        if self.replayed < len(self._tail):
            raise ReplayDivergenceError(
                f"journal holds {len(self._tail)} frames past job "
                f"{self.resumed_from_job} but re-execution produced only "
                f"{self.replayed}"
            )
        if verify:
            from repro.telemetry.forensics import reconstruct, verify_against_cache

            self._sink.flush()
            report = reconstruct(str(self.trace_path), capacity=self.config.cache_size)
            report.raise_if_violations()
            mismatches = verify_against_cache(report, self.cache)
            if mismatches:
                raise ReplayDivergenceError(
                    "stitched trace disagrees with the live cache: "
                    + "; ".join(mismatches)
                )

    def close(self) -> None:
        """Flush and release the journal and the trace (idempotent)."""
        self.journal.close()
        self._sink.flush(sync=self._strict)
        self._sink.close()


# ---------------------------------------------------------------------- #
# the batch front end


def run_durable(
    trace: Trace,
    config: SimulationConfig,
    durability: DurabilityConfig,
    *,
    workload_source: "str | Path | None" = None,
) -> DurableReport:
    """Execute ``trace`` under ``config`` with journaling and checkpoints.

    The run directory is laid out as documented in the module docstring;
    a crash (injected or real) at any point leaves a state
    :func:`resume_run` recovers from.  Refuses to start in a directory
    that already holds a run manifest (resume instead, or use a fresh
    directory).

    ``workload_source`` names the JSONL file ``trace`` was loaded from,
    when there is one: the bytes are staged into the run directory as-is
    instead of re-serializing the in-memory trace (input staging, not
    part of the journal/checkpoint overhead).  The file must be the dump
    of ``trace`` — a resume replays from the staged copy.
    """
    if workload_source is not None:
        data = Path(workload_source).read_bytes()
        # cheap shape check: one header line plus one line per job
        if data.count(b"\n") != len(trace) + 1 or not data.endswith(b"\n"):
            raise DurabilityError(
                f"{workload_source} does not look like the dump of the "
                f"supplied trace ({len(trace)} jobs)"
            )
    else:
        data = ("\n".join(trace.dump_lines()) + "\n").encode("utf-8")
    engine = JournaledCoordinator.create(
        config, durability, trace, workload_bytes=data
    )
    return _drive(engine, trace, verify=False)


def resume_run(
    run_dir: str | Path,
    *,
    verify: bool = True,
    crash: CrashSpec | None = None,
) -> DurableReport:
    """Recover an interrupted durable run and drive it to completion.

    Restores the newest valid checkpoint (falling back past corrupt
    ones; a run crashed before its first checkpoint restarts from job
    0), truncates the telemetry trace to the checkpoint's byte offset,
    and re-executes the remaining workload.  Journal frames that
    survived the crash are used as an oracle: each re-executed job must
    reproduce its frame exactly or
    :class:`~repro.errors.ReplayDivergenceError` is raised.  A service
    run directory is refused with :class:`~repro.errors.DurabilityError`
    before any file is touched.

    ``verify`` reconstructs the stitched trace and checks it against the
    live cache; ``crash`` optionally injects a *new* crash into the
    resumed portion (crash sweeps resume repeatedly).
    """
    run_dir = Path(run_dir)
    config, durability, manifest = load_manifest(run_dir, kind="batch", crash=crash)
    trace = Trace.load(run_dir / manifest["workload"])
    engine = JournaledCoordinator.recover(
        config, durability, trace, arrivals=len(trace)
    )
    return _drive(engine, trace, verify=verify)


def _drive(
    engine: JournaledCoordinator, trace: Trace, *, verify: bool
) -> DurableReport:
    """Feed the rest of ``trace`` through ``engine``, then finish the run."""
    try:
        engine.run(itertools.islice(trace, engine.arrivals_consumed, None))
    finally:
        # deterministic teardown: an escaping exception (including an
        # injected crash) must not leave open buffered writers behind —
        # a later GC would flush their stale tails into files a resume
        # may already be rewriting
        engine.close()
    engine.end_recovery(verify=verify)
    config, cache, queue = engine.config, engine.cache, engine.queue
    result = SimulationResult(
        policy=engine.policy.name,
        cache_size=config.cache_size,
        metrics=engine.metrics.snapshot(),
        cache_loads=cache.load_count,
        cache_evictions=cache.evict_count,
        cache_bytes_evicted=cache.bytes_evicted,
        max_queue_wait=queue.max_observed_wait() if queue is not None else 0,
        config=config,
    )
    atomic_write_json(
        engine.run_dir / "result.json",
        result.as_dict(),
        fsync=engine.durability.fsync == "always",
    )
    return DurableReport(
        result=result,
        run_dir=engine.run_dir,
        trace_path=engine.trace_path,
        jobs_executed=engine.next_job - engine.resumed_from_job,
        resumed_from_job=engine.resumed_from_job,
        replayed_jobs=engine.replayed,
        checkpoints_written=engine.checkpoints_written,
    )
