"""Durable state behind the coordinator service.

The service is the online front end of the durable engine,
:class:`~repro.durability.runner.JournaledCoordinator`: the engine owns
the run directory's manifest, trace, journal, checkpoints and recovery,
and this module feeds it one HTTP job at a time.  What exists only
online lives here: the *arrivals record* — jobs arrive over the network,
so unlike a batch run there is no workload file to re-read them from —
the request tracer, the SLO monitor, the metrics registry, fault-injected
staging, and the read-side payloads::

    <run_dir>/
        manifest.json     service + simulation + durability parameters
        workload.jsonl    catalog (+ future bundles) the server was started with
        arrivals.jsonl    workload-trace-format record of accepted jobs
        trace.jsonl       telemetry trace (the decision record)
        journal/          write-ahead log, one frame per serviced job
        checkpoints/      versioned state snapshots

Per-job commit order: the job's **arrival line is flushed first**, then
the engine commits it (trace lines, then journal frame, then a
checkpoint every N jobs) — so under a SIGKILL the arrivals record is
always at least as durable as the journal, and every journaled decision
can be re-derived from a persisted arrival.  Recovery
(:meth:`CoordinatorState.resume`) re-feeds the persisted arrivals past
the engine's checkpoint through the same path, then continues serving
new jobs; the stitched trace is byte-identical to an uninterrupted
run's.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from pathlib import Path
from typing import IO, Any

from repro.core.bundle import FileBundle
from repro.core.request import Request
# kept for perfbench/serve_traced.py, which wraps this module's name
from repro.durability.checkpoint import write_checkpoint as write_checkpoint
from repro.durability.runner import JournaledCoordinator, load_manifest
from repro.errors import DurabilityError, ServiceError, UnknownFileError
from repro.faults.crash import CrashSpec
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec
from repro.service.config import ServiceConfig
from repro.service.slo import SloConfig, SloMonitor
from repro.sim.coordinator import JobOutcome
from repro.telemetry.metrics import DEFAULT_LATENCY_BUCKETS
from repro.telemetry.tracing import RequestTracer, request_id_for_job
from repro.workload.trace import Trace

__all__ = ["CoordinatorState", "JobResult"]

#: simulated per-file staging time a fault-injected latency spike
#: multiplies; feeds the SLO latency signal only (never the trace)
NOMINAL_STAGE_SECONDS = 1e-3


class JobResult:
    """One serviced job: the outcome plus its slice of the decision trace.

    ``events`` are the job's telemetry records exactly as written to
    ``trace.jsonl`` (parsed back from the canonical lines), so an HTTP
    response carries the same ``PlanComputed``/``FileAdmitted``/
    ``FileEvicted`` rationale payloads the trace does.  ``retries`` is
    the number of injected transfer faults absorbed while "staging" the
    job's loads (0 without a fault spec).  ``request_id`` is the
    deterministic tracing id (``req-<job:08d>``) that resolves to this
    job's span tree under ``/v1/debug/requests``.
    """

    __slots__ = ("outcome", "events", "retries", "request_id")

    def __init__(
        self,
        outcome: JobOutcome,
        events: list[dict[str, Any]],
        retries: int,
        request_id: str,
    ):
        self.outcome = outcome
        self.events = events
        self.retries = retries
        self.request_id = request_id

    def as_dict(self) -> dict[str, Any]:
        return {
            "outcome": self.outcome.as_dict(),
            "events": self.events,
            "retries": self.retries,
            "request_id": self.request_id,
        }


def _load_arrivals(path: Path) -> tuple[Trace, int]:
    """Read the arrivals record, tolerating a crash-torn final line.

    Returns the parsed trace and the byte length of the intact prefix
    (the caller truncates the file to it before appending).
    """
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise DurabilityError(f"{path}: unreadable arrivals record: {exc}") from None
    intact = len(data)
    if data and not data.endswith(b"\n"):
        # the signature of a process killed mid-append: drop the torn tail
        intact = data.rfind(b"\n") + 1
    if intact == 0:
        raise DurabilityError(f"{path}: arrivals record has no intact header line")
    lines = data[:intact].decode("utf-8").splitlines()
    return Trace.load_lines(lines), intact


class CoordinatorState:
    """The single-writer durable state of one coordinator service.

    Construct via :meth:`create` (fresh run directory) or :meth:`resume`
    (recover an interrupted one).  All methods are synchronous and not
    thread-safe; the HTTP layer runs them on one event loop, which
    serializes them — single-writer semantics is the service's
    consistency model, exactly like the batch loop's.
    """

    def __init__(self, config: ServiceConfig, engine: JournaledCoordinator):
        self.config = config
        self.engine = engine
        self.run_dir = config.run_dir
        self.sizes = engine.sizes
        self.recorder = engine.recorder
        self.cache = engine.cache
        self.metrics = engine.metrics
        self.registry = engine.recorder.registry
        self._http_requests = self.registry.counter_family(
            "service_http_requests_total",
            "HTTP requests handled",
            labelnames=("method", "route", "status"),
        )
        self._http_errors = self.registry.counter(
            "service_http_errors_total", "HTTP error responses (4xx/5xx)"
        )
        self._http_seconds = self.registry.histogram_family(
            "service_http_request_seconds",
            "server-side wall-clock latency of one HTTP exchange",
            labelnames=("method", "route"),
            buckets=DEFAULT_LATENCY_BUCKETS,
        )
        self._decision_seconds = self.registry.histogram_family(
            "service_decision_seconds",
            "wall-clock latency of one job decision (submit to journal commit)",
            labelnames=("policy",),
            buckets=DEFAULT_LATENCY_BUCKETS,
        ).labels(policy=config.policy)
        self._transfer_faults = self.registry.counter(
            "service_transfer_faults_total",
            "injected transfer faults absorbed as staging retries",
        )
        self.slo = SloMonitor(self.registry, config.slo)
        self._profile_fh: IO[str] | None = None
        if config.profile_stream:
            self._profile_fh = open(
                self.run_dir / "profile.jsonl", "a", encoding="utf-8"
            )
        self.tracer = RequestTracer(
            config.debug_ring,
            slow_threshold_s=config.slow_threshold_ms / 1e3,
            profile_stream=self._profile_fh,
        )
        self._strict = config.fsync == "always"
        # built outside any recorder context on purpose: service fault
        # injection is response-payload/metrics chaos only and must not
        # emit into the decision trace (differential comparison stays
        # byte-exact whether or not faults are enabled)
        self._faults = (
            FaultInjector(config.fault)
            if config.fault is not None and config.fault.enabled
            else None
        )
        self._arrivals: IO[bytes] | None = None
        self._closed = False

    @property
    def next_job(self) -> int:
        """Index the next accepted job gets (= jobs serviced so far)."""
        return self.engine.next_job

    @property
    def resumed_from_job(self) -> int:
        return self.engine.resumed_from_job

    @property
    def checkpoints_written(self) -> int:
        return self.engine.checkpoints_written

    # ------------------------------------------------------------------ #
    # construction

    @classmethod
    def create(cls, config: ServiceConfig) -> "CoordinatorState":
        """Initialise a fresh run directory and an empty cache."""
        workload = Trace.load(config.workload)
        engine = JournaledCoordinator.create(
            config.simulation,
            config.durability,
            workload,
            workload_bytes=Path(config.workload).read_bytes(),
            manifest_extra={
                "kind": "service",
                "fault": None if config.fault is None else asdict(config.fault),
            },
        )
        state = cls(config, engine)
        header = {
            "type": "header",
            "version": 1,
            "meta": {"kind": "service-arrivals"},
            "files": dict(workload.catalog.items()),
        }
        fh = open(config.run_dir / "arrivals.jsonl", "wb")
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        fh.flush()
        if state._strict:
            os.fsync(fh.fileno())
        state._arrivals = fh
        return state

    @classmethod
    def resume(
        cls,
        run_dir: str | Path,
        *,
        crash: CrashSpec | None = None,
        verify: bool = True,
        debug_ring: int = 256,
        slow_threshold_ms: float = 100.0,
        profile_stream: bool = False,
        slo: "SloConfig | None" = None,
    ) -> "CoordinatorState":
        """Recover an interrupted service run and make it serveable again.

        Re-executes every persisted arrival past the newest checkpoint,
        verifying each against its surviving journal frame and trace
        bytes; ``verify`` additionally reconstructs the stitched trace
        and checks it against the live cache.  ``crash`` arms a *new*
        crash injection for the resumed service (chaos sweeps).
        Observability knobs (``debug_ring``/``slow_threshold_ms``/
        ``profile_stream``/``slo``) are not part of the durable manifest
        — they describe *this* process, not the run — so the resuming
        caller supplies them afresh.
        """
        run_dir = Path(run_dir)
        sim, dur, doc = load_manifest(run_dir, kind="service", crash=crash)
        fault = None if doc.get("fault") is None else FaultSpec(**doc["fault"])
        config = ServiceConfig(
            workload=run_dir / "workload.jsonl",
            cache_size=sim.cache_size,
            run_dir=run_dir,
            policy=sim.policy,
            policy_kwargs=sim.policy_kwargs,
            warmup=sim.warmup,
            check_invariants=sim.check_invariants,
            checkpoint_every=dur.checkpoint_every,
            fsync=dur.fsync,
            max_segment_bytes=dur.max_segment_bytes,
            crash=crash,
            fault=fault,
            debug_ring=debug_ring,
            slow_threshold_ms=slow_threshold_ms,
            profile_stream=profile_stream,
            **({} if slo is None else {"slo": slo}),
        )
        workload = Trace.load(run_dir / "workload.jsonl")
        arrivals_path = run_dir / "arrivals.jsonl"
        arrivals, intact = _load_arrivals(arrivals_path)
        persisted = list(arrivals)
        engine = JournaledCoordinator.recover(
            config.simulation,
            config.durability,
            workload,
            arrivals=len(persisted),
        )
        state = cls(config, engine)
        try:
            for request in persisted[engine.next_job :]:
                state._service(request)
            engine.end_recovery(verify=verify)
        except BaseException:
            state.close()
            raise
        with open(arrivals_path, "rb+") as trunc:
            trunc.truncate(intact)
            trunc.flush()
            os.fsync(trunc.fileno())
        state._arrivals = open(arrivals_path, "ab")
        return state

    # ------------------------------------------------------------------ #
    # serving

    def submit(self, files: list[str], *, priority: float = 1.0) -> JobResult:
        """Accept, persist and service one job; returns its decisions.

        Raises :class:`~repro.errors.ServiceError` for an empty bundle
        and :class:`~repro.errors.UnknownFileError` for files outside the
        catalog — both *before* the arrival is persisted, so the durable
        record only ever holds serviceable-shaped jobs.
        """
        if self._closed:
            raise ServiceError("coordinator state is closed")
        if not files:
            raise ServiceError("a job must request at least one file")
        unknown = sorted(f for f in set(files) if f not in self.sizes)
        if unknown:
            raise UnknownFileError(
                f"job references files outside the catalog: {unknown}"
            )
        request = Request(
            request_id=self.engine.next_job,
            bundle=FileBundle(files),
            priority=float(priority),
        )
        self._append_arrival(request)
        return self._service(request)

    def _append_arrival(self, request: Request) -> None:
        if self._arrivals is None:
            raise ServiceError("arrivals record is not open")
        line = json.dumps(
            {
                "files": sorted(request.bundle.files),
                "id": request.request_id,
                "priority": request.priority,
                "t": request.arrival_time,
                "type": "job",
            }
        )
        self._arrivals.write(line.encode("utf-8") + b"\n")
        # the arrival must be at least as durable as the decision that
        # follows it: it is the replay input recovery re-executes
        self._arrivals.flush()
        if self._strict:
            os.fsync(self._arrivals.fileno())

    def _service(self, request: Request) -> JobResult:
        t0 = time.perf_counter()
        outcome, lines = self.engine.submit(request)
        retries = 0
        stall_s = 0.0
        if self._faults is not None:
            with self.recorder.span("srm.stage"):
                for _ in outcome.loaded:
                    if self._faults.transfer_fault("service") is not None:
                        retries += 1
                    # a latency spike stretches the nominal staging time;
                    # the simulated stall feeds the SLO latency signal only
                    # (never the trace, never the host-timing histogram)
                    stall_s += (
                        self._faults.latency_spike("service") - 1.0
                    ) * NOMINAL_STAGE_SECONDS
                if retries:
                    self._transfer_faults.inc(retries)
        elapsed = time.perf_counter() - t0
        self._decision_seconds.observe(elapsed)
        self.slo.observe(
            requested_bytes=outcome.requested_bytes,
            demand_bytes=outcome.demand_bytes,
            latency_s=elapsed + stall_s,
        )
        return JobResult(
            outcome,
            [json.loads(line) for line in lines],
            retries,
            request_id_for_job(outcome.job),
        )

    # ------------------------------------------------------------------ #
    # read-side payloads

    def cache_payload(self) -> dict[str, Any]:
        """The ``GET /v1/cache`` body: residency + metrics snapshot."""
        state = self.cache.export_state()
        return {
            "capacity": state["capacity"],
            "used": self.cache.used,
            "free": self.cache.free,
            "residents": state["resident"],
            "jobs": self.next_job,
            "metrics": self.metrics.snapshot().as_dict(),
        }

    def config_payload(self) -> dict[str, Any]:
        """The ``GET /v1/config`` body: the run's effective parameters."""
        cfg = self.config
        return {
            "cache_size": cfg.cache_size,
            "policy": cfg.policy,
            "policy_name": self.engine.policy.name,
            "policy_kwargs": {
                k: getattr(v, "value", v) for k, v in cfg.policy_kwargs.items()
            },
            "warmup": cfg.warmup,
            "check_invariants": cfg.check_invariants,
            "checkpoint_every": cfg.checkpoint_every,
            "fsync": cfg.fsync,
            "run_dir": str(cfg.run_dir),
            "workload_files": len(self.sizes),
            "fault_injection": cfg.fault is not None and cfg.fault.enabled,
        }

    def health_payload(self) -> dict[str, Any]:
        """The ``GET /healthz`` body."""
        return {
            "status": "ok",
            "policy": self.engine.policy.name,
            "jobs": self.next_job,
            "resumed_from_job": self.resumed_from_job,
            "checkpoints_written": self.checkpoints_written,
            "slo": self.slo.payload(),
            "requests_traced": self.tracer.requests_traced,
        }

    def prometheus(self) -> str:
        """The ``GET /metrics`` body (Prometheus text exposition)."""
        return self.registry.to_prometheus()

    def count_http_request(
        self,
        *,
        method: str,
        route: str,
        status: int,
        duration_s: float | None = None,
    ) -> None:
        """Registry bookkeeping for the HTTP layer (one call per response).

        ``route`` must come from the bounded route vocabulary (a known
        path, ``"<unroutable>"`` or ``"<unparsed>"``) so label
        cardinality stays finite.  ``duration_s`` is the server-side
        exchange latency measured by the request tracer; ``None`` (ring
        disabled) skips the latency histogram.
        """
        self._http_requests.labels(
            method=method, route=route, status=str(status)
        ).inc()
        if status >= 400:
            self._http_errors.inc()
        if duration_s is not None:
            self._http_seconds.labels(method=method, route=route).observe(
                duration_s
            )

    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Flush and release every durable artifact (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.engine.close()
        if self._profile_fh is not None and not self._profile_fh.closed:
            self._profile_fh.close()
        if self._arrivals is not None and not self._arrivals.closed:
            self._arrivals.flush()
            if self._strict:
                os.fsync(self._arrivals.fileno())
            self._arrivals.close()

    def __enter__(self) -> "CoordinatorState":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
        return None
