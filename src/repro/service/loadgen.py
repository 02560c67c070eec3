"""Replaying load generator for the coordinator service.

Replays a workload trace against a running coordinator over HTTP,
reporting achieved throughput, decision-latency percentiles and the
byte-miss ratio observed in the responses.

Two driving modes:

* **closed-loop** (``rate=None``) — each of ``concurrency`` workers
  keeps exactly one request in flight; at ``concurrency=1`` jobs reach
  the server strictly in trace order, which is the differential-test
  configuration (server trace byte-identical to the batch simulator's).
* **open-loop** (``rate=R``) — job *i* is released at time ``i / R``
  seconds after start regardless of completions; workers pick up
  released jobs as they free up.  A job's latency runs from its
  scheduled release, not from the moment a worker got round to sending
  it, so sustained overload shows up as growing latency rather than
  reduced offered load.

Jobs are paced deterministically (fixed ``1/rate`` spacing — no RNG),
so two runs of the same trace offer the same arrival schedule.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError, ServiceError
from repro.service.http import json_response, read_response, write_request
from repro.telemetry.tracing import REQUEST_ID_HEADER
from repro.utils.stats import percentile as _percentile
from repro.workload.trace import Trace

__all__ = ["LoadgenReport", "run_loadgen"]


@dataclass(frozen=True)
class LoadgenReport:
    """What one loadgen run achieved."""

    jobs: int
    errors: int
    hits: int
    unserviceable: int
    retries: int
    bytes_requested: int
    bytes_demand_loaded: int
    bytes_prefetched: int
    duration_s: float
    concurrency: int
    rate: float | None
    latency_p50_ms: float
    latency_p90_ms: float
    latency_p99_ms: float
    latency_mean_ms: float
    latency_max_ms: float
    # client-vs-server latency split, correlated per request id from the
    # ``timing_ms`` block of each response (zero when the server runs
    # with tracing disabled — no breakdown to correlate)
    server_p50_ms: float = 0.0
    server_p99_ms: float = 0.0
    server_mean_ms: float = 0.0
    plan_mean_ms: float = 0.0
    apply_mean_ms: float = 0.0
    net_overhead_mean_ms: float = 0.0

    @property
    def throughput_jobs_per_s(self) -> float:
        return self.jobs / self.duration_s if self.duration_s > 0 else 0.0

    @property
    def byte_miss_ratio(self) -> float:
        if self.bytes_requested == 0:
            return 0.0
        return self.bytes_demand_loaded / self.bytes_requested

    @property
    def request_hit_ratio(self) -> float:
        return self.hits / self.jobs if self.jobs else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "jobs": self.jobs,
            "errors": self.errors,
            "hits": self.hits,
            "unserviceable": self.unserviceable,
            "retries": self.retries,
            "bytes_requested": self.bytes_requested,
            "bytes_demand_loaded": self.bytes_demand_loaded,
            "bytes_prefetched": self.bytes_prefetched,
            "duration_s": self.duration_s,
            "concurrency": self.concurrency,
            "rate": self.rate,
            "throughput_jobs_per_s": self.throughput_jobs_per_s,
            "byte_miss_ratio": self.byte_miss_ratio,
            "request_hit_ratio": self.request_hit_ratio,
            "latency_p50_ms": self.latency_p50_ms,
            "latency_p90_ms": self.latency_p90_ms,
            "latency_p99_ms": self.latency_p99_ms,
            "latency_mean_ms": self.latency_mean_ms,
            "latency_max_ms": self.latency_max_ms,
            "server_p50_ms": self.server_p50_ms,
            "server_p99_ms": self.server_p99_ms,
            "server_mean_ms": self.server_mean_ms,
            "plan_mean_ms": self.plan_mean_ms,
            "apply_mean_ms": self.apply_mean_ms,
            "net_overhead_mean_ms": self.net_overhead_mean_ms,
        }


class _Aggregator:
    """Shared accumulator the workers fold their observations into."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.jobs = 0
        self.errors = 0
        self.hits = 0
        self.unserviceable = 0
        self.retries = 0
        self.bytes_requested = 0
        self.bytes_demand_loaded = 0
        self.bytes_prefetched = 0
        # server-side breakdown (ms), one entry per response carrying a
        # timing_ms block; net overhead is client latency minus server time
        self.server_ms: list[float] = []
        self.plan_ms: list[float] = []
        self.apply_ms: list[float] = []
        self.net_overhead_ms: list[float] = []

    def record(self, response_payload: dict[str, Any], latency_s: float) -> None:
        self.jobs += 1
        self.latencies.append(latency_s)
        timing = response_payload.get("timing_ms")
        if isinstance(timing, dict):
            server_ms = float(timing.get("server_ms", 0.0))
            self.server_ms.append(server_ms)
            self.plan_ms.append(float(timing.get("plan_ms", 0.0)))
            self.apply_ms.append(float(timing.get("apply_ms", 0.0)))
            self.net_overhead_ms.append(max(0.0, latency_s * 1e3 - server_ms))
        outcome = response_payload.get("outcome", {})
        self.retries += int(response_payload.get("retries", 0))
        if outcome.get("unserviceable"):
            self.unserviceable += 1
            return
        if outcome.get("hit"):
            self.hits += 1
        self.bytes_requested += int(outcome.get("requested_bytes", 0))
        self.bytes_demand_loaded += int(outcome.get("demand_bytes", 0))
        self.bytes_prefetched += int(outcome.get("prefetch_bytes", 0))


async def _request_json(
    host: str, port: int, method: str, target: str, payload: Any = None
) -> dict[str, Any]:
    """One standalone request on a fresh connection (control plane)."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        body = json_response(payload).body if payload is not None else b""
        write_request(writer, method, target, body=body)
        await writer.drain()
        response = await read_response(reader)
        if response.status != 200:
            raise ServiceError(
                f"{method} {target} returned {response.status}: "
                f"{response.body[:200].decode('utf-8', 'replace')}"
            )
        doc = response.json()
        return doc if isinstance(doc, dict) else {}
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _worker(
    host: str,
    port: int,
    jobs: list[dict[str, Any]],
    next_index: list[int],
    release: "list[float] | None",
    start_time: float,
    agg: _Aggregator,
) -> None:
    """Drive one keep-alive connection until the job list is exhausted."""
    reader, writer = await asyncio.open_connection(host, port)
    loop = asyncio.get_running_loop()
    try:
        while True:
            i = next_index[0]
            if i >= len(jobs):
                return
            next_index[0] = i + 1
            if release is not None:
                due = start_time + release[i]
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
            body = json_response(jobs[i]).body
            t0 = time.perf_counter()
            try:
                # the correlation id is the job's list index — the server
                # stores it as client_id next to its own arrival-derived id
                write_request(
                    writer,
                    "POST",
                    "/v1/jobs",
                    body=body,
                    headers={REQUEST_ID_HEADER: f"lg-{i:08d}"},
                )
                await writer.drain()
                response = await read_response(reader)
            except (ServiceError, ConnectionError, OSError):
                # the server went away mid-exchange (a crash drill, or a
                # shutdown race): count it and stop driving this worker
                agg.errors += 1
                return
            if release is None:
                latency = time.perf_counter() - t0
            else:
                # open loop: queueing behind slower jobs counts too
                latency = loop.time() - due
            if response.status != 200:
                agg.errors += 1
                continue
            doc = response.json()
            agg.record(doc if isinstance(doc, dict) else {}, latency)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _run(
    trace: Trace,
    host: str,
    port: int,
    *,
    concurrency: int,
    rate: float | None,
    limit: int | None,
    start_job: "int | str",
) -> LoadgenReport:
    if start_job == "auto":
        health = await _request_json(host, port, "GET", "/healthz")
        first = int(health.get("jobs", 0))
    else:
        first = int(start_job)
    requests = list(trace)[first:]
    if limit is not None:
        requests = requests[:limit]
    jobs = [
        {"files": sorted(r.bundle.files), "priority": r.priority}
        for r in requests
    ]
    release = [i / rate for i in range(len(jobs))] if rate is not None else None
    agg = _Aggregator()
    next_index = [0]
    loop = asyncio.get_running_loop()
    start_time = loop.time()
    t0 = time.perf_counter()
    workers = [
        _worker(host, port, jobs, next_index, release, start_time, agg)
        for _ in range(min(concurrency, max(1, len(jobs))))
    ]
    await asyncio.gather(*workers)
    duration = time.perf_counter() - t0
    lat = sorted(agg.latencies)
    mean = sum(lat) / len(lat) if lat else 0.0
    server = sorted(agg.server_ms)

    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    return LoadgenReport(
        jobs=agg.jobs,
        errors=agg.errors,
        hits=agg.hits,
        unserviceable=agg.unserviceable,
        retries=agg.retries,
        bytes_requested=agg.bytes_requested,
        bytes_demand_loaded=agg.bytes_demand_loaded,
        bytes_prefetched=agg.bytes_prefetched,
        duration_s=duration,
        concurrency=concurrency,
        rate=rate,
        latency_p50_ms=_percentile(lat, 50) * 1e3,
        latency_p90_ms=_percentile(lat, 90) * 1e3,
        latency_p99_ms=_percentile(lat, 99) * 1e3,
        latency_mean_ms=mean * 1e3,
        latency_max_ms=(lat[-1] if lat else 0.0) * 1e3,
        server_p50_ms=_percentile(server, 50),
        server_p99_ms=_percentile(server, 99),
        server_mean_ms=_mean(agg.server_ms),
        plan_mean_ms=_mean(agg.plan_ms),
        apply_mean_ms=_mean(agg.apply_ms),
        net_overhead_mean_ms=_mean(agg.net_overhead_ms),
    )


def run_loadgen(
    trace: Trace,
    host: str,
    port: int,
    *,
    concurrency: int = 1,
    rate: float | None = None,
    limit: int | None = None,
    start_job: "int | str" = 0,
) -> LoadgenReport:
    """Replay ``trace`` against the coordinator at ``host:port``.

    ``start_job`` skips jobs the server already serviced — pass
    ``"auto"`` to ask the server (``GET /healthz``) and continue from
    its count, the crash-resume driving mode.
    """
    if concurrency < 1:
        raise ConfigError(f"concurrency must be >= 1, got {concurrency}")
    if rate is not None and rate <= 0:
        raise ConfigError(f"rate must be positive, got {rate}")
    if limit is not None and limit < 0:
        raise ConfigError(f"limit must be non-negative, got {limit}")
    if start_job != "auto" and int(start_job) < 0:
        raise ConfigError(f"start_job must be non-negative, got {start_job}")
    return asyncio.run(
        _run(
            trace,
            host,
            port,
            concurrency=concurrency,
            rate=rate,
            limit=limit,
            start_job=start_job,
        )
    )
