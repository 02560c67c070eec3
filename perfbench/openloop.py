"""service-mixed: ``repro-fbc serve`` in its own process, driven open-loop.

One repetition starts a fresh server and runs one schedule (``SERVICE``
in ``common.py``): a closed-loop phase that measures the capacity C, an
open-loop phase at a fixed share of C, and a ramp past C.

The stock ``repro.service.loadgen`` is not used: it starts each job's
clock at the actual send, after its release sleep, so when the server
stalls, the jobs queued behind the stall are sent late and their wait is
hidden.  This client times every job from its scheduled release (its due
time ``start + i / rate``), and reports how late it sent (``lag``) and how
many due jobs were still unsent when the fixed phase's last job fell due
(``backlog``).  It speaks HTTP through the public
``repro.service.http.write_request``/``read_response``.

Two keep-alive connections, matching two cores: the job connection sends
``POST /v1/jobs`` strictly in trace order (so the decision trace must
equal the batch simulator's), and the reader connection sends
``GET /metrics`` about every 100 ms and ``GET /v1/debug/requests`` about
every second, sharing the server's one event loop with the decisions.
The server runs on one CPU and this client on another; a
``calibrate.py`` sampler on each CPU times the host's speed, and every
timing is scaled to the reference host by the samples taken around it.

The event loop uses ``select()`` so that sleeps until a due time wake
within microseconds instead of epoll's millisecond rounding.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import resource
import selectors
import signal
import subprocess
import sys
import time
from pathlib import Path

from common import (
    MAX_RATE_BACKLOG_FRAC,
    REF_SLICE_S,
    ROOT,
    SERVICE,
    WORKLOADS,
    child_env,
    make_trace,
    peak_rss_mb,
)
from repro.utils.stats import percentile

HERE = Path(__file__).resolve().parent
_now = time.perf_counter
CALL_TIMEOUT_S = 30.0


class Server:
    """One ``serve`` subprocess, started and listening."""

    def __init__(self, workload: Path, run_dir: Path, log: Path, spans_out: Path | None, cpu):
        serve = [
            "serve", str(workload),
            "--run-dir", str(run_dir),
            "--policy", WORKLOADS["service-mixed"]["policy"],
            "--port", "0",
            "--checkpoint-every", str(SERVICE["checkpoint_every"]),
        ]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro.cli", *serve]
        else:
            cmd = [sys.executable, str(HERE / "serve_traced.py"), "--spans-out", str(spans_out), *serve]
        self._log = open(log, "ab")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self._log, env=child_env(), cwd=ROOT,
            preexec_fn=None if cpu is None else lambda: os.sched_setaffinity(0, {cpu}),
        )
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on http://"):
            self.stop()
            raise RuntimeError(f"server did not start (see {log}): {line!r}")
        self.port = int(line.rsplit(":", 1)[1])

    def stop(self) -> int:
        """SIGTERM, wait for a clean shutdown (SIGKILL after 30 s), and
        return the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Conn:
    """One keep-alive HTTP connection."""

    @classmethod
    async def open(cls, port: int) -> "Conn":
        self = cls()
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)
        return self

    async def call(self, method: str, target: str, body: bytes = b""):
        from repro.service.http import read_response, write_request

        write_request(self.writer, method, target, body=body)
        await self.writer.drain()
        # a hung server fails the run instead of hanging it
        return await asyncio.wait_for(read_response(self.reader), CALL_TIMEOUT_S)

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _healthy(port: int) -> None:
    """Wait until ``GET /healthz`` answers 200."""
    deadline = _now() + 30.0
    while True:
        try:
            conn = await Conn.open(port)
            try:
                if (await conn.call("GET", "/healthz")).status == 200:
                    return
            finally:
                await conn.close()
        except (ConnectionError, OSError):
            pass
        if _now() > deadline:
            raise RuntimeError("server never answered /healthz")
        await asyncio.sleep(0.005)


async def _reader(conn: Conn, start: float, every: tuple[float, float],
                  stop: asyncio.Event, out: dict) -> None:
    """From ``start`` until ``stop``: ``GET /metrics`` every ``every[0]``
    seconds, and ``GET /v1/debug/requests`` instead of one of them every
    ``every[1]`` seconds."""
    metrics_every, debug_every = every
    k = 1
    next_debug = start + debug_every
    while True:
        due = start + k * metrics_every
        k += 1
        delay = due - _now()
        if delay > 0:
            try:
                await asyncio.wait_for(stop.wait(), delay)
            except asyncio.TimeoutError:
                pass
        if stop.is_set():
            return
        if _now() >= next_debug:
            next_debug += debug_every
            target, key = "/v1/debug/requests", "debug_s"
        else:
            target, key = "/metrics", "scrape_s"
        t0 = _now()
        response = await conn.call("GET", target)
        out[key].append(_now() - t0)
        out["read_bytes"] += len(response.body)
        if response.status != 200:
            out["read_failed"] += 1


async def _phase(conn: Conn, reads: Conn, every: tuple[float, float], bodies, due,
                 out: list, reads_out: dict, stop_ms: float | None = None) -> None:
    """Send ``bodies`` in order while ``_reader`` reads on ``reads``, its
    schedule starting with the phase's, so that a phase of a given length
    holds the same reads at the same offsets.  ``due[k]`` is job k's
    release in seconds after the phase starts (open loop); ``due`` of
    ``None`` sends each job as soon as the last one is answered (closed
    loop).  With ``stop_ms``, the phase ends once a job's latency from its
    due time exceeds it."""
    start = _now()
    stop = asyncio.Event()
    reader = asyncio.create_task(_reader(reads, start, every, stop, reads_out))
    try:
        for k, body in enumerate(bodies):
            if due is None:
                release = _now()
            else:
                release = start + due[k]
                delay = release - _now()
                if delay > 0:
                    await asyncio.sleep(delay)
            sent = _now()
            try:
                response = await conn.call("POST", "/v1/jobs", body)
                status, payload = response.status, response.body
            except (ConnectionError, OSError, asyncio.IncompleteReadError,
                    asyncio.TimeoutError) as exc:
                status, payload = 0, repr(exc).encode()
            done = _now()
            out.append((release, sent, done, status, payload))
            if stop_ms is not None and (done - release) * 1e3 > stop_ms:
                return
    finally:
        stop.set()
        await reader


class Sampler:
    """A ``calibrate.py`` process timing slices on one CPU."""

    def __init__(self, cpu, out: Path):
        self.out = out
        cmd = [sys.executable, str(HERE / "calibrate.py"), "--out", str(out)]
        if cpu is not None:
            cmd += ["--cpu", str(cpu)]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
        self.proc.stdout.readline()  # "ready": pinned and sampling

    def stop(self) -> dict:
        self.proc.send_signal(signal.SIGTERM)
        self.proc.wait(timeout=30)
        self.proc.stdout.close()
        return json.loads(self.out.read_text(encoding="utf-8"))


class HostSpeed:
    """One CPU's slice samples, looked up by time."""

    def __init__(self, samples: dict):
        self.ends, self.seconds = samples["end"], samples["seconds"]
        if not self.ends:
            raise RuntimeError("a host-speed sampler took no samples")

    def slice_s(self, a: float, b: float) -> float:
        """Mean slice time over [a, b], widened until it holds a few."""
        ends, pad = self.ends, 0.005
        while True:
            lo = bisect.bisect_left(ends, a - pad)
            hi = bisect.bisect_right(ends, b + pad)
            if hi - lo >= 4 or hi - lo == len(ends):
                return sum(self.seconds[lo:hi]) / (hi - lo)
            pad *= 2

    def time(self, a: float, b: float) -> float:
        """The interval [a, b] on the reference host."""
        return (b - a) * REF_SLICE_S / self.slice_s(a, b)

    def rate(self, rate: float, at: float) -> float:
        """A rate sustained around ``at``, on the reference host."""
        return rate * self.slice_s(at - 0.25, at + 0.25) / REF_SLICE_S

    def mean_us(self) -> float:
        return sum(self.seconds) / len(self.seconds) * 1e6


def fixed_stats(records, speed: HostSpeed) -> dict:
    """Latency from the due time (on the reference host), client lag and
    backlog of the fixed phase, and whether it stayed below saturation.

    The job connection is one serial queue, so a job's lag is the wait
    for the jobs ahead of it: stalls show in the lag as in the latency.
    Saturation is the lag that never drains: more than
    ``MAX_RATE_BACKLOG_FRAC`` of the jobs still unsent when the last one
    fell due, or the median job sent later than the latency limit.
    """
    lat = sorted(speed.time(due, done) * 1e3 for due, _sent, done, _st, _p in records)
    raw = sorted((done - due) * 1e3 for due, _sent, done, _st, _p in records)
    lag = sorted((sent - due) * 1e3 for due, sent, _x, _st, _p in records)
    last_due = records[-1][0]
    backlog = sum(1 for _d, sent, _x, _st, _p in records if sent > last_due)
    limit = SERVICE["latency_limit_ms"]
    return {
        "p50_ms": percentile(lat, 50.0),
        "p99_ms": percentile(lat, 99.0),
        "raw_p50_ms": percentile(raw, 50.0),
        "raw_p99_ms": percentile(raw, 99.0),
        "lag_p99_ms": percentile(lag, 99.0),
        "backlog_end": backlog,
        "valid": backlog <= MAX_RATE_BACKLOG_FRAC * len(records)
        and percentile(lag, 50.0) <= limit,
    }


def ramp_due(r0: float, r1: float, seconds: float, jobs: int) -> list[float]:
    """Release times of a rate rising linearly from ``r0`` to ``r1`` jobs/s
    over ``seconds``: job k is due when ``r0 t + a t^2 / 2`` reaches k."""
    a = (r1 - r0) / seconds
    return [(-r0 + (r0 * r0 + 2.0 * a * k) ** 0.5) / a for k in range(jobs)]


def crossing(records, r0: float, a: float) -> tuple[float, float]:
    """The offered rate at the last job of a ramp that met the latency
    limit, and that job's due time.  Below capacity, a stall's latency
    spike recovers and later jobs meet the limit again; past it the
    backlog only grows, so the last job that met the limit marks the
    highest rate the server kept up with.  Jobs that failed count as
    missing the limit."""
    start = records[0][0]
    last = None
    for release, _sent, done, status, _p in records:
        if status == 200 and (done - release) * 1e3 <= SERVICE["latency_limit_ms"]:
            last = release
    if last is None:
        return r0 / 2, start  # not even the first job met the limit
    return r0 + a * (last - start), last


async def _drive(seed: int, workdir: Path, traced: bool, cpus: list) -> dict:
    # a sampler on each CPU; the server's paces every timing (the client's
    # CPU speed barely moves them), and keeping the client's CPU from
    # halting lets it wake on time for each due job
    client_cpu, server_cpu = cpus[0], cpus[-1]
    samplers: list[Sampler] = []
    server = None
    workload = workdir / "workload.jsonl"
    run_dir = workdir / "run"
    spans_out = workdir / "spans.json" if traced else None
    s = SERVICE
    try:
        samplers.append(Sampler(server_cpu, workdir / "speed-server.json"))
        if client_cpu != server_cpu:
            samplers.append(Sampler(client_cpu, workdir / "speed-client.json"))
        t0 = _now()
        trace = make_trace("service-mixed", seed)
        t1 = _now()
        trace.dump(workload)
        t2 = _now()
        server = Server(workload, run_dir, workdir / "server.log", spans_out, server_cpu)
        await _healthy(server.port)
        t3 = _now()

        bodies = [
            json.dumps({"files": sorted(r.bundle.files), "priority": r.priority}).encode()
            for r in trace
        ]
        reads = {"scrape_s": [], "debug_s": [], "read_bytes": 0, "read_failed": 0}
        conn = await Conn.open(server.port)
        reader = await Conn.open(server.port)
        closed, fixed = s["closed_jobs"], s["fixed_jobs"]
        records: list = []
        await _phase(conn, reader, (s["metrics_every_s"], s["debug_every_s"]),
                     bodies[:closed], None, records, reads)
        capacity = closed / (records[-1][2] - records[0][0])
        rate = s["fixed_load"] * capacity
        # from here on the reads are paced by the fixed phase's jobs: a read
        # stalls the server for a time that scales with the host's speed as
        # the rate does, so the share of jobs a read delays stays put
        every = (s["metrics_every_jobs"] / rate, s["debug_every_jobs"] / rate)
        await _phase(conn, reader, every, bodies[closed : closed + fixed],
                     [k / rate for k in range(fixed)], records, reads)
        # a ramp from half to one and a half times the capacity just
        # measured, so it crosses it within a couple of seconds
        r0, r1 = s["ramp_from"] * capacity, s["ramp_to"] * capacity
        pos = closed + fixed
        due = ramp_due(r0, r1, s["ramp_seconds"], int((r0 + r1) / 2 * s["ramp_seconds"]))
        ramped: list = []
        await _phase(conn, reader, every, bodies[pos : pos + len(due)], due, ramped, reads,
                     stop_ms=4 * s["latency_limit_ms"])
        records += ramped
        cache = json.loads((await conn.call("GET", "/v1/cache")).body)
        await conn.close()
        await reader.close()
    finally:
        code = server.stop() if server is not None else None
        samples = [sampler.stop() for sampler in samplers]
    server_speed, client_speed = HostSpeed(samples[0]), HostSpeed(samples[-1])
    # every server this process started has been reaped: the largest
    # peak RSS among its children is the server's
    rss_mb = peak_rss_mb(resource.RUSAGE_CHILDREN)

    closed_records = records[:closed]
    closed_s = sum(
        server_speed.time(release, done) for release, _s, done, _st, _p in closed_records
    )
    raw_rate, at = crossing(ramped, r0, (r1 - r0) / s["ramp_seconds"])
    outcomes = []
    for _due, _sent, _done, status, payload in records:
        outcomes.append(json.loads(payload)["outcome"] if status == 200 else None)
    prefix = closed + fixed
    served = [o for o in outcomes[:prefix] if o is not None]
    result = {
        # generation and dump ran in this client, the start in the server
        "setup_s": [client_speed.time(t0, t2) + server_speed.time(t2, t3)],
        "generate_s": [client_speed.time(t0, t1)],
        "load_s": [client_speed.time(t1, t2)],
        "jobs": len(records),
        "failed": sum(1 for o in outcomes if o is None) + reads["read_failed"],
        "server_exit": code,
        "closed_jobs_per_s": closed / closed_s,
        "raw_closed_jobs_per_s": capacity,
        "fixed": fixed_stats(records[closed:prefix], server_speed),
        "max_rate_jobs_per_s": server_speed.rate(raw_rate, at),
        "raw_max_rate_jobs_per_s": raw_rate,
        "slice_us": server_speed.mean_us(),
        "prefix_jobs": prefix,
        # byte-miss ratio over the closed and fixed phases
        "bytes": [
            sum(o["demand_bytes"] for o in served),
            sum(o["requested_bytes"] for o in served),
        ],
        "scrape_s": reads["scrape_s"],
        "debug_s": reads["debug_s"],
        "read_bytes": reads["read_bytes"],
        "peak_rss_mb": rss_mb,
        "trace_path": str(run_dir / "trace.jsonl"),
        "client_s": [done - sent for _d, sent, done, _st, _p in records],
    }
    result["trace_bytes"] = (run_dir / "trace.jsonl").stat().st_size
    result["arrivals_bytes"] = (run_dir / "arrivals.jsonl").stat().st_size
    metrics = cache["metrics"]
    result["request_hit_ratio"] = metrics["request_hits"] / max(metrics["jobs"], 1)
    if traced:
        import spans

        doc = json.loads(spans_out.read_text(encoding="utf-8"))
        result["layers"] = spans.summarise(
            doc["spans"], doc["counts"], doc["samples"], wall_s=0.0, client_s=result["client_s"]
        )
    return result


def run(seed: int, workdir: Path, *, traced: bool, cpus: list) -> dict:
    loop = asyncio.SelectorEventLoop(selectors.SelectSelector())
    try:
        return loop.run_until_complete(_drive(seed, workdir, traced, cpus))
    finally:
        loop.close()
