"""Outside-in span recorder for the traced benchmark runs.

The program has spans of its own (``TraceRecorder.span``), but they feed
histograms, not per-request trees, and they are absent from the batch
path.  The traced run therefore wraps the public functions of each layer
from the benchmark's own files and keeps every call as a span in memory:
name, start, end, the span that caused it (a context variable, so asyncio
tasks keep separate trees) and the job of its root span.  Spans live in
flat ``array`` columns, which the garbage collector never scans, so a
long traced run does not slow down as spans pile up.  They are written
out when the run ends; :func:`summarise` turns them into self times
(span minus child spans) per layer and per job.

Wrapping changes no decision: ``run.py`` checks the traced run's
byte-miss ratio and decision digest against the untraced run's.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import time
from array import array
from collections import defaultdict
from pathlib import Path

from repro.utils.stats import percentile

_now = time.perf_counter

#: job id of spans that belong to no job (set-up, service reads)
NO_JOB = -1


class SpanRecorder:
    """In-memory spans with cause links, plus named counters and samples."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.job = array("q")
        #: totals such as journal bytes or fsyncs
        self.counts: dict[str, float] = defaultdict(float)
        #: per-call samples of operating-point counts (e.g. candidates)
        self.samples: dict[str, list[int]] = defaultdict(list)
        self._current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        #: job of the next in-process root span
        self.next_job = NO_JOB
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # span primitives

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str, start: float | None = None):
        parent = self._current.get()
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.start.append(_now() if start is None else start)
        self.end.append(0.0)
        self.parent.append(parent)
        self.job.append(self.next_job if parent < 0 else NO_JOB)
        return idx, self._current.set(idx)

    def close(self, opened, end: float | None = None) -> None:
        idx, token = opened
        self.end[idx] = _now() if end is None else end
        self._current.reset(token)

    def current(self) -> int:
        return self._current.get()

    def root(self) -> int:
        """Index of the outermost open span in this context (-1 if none)."""
        idx = self._current.get()
        while idx >= 0 and self.parent[idx] >= 0:
            idx = self.parent[idx]
        return idx

    # ------------------------------------------------------------------ #
    # wrapping

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`unwrap_all`."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, orig))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, *, before=None, after=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper.

        ``before(args, kwargs)`` runs ahead of the span, inside a
        ``bench.count`` span so its cost is not booked to a layer;
        ``after(result, args, kwargs)`` runs after the span closes.
        """
        orig = getattr(owner, attr)
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if before is not None:
                counting = rec.open("bench.count")
                before(args, kwargs)
                rec.close(counting)
            opened = rec.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                rec.close(opened)
            if after is not None:
                after(result, args, kwargs)
            return result

        self.patch(owner, attr, wrapper)

    def unwrap_all(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    def columns(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "job": self.job.tolist(),
        }

    def dump(self, path: Path) -> None:
        doc = {"spans": self.columns(), "counts": self.counts, "samples": self.samples}
        path.write_text(json.dumps(doc), encoding="utf-8")


# ---------------------------------------------------------------------- #
# what each process kind wraps


def install_core(rec: SpanRecorder) -> None:
    """Wrap the layers every execution mode shares: sim, cache, core and
    telemetry.  An in-process ``CoordinatorCore.submit`` starts a job."""
    from repro.cache.optbundle_policy import OptFileBundlePolicy
    from repro.cache.policy import PerFilePolicy
    from repro.cache.state import CacheState
    from repro.core.optfilebundle import OptFileBundlePlanner
    from repro.sim.coordinator import CoordinatorCore
    from repro.telemetry.recorder import TraceRecorder

    samples = rec.samples

    def submit_before(args, kwargs):
        counting = rec.current()
        if rec.parent[counting] < 0:  # not inside a service request
            rec.next_job = rec.job[counting] = args[1]

    def plan_before(args, kwargs):
        samples["candidates"].append(len(args[0].history.candidates()))
        samples["files"].append(len(args[1]))

    def plan_after(plan, args, kwargs):
        samples["selected"].append(len(plan.selection.selected))

    rec.wrap(CoordinatorCore, "submit", "sim.submit", before=submit_before)
    rec.wrap(OptFileBundlePolicy, "on_request", "cache.on_request")
    rec.wrap(PerFilePolicy, "on_request", "cache.on_request")
    rec.wrap(OptFileBundlePlanner, "plan", "core.plan", before=plan_before, after=plan_after)
    rec.wrap(OptFileBundlePlanner, "commit", "core.commit")
    rec.wrap(CacheState, "load", "cache.admit")
    rec.wrap(CacheState, "evict", "cache.evict")
    rec.wrap(TraceRecorder, "emit", "telemetry.emit")


def install_durability(rec: SpanRecorder, modules) -> None:
    """Wrap the journal and the checkpoint writer (as each of ``modules``
    imported it), and count fsyncs."""
    import repro.durability.checkpoint as checkpoint_mod
    from repro.durability.journal import JournalWriter

    counts = rec.counts

    def append_after(result, args, kwargs):
        # both callers pass the encoded payload; a frame adds an 8-byte header
        counts["journal_bytes"] += 8 + len(kwargs["encoded"])

    def checkpoint_after(path, args, kwargs):
        counts["checkpoints"] += 1
        counts["checkpoint_bytes"] += os.path.getsize(path)

    rec.wrap(JournalWriter, "append", "durability.journal_append", after=append_after)
    for module in modules:
        if module.write_checkpoint is checkpoint_mod.write_checkpoint:
            rec.wrap(module, "write_checkpoint", "durability.checkpoint", after=checkpoint_after)

    real_fsync = os.fsync

    def fsync(fd):
        counts["fsyncs"] += 1
        return real_fsync(fd)

    rec.patch(os, "fsync", fsync)


def install_workload(rec: SpanRecorder) -> None:
    """Time ``Trace.load``/``Trace.dump`` (set-up work, not per job)."""
    from repro.workload.trace import Trace

    def timed(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                rec.counts["workload_load_s"] += _now() - t0

        return inner

    rec.patch(Trace, "load", classmethod(timed(Trace.__dict__["load"].__func__)))
    rec.patch(Trace, "dump", timed(Trace.__dict__["dump"]))


def install_service(rec: SpanRecorder) -> None:
    """Wrap the HTTP, JSON, state, SLO and read paths of the server.

    A request's root span ``service.request`` starts when its head bytes
    arrived (``StreamReader.readuntil`` returned) and ends when its
    response was handed to the transport, so keep-alive idle time is not
    booked to the server.  ``CoordinatorState.submit`` names the job.
    """
    import asyncio

    import repro.service.app as app
    from repro.service.http import HttpRequest
    from repro.service.slo import SloMonitor
    from repro.service.state import CoordinatorState
    from repro.telemetry.tracing import RequestTracer

    ready: contextvars.ContextVar[float] = contextvars.ContextVar("perfbench_ready", default=0.0)
    orig_readuntil = asyncio.StreamReader.readuntil

    async def readuntil(self, separator=b"\n"):
        data = await orig_readuntil(self, separator)
        ready.set(_now())
        return data

    rec.patch(asyncio.StreamReader, "readuntil", readuntil)

    orig_read = app.read_request

    async def read_request(reader):
        request = await orig_read(reader)
        if request is None:
            return None
        end = _now()
        start = ready.get() or end
        rec.next_job = NO_JOB
        rec.open("service.request", start)
        rec.close(rec.open("service.http_read", start), end)
        return request

    rec.patch(app, "read_request", read_request)

    orig_write = app.write_response
    request_name = rec._name_id("service.request")

    def write_response(writer, response, *, keep_alive=True):
        opened = rec.open("service.respond")
        try:
            orig_write(writer, response, keep_alive=keep_alive)
        finally:
            rec.close(opened)
            idx = rec.current()
            if idx >= 0 and rec.name[idx] == request_name:
                rec.end[idx] = _now()
                rec._current.set(-1)

    rec.patch(app, "write_response", write_response)

    def submit_after(result, args, kwargs):
        root = rec.root()
        if root >= 0:
            rec.job[root] = result.outcome.job

    rec.wrap(app, "json_response", "service.respond")
    rec.wrap(HttpRequest, "json", "service.json_decode")
    rec.wrap(CoordinatorState, "submit", "service.submit", after=submit_after)
    rec.wrap(CoordinatorState, "prometheus", "service.scrape")
    rec.wrap(RequestTracer, "payload", "service.debug")
    rec.wrap(SloMonitor, "observe", "service.slo_observe")


# ---------------------------------------------------------------------- #
# analysis


def analyse(spans: dict) -> dict:
    """Self time per layer, per job and per call.

    A span belongs to the job of its root span.  Returns ``{"per_job":
    {layer: [seconds per job]}, "per_call": {layer: [seconds per call]},
    "job_calls": {layer: calls in jobs}, "roots": {job: seconds covered
    by root spans}, "jobs": n}``.  Spans whose root has no job (set-up,
    service reads) count per call only; ``bench.*`` spans are the
    benchmark's own work and cover nothing.
    """
    names, name, start, end = spans["names"], spans["name"], spans["start"], spans["end"]
    parent, job_of = spans["parent"], spans["job"]
    n = len(start)
    selfs = [end[i] - start[i] for i in range(n)]
    for i in range(n):
        if parent[i] >= 0:
            selfs[parent[i]] -= end[i] - start[i]
    per_job: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    per_call: dict[str, list[float]] = defaultdict(list)
    roots: dict[int, float] = defaultdict(float)
    job_calls: dict[str, int] = defaultdict(int)
    root_of = list(range(n))
    for i in range(n):
        if parent[i] >= 0:
            root_of[i] = root_of[parent[i]]
        label = names[name[i]]
        per_call[label].append(selfs[i])
        job = job_of[root_of[i]]
        if job < 0:
            continue
        per_job[label][job] += selfs[i]
        job_calls[label] += 1
        if parent[i] < 0 and not label.startswith("bench."):
            roots[job] += end[i] - start[i]
    jobs = sorted({j for by_job in per_job.values() for j in by_job})
    return {
        "per_job": {
            label: [by_job.get(j, 0.0) for j in jobs] for label, by_job in per_job.items()
        },
        "per_call": dict(per_call),
        "job_calls": dict(job_calls),
        "roots": dict(roots),
        "jobs": len(jobs),
    }


def _us(values, q: float) -> float:
    return percentile(sorted(values), q) * 1e6


def summarise(spans: dict, counts: dict, samples: dict, *, wall_s: float, client_s=None) -> dict:
    """The per-layer table of one traced run.

    ``wall_s`` is the jobs' total wall time as the benchmark saw it (the
    replay loop or the durable run).  For the service, ``client_s[job]``
    is each job's latency at the client, and the wall time is their sum.
    ``share`` is a layer's job-attributed self time over the wall time;
    ``unattributed_frac`` is the part of it no root span covers.
    """
    a = analyse(spans)
    gaps: list[float] = []
    if client_s is not None:
        gaps = [client_s[j] - root for j, root in a["roots"].items()]
        wall_s = sum(client_s[j] for j in a["roots"])
    jobs = max(a["jobs"], 1)
    layers = {}
    for label, calls in a["per_call"].items():
        per_job = a["per_job"].get(label, [])
        layers[label] = {
            "p50_us": _us(per_job, 50.0),
            "p99_us": _us(per_job, 99.0),
            "calls_per_job": a["job_calls"].get(label, 0) / jobs,
            "share": sum(per_job) / wall_s if wall_s > 0 else 0.0,
            "call_p50_us": _us(calls, 50.0),
            "call_max_us": max(calls) * 1e6,
        }
    covered = sum(a["roots"].values())
    return {
        "layers": layers,
        "jobs": a["jobs"],
        "unattributed_frac": 1.0 - covered / wall_s if wall_s > 0 else 0.0,
        "client_gap_p50_us": _us(gaps, 50.0),
        "root_p50_us": _us(list(a["roots"].values()), 50.0),
        "counts": dict(counts),
        "samples": {
            label: {
                "p50": percentile(sorted(values), 50.0),
                "p95": percentile(sorted(values), 95.0),
                "mean": sum(values) / len(values),
            }
            for label, values in samples.items()
            if values
        },
    }
