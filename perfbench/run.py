"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload batch-plan --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload untraced, in fresh interpreters (one per
repetition) until ``--seconds`` of repetitions have run, and reports the
end-to-end metrics.  ``--trace 1`` runs one untraced and one traced
repetition and reports the per-layer table.  Every run checks its
outputs outside the timed window (see :func:`check`); a failed check
counts every job of the run as failed, prints ``correct: false`` and
exits with status 1.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``.

Workloads, their traces and why each was chosen are in ``common.py``;
``README.md`` lists every metric and the layer it comes from.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

from common import (
    MAX_RATE_BACKLOG_FRAC,
    MAX_RATE_LIMIT_MS,
    ROOT,
    SRC,
    WORK,
    WORKLOADS,
    child_env,
    stamp,
)

HERE = Path(__file__).resolve().parent
#: a repetition that takes longer than this is killed and counted failed
REP_TIMEOUT_S = 150

#: end-to-end metrics (``--trace 0``), with units
E2E_UNITS = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p99_ms": "ms",
    "max_rate_jobs_per_s": "jobs/s",
    "byte_miss_ratio": "ratio",
    "peak_rss_mb": "MB",
    "answered_frac": "ratio",
}


#: span names whose share of job time and calls per job ``--trace 1``
#: reports (0 on workloads where the layer does no work)
JOB_LAYERS = (
    "sim.submit",
    "cache.on_request",
    "core.plan",
    "core.commit",
    "cache.admit",
    "cache.evict",
    "telemetry.emit",
    "durability.journal_append",
    "durability.checkpoint",
    "service.request",
    "service.http_read",
    "service.json_decode",
    "service.submit",
    "service.slo_observe",
    "service.respond",
)


class CheckFailed(Exception):
    pass


def percentile(values, q: float) -> float:
    """The package's own (nearest-rank) percentile of unsorted ``values``;
    imported late, so that a tree without ``src/`` is refused first."""
    from repro.utils.stats import percentile as nearest_rank

    return nearest_rank(sorted(values), q)


def median(values) -> float:
    return percentile(values, 50.0)


def _rep(workload: str, seed: int, workdir: Path, traced: bool) -> dict:
    """One repetition in a fresh interpreter; returns the worker's JSON."""
    out = workdir / "result.json"
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--out", str(out), "--workdir", str(workdir),
    ]
    if traced:
        cmd.append("--traced")
    # its own session, so a timeout also takes down any server it started
    proc = subprocess.Popen(
        cmd, env=child_env(), cwd=ROOT, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise CheckFailed(f"{workload} repetition timed out after {REP_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise CheckFailed(f"{workload} repetition exited {proc.returncode}:\n{output[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------- #
# in-process max rate


def _queue(service_s: list[float], rate: float) -> tuple[float, int]:
    """Jobs with these service times arriving every ``1 / rate`` seconds at
    one server: returns (p99 latency from arrival in ms, backlog_end)."""
    finish = 0.0
    latency = []
    starts = []
    for k, s in enumerate(service_s):
        due = k / rate
        start = due if due > finish else finish
        finish = start + s
        starts.append(start)
        latency.append((finish - due) * 1e3)
    last_due = (len(service_s) - 1) / rate
    return percentile(latency, 99.0), sum(1 for s in starts if s > last_due)


def inprocess_max_rate(service_s: list[float]) -> float:
    """The highest open-loop rate at which these jobs would meet the
    service-mixed limits (p99 within ``MAX_RATE_P99_LIMIT_MS``, backlog
    within ``backlog_limit_frac``) on one server, to 0.1%.

    The in-process engines have no arrival process of their own; this
    feeds their measured per-job times through the single-server queue
    the service's open-loop client lives through, so the figure means the same thing
    on every workload."""
    limit_backlog = MAX_RATE_BACKLOG_FRAC * len(service_s)

    def ok(rate: float) -> bool:
        p99, backlog = _queue(service_s, rate)
        return p99 <= MAX_RATE_LIMIT_MS and backlog <= limit_backlog

    lo, hi = 1.0, 1.0 / (sum(service_s) / len(service_s))
    if ok(hi):
        return hi
    while hi - lo > hi * 1e-3:
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if ok(mid) else (lo, mid)
    return lo


# ---------------------------------------------------------------------- #
# output checks (outside every timed window)


def check(workload: str, reps: list[dict]) -> None:
    """Raise :class:`CheckFailed` unless every repetition's outputs are right.

    * every job was answered and the server exited cleanly;
    * ``byte_miss_ratio`` equals ``simulate_trace`` on the same trace and
      policy (for the service: on its closed and fixed phases, from the
      outcomes the client received);
    * repetitions of one trace made the same decisions (digest of the
      outcomes or of ``trace.jsonl``);
    * the durable ``trace.jsonl`` equals the batch simulator's trace byte
      for byte, and the service's begins with the batch simulator's trace
      of its closed and fixed phases;
    * that ``trace.jsonl`` passes forensic reconstruction.
    """
    from repro.core.request import RequestStream
    from repro.experiments.common import CACHE_SIZE
    from repro.sim.simulator import SimulationConfig, simulate_trace
    from repro.telemetry.forensics import reconstruct
    from repro.telemetry.recorder import TraceRecorder
    from repro.telemetry.sinks import JsonlSink
    from repro.workload.trace import Trace

    from common import make_trace

    config = SimulationConfig(cache_size=CACHE_SIZE, policy=WORKLOADS[workload]["policy"])
    groups: dict[int, list[dict]] = {}
    for r in reps:
        groups.setdefault(r["trace_seed"], []).append(r)
    for trace_seed, group in groups.items():
        trace = make_trace(workload, trace_seed)
        if len({r.get("digest") for r in group}) > 1:
            raise CheckFailed(f"repetitions of trace {trace_seed} made different decisions")
        expected = None
        for r in group:
            if workload == "batch-plan":
                if expected is None:
                    sub = Trace(trace.catalog, RequestStream(list(trace)[: r["jobs"]]))
                    expected = simulate_trace(sub, config).byte_miss_ratio
                got = r["byte_miss_ratio"]
            elif workload == "durable-write":
                trace_path = Path(r["trace_path"])
                if not trace_path.exists():
                    # an older repetition whose run directory was removed:
                    # its digest matched above, its ratio must match too
                    if r["byte_miss_ratio"] != group[-1]["byte_miss_ratio"]:
                        raise CheckFailed(f"repetitions of trace {trace_seed} disagree")
                    continue
                sub = Trace(trace.catalog, RequestStream(list(trace)[: r["jobs"]]))
                reference = trace_path.with_name("reference.jsonl")
                with TraceRecorder(JsonlSink(reference)) as rec:
                    expected = simulate_trace(sub, config, recorder=rec).byte_miss_ratio
                if reference.read_bytes() != trace_path.read_bytes():
                    raise CheckFailed(f"{trace_path} differs from the batch simulator's trace")
                reconstruct(str(trace_path), capacity=CACHE_SIZE).raise_if_violations()
                got = r["byte_miss_ratio"]
            else:
                # the served trace must begin with the batch simulator's
                # trace of the closed and fixed phases (the ramp's length
                # varies; its decisions pass the forensic reconstruction)
                if r["failed"] or r["server_exit"] != 0:
                    raise CheckFailed(
                        f"{r['failed']} requests failed; server exited {r['server_exit']}"
                    )
                trace_path = Path(r["trace_path"])
                sub = Trace(trace.catalog, RequestStream(list(trace)[: r["prefix_jobs"]]))
                reference = trace_path.with_name("reference.jsonl")
                with TraceRecorder(JsonlSink(reference)) as rec:
                    expected = simulate_trace(sub, config, recorder=rec).byte_miss_ratio
                with open(trace_path, "rb") as served:
                    if served.read(reference.stat().st_size) != reference.read_bytes():
                        raise CheckFailed(f"{trace_path} differs from the batch simulator's trace")
                reconstruct(str(trace_path), capacity=CACHE_SIZE).raise_if_violations()
                got = r["bytes"][0] / r["bytes"][1]
            if got != expected:
                raise CheckFailed(f"byte_miss_ratio {got} != simulator {expected}")


def _combined_ratio(reps: list[dict]) -> float:
    """Byte-miss ratio over all of the run's traces, each counted once."""
    per_trace = {r["trace_seed"]: r["bytes"] for r in reps}
    return sum(d for d, _ in per_trace.values()) / sum(q for _, q in per_trace.values())


def _e2e(workload: str, reps: list[dict]) -> tuple[dict, dict]:
    """The end-to-end metrics, and the raw figures beside them (printed,
    not reported)."""
    setups = [s for r in reps for s in r["setup_s"]]
    if workload == "service-mixed":
        # medians over the valid repetitions (one trace each)
        valid = [r for r in reps if r["fixed"]["valid"]]
        values = {
            "setup_s": median(setups),
            "jobs_per_s": median([r["closed_jobs_per_s"] for r in valid]),
            "job_p50_ms": median([r["fixed"]["p50_ms"] for r in valid]),
            "job_p99_ms": median([r["fixed"]["p99_ms"] for r in valid]),
            "max_rate_jobs_per_s": median([r["max_rate_jobs_per_s"] for r in valid]),
            "byte_miss_ratio": _combined_ratio(reps),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        }
        raw = {
            "raw.jobs_per_s": median([r["raw_closed_jobs_per_s"] for r in valid]),
            "raw.job_p50_ms": median([r["fixed"]["raw_p50_ms"] for r in valid]),
            "raw.job_p99_ms": median([r["fixed"]["raw_p99_ms"] for r in valid]),
            "raw.max_rate_jobs_per_s": median([r["raw_max_rate_jobs_per_s"] for r in valid]),
            "driver.lag_p99_ms": max(r["fixed"]["lag_p99_ms"] for r in reps),
            "driver.backlog_end": max(r["fixed"]["backlog_end"] for r in reps),
            "driver.saturated_reps": len(reps) - len(valid),
        }
    else:
        values = {
            "setup_s": median(setups),
            "jobs_per_s": _per_trace(reps, lambda r: r["jobs"] / r["wall_s"]),
            "job_p50_ms": _per_trace(reps, lambda r: percentile(r["job_s"], 50.0) * 1e3),
            "job_p99_ms": _per_trace(reps, lambda r: percentile(r["job_s"], 99.0) * 1e3),
            "max_rate_jobs_per_s": _per_trace(
                reps, lambda r: inprocess_max_rate(r.get("interval_s", r["job_s"]))
            ),
            "byte_miss_ratio": _combined_ratio(reps),
            "peak_rss_mb": _per_trace(reps, lambda r: r["peak_rss_mb"]),
        }
        raw = {"raw.jobs_per_s": _per_trace(reps, lambda r: r["jobs"] / r["raw_wall_s"])}
    raw["host.slice_us"] = median([r["slice_us"] for r in reps])
    raw["repetitions"] = len(reps)
    return values, raw


def _per_trace(reps: list[dict], value) -> float:
    """Mean over the run's traces of the median over each trace's
    repetitions, so every trace weighs the same however many times it ran."""
    by_trace: dict[int, list[float]] = {}
    for r in reps:
        by_trace.setdefault(r["trace_seed"], []).append(value(r))
    return sum(median(v) for v in by_trace.values()) / len(by_trace)


def trace_seeds(workload: str, seed: int) -> list[int]:
    """The seeds of the workload's traces for one run.  batch-plan and
    durable-write replay several independent traces per run, so one
    trace's popularity draw does not decide the run's figures."""
    return [seed * 100 + k for k in range(WORKLOADS[workload]["traces"])]


def untraced(workload: str, seed: int, seconds: float, work: Path) -> list[dict]:
    """Fresh-interpreter repetitions, cycling over the run's traces, until
    every trace has run and ``seconds`` have passed.  A service repetition
    whose fixed phase saturated (see ``openloop.fixed_stats``) is kept for
    the checks but not for the timings; the run goes on until one is
    valid, and fails when none of twice as many repetitions as traces is."""
    seeds = trace_seeds(workload, seed)
    service = workload == "service-mixed"
    reps: list[dict] = []
    start = time.perf_counter()

    def valid() -> bool:
        return not service or any(r["fixed"]["valid"] for r in reps)

    while len(reps) < len(seeds) or time.perf_counter() - start < seconds or not valid():
        if not valid() and len(reps) >= 2 * len(seeds):
            raise CheckFailed(f"every fixed phase of the {len(reps)} repetitions saturated")
        trace_seed = seeds[len(reps) % len(seeds)]
        rep = _rep(workload, trace_seed, work / f"rep-{len(reps)}", traced=False)
        rep["trace_seed"] = trace_seed
        reps.append(rep)
        if not service and len(reps) > len(seeds):
            # keep the newest run directory per trace for the checks
            shutil.rmtree(work / f"rep-{len(reps) - 1 - len(seeds)}" / "run", ignore_errors=True)
    return reps


# ---------------------------------------------------------------------- #
# per-layer metrics


def per_layer(workload: str, plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    """The ``--trace 1`` table: per-layer self times (p50 per job unless the
    name says otherwise), counts, shares of job time, and validity signals."""
    L = traced["layers"]
    layers, counts, samples = L["layers"], L["counts"], L["samples"]
    jobs = traced["jobs"]
    out: dict[str, tuple[float, str]] = {}

    def layer(name: str, key: str = "p50_us") -> float:
        return layers.get(name, {}).get(key, 0.0)

    def sample(name: str, key: str = "p50") -> float:
        return samples.get(name, {}).get(key, 0.0)

    out["workload.generate_s"] = (median(traced["generate_s"]), "s")
    if workload == "service-mixed":  # the client's dump plus the server's load
        load = traced["load_s"][0] + counts.get("workload_load_s", 0.0)
    else:  # dumps in the worker's set-ups (none for batch-plan)
        load = counts.get("workload_load_s", 0.0) / len(traced["setup_s"])
    out["workload.load_s"] = (load, "s")
    out["core.plan_us"] = (layer("core.plan"), "us")
    out["core.plan_p99_us"] = (layer("core.plan", "p99_us"), "us")
    out["core.commit_us"] = (layer("core.commit"), "us")
    out["core.candidates_per_plan"] = (sample("candidates"), "count")
    out["core.candidates_per_plan_p95"] = (sample("candidates", "p95"), "count")
    out["core.files_per_job"] = (sample("files", "mean"), "count")
    out["core.selected_per_plan"] = (sample("selected"), "count")
    out["cache.on_request_us"] = (layer("cache.on_request"), "us")
    out["cache.admit_us"] = (layer("cache.admit"), "us")
    out["cache.evict_us"] = (layer("cache.evict"), "us")
    out["cache.loads_per_job"] = (layer("cache.admit", "calls_per_job"), "count")
    out["cache.evictions_per_job"] = (layer("cache.evict", "calls_per_job"), "count")
    out["cache.request_hit_ratio"] = (traced.get("request_hit_ratio", 0.0), "ratio")
    out["sim.submit_us"] = (layer("sim.submit"), "us")
    out["telemetry.emit_us"] = (layer("telemetry.emit"), "us")
    out["telemetry.events_per_job"] = (layer("telemetry.emit", "calls_per_job"), "count")
    trace_bytes = traced.get("trace_bytes", 0)
    out["telemetry.trace_bytes_per_job"] = (trace_bytes / jobs, "bytes")
    out["durability.journal_append_us"] = (layer("durability.journal_append"), "us")
    ckpt = layers.get("durability.checkpoint", {})
    out["durability.checkpoint_ms"] = (ckpt.get("call_p50_us", 0.0) / 1e3, "ms")
    out["durability.checkpoint_max_ms"] = (ckpt.get("call_max_us", 0.0) / 1e3, "ms")
    out["durability.checkpoints"] = (counts.get("checkpoints", 0.0), "count")
    out["durability.fsyncs"] = (counts.get("fsyncs", 0.0), "count")
    journal = counts.get("journal_bytes", 0.0)
    out["durability.journal_bytes_per_job"] = (journal / jobs, "bytes")
    written = trace_bytes + journal + counts.get("checkpoint_bytes", 0.0)
    written += traced.get("arrivals_bytes", 0)
    out["disk_bytes_per_job"] = (written / jobs, "bytes")
    out["service.http_read_us"] = (layer("service.http_read"), "us")
    out["service.json_decode_us"] = (layer("service.json_decode"), "us")
    out["service.submit_us"] = (layer("service.submit"), "us")
    out["service.slo_observe_us"] = (layer("service.slo_observe"), "us")
    out["service.respond_us"] = (layer("service.respond"), "us")
    out["service.server_ms"] = (L["root_p50_us"] / 1e3 if workload == "service-mixed" else 0.0, "ms")
    out["service.unattributed_ms"] = (L.get("client_gap_p50_us", 0.0) / 1e3, "ms")
    out["service.scrape_us"] = (layer("service.scrape", "call_p50_us"), "us")
    out["service.debug_us"] = (layer("service.debug", "call_p50_us"), "us")
    out["scrape_p99_ms"] = (percentile(traced.get("scrape_s", []), 99.0) * 1e3, "ms")
    fixed = traced.get("fixed", {})
    out["driver.lag_p99_ms"] = (fixed.get("lag_p99_ms", 0.0), "ms")
    out["driver.backlog_end"] = (fixed.get("backlog_end", 0), "count")
    if workload == "service-mixed":
        overhead = traced["fixed"]["p50_ms"] / plain["fixed"]["p50_ms"] - 1.0
    else:
        overhead = (plain["jobs"] / plain["wall_s"]) / (jobs / traced["wall_s"]) - 1.0
    out["trace_overhead"] = (overhead, "ratio")
    out["host.slice_us"] = (plain["slice_us"], "us")
    out["layers.unattributed_frac"] = (L["unattributed_frac"], "ratio")
    for name in JOB_LAYERS:
        out[f"share.{name}"] = (layer(name, "share"), "ratio")
        out[f"calls.{name}"] = (layer(name, "calls_per_job"), "count")
    return out


# ---------------------------------------------------------------------- #


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's source {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{time.time_ns()}"
    work.mkdir(parents=True)
    attempted, failed, correct, problem = 0, 0, True, None
    try:
        if args.trace == 0:
            reps = untraced(args.workload, args.seed, args.seconds, work)
        else:
            trace_seed = trace_seeds(args.workload, args.seed)[0]
            reps = [
                _rep(args.workload, trace_seed, work / "plain", traced=False),
                _rep(args.workload, trace_seed, work / "traced", traced=True),
            ]
            for r in reps:
                r["trace_seed"] = trace_seed
        attempted = sum(r["jobs"] for r in reps)
        failed = sum(r.get("failed", 0) for r in reps)
        check(args.workload, reps)
    except Exception as exc:  # any failure fails the run; report it, never hide it
        traceback.print_exc()
        correct, problem = False, f"{type(exc).__name__}: {exc}"
        attempted = max(attempted, 1)
        failed = attempted
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run is still using it

    metrics: dict[str, dict] = {}
    raw: dict[str, float] = {}
    if correct:
        if args.trace == 0:
            values, raw = _e2e(args.workload, reps)
            values["answered_frac"] = (attempted - failed) / attempted
            units = E2E_UNITS
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
        else:
            table = per_layer(args.workload, reps[0], reps[1])
            table["failed_frac"] = (failed / attempted, "ratio")
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in table.items()}
    else:
        print(f"check failed: {problem}", file=sys.stderr)

    print(json.dumps({"stamp": stamp(args.seed), "workload": args.workload}))
    for name, m in metrics.items():
        print(f"{name:36s} {m['value']:14.6g} {m['unit']}")
    for name, value in raw.items():  # unscaled timings and validity, for the reader
        print(f"  {name:34s} {value:14.6g}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
