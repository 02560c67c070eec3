"""One repetition of a workload, in a fresh interpreter.

``run.py`` starts this script once per repetition (in-process repeats of
batch-plan drift by up to 20%, fresh interpreters do not) and reads the
JSON it writes to ``--out``.  Set-up -- trace generation, policy and core
construction -- is timed on its own, ``SETUPS_PER_REP`` times, before the
timed replay.  The repetition stays on one CPU and times calibration
slices between its jobs; every time it returns is scaled to the reference
host (see "host speed" in ``common.py``), and ``raw_wall_s`` is not.

    python3 perfbench/worker.py --workload batch-plan --seed 100 \
        --out result.json --workdir DIR [--traced]

``--seed`` is the trace seed itself (``run.py`` derives it from the
workload seed).
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

from common import (
    DURABLE,
    SETUPS_PER_REP,
    SLICE_EVERY,
    WORKLOADS,
    cal_burst,
    cal_slice,
    cpus,
    make_trace,
    peak_rss_mb,
    pin,
    scale,
    scale_chunks,
    write_json,
)

_now = time.perf_counter


def _digest_outcomes(outcomes) -> str:
    h = hashlib.sha256()
    for o in outcomes:
        h.update(repr((o.job, o.hit, o.loaded, o.prefetched, o.evicted)).encode())
    return h.hexdigest()


def _file_digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def batch_plan(seed: int, workdir: Path, rec) -> dict:
    """Replay the trace through ``CoordinatorCore.submit``, one call per job."""
    from repro.cache.registry import make_policy
    from repro.cache.state import CacheState
    from repro.experiments.common import CACHE_SIZE
    from repro.sim.coordinator import CoordinatorCore
    from repro.sim.metrics import MetricsCollector

    setups, generate = [], []
    for _ in range(SETUPS_PER_REP):
        before = cal_burst()
        t0 = _now()
        trace = make_trace("batch-plan", seed)
        t1 = _now()
        sizes = trace.catalog.as_dict()
        cache = CacheState(CACHE_SIZE)
        policy = make_policy(WORKLOADS["batch-plan"]["policy"], future=trace.bundles())
        policy.bind(cache, sizes)
        metrics = MetricsCollector()
        core = CoordinatorCore(cache=cache, policy=policy, sizes=sizes, metrics=metrics)
        requests = list(trace)
        t2 = _now()
        near = before + cal_burst()
        setups.append(scale(t2 - t0, near))
        generate.append(scale(t1 - t0, near))

    submit = core.submit
    n = len(requests)
    every = SLICE_EVERY["batch-plan"]
    lat = [0.0] * n
    slices = []
    outcomes = []
    for i, request in enumerate(requests):
        if i % every == 0:
            slices.append(cal_slice())
        t0 = _now()
        outcomes.append(submit(i, request))
        lat[i] = _now() - t0
    slices.append(cal_slice())
    job_s = scale_chunks(lat, slices, every)
    snap = metrics.snapshot()
    return {
        "setup_s": setups,
        "generate_s": generate,
        "jobs": n,
        "wall_s": sum(job_s),
        "raw_wall_s": sum(lat),
        "slice_us": statistics.mean(slices) * 1e6,
        "job_s": job_s,
        "byte_miss_ratio": snap.byte_miss_ratio,
        "bytes": [snap.bytes_demand_loaded, snap.bytes_requested],
        "request_hit_ratio": snap.request_hit_ratio,
        "digest": _digest_outcomes(outcomes),
        "peak_rss_mb": peak_rss_mb(),
    }


def durable_write(seed: int, workdir: Path, rec) -> dict:
    """``run_durable`` with landlord: JSONL trace, journal, checkpoints."""
    from repro.durability.journal import JournalWriter
    from repro.durability.runner import DurabilityConfig, run_durable
    from repro.experiments.common import CACHE_SIZE
    from repro.sim.coordinator import CoordinatorCore
    from repro.sim.simulator import SimulationConfig

    setups, generate = [], []
    for _ in range(SETUPS_PER_REP):
        before = cal_burst()
        t0 = _now()
        trace = make_trace("durable-write", seed)
        t1 = _now()
        source = workdir / "workload.jsonl"
        trace.dump(source)
        t2 = _now()
        near = before + cal_burst()
        setups.append(scale(t2 - t0, near))
        generate.append(scale(t1 - t0, near))

    every = SLICE_EVERY["durable-write"]
    slices: list[float] = []
    starts: list[float] = []
    commits: list[float] = []
    if rec is not None:
        rec.counts.pop("fsyncs", None)  # the set-up dumps' fsyncs are not the run's
    # a job's latency runs from the start of its decision to its journal
    # commit (a checkpoint falls between two jobs).  A calibration slice
    # runs before every ``every``-th decision; the start is read after it.
    # These are the only hooks in the untraced run.
    real_submit, real_append = CoordinatorCore.submit, JournalWriter.append

    def submit(self, job_index, request):
        if len(starts) % every == 0:
            slices.append(cal_slice())
        starts.append(_now())
        return real_submit(self, job_index, request)

    def append(self, payload, *, encoded=None):
        real_append(self, payload, encoded=encoded)
        commits.append(_now())

    CoordinatorCore.submit = submit
    JournalWriter.append = append

    config = SimulationConfig(cache_size=CACHE_SIZE, policy=WORKLOADS["durable-write"]["policy"])
    durability = DurabilityConfig(run_dir=workdir / "run", **DURABLE)
    start = _now()
    report = run_durable(trace, config, durability, workload_source=source)
    end = _now()
    slices.append(cal_slice())
    # job k's whole cost runs from the previous job's commit (the run's
    # start for the first) to its own, checkpoints included, less the
    # slice timed in between; the run's tail after the last commit (final
    # checkpoint, close) counts with the last chunk
    marks = [start, *commits]
    cost = [b - a for a, b in zip(marks, marks[1:])]
    for k in range(0, len(cost), every):
        cost[k] -= slices[k // every]
    cost[-1] += end - commits[-1]
    interval_s = scale_chunks(cost, slices, every)
    trace_path = report.trace_path
    snap = report.result.metrics
    return {
        "setup_s": setups,
        "generate_s": generate,
        "jobs": report.jobs_executed,
        "wall_s": sum(interval_s),
        "raw_wall_s": sum(cost),
        "slice_us": statistics.mean(slices) * 1e6,
        "job_s": scale_chunks([c - s for s, c in zip(starts, commits)], slices, every),
        "interval_s": interval_s,
        "byte_miss_ratio": snap.byte_miss_ratio,
        "bytes": [snap.bytes_demand_loaded, snap.bytes_requested],
        "request_hit_ratio": snap.request_hit_ratio,
        "digest": _file_digest(trace_path),
        "trace_path": str(trace_path),
        "trace_bytes": trace_path.stat().st_size,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    args.workdir.mkdir(parents=True, exist_ok=True)
    allowed = cpus()
    pin(allowed[0])

    if args.workload == "service-mixed":
        import openloop

        result = openloop.run(args.seed, args.workdir, traced=args.traced, cpus=allowed)
        write_json(args.out, result)
        return 0

    rec = None
    if args.traced:
        import spans

        rec = spans.SpanRecorder()
        spans.install_core(rec)
        spans.install_workload(rec)
        if args.workload == "durable-write":
            import repro.durability.runner as runner

            spans.install_durability(rec, [runner])
    body = batch_plan if args.workload == "batch-plan" else durable_write
    result = body(args.seed, args.workdir, rec)
    if rec is not None:
        rec.unwrap_all()
        result["layers"] = spans.summarise(
            rec.columns(), rec.counts, rec.samples, wall_s=result["raw_wall_s"]
        )
    write_json(args.out, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
