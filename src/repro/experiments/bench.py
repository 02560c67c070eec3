"""``repro bench`` — a recorded end-to-end performance trajectory.

Six measurements, all written to ``BENCH_<name>.json`` at the repo root so
successive commits leave a machine-readable speed trail next to the code:

* **Throughput + selection latency per policy** — replay one seeded
  synthetic workload (the paper's Section 5.1 construction) under each
  policy, timing the whole run (jobs/sec) and every individual
  ``on_request`` replacement decision (mean/p50/p95/max seconds).  This is
  the paper's Section 1.2 claim — a decision "should be evaluated in an
  almost negligible time relative to the time it takes to cache an
  object" — made measurable.

* **Warm-planner micro-benchmark** — the incremental
  :class:`~repro.core.selection_state.SelectionState` plan path against
  the rebuild-per-arrival path on a warm history of ``n`` candidate
  request types, reporting seconds/plan for both and the speedup.

* **Telemetry overhead** — the same seeded replay with no recorder,
  with the inert :class:`~repro.telemetry.sinks.NullSink` recorder and
  with a live :class:`~repro.telemetry.sinks.JsonlSink`; the NullSink
  column is the cost of having instrumentation compiled into the hot
  paths at all (contract: ≤ 3% over the no-recorder baseline).

* **Durability overhead** — the same seeded replay through
  :func:`~repro.durability.runner.run_durable` (write-ahead journal +
  periodic checkpoints) against the JSONL-traced plain run, since a
  durable run always records a trace (contract: ≤ 10% over the traced
  baseline in jobs/sec).

* **Service throughput** — the same seeded workload replayed over real
  HTTP against the in-process coordinator service (durable run dir,
  journal, checkpoints), per policy: achieved jobs/sec plus the
  client-observed p50/p99 request latency — the online system's answer
  to the same Section 1.2 "negligible decision time" claim.

* **Tracing overhead** — the same jobs submitted directly to the
  durable coordinator state with request tracing on (ring capacity 256,
  span trees built per job) against tracing off (ring 0); the marginal
  cost of the observability layer (contract: ≤ 5% in jobs/sec).

The three overheads share one estimator, :func:`_paired_overhead`: the
median per-pair time ratio over alternating back-to-back A/B pairs, with
a bootstrap CI recorded beside it as a noise indicator.

The workloads are fully seeded, so numbers differ across machines but the
*shape* (speedup ratios, relative policy costs) is reproducible.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import platform
import random
import statistics
import tempfile
import time
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

from repro.analysis.compare import compare_paired
from repro.cache.registry import make_policy
from repro.core.bundle import FileBundle
from repro.core.history import TruncationMode
from repro.core.optfilebundle import OptFileBundlePlanner
from repro.errors import ConfigError
from repro.experiments.common import CACHE_SIZE, bundle_trace, get_scale
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.types import FileId, SizeBytes
from repro.utils.stats import percentile
from repro.utils.tables import render_table
from repro.workload.trace import Trace

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_POLICIES",
    "bench_policy",
    "planner_workload",
    "warm_planner",
    "warm_planner_timings",
    "telemetry_overhead",
    "durability_overhead",
    "tracing_overhead",
    "service_throughput",
    "run_bench",
    "render_bench",
]

#: Bump when the JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 6

DEFAULT_POLICIES: tuple[str, ...] = ("optbundle", "landlord")

# Workload knobs shared with the figure drivers (mid-range point).
CACHE_IN_REQUESTS = 8
MAX_FILE_FRACTION = 0.01
POPULARITY = "zipf"

# Warm-planner regime: a large low-overlap catalog (6 distinct files per
# candidate type on average) is where the rebuild path's per-arrival
# O(history) passes dominate; this mirrors a data grid's wide file
# population rather than a hot shared core.  The 15-candidate row is the
# system's real operating point, reported alongside (no bound gates it).
PLANNER_FILES_PER_TYPE = 6
PLANNER_BUNDLE_FILES = (3, 6)
PLANNER_CANDIDATES = (15, 200, 800)
PLANNER_PLANS = 60


# --------------------------------------------------------------------- #
# per-policy throughput + selection latency


def _instrument(policy) -> list[float]:
    """Shadow ``policy.on_request`` with a timing wrapper; return samples."""
    samples: list[float] = []
    orig = policy.on_request

    def timed(bundle):
        t0 = time.perf_counter()
        decision = orig(bundle)
        samples.append(time.perf_counter() - t0)
        return decision

    policy.on_request = timed
    return samples


def _latency_stats(samples: Sequence[float]) -> dict:
    ordered = sorted(samples)
    return {
        "n": len(ordered),
        "mean_s": sum(ordered) / len(ordered),
        "p50_s": percentile(ordered, 50),
        "p95_s": percentile(ordered, 95),
        "max_s": ordered[-1],
    }


def bench_policy(
    trace: Trace, policy: str, *, cache_size: SizeBytes = CACHE_SIZE
) -> dict:
    """Time one full simulation of ``trace`` under ``policy``.

    Returns a JSON-ready record with jobs/sec for the whole run and the
    distribution of individual ``on_request`` decision latencies.
    """
    instance = make_policy(policy, future=trace.bundles())
    samples = _instrument(instance)
    config = SimulationConfig(cache_size=cache_size, policy=policy)
    t0 = time.perf_counter()
    result = simulate_trace(trace, config, policy=instance)
    elapsed = time.perf_counter() - t0
    return {
        "policy": policy,
        "n_jobs": len(trace),
        "elapsed_s": elapsed,
        "jobs_per_sec": len(trace) / elapsed if elapsed > 0 else float("inf"),
        "byte_miss_ratio": result.byte_miss_ratio,
        "selection_latency": _latency_stats(samples),
    }


# --------------------------------------------------------------------- #
# warm-planner micro-benchmark (incremental vs rebuild)


def planner_workload(
    n: int, *, seed: int = 0
) -> tuple[dict[FileId, SizeBytes], list[FileBundle], int]:
    """``n`` distinct candidate types over a low-overlap catalog.

    Returns ``(sizes, types, capacity)`` where the capacity holds roughly
    :data:`CACHE_IN_REQUESTS` average bundles.
    """
    rng = random.Random(seed)
    files = [f"f{i:05d}" for i in range(n * PLANNER_FILES_PER_TYPE)]
    sizes: dict[FileId, SizeBytes] = {
        f: 1 + (i * 37) % 100 for i, f in enumerate(files)
    }
    types: list[FileBundle] = []
    seen: set[frozenset[FileId]] = set()
    while len(types) < n:
        b = FileBundle(rng.sample(files, rng.randint(*PLANNER_BUNDLE_FILES)))
        if b.files in seen:
            continue
        seen.add(b.files)
        types.append(b)
    avg_bundle = sum(b.size_under(sizes) for b in types) / n
    capacity = int(avg_bundle * CACHE_IN_REQUESTS)
    return sizes, types, capacity


def warm_planner(
    n: int, *, incremental: bool, seed: int = 0
) -> tuple[OptFileBundlePlanner, list[FileBundle]]:
    """An :class:`OptFileBundlePlanner` with a warm ``n``-candidate history."""
    sizes, types, capacity = planner_workload(n, seed=seed)
    planner = OptFileBundlePlanner(
        capacity,
        sizes,
        truncation=TruncationMode.FULL,
        incremental=incremental,
    )
    for b in types:
        planner.history.record(b)
    return planner, types


def _time_plans(
    planner: OptFileBundlePlanner, types: Sequence[FileBundle], plans: int
) -> float:
    """Seconds per plan over ``plans`` arrivals cycling through ``types``."""
    resident: set[FileId] = set()
    t0 = time.perf_counter()
    for i in range(plans):
        plan = planner.plan(types[i % len(types)], resident)
        planner.commit(plan)
        resident -= plan.evict
        resident |= plan.load | plan.prefetch
    return (time.perf_counter() - t0) / plans


def warm_planner_timings(n: int, *, plans: int = PLANNER_PLANS) -> dict:
    """Incremental vs rebuild plan latency at ``n`` warm candidates."""
    results = {}
    for label, incremental in (("incremental", True), ("rebuild", False)):
        planner, types = warm_planner(n, incremental=incremental)
        results[label] = _time_plans(planner, types, plans)
    return {
        "n_candidates": n,
        "plans": plans,
        "incremental_s_per_plan": results["incremental"],
        "rebuild_s_per_plan": results["rebuild"],
        "speedup": results["rebuild"] / results["incremental"],
    }


# --------------------------------------------------------------------- #
# overhead estimation: one paired protocol behind every contract


class _Overhead(NamedTuple):
    """One :func:`_paired_overhead` measurement, in the contract's unit."""

    baseline_s: float
    treated_s: float
    overhead: float
    ci: tuple[float, float]


def _time_increase(ratio: float) -> float:
    """Fractional run-time increase of the treated side."""
    return ratio - 1.0


def _throughput_drop(ratio: float) -> float:
    """Fractional jobs/sec drop of the treated side."""
    return 1.0 - 1.0 / ratio


def _paired_overhead(
    baseline: Callable[[], object],
    treated: Callable[[], object],
    *,
    pairs: int,
    unit: Callable[[float], float],
) -> _Overhead:
    """Overhead of ``treated`` over ``baseline`` from ``pairs`` A/B pairs.

    Each side runs once untimed (imports, caches, first-touch
    allocations), then the cyclic GC is paused and the two sides run back
    to back ``pairs`` times, alternating which goes first, so a
    noisy-neighbour phase or a slow drift hits both sides of a pair
    alike.  The one estimator is the median of the per-pair ratios
    ``r = t_treated / t_baseline``, which a few contaminated pairs cannot
    move; ``unit`` maps it monotonically into the contract's own unit.
    ``ci`` is :func:`~repro.analysis.compare.compare_paired`'s 95%
    bootstrap interval of the mean per-pair slowdown ``r - 1``, mapped
    the same way: a noise indicator that gates nothing.  ``baseline_s``
    and ``treated_s`` are per-side medians, for display.
    """
    if pairs < 1:
        raise ConfigError(f"pairs must be >= 1, got {pairs}")
    baseline()
    treated()
    baseline_s: list[float] = []
    treated_s: list[float] = []
    sides = [(baseline, baseline_s), (treated, treated_s)]
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for i in range(pairs):
            for run, times in sides if i % 2 == 0 else sides[::-1]:
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
    finally:
        if gc_was_enabled:
            gc.enable()
    ratios = [t / b for b, t in zip(baseline_s, treated_s)]
    noise = compare_paired([r - 1.0 for r in ratios], [0.0] * pairs)
    return _Overhead(
        baseline_s=statistics.median(baseline_s),
        treated_s=statistics.median(treated_s),
        overhead=unit(statistics.median(ratios)),
        ci=(unit(1.0 + noise.ci_low), unit(1.0 + noise.ci_high)),
    )


def telemetry_overhead(
    trace: Trace,
    *,
    policy: str = "optbundle",
    cache_size: SizeBytes = CACHE_SIZE,
    repeats: int = 31,
) -> dict:
    """Run-time increase of a replay under each telemetry sink.

    The instrumentation cannot be compiled out, so the interesting
    number is NullSink-vs-no-recorder: both hit the same ``rec.active``
    guards, the baseline through the module :data:`NULL_RECORDER` and
    the NullSink run through an explicitly installed inert recorder.
    Each sink is measured against the no-recorder baseline over
    ``repeats`` pairs by :func:`_paired_overhead`.
    """
    from repro.telemetry import JsonlSink, NullSink, TraceRecorder

    config = SimulationConfig(cache_size=cache_size, policy=policy)

    def baseline_run() -> None:
        simulate_trace(trace, config)

    def nullsink_run() -> None:
        simulate_trace(
            trace, config, recorder=TraceRecorder(NullSink(), profile=False)
        )

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench_trace.jsonl")

        def jsonl_run() -> None:
            rec = TraceRecorder(JsonlSink(path))
            try:
                simulate_trace(trace, config, recorder=rec)
            finally:
                rec.close()

        null = _paired_overhead(
            baseline_run, nullsink_run, pairs=repeats, unit=_time_increase
        )
        jsonl = _paired_overhead(
            baseline_run, jsonl_run, pairs=repeats, unit=_time_increase
        )
    return {
        "policy": policy,
        "n_jobs": len(trace),
        "repeats": repeats,
        "baseline_s": null.baseline_s,
        "nullsink_s": null.treated_s,
        "jsonl_s": jsonl.treated_s,
        # the contract metric: fractional run-time increase
        "nullsink_overhead": null.overhead,
        "nullsink_overhead_ci": list(null.ci),
        "jsonl_overhead": jsonl.overhead,
        "jsonl_overhead_ci": list(jsonl.ci),
    }


def durability_overhead(
    trace: Trace,
    *,
    policy: str = "optbundle",
    cache_size: SizeBytes = CACHE_SIZE,
    checkpoint_every: int = 100,
    repeats: int = 81,
) -> dict:
    """Jobs/sec drop of a durable run against the JSONL-traced plain run.

    The fair baseline is the *traced* replay: a durable run always
    records a trace, so the marginal cost measured here is the journal
    appends, checkpoints and their flushes (the workload file is staged
    by byte-copy once, outside the contract).  Measured over ``repeats``
    pairs by :func:`_paired_overhead`.
    """
    from repro.durability import DurabilityConfig, run_durable
    from repro.telemetry import JsonlSink, TraceRecorder

    config = SimulationConfig(cache_size=cache_size, policy=policy)
    run_ids = itertools.count()

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench_trace.jsonl")
        # stage the workload file once: a durable run links its input
        # into the run dir, which is setup, not journal/checkpoint cost
        workload_path = os.path.join(tmp, "workload.jsonl")
        trace.dump(workload_path)

        def traced_run() -> None:
            rec = TraceRecorder(JsonlSink(path))
            try:
                simulate_trace(trace, config, recorder=rec)
            finally:
                rec.close()

        def durable_run() -> None:
            run_durable(
                trace,
                config,
                DurabilityConfig(
                    run_dir=os.path.join(tmp, f"durable_{next(run_ids)}"),
                    checkpoint_every=checkpoint_every,
                ),
                workload_source=workload_path,
            )

        m = _paired_overhead(
            traced_run, durable_run, pairs=repeats, unit=_throughput_drop
        )
    n = len(trace)
    return {
        "policy": policy,
        "n_jobs": n,
        "repeats": repeats,
        "checkpoint_every": checkpoint_every,
        "traced_s": m.baseline_s,
        "durable_s": m.treated_s,
        "traced_jobs_per_sec": n / m.baseline_s,
        "durable_jobs_per_sec": n / m.treated_s,
        # the contract metric: fractional drop in jobs/sec throughput
        "durability_overhead": m.overhead,
        "durability_overhead_ci": list(m.ci),
    }


def tracing_overhead(
    trace: Trace,
    *,
    policy: str = "optbundle",
    cache_size: SizeBytes = CACHE_SIZE,
    checkpoint_every: int = 100,
    repeats: int = 61,
) -> dict:
    """Jobs/sec drop of coordinator submission with request tracing on.

    Submits every job of ``trace`` directly to a fresh durable
    :class:`~repro.service.state.CoordinatorState` (no HTTP — the
    network would drown the signal), once with the request tracer
    enabled (ring 256, a span tree grown per job) and once disabled
    (ring 0, the :meth:`~repro.telemetry.tracing.RequestTracer.request`
    context is a no-op).  Measured over ``repeats`` pairs by
    :func:`_paired_overhead`; the contract gated in CI is ≤ 5% jobs/sec.
    """
    from repro.service import CoordinatorState, ServiceConfig

    requests = list(trace)
    run_ids = itertools.count()
    with tempfile.TemporaryDirectory() as tmp:
        workload = Path(tmp) / "workload.jsonl"
        trace.dump(workload)

        def run_once(debug_ring: int) -> None:
            state = CoordinatorState.create(
                ServiceConfig(
                    workload=workload,
                    cache_size=cache_size,
                    run_dir=Path(tmp) / f"run_{next(run_ids)}",
                    policy=policy,
                    checkpoint_every=checkpoint_every,
                    debug_ring=debug_ring,
                )
            )
            try:
                tracer = state.tracer
                for r in requests:
                    with tracer.request(tracer.next_read_id(), route="/v1/jobs"):
                        state.submit(sorted(r.bundle.files), priority=r.priority)
            finally:
                state.close()

        m = _paired_overhead(
            lambda: run_once(0),
            lambda: run_once(256),
            pairs=repeats,
            unit=_throughput_drop,
        )
    n = len(requests)
    return {
        "policy": policy,
        "n_jobs": n,
        "repeats": repeats,
        "debug_ring": 256,
        "checkpoint_every": checkpoint_every,
        "baseline_s": m.baseline_s,
        "traced_s": m.treated_s,
        "baseline_jobs_per_sec": n / m.baseline_s,
        "traced_jobs_per_sec": n / m.treated_s,
        # the contract metric: fractional drop in jobs/sec throughput
        "tracing_overhead": m.overhead,
        "tracing_overhead_ci": list(m.ci),
    }


# --------------------------------------------------------------------- #
# coordinator-service throughput


def service_throughput(
    trace: Trace,
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    cache_size: SizeBytes = CACHE_SIZE,
    concurrency: int = 4,
    checkpoint_every: int = 100,
) -> list[dict]:
    """Replay ``trace`` over HTTP against the coordinator, per policy.

    Hosts the full durable service in-process (real loopback sockets,
    journal, checkpoints) and drives it with the closed-loop load
    generator; the record carries achieved jobs/sec and the
    client-observed request-latency percentiles, which bound the
    server's per-decision cost from above.
    """
    from repro.service import CoordinatorState, ServiceConfig, run_loadgen
    from repro.service.testing import running_service

    records: list[dict] = []
    with tempfile.TemporaryDirectory() as tmp:
        workload = Path(tmp) / "workload.jsonl"
        trace.dump(workload)
        for policy in policies:
            state = CoordinatorState.create(
                ServiceConfig(
                    workload=workload,
                    cache_size=cache_size,
                    run_dir=Path(tmp) / f"run_{policy}",
                    policy=policy,
                    checkpoint_every=checkpoint_every,
                )
            )
            with running_service(state) as svc:
                report = run_loadgen(
                    trace, svc.host, svc.port, concurrency=concurrency
                )
            records.append(
                {
                    "policy": policy,
                    "n_jobs": report.jobs,
                    "errors": report.errors,
                    "concurrency": concurrency,
                    "checkpoint_every": checkpoint_every,
                    "elapsed_s": report.duration_s,
                    "jobs_per_sec": report.throughput_jobs_per_s,
                    "latency_p50_ms": report.latency_p50_ms,
                    "latency_p99_ms": report.latency_p99_ms,
                    "latency_mean_ms": report.latency_mean_ms,
                    "byte_miss_ratio": report.byte_miss_ratio,
                }
            )
    return records


# --------------------------------------------------------------------- #
# the bench driver


def run_bench(
    scale: str = "smoke",
    *,
    policies: Sequence[str] = DEFAULT_POLICIES,
    name: str = "core",
    out_dir: "str | Path" = ".",
    seed: int = 0,
    planner_candidates: Sequence[int] = PLANNER_CANDIDATES,
) -> dict:
    """Run the benchmark suite and write ``BENCH_<name>.json``.

    Returns the written record (with the output path under ``"path"``).
    """
    sc = get_scale(scale)
    trace = bundle_trace(
        sc,
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=seed,
    )
    policy_records = [bench_policy(trace, p) for p in policies]
    planner_records = [
        warm_planner_timings(n) for n in planner_candidates
    ]
    telemetry_record = telemetry_overhead(trace)
    durability_record = durability_overhead(trace)
    tracing_record = tracing_overhead(trace)
    service_records = service_throughput(trace, policies=policies)
    record = {
        "name": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "scale": sc.name,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workload": {
            "popularity": POPULARITY,
            "cache_in_requests": CACHE_IN_REQUESTS,
            "max_file_fraction": MAX_FILE_FRACTION,
            "cache_size": CACHE_SIZE,
            "n_jobs": len(trace),
            "n_files": len(trace.catalog),
            "seed": seed,
        },
        "policies": policy_records,
        "planner": planner_records,
        "telemetry": telemetry_record,
        "durability": durability_record,
        "tracing": tracing_record,
        "service": service_records,
    }
    out_path = Path(out_dir) / f"BENCH_{name}.json"
    # atomic: a crash mid-bench never leaves a torn benchmark record
    from repro.durability.atomicio import atomic_write_text

    atomic_write_text(out_path, json.dumps(record, indent=2) + "\n")
    record["path"] = str(out_path)
    return record


def render_bench(record: dict) -> str:
    """Human-readable summary of a :func:`run_bench` record."""
    policy_rows = [
        [
            r["policy"],
            r["jobs_per_sec"],
            r["selection_latency"]["mean_s"] * 1e3,
            r["selection_latency"]["p95_s"] * 1e3,
            r["byte_miss_ratio"],
        ]
        for r in record["policies"]
    ]
    planner_rows = [
        [
            r["n_candidates"],
            r["incremental_s_per_plan"] * 1e3,
            r["rebuild_s_per_plan"] * 1e3,
            r["speedup"],
        ]
        for r in record["planner"]
    ]
    parts = [
        f"bench {record['name']!r} at scale {record['scale']} "
        f"({record['workload']['n_jobs']} jobs)",
        render_table(
            ["policy", "jobs/sec", "sel mean [ms]", "sel p95 [ms]", "byte miss"],
            policy_rows,
        ),
        "warm-planner: incremental vs rebuild",
        render_table(
            ["candidates", "incremental [ms]", "rebuild [ms]", "speedup"],
            planner_rows,
        ),
    ]
    tel = record.get("telemetry")
    if tel:
        parts.append(
            f"telemetry overhead ({tel['policy']}, "
            f"median of {tel['repeats']} pairs)"
        )
        parts.append(
            render_table(
                ["mode", "run [s]", "overhead"],
                [
                    ["no recorder", tel["baseline_s"], 0.0],
                    ["NullSink", tel["nullsink_s"], tel["nullsink_overhead"]],
                    ["JsonlSink", tel["jsonl_s"], tel["jsonl_overhead"]],
                ],
            )
        )
    svc = record.get("service")
    if svc:
        parts.append(
            f"service throughput (HTTP loopback, concurrency "
            f"{svc[0]['concurrency']})"
        )
        parts.append(
            render_table(
                ["policy", "jobs/sec", "p50 [ms]", "p99 [ms]", "byte miss"],
                [
                    [
                        r["policy"],
                        r["jobs_per_sec"],
                        r["latency_p50_ms"],
                        r["latency_p99_ms"],
                        r["byte_miss_ratio"],
                    ]
                    for r in svc
                ],
            )
        )
    trc = record.get("tracing")
    if trc:
        parts.append(
            f"tracing overhead ({trc['policy']}, ring {trc['debug_ring']}, "
            f"median of {trc['repeats']} pairs)"
        )
        parts.append(
            render_table(
                ["mode", "run [s]", "jobs/sec", "overhead"],
                [
                    [
                        "ring 0",
                        trc["baseline_s"],
                        trc["baseline_jobs_per_sec"],
                        0.0,
                    ],
                    [
                        "ring 256",
                        trc["traced_s"],
                        trc["traced_jobs_per_sec"],
                        trc["tracing_overhead"],
                    ],
                ],
            )
        )
    dur = record.get("durability")
    if dur:
        parts.append(
            f"durability overhead ({dur['policy']}, checkpoint every "
            f"{dur['checkpoint_every']} jobs, median of {dur['repeats']} pairs)"
        )
        parts.append(
            render_table(
                ["mode", "run [s]", "jobs/sec", "overhead"],
                [
                    ["traced", dur["traced_s"], dur["traced_jobs_per_sec"], 0.0],
                    [
                        "durable",
                        dur["durable_s"],
                        dur["durable_jobs_per_sec"],
                        dur["durability_overhead"],
                    ],
                ],
            )
        )
    return "\n".join(parts)
