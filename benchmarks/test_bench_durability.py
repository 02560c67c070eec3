"""Durability overhead benchmark: the journal/checkpoint contract.

A durable run (write-ahead journal, per-job trace flush, periodic
checkpoints) must cost at most a 10% drop in jobs/sec throughput
against the JSONL-traced plain replay — the traced run is the fair
baseline because a durable run always records a trace.  The overhead is
``bench.py``'s one estimator: the median per-pair ratio over alternating
back-to-back pairs.  The outputs must also be identical: same final
metrics, and a byte-identical telemetry trace.
"""

import pytest

from repro.durability import DurabilityConfig, run_durable
from repro.experiments.bench import (
    CACHE_IN_REQUESTS,
    MAX_FILE_FRACTION,
    POPULARITY,
    durability_overhead,
)
from repro.experiments.common import CACHE_SIZE, bundle_trace, get_scale
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry import JsonlSink, TraceRecorder


def _bench_trace():
    return bundle_trace(
        get_scale("smoke"),
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=0,
    )


@pytest.mark.benchmark(group="durability-overhead")
def test_durable_overhead_within_10_percent(benchmark):
    trace = _bench_trace()
    result = benchmark.pedantic(
        durability_overhead, args=(trace,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    overhead = result["durability_overhead"]
    lo, hi = result["durability_overhead_ci"]
    assert overhead <= 0.10, (
        f"durability costs {overhead:.1%} of jobs/sec throughput (median "
        f"of {result['repeats']} pairs, 95% CI [{lo:.1%}, {hi:.1%}]), "
        "exceeding the 10% contract over the traced baseline"
    )


def test_durable_run_leaves_outputs_unchanged(tmp_path):
    trace = _bench_trace()
    config = SimulationConfig(cache_size=CACHE_SIZE, policy="optbundle")
    ref_trace = tmp_path / "ref.jsonl"
    with TraceRecorder(JsonlSink(ref_trace)) as rec:
        plain = simulate_trace(trace, config, recorder=rec)
    report = run_durable(
        trace,
        config,
        DurabilityConfig(run_dir=tmp_path / "run", checkpoint_every=100),
    )
    assert report.result.metrics == plain.metrics
    assert report.result.cache_loads == plain.cache_loads
    assert report.result.cache_evictions == plain.cache_evictions
    assert report.trace_path.read_bytes() == ref_trace.read_bytes()
