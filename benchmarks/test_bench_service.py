"""Coordinator-service throughput benchmark: the online serving path.

The paper's Section 1.2 requires replacement decisions "evaluated in an
almost negligible time"; the online coordinator adds HTTP framing, the
write-ahead journal and the arrivals record on top of each decision.
This benchmark replays the seeded bench workload over real loopback
HTTP per policy and gates the record that lands in ``BENCH_core.json``:
every job must be serviced without error, the achieved
decision quality must equal the batch simulator's exactly, and the
service must sustain a sane throughput floor at smoke scale.
"""

import pytest

from repro.experiments.bench import (
    CACHE_IN_REQUESTS,
    DEFAULT_POLICIES,
    MAX_FILE_FRACTION,
    POPULARITY,
    service_throughput,
)
from repro.experiments.common import CACHE_SIZE, bundle_trace, get_scale
from repro.sim.simulator import SimulationConfig, simulate_trace


def _bench_trace():
    return bundle_trace(
        get_scale("smoke"),
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=0,
    )


@pytest.mark.benchmark(group="service-throughput")
def test_service_throughput_record(benchmark):
    trace = _bench_trace()
    records = benchmark.pedantic(
        service_throughput, args=(trace,), rounds=1, iterations=1
    )
    benchmark.extra_info["service"] = records
    assert [r["policy"] for r in records] == list(DEFAULT_POLICIES)
    for record in records:
        # every job serviced, none dropped, latency percentiles ordered
        assert record["errors"] == 0
        assert record["n_jobs"] == len(trace)
        assert record["latency_p50_ms"] <= record["latency_p99_ms"]
        assert record["jobs_per_sec"] > 0
        # the online system must not change the paper's metric: the
        # byte-miss ratio over HTTP equals the batch simulator's
        batch = simulate_trace(
            trace,
            SimulationConfig(cache_size=CACHE_SIZE, policy=record["policy"]),
        )
        assert record["byte_miss_ratio"] == pytest.approx(
            batch.metrics.byte_miss_ratio, abs=1e-12
        )
    # a soft floor: loopback HTTP + journal should comfortably clear
    # 100 jobs/sec at smoke scale on any machine that runs the suite
    assert max(r["jobs_per_sec"] for r in records) > 100
