"""Request-tracing overhead benchmark: the ≤5% ring contract.

The span ring is on by default in the coordinator service, so its cost
rides on every serviced job.  The contract: submitting the seeded bench
workload with the default 256-entry ring costs at most 5% of jobs/sec
throughput against the same run with tracing disabled (``debug_ring=0``
— the :meth:`~repro.telemetry.tracing.RequestTracer.request` context
manager degenerates to a no-op).  The overhead is ``bench.py``'s one
estimator, shared with the durability and telemetry gates: the median
per-pair ratio over alternating back-to-back pairs.
"""

import pytest

from repro.experiments.bench import (
    CACHE_IN_REQUESTS,
    MAX_FILE_FRACTION,
    POPULARITY,
    tracing_overhead,
)
from repro.experiments.common import bundle_trace, get_scale


def _bench_trace():
    return bundle_trace(
        get_scale("smoke"),
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=0,
    )


@pytest.mark.benchmark(group="tracing-overhead")
def test_tracing_overhead_within_5_percent(benchmark):
    trace = _bench_trace()
    result = benchmark.pedantic(
        tracing_overhead, args=(trace,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    overhead = result["tracing_overhead"]
    assert result["debug_ring"] == 256
    assert result["baseline_jobs_per_sec"] > 0
    assert result["traced_jobs_per_sec"] > 0
    lo, hi = result["tracing_overhead_ci"]
    assert overhead <= 0.05, (
        f"the request-tracing ring costs {overhead:.1%} of jobs/sec "
        f"throughput (median of {result['repeats']} pairs, 95% CI "
        f"[{lo:.1%}, {hi:.1%}]), exceeding the 5% contract over the "
        "tracing-disabled baseline"
    )
