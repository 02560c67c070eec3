"""Telemetry overhead benchmark: the NullSink contract.

The instrumentation added for event tracing cannot be compiled out, so
the default-off cost must be provably negligible: a replay under an
explicitly installed inert recorder (every ``rec.active`` guard still
hit) must stay within 3% of the no-recorder baseline, and — since both
paths run the identical simulation — produce identical outputs.  The
overhead is ``bench.py``'s one estimator: the median per-pair time ratio
over alternating back-to-back pairs.
"""

import pytest

from repro.experiments.bench import (
    CACHE_IN_REQUESTS,
    MAX_FILE_FRACTION,
    POPULARITY,
    telemetry_overhead,
)
from repro.experiments.common import CACHE_SIZE, bundle_trace, get_scale
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry import NullSink, TraceRecorder


def _bench_trace():
    return bundle_trace(
        get_scale("smoke"),
        popularity=POPULARITY,
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=MAX_FILE_FRACTION,
        seed=0,
    )


@pytest.mark.benchmark(group="telemetry-overhead")
def test_nullsink_overhead_within_3_percent(benchmark):
    trace = _bench_trace()
    result = benchmark.pedantic(
        telemetry_overhead, args=(trace,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    overhead = result["nullsink_overhead"]
    lo, hi = result["nullsink_overhead_ci"]
    assert overhead <= 0.03, (
        f"NullSink overhead {overhead:.1%} (median of {result['repeats']} "
        f"pairs, 95% CI [{lo:.1%}, {hi:.1%}]) exceeds the 3% contract over "
        "the no-recorder baseline"
    )


def test_nullsink_leaves_outputs_unchanged():
    trace = _bench_trace()
    config = SimulationConfig(cache_size=CACHE_SIZE, policy="optbundle")
    plain = simulate_trace(trace, config)
    nulled = simulate_trace(
        trace, config, recorder=TraceRecorder(NullSink(), profile=False)
    )
    assert plain.metrics == nulled.metrics
    assert plain.cache_evictions == nulled.cache_evictions
    assert plain.cache_loads == nulled.cache_loads
