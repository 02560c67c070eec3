"""Micro-benchmarks of the OptCacheSelect decision latency.

Section 1.2: a replacement decision "should be evaluated in an almost
negligible time relative to the time it takes to cache an object".  These
benchmarks measure the greedy's wall time against candidate-set size; even
hundreds of candidates decide in single-digit milliseconds — negligible
next to staging gigabyte files over a WAN.
"""

import time

import numpy as np
import pytest

from repro.core.bundle import FileBundle
from repro.core.optcacheselect import FBCInstance, opt_cache_select


def make_instance(n_candidates: int, n_files: int, seed: int = 0) -> FBCInstance:
    rng = np.random.default_rng(seed)
    sizes = {f"f{i}": int(rng.integers(1, 100)) for i in range(n_files)}
    bundles, values = [], []
    for _ in range(n_candidates):
        k = int(rng.integers(1, 9))
        files = rng.choice(n_files, size=min(k, n_files), replace=False)
        bundles.append(FileBundle(f"f{i}" for i in files))
        values.append(float(rng.integers(1, 50)))
    budget = int(sum(sizes.values()) * 0.3)
    return FBCInstance(tuple(bundles), tuple(values), sizes, budget)


@pytest.mark.benchmark(group="selection-speed")
@pytest.mark.parametrize("n", [50, 200, 800])
def test_selection_latency(benchmark, n):
    inst = make_instance(n, max(n, 100))
    result = benchmark(opt_cache_select, inst)
    assert result.total_value > 0
    if benchmark.stats is not None:
        mean_s = benchmark.stats["mean"]
    else:  # --benchmark-disable collects no stats: time one call directly
        t0 = time.perf_counter()
        opt_cache_select(inst)
        mean_s = time.perf_counter() - t0
    # "almost negligible": even 800 candidates decide well under 100 ms
    assert mean_s < 0.1


@pytest.mark.benchmark(group="selection-speed")
def test_plain_vs_refined_latency(benchmark):
    inst = make_instance(300, 300)
    refined = benchmark(lambda: opt_cache_select(inst, refine=True))
    assert refined.total_value > 0


@pytest.mark.benchmark(group="warm-planner")
@pytest.mark.parametrize("n", [200, 800])
def test_warm_planner_incremental_vs_rebuild(benchmark, n):
    """Warm-history plan latency: persistent SelectionState vs rebuild.

    The incremental path must win outright from 200 candidates on and by
    at least 2x at 800 — the regime where the rebuild path's per-arrival
    O(history) passes dominate the shared greedy cost.
    """
    from repro.experiments.bench import warm_planner_timings

    result = benchmark.pedantic(
        warm_planner_timings, args=(n,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(result)
    assert result["incremental_s_per_plan"] < result["rebuild_s_per_plan"]
    if n >= 800:
        assert result["speedup"] >= 2.0
