"""Load-generator tests: report math, pacing modes, resume driving."""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.service import CoordinatorState, ServiceConfig, run_loadgen
from repro.service.loadgen import LoadgenReport, _percentile
from repro.service.testing import running_service
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 32 * MB


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=60,
            n_request_types=30,
            n_jobs=50,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=5,
        )
    )


@pytest.fixture()
def served(trace, tmp_path):
    workload = tmp_path / "wl.jsonl"
    trace.dump(workload)
    state = CoordinatorState.create(
        ServiceConfig(
            workload=workload,
            cache_size=CACHE,
            run_dir=tmp_path / "run",
            policy="lru",
        )
    )
    with running_service(state) as svc:
        yield svc


def _report(**overrides) -> LoadgenReport:
    base = dict(
        jobs=10,
        errors=0,
        hits=4,
        unserviceable=1,
        retries=2,
        bytes_requested=1000,
        bytes_demand_loaded=250,
        bytes_prefetched=50,
        duration_s=2.0,
        concurrency=1,
        rate=None,
        latency_p50_ms=1.0,
        latency_p90_ms=2.0,
        latency_p99_ms=3.0,
        latency_mean_ms=1.5,
        latency_max_ms=3.0,
    )
    base.update(overrides)
    return LoadgenReport(**base)


class TestReportMath:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 50) == 2.0
        assert _percentile(values, 75) == 3.0
        assert _percentile(values, 99) == 4.0
        assert _percentile(values, 100) == 4.0
        assert _percentile([], 50) == 0.0
        assert _percentile([7.0], 99) == 7.0

    def test_derived_ratios(self):
        report = _report()
        assert report.throughput_jobs_per_s == 5.0
        assert report.byte_miss_ratio == 0.25
        assert report.request_hit_ratio == 0.4

    def test_zero_guards(self):
        report = _report(jobs=0, hits=0, bytes_requested=0, duration_s=0.0)
        assert report.throughput_jobs_per_s == 0.0
        assert report.byte_miss_ratio == 0.0
        assert report.request_hit_ratio == 0.0

    def test_as_dict_carries_derived_fields(self):
        doc = _report().as_dict()
        assert doc["throughput_jobs_per_s"] == 5.0
        assert doc["byte_miss_ratio"] == 0.25
        assert doc["latency_p99_ms"] == 3.0


class TestValidation:
    def test_bad_parameters_rejected(self, trace):
        with pytest.raises(ConfigError, match="concurrency"):
            run_loadgen(trace, "127.0.0.1", 1, concurrency=0)
        with pytest.raises(ConfigError, match="rate"):
            run_loadgen(trace, "127.0.0.1", 1, rate=0.0)
        with pytest.raises(ConfigError, match="limit"):
            run_loadgen(trace, "127.0.0.1", 1, limit=-1)

    def test_negative_start_job_rejected(self, trace):
        # a negative index would slice the trace's tail and re-submit
        # already-serviced jobs as new work; rejected before connecting
        with pytest.raises(ConfigError, match="start_job"):
            run_loadgen(trace, "127.0.0.1", 1, start_job=-5)


class TestDriving:
    def test_closed_loop_replays_whole_trace(self, trace, served):
        report = run_loadgen(trace, served.host, served.port)
        assert report.jobs == len(list(trace))
        assert report.errors == 0 and report.unserviceable == 0
        assert report.latency_p50_ms > 0
        assert report.latency_max_ms >= report.latency_p99_ms

    def test_limit_and_explicit_start_job(self, trace, served):
        first = run_loadgen(trace, served.host, served.port, limit=10)
        assert first.jobs == 10
        rest = run_loadgen(trace, served.host, served.port, start_job=10)
        assert rest.jobs == len(list(trace)) - 10
        assert served.service.state.next_job == len(list(trace))

    def test_start_job_auto_continues_from_server(self, trace, served):
        run_loadgen(trace, served.host, served.port, limit=15)
        report = run_loadgen(
            trace, served.host, served.port, start_job="auto"
        )
        assert report.jobs == len(list(trace)) - 15

    def test_open_loop_rate_is_offered_load(self, trace, served):
        """Open loop: 20 jobs at 2000/s must take at least 19/2000 s."""
        report = run_loadgen(
            trace, served.host, served.port, rate=2000.0, limit=20,
            concurrency=4,
        )
        assert report.jobs == 20 and report.rate == 2000.0
        assert report.duration_s >= 19 / 2000.0

    def test_open_loop_latency_includes_queueing(self, trace, served):
        """Far above capacity, the last jobs wait behind all the others.

        Open-loop latency runs from each job's scheduled release, so at
        one connection the slowest job reports about the whole run, not
        one service time.
        """
        report = run_loadgen(
            trace, served.host, served.port, rate=1e6, limit=40,
            concurrency=1,
        )
        assert report.jobs == 40
        assert report.latency_max_ms >= report.duration_s * 1e3 / 2
