"""Trace determinism: same seed ⇒ byte-identical JSONL, serial or parallel.

The telemetry contract is that the event stream is a pure function of the
seeded simulation: no wall clock, no hash-seed-dependent iteration order,
no worker scheduling.  These tests pin the contract end to end — rerun,
serial vs ``jobs=N`` sweeps, runs with fault injection on and off, and
the CLI under two hash seeds.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.faults import FaultSpec
from repro.grid.srm import SRMConfig, run_timed_simulation
from repro.sim.runner import sweep
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.sim.timeseries import byte_miss_timeseries
from repro.telemetry import (
    JsonlSink,
    RingSink,
    TraceRecorder,
    use_recorder,
    validate_trace_file,
)
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 200_000_000


def _trace(seed=0, *, n_jobs=150, arrival_rate=None):
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=80,
            n_request_types=60,
            n_jobs=n_jobs,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            arrival_rate=arrival_rate,
            seed=seed,
        )
    )


def _jsonl_of(run, path) -> bytes:
    recorder = TraceRecorder(JsonlSink(path))
    try:
        run(recorder)
    finally:
        recorder.close()
    return path.read_bytes()


# module-level factories: picklable for the --jobs fan-out
def _sweep_trace(point, seed):
    return _trace(seed, n_jobs=80)


def _sweep_config(point):
    return SimulationConfig(cache_size=int(CACHE * point))


class TestSimulatorTraces:
    def test_same_seed_byte_identical(self, tmp_path):
        trace = _trace(3)
        config = SimulationConfig(cache_size=CACHE, policy="optbundle")
        runs = [
            _jsonl_of(
                lambda rec: simulate_trace(trace, config, recorder=rec),
                tmp_path / f"run{i}.jsonl",
            )
            for i in range(2)
        ]
        assert runs[0] == runs[1]
        assert len(runs[0]) > 0

    def test_trace_is_schema_valid(self, tmp_path):
        trace = _trace(3)
        config = SimulationConfig(cache_size=CACHE, policy="landlord")
        path = tmp_path / "run.jsonl"
        _jsonl_of(lambda rec: simulate_trace(trace, config, recorder=rec), path)
        assert validate_trace_file(path) > 0

    def test_different_seeds_differ(self, tmp_path):
        config = SimulationConfig(cache_size=CACHE, policy="optbundle")
        a = _jsonl_of(
            lambda rec: simulate_trace(_trace(0), config, recorder=rec),
            tmp_path / "a.jsonl",
        )
        b = _jsonl_of(
            lambda rec: simulate_trace(_trace(1), config, recorder=rec),
            tmp_path / "b.jsonl",
        )
        assert a != b


class TestHashSeedIdentity:
    """One process per hash seed: in-process reruns share a seed, so only
    this catches set or dict order leaking into a decision."""

    def _simulate(self, tmp_path, hash_seed: str) -> bytes:
        out = tmp_path / f"T{hash_seed}.jsonl"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONHASHSEED"] = hash_seed
        subprocess.run(
            [
                sys.executable, "-m", "repro.cli", "simulate",
                "--cache-size", "200MB", "--jobs", "150", "--files", "80",
                "--request-types", "60", "--max-file-frac", "0.05",
                "--max-bundle-frac", "0.25", "--seed", "11",
                "--policy", "optbundle", "--telemetry", f"jsonl:{out}",
            ],
            env=env,
            cwd=tmp_path,
            check=True,
            capture_output=True,
            timeout=120,
        )
        return out.read_bytes()

    def test_optbundle_trace_identical_across_hash_seeds(self, tmp_path):
        first = self._simulate(tmp_path, "0")
        assert first
        assert self._simulate(tmp_path, "1") == first


class TestParallelSweepTraces:
    @pytest.mark.parametrize("jobs", [4])
    def test_sweep_trace_serial_vs_jobs(self, tmp_path, jobs):
        def run(n):
            def inner(rec):
                with use_recorder(rec):
                    sweep(
                        [0.25, 0.5],
                        ["optbundle", "lru"],
                        _sweep_trace,
                        _sweep_config,
                        seeds=(0, 1),
                        jobs=n,
                    )

            return inner

        serial = _jsonl_of(run(None), tmp_path / "serial.jsonl")
        fanned = _jsonl_of(run(jobs), tmp_path / "fanned.jsonl")
        assert serial == fanned
        assert len(serial) > 0
        assert validate_trace_file(tmp_path / "fanned.jsonl") > 0


class TestTimedAndFaultTraces:
    def _run(self, rec, rate):
        faults = FaultSpec.uniform(rate, seed=7) if rate else None
        config = SRMConfig(
            cache_size=CACHE,
            policy="lru",
            faults=faults,
            backoff_jitter=0.0,
            staging_timeout=600.0,
        )
        return run_timed_simulation(
            _trace(5, n_jobs=60, arrival_rate=0.05), config, recorder=rec
        )

    def test_faulty_run_byte_identical(self, tmp_path):
        a = _jsonl_of(lambda rec: self._run(rec, 0.2), tmp_path / "a.jsonl")
        b = _jsonl_of(lambda rec: self._run(rec, 0.2), tmp_path / "b.jsonl")
        assert a == b
        assert b"FaultInjected" in a and b"StageRetried" in a
        assert validate_trace_file(tmp_path / "a.jsonl") > 0

    def test_fault_free_run_has_no_fault_events(self, tmp_path):
        a = _jsonl_of(lambda rec: self._run(rec, 0.0), tmp_path / "a.jsonl")
        assert b"FaultInjected" not in a
        assert b"StageStarted" in a and b"StageCompleted" in a
        assert validate_trace_file(tmp_path / "a.jsonl") > 0

    def test_recorder_does_not_change_results(self):
        plain = self._run(None, 0.2)
        sink = RingSink()
        traced = self._run(TraceRecorder(sink), 0.2)
        assert traced.as_dict() == plain.as_dict()
        assert len(sink) > 0


class TestWindowRolled:
    def test_timeseries_emits_one_event_per_window(self):
        trace = _trace(2, n_jobs=100)
        config = SimulationConfig(cache_size=CACHE, policy="optbundle")
        sink = RingSink()
        with use_recorder(TraceRecorder(sink)):
            points = byte_miss_timeseries(trace, config, window=30)
        rolled = [e for e in sink.events if e.kind == "WindowRolled"]
        assert len(rolled) == len(points) > 0
        for ev, pt in zip(rolled, points):
            assert ev.index == pt.window_index
            assert ev.jobs == pt.jobs
            assert ev.byte_miss_ratio == pt.byte_miss_ratio
            assert ev.request_hit_ratio == pt.request_hit_ratio

    def test_timeseries_silent_without_recorder(self):
        trace = _trace(2, n_jobs=60)
        config = SimulationConfig(cache_size=CACHE, policy="lru")
        points = byte_miss_timeseries(trace, config, window=20)
        assert points  # no recorder installed: still computes, emits nothing
