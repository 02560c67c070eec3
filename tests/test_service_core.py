"""CoordinatorCore extraction: one decision body, every execution mode.

The refactor's contract is that the per-request plan → decide → apply
logic lives in exactly one place (:class:`CoordinatorCore`) and that the
batch simulator is a thin driver over it — so a core driven by hand
produces a telemetry trace *byte-for-byte* identical to
:func:`simulate_trace` on the same workload, for every registered
policy.  That byte-equality is what later lets the HTTP service's trace
be compared against the batch run's directly.
"""

from __future__ import annotations

import pytest

from repro.cache.registry import POLICY_REGISTRY, make_policy
from repro.cache.state import CacheState
from repro.core.bundle import FileBundle
from repro.core.request import Request
from repro.errors import SimulationError, UnknownFileError
from repro.sim import CoordinatorCore, JobOutcome
from repro.sim.metrics import MetricsCollector
from repro.sim.simulator import SimulationConfig, simulate_trace
from repro.telemetry.recorder import TraceRecorder, use_recorder
from repro.telemetry.sinks import JsonlSink
from repro.types import MB
from repro.workload.generator import WorkloadSpec, generate_trace

CACHE = 32 * MB


@pytest.fixture(scope="module")
def trace():
    return generate_trace(
        WorkloadSpec(
            cache_size=CACHE,
            n_files=80,
            n_request_types=40,
            n_jobs=120,
            popularity="zipf",
            max_file_fraction=0.05,
            max_bundle_fraction=0.25,
            seed=11,
        )
    )


def _drive_core(trace, policy_name: str, path) -> list[JobOutcome]:
    """Drive a bare CoordinatorCore over the trace, recording to path.

    Mirrors the drivers' convention: the policy is bound and the core
    constructed *inside* the recorder context, so the policy's own
    events (PlanComputed/FileEvicted) land in the same trace.
    """
    sizes = trace.catalog.as_dict()
    cache = CacheState(CACHE)
    rec = TraceRecorder(JsonlSink(path))
    with use_recorder(rec):
        policy = make_policy(policy_name, future=trace.bundles())
        policy.bind(cache, sizes)
        core = CoordinatorCore(
            cache=cache,
            policy=policy,
            sizes=sizes,
            metrics=MetricsCollector(warmup=0),
            check_invariants=True,
        )
        outcomes = [core.submit(i, request) for i, request in enumerate(trace)]
    rec.close()
    return outcomes


@pytest.mark.parametrize("policy_name", sorted(POLICY_REGISTRY))
def test_core_trace_byte_identical_to_batch(trace, tmp_path, policy_name):
    batch_path = tmp_path / f"{policy_name}-batch.jsonl"
    core_path = tmp_path / f"{policy_name}-core.jsonl"
    with TraceRecorder(JsonlSink(batch_path)) as rec:
        result = simulate_trace(
            trace,
            SimulationConfig(cache_size=CACHE, policy=policy_name),
            recorder=rec,
        )
    outcomes = _drive_core(trace, policy_name, core_path)
    assert core_path.read_bytes() == batch_path.read_bytes()
    # and the in-memory outcomes aggregate to the simulator's metrics
    assert sum(o.hit for o in outcomes) == result.metrics.request_hits
    assert (
        sum(o.demand_bytes for o in outcomes)
        == result.metrics.bytes_demand_loaded
    )


def test_outcome_fields_and_as_dict(small_catalog):
    sizes = small_catalog.as_dict()
    cache = CacheState(100)
    policy = make_policy("lru")
    policy.bind(cache, sizes)
    core = CoordinatorCore(
        cache=cache, policy=policy, sizes=sizes, metrics=MetricsCollector()
    )
    request = Request(request_id=0, bundle=FileBundle(["g1", "g2"]))
    outcome = core.submit(0, request)
    assert outcome.loaded == ("g1", "g2")
    assert not outcome.hit and not outcome.unserviceable
    assert outcome.demand_bytes == sizes["g1"] + sizes["g2"]
    doc = outcome.as_dict()
    assert doc["loaded"] == ["g1", "g2"]
    assert doc["job"] == 0 and doc["hit"] is False
    # a repeat of the same bundle is a pure hit
    again = core.submit(1, Request(request_id=1, bundle=FileBundle(["g1"])))
    assert again.hit and again.loaded == ()


def test_unknown_file_raises_before_mutation(small_catalog):
    sizes = small_catalog.as_dict()
    cache = CacheState(100)
    policy = make_policy("lru")
    policy.bind(cache, sizes)
    core = CoordinatorCore(
        cache=cache, policy=policy, sizes=sizes, metrics=MetricsCollector()
    )
    with pytest.raises(UnknownFileError):
        core.submit(0, Request(request_id=0, bundle=FileBundle(["nope"])))
    assert cache.used == 0 and core.metrics.snapshot().jobs == 0


def test_oversized_bundle_is_unserviceable(small_catalog):
    sizes = small_catalog.as_dict()
    cache = CacheState(15)  # smaller than g2 (20 bytes)
    policy = make_policy("lru")
    policy.bind(cache, sizes)
    core = CoordinatorCore(
        cache=cache, policy=policy, sizes=sizes, metrics=MetricsCollector()
    )
    outcome = core.submit(0, Request(request_id=0, bundle=FileBundle(["g2"])))
    assert outcome.unserviceable and outcome.loaded == ()
    assert cache.used == 0


def test_space_contract_violation_is_simulation_error(small_catalog):
    """A policy that fails to free enough space is a SimulationError."""
    from repro.cache.policy import PolicyDecision

    sizes = small_catalog.as_dict()
    cache = CacheState(30)
    policy = make_policy("lru")
    policy.bind(cache, sizes)
    core = CoordinatorCore(
        cache=cache, policy=policy, sizes=sizes, metrics=MetricsCollector()
    )
    core.submit(0, Request(request_id=0, bundle=FileBundle(["g3"])))  # 30 used

    class _NoEvict:
        """Violates the contract: makes no room for the next bundle."""

        name = "no-evict"

        def on_request(self, bundle):
            return PolicyDecision()

        def on_serviced(self, *a, **k):
            pass

    core.policy = _NoEvict()
    with pytest.raises(SimulationError, match="free"):
        core.submit(1, Request(request_id=1, bundle=FileBundle(["g2"])))
