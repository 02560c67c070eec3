"""The trace-driven cache simulator (the paper's ``cacheSim``).

For every job the simulator — not the policy — performs the byte
accounting: it measures the missing files, lets the policy make room (and
optionally request prefetches), executes the loads, and records metrics.
This guarantees all policies are compared under identical rules.

Queueing (Fig. 9): with ``queue_length > 1`` jobs are aggregated into an
admission queue; once it is full (or the trace is exhausted) jobs are
drained in discipline order — the paper's "serve the request of highest
relative value ... and repeat on the remaining requests in the queue until
it becomes empty".  ``queue_mode="sliding"`` refills after every service
instead (an extension).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.cache.policy import ReplacementPolicy
from repro.cache.registry import make_policy
from repro.cache.state import CacheState
from repro.core.request import Request
from repro.errors import ConfigError
from repro.sim.coordinator import CoordinatorCore
from repro.sim.metrics import MetricsCollector, MetricsSnapshot
from repro.sim.queueing import AdmissionQueue, QueueDiscipline
from repro.telemetry import current_recorder, use_recorder
from repro.telemetry.recorder import TraceRecorder
from repro.types import SizeBytes
from repro.workload.trace import Trace

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "simulate_trace",
]


@dataclass(frozen=True)
class SimulationConfig:
    """Parameters of one simulation run.

    ``policy`` may be a registry name (``"optbundle"``, ``"landlord"``, …)
    with ``policy_kwargs`` forwarded to the factory, or a ready
    :class:`ReplacementPolicy` instance passed to :func:`simulate_trace`.
    """

    cache_size: SizeBytes
    policy: str = "optbundle"
    policy_kwargs: dict[str, Any] = field(default_factory=dict)
    queue_length: int = 1
    discipline: QueueDiscipline = QueueDiscipline.VALUE
    queue_mode: str = "drain"
    warmup: int = 0
    check_invariants: bool = False

    def __post_init__(self) -> None:
        if self.cache_size <= 0:
            raise ConfigError(f"cache_size must be positive, got {self.cache_size}")
        if self.queue_length <= 0:
            raise ConfigError(
                f"queue_length must be positive, got {self.queue_length}"
            )
        if self.queue_mode not in ("drain", "sliding"):
            raise ConfigError(f"queue_mode must be 'drain' or 'sliding', got {self.queue_mode!r}")


@dataclass(frozen=True)
class SimulationResult:
    """Output of :func:`simulate_trace`."""

    policy: str
    cache_size: SizeBytes
    metrics: MetricsSnapshot
    cache_loads: int
    cache_evictions: int
    cache_bytes_evicted: SizeBytes
    max_queue_wait: int
    config: SimulationConfig

    @property
    def byte_miss_ratio(self) -> float:
        return self.metrics.byte_miss_ratio

    @property
    def request_hit_ratio(self) -> float:
        return self.metrics.request_hit_ratio

    def as_dict(self) -> dict:
        out = {
            "policy": self.policy,
            "cache_size": self.cache_size,
            "cache_loads": self.cache_loads,
            "cache_evictions": self.cache_evictions,
            "cache_bytes_evicted": self.cache_bytes_evicted,
            "max_queue_wait": self.max_queue_wait,
        }
        out.update(self.metrics.as_dict())
        return out


def _queued(
    arrivals: Iterator[Request],
    queue: AdmissionQueue,
    scorer,
    mode: str,
    *,
    drain_first: bool = False,
) -> Iterator[Request]:
    """Yield requests in queue-discipline order.

    ``drain_first`` supports checkpoint recovery in ``drain`` mode: when a
    run was interrupted mid-drain the restored queue must be emptied
    before refilling, otherwise service order diverges from the
    uninterrupted run.
    """
    exhausted = False
    if drain_first and mode == "drain":
        while len(queue):
            yield queue.pop_next(scorer)
    while True:
        while not exhausted and not queue.is_full:
            nxt = next(arrivals, None)
            if nxt is None:
                exhausted = True
                break
            queue.push(nxt)
        if len(queue) == 0:
            return
        if mode == "drain":
            while len(queue):
                yield queue.pop_next(scorer)
        else:  # sliding window: refill after each departure
            yield queue.pop_next(scorer)


def simulate_trace(
    trace: Trace,
    config: SimulationConfig,
    *,
    policy: ReplacementPolicy | None = None,
    recorder: TraceRecorder | None = None,
) -> SimulationResult:
    """Replay a trace against a cache under one policy.

    Jobs whose bundle exceeds the cache capacity are counted as
    unserviceable and skipped (the paper's generator precludes them).

    ``recorder`` overrides the ambient telemetry recorder for this run;
    with the default inert recorder, instrumentation costs one attribute
    check per site.  Emitted per-file events are sorted by file id so a
    trace is byte-identical across processes (set iteration order is
    hash-seed dependent; the simulation itself never depends on it).
    """
    if recorder is not None:
        with use_recorder(recorder):
            return simulate_trace(trace, config, policy=policy)
    rec = current_recorder()
    sizes = trace.catalog.as_dict()
    cache = CacheState(config.cache_size)
    if policy is None:
        policy = make_policy(
            config.policy, future=trace.bundles(), **config.policy_kwargs
        )
    policy.bind(cache, sizes)
    metrics = MetricsCollector(warmup=config.warmup)

    if config.queue_length > 1:
        queue = AdmissionQueue(
            config.queue_length, config.discipline, sizes=sizes
        )
        requests: Iterator[Request] = _queued(
            iter(trace), queue, policy.score, config.queue_mode
        )
    else:
        queue = None
        requests = iter(trace)

    core = CoordinatorCore(
        cache=cache,
        policy=policy,
        sizes=sizes,
        metrics=metrics,
        recorder=rec,
        check_invariants=config.check_invariants,
    )
    for job_index, request in enumerate(requests):
        core.submit(job_index, request)

    return SimulationResult(
        policy=policy.name,
        cache_size=config.cache_size,
        metrics=metrics.snapshot(),
        cache_loads=cache.load_count,
        cache_evictions=cache.evict_count,
        cache_bytes_evicted=cache.bytes_evicted,
        max_queue_wait=queue.max_observed_wait() if queue is not None else 0,
        config=config,
    )
