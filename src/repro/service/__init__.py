"""repro.service — the online cache-coordinator (ROADMAP item 1).

The batch simulator answers "what would this policy have done on this
trace"; this package answers the paper's actual operating question —
jobs arrive one at a time and the coordinator must commit to
admit/evict/prefetch decisions online.  It is deliberately thin: the
decision body is the same :class:`~repro.sim.coordinator.CoordinatorCore`
the batch drivers hold, the durability is the same
:class:`~repro.durability.runner.JournaledCoordinator` the durable batch
runner feeds, the telemetry is the standard
:class:`~repro.telemetry.recorder.TraceRecorder` — the service only adds
an arrivals record and an HTTP surface.

* :mod:`repro.service.config` — :class:`ServiceConfig`.
* :mod:`repro.service.state` — :class:`CoordinatorState`: the durable
  single-writer state (create / resume / submit).
* :mod:`repro.service.http` — minimal HTTP/1.1 framing over asyncio.
* :mod:`repro.service.app` — :class:`CoordinatorService` + the
  :data:`ROUTES` table (drift-pinned against the README).
* :mod:`repro.service.loadgen` — the replaying load generator.
* :mod:`repro.service.testing` — in-process hosting for tests/bench.
"""

from repro.service.app import ROUTES, CoordinatorService
from repro.service.config import ServiceConfig
from repro.service.loadgen import LoadgenReport, run_loadgen
from repro.service.state import CoordinatorState, JobResult

__all__ = [
    "ROUTES",
    "CoordinatorService",
    "ServiceConfig",
    "CoordinatorState",
    "JobResult",
    "LoadgenReport",
    "run_loadgen",
]
