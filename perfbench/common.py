"""Workload definitions, constants and small helpers shared by the benchmark.

Nothing here imports the program under test: ``run.py`` must be able to
refuse to run (non-zero exit, no result) in a tree that lacks ``src/``.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

#: checkout root (the directory holding BENCHMARK.json and src/)
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: working space for run directories; removed at the end of every run
WORK = ROOT / ".perfbench-work"

#: one entry per workload (why each was chosen: BENCHMARK.json and
#: README.md).  ``scale``/``popularity``/``max_file_fraction`` feed
#: ``repro.experiments.common.bundle_trace`` (the paper's section 5.1
#: construction, cache ~ 8 requests); the program only ever sees the
#: trace.  ``traces`` is how many independent traces one run replays;
#: ``jobs`` overrides the scale's job count.
WORKLOADS: dict[str, dict] = {
    "batch-plan": {
        "scale": "paper",
        "popularity": "zipf",
        "max_file_fraction": 0.01,
        "policy": "optbundle",
        # four half-length traces: one Zipf draw moves the planner's cost
        # by ~20%, and the checks replay every trace once more
        "traces": 4,
        "jobs": 5000,
    },
    "durable-write": {
        "scale": "paper",
        "popularity": "uniform",
        "max_file_fraction": 0.10,
        "policy": "landlord",
        "traces": 4,
    },
    "service-mixed": {
        "scale": "quick",
        "popularity": "zipf",
        "max_file_fraction": 0.01,
        "policy": "optbundle",
        # one trace per repetition: the debug reads and checkpoints that
        # set job_p99_ms cost what the trace's jobs and cache make them
        "traces": 3,
        # enough for every phase of SERVICE at up to 2000 jobs/s of
        # closed-loop capacity
        "jobs": 600 + 1200 + 2 * 2000,
    },
}

#: the paper's cache size in number of requests
CACHE_IN_REQUESTS = 8.0

#: durable-write: checkpoint every 100 jobs, fsync only on segment rotation
DURABLE = {"checkpoint_every": 100, "fsync": "rotate"}

#: service-mixed schedule, one repetition per fresh server.  Phases run
#: in this order on one keep-alive job connection, so the server sees the
#: trace in order:
#:   closed -- closed loop (next job as soon as the last is answered):
#:             jobs_per_s, the capacity C over one connection
#:   fixed  -- open loop at ``fixed_load`` x C: job_p50_ms, job_p99_ms.
#:             Relative to the capacity just measured, so the server runs
#:             at the same utilisation however fast the host is right now
#:             (a fixed rate saturated it in the host's slow spells)
#:   ramp   -- open loop at a rate rising linearly from ``ramp_from`` x C
#:             to ``ramp_to`` x C over ``ramp_seconds``, stopped once a job
#:             is 4x over ``latency_limit_ms`` late: max_rate_jobs_per_s
SERVICE = {
    "closed_jobs": 600,
    "fixed_load": 0.4,
    "fixed_jobs": 1200,
    "ramp_from": 0.5,
    "ramp_to": 1.5,
    "ramp_seconds": 2.0,
    #: the job latency limit max_rate_jobs_per_s is judged by
    "latency_limit_ms": 50.0,
    #: the reader: GET /metrics every 0.1 s and GET /v1/debug/requests
    #: every 1 s in the closed phase; from then on every this many jobs of
    #: the fixed phase (every ~0.1 s and ~0.5 s at ~300 jobs/s).  A debug
    #: read stalls the server for ~20 ms: at this pace the jobs queued
    #: behind those stalls are ~6% of the fixed phase, so job_p99_ms falls
    #: well inside them, not at their edge where one stall more or less
    #: moves it by half
    "metrics_every_s": 0.1,
    "debug_every_s": 1.0,
    "metrics_every_jobs": 30,
    "debug_every_jobs": 150,
    "checkpoint_every": 100,
}

#: batch-plan and durable-write judge max_rate_jobs_per_s by the same
#: limit (see run.py: a single-server queue fed with the measured
#: per-job times), with the p99 of that limit and this backlog share.  A
#: service repetition whose fixed phase left more than this share of its
#: jobs unsent, or sent its median job later than the limit, saturated:
#: its timings are not used.
MAX_RATE_LIMIT_MS = SERVICE["latency_limit_ms"]
MAX_RATE_BACKLOG_FRAC = 0.02

#: set-ups per batch-plan or durable-write repetition; setup_s is the
#: median over every set-up of the run
SETUPS_PER_REP = 9

# ---------------------------------------------------------------------- #
# host speed
#
# The single-thread speed of the 2-vCPU VM this was set on flips between
# two levels about 1.7x apart, every few tens of milliseconds, and the
# share of time spent at each drifts over minutes (the same code ran
# 2000-2900 jobs/s in consecutive runs).  No estimator inside one run
# removes a drift between runs, so every timing is scaled to a reference
# host: a fixed pure-Python slice (below; it runs no program code) is
# timed on the same CPU as the work, and a time ``t`` measured while the
# slice took ``s`` is reported as ``t * REF_SLICE_S / s``.  In-process
# work is timed between slices (``scale_chunks``); the service's CPUs are
# timed by ``calibrate.py`` samplers while they would otherwise idle.
# Across repetitions, batch-plan's time moved with the slice's at a
# power of ~0.85 and the service's with its server CPU's at ~1.0; the
# run-to-run spread of the scaled figures is a quarter of the raw ones'.
# The raw figures are printed beside the scaled ones.

#: the slice's duration on the reference host (about the median on the
#: VM above); a timing is reported as if the slice had taken this long
REF_SLICE_S = 50e-6
#: a batch-plan job takes ~0.4 ms and a durable-write job ~0.13 ms:
#: one slice every this many jobs keeps a chunk of work within a few ms,
#: shorter than the host's speed levels last, at ~5% extra run time
SLICE_EVERY = {"batch-plan": 4, "durable-write": 12}

_CAL_KEYS = list(range(0, 6000, 3))
_CAL_MEMBERS = frozenset(range(0, 6000, 2))
_CAL_TABLE = {k: k for k in range(0, 6000, 5)}


def cal_slice(clock=time.perf_counter) -> float:
    """Time one calibration slice (~50 us): set and dict probes over a few
    hundred KB, allocating nothing, so no garbage collection lands in it."""
    keys, members, table = _CAL_KEYS, _CAL_MEMBERS, _CAL_TABLE
    t0 = clock()
    total = 0
    for i in range(400):
        k = keys[i]
        if k in members:
            total += table.get(k, 1)
    return clock() - t0


def scale_chunks(times: list[float], slices: list[float], every: int) -> list[float]:
    """Scale ``times[j]`` to the reference host.  Slice ``c`` was timed
    just before item ``c * every``, and one more after the last item.
    Item ``j`` is scaled by the median of the two slices around its chunk
    and the two beyond them, so one slice an interrupt landed in does not
    move it."""
    out = []
    for j, t in enumerate(times):
        c = min(j // every, len(slices) - 2)
        out.append(t * REF_SLICE_S / statistics.median(slices[max(c - 1, 0) : c + 3]))
    return out


def cal_burst(n: int = 8) -> list[float]:
    """``n`` slices back to back, around work too long to split (set-up)."""
    return [cal_slice() for _ in range(n)]


def scale(t: float, slices: list[float]) -> float:
    """``t`` on the reference host, measured beside ``slices``."""
    return t * REF_SLICE_S / statistics.median(slices)


def make_trace(workload: str, seed: int):
    """The workload's trace for ``seed`` (imports the program)."""
    from repro.experiments.common import SCALES, bundle_trace

    spec = WORKLOADS[workload]
    return bundle_trace(
        SCALES[spec["scale"]],
        popularity=spec["popularity"],
        cache_in_requests=CACHE_IN_REQUESTS,
        max_file_fraction=spec["max_file_fraction"],
        seed=seed,
        n_jobs=spec.get("jobs"),
    )


def cpus() -> list:
    """The CPUs this process may run on ([None] where that is unknown).
    Every repetition pins its work to the first; the service's server
    runs on the last, its client on the first."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def pin(cpu) -> None:
    """Keep this process on ``cpu`` (no-op for None), so the calibration
    slices time the CPU the work runs on."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set in MB of this process, or of its largest reaped
    child with ``resource.RUSAGE_CHILDREN`` (Linux reports KiB)."""
    peak = resource.getrusage(who).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 1024.0


def child_env() -> dict[str, str]:
    """Environment for interpreters running the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def stamp(seed: int) -> dict:
    """Trajectory stamp: where and on what this result was measured."""
    rev, dirty = "unknown", None
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
        dirty = bool(
            subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        )
    except (OSError, subprocess.SubprocessError):
        pass  # not a git checkout: the rev stays "unknown"
    return {
        "git_rev": rev,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")
