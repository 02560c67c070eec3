"""Host-speed sampler for service-mixed: times calibration slices on one CPU.

    python3 perfbench/calibrate.py --cpu N --out SAMPLES.json

The service's server and client each spend most of their time waiting,
so their CPUs cannot be timed in line as the in-process workloads'
are.  This process pins itself to CPU ``N`` at ``SCHED_IDLE`` priority,
so it runs only while that CPU is otherwise idle and yields to the
server or client as soon as either wakes.  Every ~2 ms it times one
calibration slice (``common.cal_slice``) by its own CPU time, dropping a
slice that was preempted midway, and keeps ``(end, seconds)``.  On
SIGTERM it writes the samples to ``--out`` and exits; it also exits when
the process that started it has gone.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import time

from common import cal_slice, pin

#: pause between slices: about 2.5% of an idle CPU
PAUSE_S = 0.002


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--cpu", type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin(args.cpu)
    if hasattr(os, "SCHED_IDLE"):
        os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
    else:
        os.nice(19)

    stopping = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(True))
    parent = os.getppid()
    ends: list[float] = []
    seconds: list[float] = []
    print("ready", flush=True)
    while not stopping and os.getppid() == parent:
        w0 = time.perf_counter()
        cpu = cal_slice(time.thread_time)
        w1 = time.perf_counter()
        if w1 - w0 <= 1.2 * cpu:  # not preempted midway
            ends.append(w1)
            seconds.append(cpu)
        while time.perf_counter() < w1 + PAUSE_S:
            pass  # spin, so that the CPU never halts
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump({"end": ends, "seconds": seconds}, f)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
