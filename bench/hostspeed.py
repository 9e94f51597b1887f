"""How fast the host is right now, measured while the benchmark runs.

The sandbox is a two-vCPU guest on a shared host whose effective speed
wanders by a quarter over minutes (neighbours on the sibling threads,
frequency): between identical runs a closed loop's throughput read 72
to 127 requests a second, which no estimator over the window's own
samples repairs.  A thread therefore runs a fixed unit of pure-Python
work five times a second during the measured window and records the
CPU time (``time.thread_time``: waiting for the interpreter lock is
not counted) each unit took.  The window's mean, over the unit's time
on a quiet sandbox, is the window's *slowdown*; ``bench/run.py``
reports timings divided by it, i.e. at the quiet sandbox's speed.  On
recorded runs this took the run-to-run spread (IQR/median) of the
closed loops' throughput from 0.17-0.22 to 0.02-0.06 and of their
latency medians from 0.15-0.26 to 0.03-0.10.  (Units timed before and
after the window instead did not help: the speed changes within tens
of seconds.)  The units cost about 1 % of one vCPU.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import List, Tuple

#: Iterations of one unit of work; frozen, as is its body.
UNIT_ITERATIONS = 15_000

#: CPU seconds one unit takes on the sandbox in a quiet hour.
REFERENCE_UNIT_S = 0.00185

#: Seconds between units.
PERIOD_S = 0.2


def unit() -> None:
    """Integer arithmetic, dict stores and small allocations: what the
    platform's own Python does most."""
    total = 0
    table = {}
    for index in range(UNIT_ITERATIONS):
        total += index * index
        table[index & 255] = str(index)


def slowdown(samples: List[Tuple[float, float]], start: float,
             end: float) -> float:
    """Mean unit time of the samples taken in [start, end) over the
    reference: 1.0 on a quiet sandbox, 1.3 when it runs 30 % slower."""
    mine = [cpu for at, cpu in samples if start <= at < end]
    if not mine:
        raise ValueError("no host-speed sample inside the window")
    return statistics.fmean(mine) / REFERENCE_UNIT_S


class HostSpeed:
    """The sampling thread: ``with HostSpeed() as speed: ...`` then
    ``speed.slowdown(start, end)`` for any window inside the block."""

    def __init__(self) -> None:
        #: (perf_counter at the unit's start, CPU seconds it took).
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="bench-hostspeed")

    def _run(self) -> None:
        while not self._stop.is_set():
            at = time.perf_counter()
            before = time.thread_time()
            unit()
            self.samples.append((at, time.thread_time() - before))
            self._stop.wait(PERIOD_S)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self, start: float, end: float) -> float:
        return slowdown(self.samples, start, end)
