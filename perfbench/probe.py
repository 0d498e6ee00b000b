"""The CPU speed probe: a yardstick for times measured on a shared host.

    python3 perfbench/probe.py CPU SAMPLES_FILE

On a shared host a core's speed swings by up to half for seconds to
minutes at a time (another tenant's work on the same physical core), so
two runs of the same code can differ by more than any useful bound.  A
probe process pinned to each core the workload is pinned to runs a
fixed snippet of pure-Python work (about half a millisecond of CPU)
every :data:`PERIOD_S` on average, jittered so that it never keeps step
with a periodic step of the workload, and appends ``<perf_counter>
<CPU seconds>`` to its file.  The snippet is timed by its thread's CPU
clock, so a reading is the core's speed while it runs the probe, not
whether the probe had the core.  It stops on SIGTERM or when its parent
exits.

:class:`Speed` reads those files back and converts a measured interval
into reference-speed seconds: the CPU seconds the work used in it (or
its length, for work timed by the wall clock) times the speed factor,
the mean of ``REFERENCE_S / snippet time`` over the samples taken on
the workload's cores during the interval.  Work that is not all
interpreter time (system calls, loopback round trips) slows less than
the snippet; its times are scaled by the factor raised to the measured
exponent ``workloads.SPEED_EXPONENTS`` gives.  ``perf_counter`` is
``CLOCK_MONOTONIC`` on Linux, so timestamps from different processes
compare directly.  The probe takes about 1% of its core, the same on
every run.
"""

from __future__ import annotations

import os
import random
import sys
from bisect import bisect_left, bisect_right
from pathlib import Path
from time import perf_counter, sleep, thread_time

#: Mean pause between samples.
PERIOD_S = 0.05
#: Snippet time that defines reference speed (a fast core of a 2020s
#: x86 server runs it in about this long).
REFERENCE_S = 0.0005
#: An interval shorter than this many sample periods is widened to the
#: samples nearest to it.
MIN_SAMPLES = 4


def snippet() -> int:
    """The fixed work whose duration is the core's speed reading."""
    table: dict[int, int] = {}
    total = 0
    for i in range(1500):
        key = i & 63
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total


def probe(cpu: int, samples: Path) -> None:
    os.sched_setaffinity(0, {cpu})
    parent = os.getppid()
    with samples.open("w", buffering=1) as handle:
        while os.getppid() == parent:
            started, cpu = perf_counter(), thread_time()
            snippet()
            handle.write(f"{started:.6f} {thread_time() - cpu:.9f}\n")
            sleep(PERIOD_S * random.uniform(0.5, 1.5))


class Speed:
    """Speed factors read from the probes of the workload's cores."""

    def __init__(
        self, files: list[Path], exponents: dict[str, float] | None = None
    ) -> None:
        #: Interval name -> exponent for :meth:`seconds` (default 1).
        self.exponents = exponents or {}
        self.cores = []
        for path in files:
            times, factors = [], []
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:
                    times.append(float(fields[0]))
                    factors.append(REFERENCE_S / float(fields[1]))
            if len(times) < MIN_SAMPLES:
                raise RuntimeError(f"speed probe {path} took too few samples")
            self.cores.append((times, factors))

    def factor(self, start: float, end: float, core: int | None = None) -> float:
        """Mean speed relative to reference over ``[start, end]`` on
        probed core ``core`` (the mean over all of them when ``None``)."""
        cores = self.cores if core is None else self.cores[core : core + 1]
        means = []
        for times, factors in cores:
            low, high = bisect_left(times, start), bisect_right(times, end)
            while high - low < MIN_SAMPLES:
                low, high = max(low - 1, 0), min(high + 1, len(times))
            window = factors[low:high]
            means.append(sum(window) / len(window))
        return sum(means) / len(means)

    def seconds(self, interval: list, exponent: float = 1.0) -> float:
        """``interval`` in reference-speed seconds, for work whose time
        goes as ``speed ** -exponent``.  ``[start, end]`` is work timed
        by the wall clock on every probed core; ``[start, end, CPU
        seconds]`` is one process's work on the first probed core, and
        the ``[start, end, CPU seconds, core]`` legs that may follow are
        processes it waited for, of which the slowest counts."""
        start, end, *rest = interval
        if not rest:
            return (end - start) * self.factor(start, end) ** exponent
        used, *legs = rest
        slowest = max(
            (
                leg[2] * self.factor(leg[0], leg[1], leg[3]) ** exponent
                for leg in legs
            ),
            default=0.0,
        )
        return used * self.factor(start, end, 0) ** exponent + slowest


if __name__ == "__main__":
    probe(int(sys.argv[1]), Path(sys.argv[2]))
