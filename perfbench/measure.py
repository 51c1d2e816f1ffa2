"""Small measurement helpers: a speed-scaled clock, percentiles, peak RSS,
child processes."""

from __future__ import annotations

import gc
import os
import statistics
import time
from dataclasses import dataclass, field
from typing import List

#: Iterations of :func:`calibration_loop`, and the seconds the loop takes
#: at the reference speed: about its median on the 2-vCPU 2.1 GHz Xeon VM
#: the benchmark was sized on.
CALIBRATION_ITERATIONS = 8000
REFERENCE_S = 0.001
#: A loop time older than this no longer says how fast the machine runs
#: now, so :meth:`Clock.start` takes a fresh one.
STALE_S = 0.05


def calibration_loop(n=CALIBRATION_ITERATIONS):
    """Fixed pure-Python work of the kind the library does: dictionary
    updates and float products."""
    table = {}
    acc = 1.0
    for i in range(n):
        key = i & 255
        table[key] = table.get(key, 0.0) + acc
        acc *= 0.99995
    return acc


def _loop_seconds():
    # The cyclic collector is off, so that a collection of the program's
    # objects does not land in the loop.
    gc.disable()
    try:
        t0 = time.perf_counter()
        calibration_loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def calibrate(every_cpu=False):
    """Seconds one :func:`calibration_loop` takes now on the CPU this
    thread runs on; with ``every_cpu``, the harmonic mean of its seconds
    on each CPU this process may use, the calling thread moved to each
    in turn and then given back its CPU set.  Each vCPU of the reference
    VM runs at one of two speeds, about 1.7x apart, and changes between
    them by itself; work spread over every CPU proceeds at the sum of
    their speeds, which the harmonic mean of the loop times follows."""
    cpus = sorted(os.sched_getaffinity(0)) if every_cpu else []
    if len(cpus) < 2:
        return _loop_seconds()
    speeds = 0.0
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds += 1.0 / _loop_seconds()
    finally:
        os.sched_setaffinity(0, cpus)
    return len(cpus) / speeds


class Clock:
    """Times units of work and scales each to the reference speed.

    The reference VM is two vCPUs of a shared host, and its speed drifts
    by tens of percent over seconds and minutes with what the other
    tenants run: a fixed loop took 13 to 22 ms within one minute.  Every
    wall time drifts with it, the calibration loop's too.  So
    :func:`calibrate` runs just before and just after each unit, and the
    unit's time is its wall time times :data:`REFERENCE_S` over the mean
    of those two loop times: what it would have taken at the reference
    speed.  The loops run outside the timed interval.  ``raw`` keeps the
    unscaled wall times.  Work that runs in several processes at once is
    timed with ``every_cpu`` (see :func:`calibrate`).
    """

    def __init__(self, every_cpu=False):
        self.every_cpu = every_cpu
        self.raw: List[float] = []
        self.scaled: List[float] = []
        self._loop = None
        self._before = 0.0
        self._t0 = 0.0

    def start(self):
        now = time.perf_counter()
        if self._loop is None or now - self._loop[0] > STALE_S:
            self._loop = (now, calibrate(self.every_cpu))
        self._before = self._loop[1]
        self._t0 = time.perf_counter()

    def stop(self):
        """Seconds since :meth:`start`, scaled to the reference speed."""
        elapsed = time.perf_counter() - self._t0
        after = calibrate(self.every_cpu)
        self._loop = (time.perf_counter(), after)
        scaled = elapsed * REFERENCE_S * 2.0 / (self._before + after)
        self.raw.append(elapsed)
        self.scaled.append(scaled)
        return scaled

    def speed(self):
        """Reference-speed seconds per wall second over every unit timed:
        above 1 when the machine ran faster than the reference."""
        return sum(self.scaled) / sum(self.raw) if self.raw else 1.0


@dataclass
class Tally:
    """Operations attempted and failed in one run.  A failed operation
    raised, was refused, or gave an answer whose bits differ from its
    reference; an answer further from its reference than rounding allows
    is also *wrong*, and a wrong answer fails the run."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    wrong: List[str] = field(default_factory=list)

    def fail(self, message, wrong=False):
        self.failed += 1
        self.errors.append(message)
        if wrong:
            self.wrong.append(message)

    def absorb(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors
        self.wrong += other.wrong


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def percentile(values, q):
    """The q-th percentile (0 < q < 100) by linear interpolation between
    closest ranks, as ``statistics.quantiles(method="inclusive")``."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def peak_rss_mb(pid="self"):
    """Peak resident set size (``VmHWM``) of one process, in MB; 0 when
    the process is gone."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid):
    """Direct children of ``pid``, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children
