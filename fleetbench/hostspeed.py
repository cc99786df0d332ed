"""How fast the host runs right now, sampled while a workload runs.

The benchmark's host is shared. Each of its cores switches, on its
own and often within a second, between a normal speed and one ~1.5x
slower, and the share of time spent slow drifts over minutes, so a whole
run sees whatever speed the host has then. A :class:`HostSpeed` probe
runs a fixed kernel (:func:`kernel`, ~0.5 ms) every :data:`PERIOD_S` on
a thread of the measuring process and keeps each kernel's wall time.
The probe pins itself, before each sample, to the core it should
measure:

* ``follow=None`` (workloads that keep every core busy): each core in
  turn. The slowdown of an interval is the mean over cores of the
  median kernel time in it.
* ``follow=<native thread id>`` (single-threaded workloads): the core
  that thread last ran on. The slowdown is the median kernel time. A
  busy thread sees only its own core's speed; mixing in an idle core's
  samples did not track the thread's times at all.

Either is divided by :data:`REFERENCE_S`; a compute-bound time divided
by the slowdown over it is the time the same work would take at the
reference speed.

The kernel runs well inside the interpreter's 5 ms switch interval, so
a sample is rarely cut by another thread taking the GIL, and the
median ignores the samples that are. The probe costs ~3% of one core.
"""

import bisect
import os
import statistics
import threading
import time

#: Iterations of :func:`kernel`.
KERNEL_ITERATIONS = 8000
#: Median wall time of one probe sample on the 2-core host README.md's
#: numbers come from, while both its cores ran at their normal speed.
REFERENCE_S = 0.46e-3
#: Pause between two samples.
PERIOD_S = 0.02
#: An interval with fewer samples than this is widened around its
#: middle until it has them.
MIN_SAMPLES = 25


def _cpus():
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return [None]


def last_cpu(thread_id):
    """The core a thread of this process last ran on (None where
    ``/proc`` does not say)."""
    try:
        with open(f"/proc/self/task/{thread_id}/stat", "rb") as handle:
            fields = handle.read().rsplit(b")", 1)[1].split()
    except OSError:
        return None
    return int(fields[36])  # field 39, "processor", of proc_pid_stat(5)


def kernel(iterations=KERNEL_ITERATIONS):
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return total


class HostSpeed:
    """A background probe; use as a context manager around the timed
    phases, then ask :meth:`slowdown` about any interval inside them."""

    def __init__(self, follow=None, period=PERIOD_S):
        self.follow = follow
        self.period = period
        self.cpus = _cpus()
        self.starts = []
        self.durations = []  # (cpu, seconds)
        self._stop = threading.Event()
        self._sampled = threading.Event()
        self._thread = None

    def __enter__(self):
        self._thread = threading.Thread(
            target=self._loop, name="fleetbench-hostspeed", daemon=True
        )
        self._thread.start()
        self._sampled.wait()  # so every interval has a sample near it
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        return False

    def _loop(self):
        turn = 0
        while True:
            if self.follow is None:
                cpu = self.cpus[turn % len(self.cpus)]
                turn += 1
            else:
                cpu = last_cpu(self.follow)
            if cpu is not None:
                # Pins this thread only; the workload's threads keep
                # every core.
                os.sched_setaffinity(0, {cpu})
            start = time.perf_counter()
            kernel()
            self.durations.append((cpu, time.perf_counter() - start))
            self.starts.append(start)
            self._sampled.set()
            if self._stop.wait(self.period):
                return

    def samples(self, start=None, end=None):
        """``(cpu, seconds)`` kernel samples that started in
        ``[start, end)`` (the whole run by default), widened to at least
        :data:`MIN_SAMPLES`."""
        starts = self.starts
        if not starts:
            raise RuntimeError("host-speed probe took no samples")
        lo = 0 if start is None else bisect.bisect_left(starts, start)
        hi = len(starts) if end is None else bisect.bisect_left(starts, end)
        while hi - lo < min(MIN_SAMPLES, len(starts)):
            lo, hi = max(0, lo - 1), min(len(starts), hi + 1)
        return self.durations[lo:hi]

    def slowdown(self, start=None, end=None):
        """How much slower than :data:`REFERENCE_S` the probe ran over
        the interval (above 1: the host ran slower)."""
        samples = self.samples(start, end)
        if self.follow is not None:
            return statistics.median(s for _, s in samples) / REFERENCE_S
        per_cpu = {}
        for cpu, seconds in samples:
            per_cpu.setdefault(cpu, []).append(seconds)
        return statistics.mean(
            statistics.median(v) for v in per_cpu.values()
        ) / REFERENCE_S

    def summary(self):
        return {
            "samples": len(self.durations),
            "follow": self.follow,
            "slowdown": self.slowdown() if self.durations else None,
        }


class SetupClock:
    """Times this process's set-up from ``start``
    (``time.perf_counter``) on the calling thread, with a probe that
    follows that thread running until :meth:`stop`."""

    def __init__(self, start):
        self.start = start
        self.raw_s = None
        self.probe = HostSpeed(follow=threading.get_native_id()).__enter__()

    def stop(self):
        """The normalised set-up time; the raw one is kept in
        ``raw_s``."""
        end = time.perf_counter()
        self.probe.__exit__(None, None, None)
        self.raw_s = end - self.start
        return self.raw_s / self.probe.slowdown(self.start, end)
