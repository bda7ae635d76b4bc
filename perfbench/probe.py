"""Interrupt-driven CPU speed probe.

The benchmark shares its machine with other tenants, and the speed of a core
swings by 30% and more over seconds.  A timer signal every ``INTERVAL_S``
runs a small fixed kernel and records how long it took, so each timed sample
is accompanied by the speed the core ran at during that sample.
``SpeedProbe.scaled`` removes the probe's own time from a sample and rescales
the rest to a core on which the kernel takes ``REFERENCE_S``: the result is
in reference seconds.  A workload does not slow down by exactly as much as
the kernel (box-2000 spends much of its time in BLAS), so the rescaling
factor is raised to the workload's speed exponent.  A slower program still
reads slower, since the kernel does not run its code; a slower machine no
longer does.

The probe is only valid while the process runs one Python thread.  A second
thread that waits for the GIL would stretch the kernel by up to the switch
interval, and the sample would read faster than it ran.  ``concurrency``
reports any Python thread started or alive during a sample, so the caller can
fail it instead of scaling it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import sys
import threading
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
# Kernel time on an uncontended core of the reference machine (2-vCPU Xeon
# VM, OpenBLAS SkylakeX core, one thread): a reference second is a wall
# second on such a core.
REFERENCE_S = 2.0e-4
MIN_PROBES = 9  # probes behind a speed estimate; short samples borrow earlier ones

_VEC = np.ones(5)


def kernel() -> float:
    """Interpreter-bound work like the package's: small dot products, float
    formatting and dict inserts (as in the step loop, CSV output and config
    handling)."""
    s = 0.0
    v = _VEC
    d = {}
    for i in range(120):
        s += float(np.dot(v, v)) + i
        d[format(s, ".17g")] = i
    return s + len(",".join(d))


class SpeedProbe:
    """Context manager that runs ``kernel`` on SIGALRM and keeps its timings."""

    def __init__(self):
        self.ends = []  # perf_counter() at the end of each probe, increasing
        self.durations = []
        self._previous = None
        self.threads_started = 0

    def _on_thread_start(self, frame, event, arg):
        """First profile event of a new ``threading`` thread: note it, then unhook."""
        self.threads_started += 1
        sys.setprofile(None)

    def _on_alarm(self, signum, frame):
        enabled = gc.isenabled()
        gc.disable()  # a collection of the workload's objects would land in the probe
        t0 = perf_counter()
        kernel()
        t1 = perf_counter()
        if enabled:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        threading.setprofile(self._on_thread_start)
        while len(self.durations) < MIN_PROBES:
            pass  # the handler runs between bytecodes of this loop
        return self

    def __exit__(self, *exc) -> None:
        threading.setprofile(None)
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def concurrency(self) -> list:
        """Problems that make the samples since the last call unscalable; resets the count."""
        started, self.threads_started = self.threads_started, 0
        alive = threading.active_count()
        if started == 0 and alive == 1:
            return []
        return [f"{started} Python thread(s) started and {alive} alive during a timed operation: "
                "the speed probe only scales single-threaded samples"]

    def net_and_speed(self, t0: float, t1: float) -> tuple[float, float]:
        """Seconds of [t0, t1] without the probes in it, and the mean probe time
        during it (or over the last ``MIN_PROBES`` for a short interval)."""
        lo = bisect_left(self.ends, t0)
        hi = bisect_right(self.ends, t1)
        net = (t1 - t0) - sum(self.durations[lo:hi])
        near = self.durations[min(lo, max(0, hi - MIN_PROBES)):hi]
        return net, statistics.fmean(near)

    def scaled(self, t0: float, t1: float, exponent: float) -> float:
        """Seconds of [t0, t1] without the probes in it, at the reference speed."""
        net, speed = self.net_and_speed(t0, t1)
        return net * (REFERENCE_S / speed) ** exponent
