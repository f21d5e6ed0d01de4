"""Correction of the benchmark's timings for slowdowns of the host.

The benchmark runs on a few virtual CPUs of a shared host.  Other tenants
slow every instruction stream on the core for seconds to minutes at a
time, in CPU time as much as in wall time, so a raw timing of the same
work drifts by a third from one run to the next.  A fixed probe, pure
Python work of the same kind as the package's (tuples, dicts, small
ints), is timed every ``PROBE_INTERVAL_S`` from a timer signal, so it
runs in the middle of the ops, on the CPU they run on; the host slows it
as it slows them.  A corrected time is the raw time, less the probes run
inside it, multiplied by ``PROBE_NOMINAL_S`` over the probe's mean time
around it: the time the work would take with the probe at its nominal
speed.  Child processes (the CLI invocations, the cold imports) share the
CPU at the lowest priority, so the probe in the parent still runs whole
while they work.

``PROBE_NOMINAL_S`` is the probe's 5th-percentile time on a 2-vCPU Intel
Xeon virtual machine under CPython 3.11 (median 62 us there, on a busy
host); it only sets the scale, so corrected times read as seconds on that
machine when its host is quiet.  Corrections compare commits on one
machine; raw times are kept in every record next to the corrected ones.
"""

from __future__ import annotations

import bisect
import os
import signal
import time

#: probe time on the reference machine (see the module doc)
PROBE_NOMINAL_S = 50e-6

#: period of the timer that runs the probe
PROBE_INTERVAL_S = 0.01

#: probes this close to a timed interval count for it, so that an interval
#: shorter than the period still has a few
WINDOW_S = 0.03


_ROW, _ROW2 = list(range(1, 41)), list(range(3, 43))


def _body():
    """Row operations mod p, as in ``modp``, then dict and tuple work, as in
    ``multidegree``."""
    row, acc = _ROW, 0
    for f in range(1, 9):
        row = [(x - f * y) % 13 for x, y in zip(row, _ROW2)]
        acc += row[f]
    seen = {}
    for i in range(120):
        key = (i & 15, i >> 4)
        seen[key] = seen.get(key, 0) + i * 3 % 7
    return acc + len(seen)


def pin_one_cpu():
    """Keep this process and its children on one CPU, so the probe runs on
    the CPU the work runs on.  Returns the CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def yield_to_probe():
    """Run in a child process before it starts: the lowest priority, so
    that on the shared CPU the parent's probe preempts the child at once
    and is never cut into time slices by it.  The child has the CPU to
    itself between probes."""
    os.nice(19)


class Sampler:
    """Runs the probe from a ``SIGALRM`` handler while in a ``with`` block.

    ``spent`` is the time spent in the handler so far; a timing subtracts
    its growth over the interval it times.  ``factor(t0, t1)`` corrects
    the raw time of the ``perf_counter`` interval ``[t0, t1]``.  An
    inactive sampler never probes and corrects by 1 (the traced run).
    """

    def __init__(self, active=True):
        self.active = active
        self.times = []
        self.durations = []
        self.spent = 0.0
        self._saved = None

    def _sample(self, *_):
        # the first body brings the probe back into the caches the op just
        # used, so the timed second one measures the host, not the eviction
        clock = time.perf_counter
        start = clock()
        _body()
        t = clock()
        _body()
        now = clock()
        self.times.append(t)
        self.durations.append(now - t)
        self.spent += clock() - start

    def __enter__(self):
        if not self.active:
            return self
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if not self.active:
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._sample()

    def factor(self, t0, t1):
        """``PROBE_NOMINAL_S`` over the mean probe time within ``WINDOW_S``
        of ``[t0, t1]``, leaving out the fastest and slowest quarter (an
        interrupt can cut into a probe); the nearest probe when none is
        that close."""
        if not self.active:
            return 1.0
        n = len(self.times)
        lo = bisect.bisect_left(self.times, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + WINDOW_S)
        if lo == hi:
            lo = min(lo, n - 1)
            hi = lo + 1
        window = sorted(self.durations[lo:hi])
        quarter = len(window) // 4
        middle = window[quarter:len(window) - quarter]
        return PROBE_NOMINAL_S * len(middle) / sum(middle)
