"""Host-speed probe: times are reported as if the host ran at a fixed speed.

The build host is a 2-vCPU guest whose neighbours slow it down in spells
of ten to twenty seconds: the same operation took 2.0 s and 5.6 s within
one minute, and the medians of twelve consecutive 20 s windows of one loop
spread 17 % (quartiles) and 84 % (range).  No run length that fits the
time budget averages that out.

So every timed operation is bracketed by a short fixed kernel (a Python
loop plus one pass over 16 MB, about 2.5 ms) run ``BLOCK`` times before
and after it, and its wall time is divided by the *slowdown* the probes
show: the mean of the two blocks' median durations over ``REFERENCE_S``.  On the same twelve windows the median of the divided
times spread 6 % (quartiles) and 13 % (range).  A change to the program
cannot move the kernel, so a regression shows in full; a slow spell of the
host moves both and cancels.

The reported number is therefore "seconds on a host that runs the kernel
in ``REFERENCE_S``", which is what the build host does when it is left
alone.  The wall times as measured are kept beside it in the result file
(``raw_p50``).  Under load from several threads a background thread takes
the probes and each call is divided by the probes that fell inside it.
There the probe shares caches with the program, so part of the slowdown it
shows (about 1.3 on ``serve_2k``) is the program's own and constant; a
change in the daemon's memory traffic therefore moves the normalised number
a little less than the raw one.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: duration of the kernel on the quiet build host; defines the unit
REFERENCE_S = 0.0025
_LOOP = 30_000
_WORDS = 1_000_000
#: probes on each side of a timed call; the median drops one that was preempted
BLOCK = 7
#: a background probe this far outside a call still speaks for it
_PAD_S = 0.15


@dataclass
class Timing:
    wall_s: float
    slowdown: float

    @property
    def normalised_s(self) -> float:
        return self.wall_s / self.slowdown


class HostSpeed:
    def __init__(self, clock=time.perf_counter) -> None:
        import numpy as np

        self._np = np
        self._a = np.zeros(_WORDS)
        self._b = np.ones(_WORDS)
        self._clock = clock
        self.stamps: list[float] = []  #: background probes: when
        self.slowdowns: list[float] = []  #: background probes: how slow
        self.probe()  # the first pass pays for mapping the buffers

    def probe(self) -> float:
        """Run the kernel once; return its duration over the reference (1.0 = quiet).

        The kernel is timed on the thread's CPU clock: time the guest's own
        scheduler or the interpreter lock kept the thread waiting is the
        workload's doing, not the host's, while time a neighbour takes from
        the core is not visible to the guest and lands in the CPU time.
        """
        started = time.thread_time()
        total = 0
        for i in range(_LOOP):
            total += i * i
        self._np.add(self._a, self._b, out=self._a)
        return (time.thread_time() - started) / REFERENCE_S

    def probe_block(self) -> float:
        return statistics.median(self.probe() for _ in range(BLOCK))

    def timed(self, fn) -> tuple[Timing, object]:
        """Time one call between two probe blocks; the collector runs first, untimed."""
        gc.collect()
        before = self.probe_block()
        started = self._clock()
        result = fn()
        wall = self._clock() - started
        return Timing(wall, (before + self.probe_block()) / 2.0), result

    # ------------------------------------------------------------------ #
    @contextmanager
    def background(self, interval_s: float = 0.05):
        """Probe from a thread while other threads generate load."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.is_set():
                slowdown = self.probe()
                self.stamps.append(self._clock())
                self.slowdowns.append(slowdown)
                stop.wait(interval_s)

        thread = threading.Thread(target=loop, name="host-speed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()

    def slowdown_between(self, start: float, end: float) -> float:
        """Median slowdown of the background probes taken during ``[start, end]``."""
        low = bisect.bisect_left(self.stamps, start - _PAD_S)
        high = bisect.bisect_right(self.stamps, end + _PAD_S)
        if low == high:  # no probe that close: take the nearest one
            low = max(0, min(low, len(self.stamps) - 1))
            high = low + 1
        return statistics.median(self.slowdowns[low:high])

    def rate_factor(self, start: float, end: float) -> float:
        """Mean of 1/slowdown over ``[start, end]``: divide a raw rate by it."""
        low = bisect.bisect_left(self.stamps, start)
        high = bisect.bisect_right(self.stamps, end)
        window = self.slowdowns[low:high] or [self.slowdown_between(start, end)]
        return sum(1.0 / s for s in window) / len(window)
