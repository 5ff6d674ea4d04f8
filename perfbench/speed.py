"""The machine's current speed, from a fixed pure-Python loop.

On a shared machine the same interpreter work takes 20-40% longer in
stretches that last from a fraction of a second to minutes (no steal time
is reported; the two virtual CPUs share one budget, so busy neighbours slow
both).  The benchmark therefore times a fixed loop all along each
measurement and reports times in reference seconds: measured seconds times
REFERENCE_S over the loop's mean time during them.  Code that gets faster or
slower still moves the result one for one; the machine's drift largely
cancels.
"""

import bisect
import gc
import signal
import time

REFERENCE_S = 0.003  # about the loop's time on this machine; only sets the scale
INTERVAL_S = 0.1  # the loop is timed this often while ops run


def loop_seconds():
    """One timing of the loop, with the garbage collector off so that the
    library's heap cannot change the loop's cost."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        acc, table = 0, {}
        for i in range(20000):
            acc = (acc * 31 + i) % 1000003
            table[i & 255] = acc
        return time.perf_counter() - t
    finally:
        if was_enabled:
            gc.enable()


def reference_seconds(seconds, loop_before, loop_after):
    return seconds * 2 * REFERENCE_S / (loop_before + loop_after)


class Meter:
    """Loop timings at entry, every INTERVAL_S inside (from a SIGALRM
    handler, so that an op lasting seconds is sampled while it runs) and at
    exit.  op() converts an op's clock readings to reference seconds, less
    the time the handler took inside the op."""

    def __init__(self, sample_inside=True):
        self.sample_inside = sample_inside
        self.times, self.loops = [], []
        self.spent = 0.0

    def _sample(self, *_):
        t = time.perf_counter()
        self.loops.append(loop_seconds())
        self.times.append(t)
        self.spent += time.perf_counter() - t

    def __enter__(self):
        self._sample()
        if self.sample_inside:
            self._previous = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.sample_inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def mark(self):
        return time.perf_counter(), self.spent

    def op(self, start, end):
        """Reference seconds between two mark() readings: the last loop
        timing before the op, those inside it and the first after it."""
        (t0, spent0), (t1, spent1) = start, end
        lo = max(bisect.bisect_right(self.times, t0) - 1, 0)
        hi = bisect.bisect_left(self.times, t1)
        loops = self.loops[lo:hi + 1]
        return (t1 - t0 - (spent1 - spent0)) * REFERENCE_S * len(loops) / sum(loops)
