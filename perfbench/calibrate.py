"""Host speed reference for the benchmark's times.

The benchmark runs on a shared host whose speed drifts: from one minute
to the next the same Python code takes up to 1.7 times as much CPU time,
as other tenants compete for caches and memory bandwidth.  To keep that
drift out of the figures, the benchmark interleaves short slices of a
fixed reference computation with its requests, so that the slices take a
fixed share of the measured CPU time and sample the host over the same
period as the requests.  Every time the benchmark reports is then scaled
by REFERENCE_SLICE_S over the mean time of the slices run around it: it
is the CPU time the work would have taken on a host that runs a slice in
REFERENCE_SLICE_S.  A change to qheis does not change the slices, so it
moves the scaled times exactly as it moves the CPU times.

The slice mixes what the engine spends its time on (interpreter loops over
small ints, dicts keyed by tuples, big-int and rational arithmetic, sorting),
and it runs with the cyclic garbage collector off, so that the engine's
live objects do not slow it.
"""

from __future__ import annotations

import bisect
import gc
import time
from array import array
from fractions import Fraction

CLOCK = time.process_time
# the unit of the scaled times: about the mean CPU time of one slice on an
# Intel Xeon host with 2 vCPUs and Python 3.11.7
REFERENCE_SLICE_S = 0.6e-3
# share of the measured CPU time that the slices take
SHARE = 0.05
# busy time on either side of a request whose slices give its host speed
WINDOW_S = 0.25
_FRACTIONS = tuple(Fraction(i + 1, j + 2) for i in range(3) for j in range(3))


def reference_slice():
    s = 0
    for i in range(2000):
        s += i * i % 7
    acc = {}
    for i in range(60):
        for j in range(12):
            key = (i % 7, j, (i * j) % 5)
            v = acc.get(key)
            acc[key] = i * j + 1 if v is None else (v * 3 + i) % (1 << 80)
    x = Fraction(0)
    for f in _FRACTIONS:
        x += f * f
    return s, len(sorted(acc.items())), x


def slice_time(count):
    """Mean CPU time of `count` slices run back to back."""
    gc.disable()
    try:
        t0 = CLOCK()
        for _ in range(count):
            reference_slice()
        return (CLOCK() - t0) / count
    finally:
        gc.enable()


class HostSpeed:
    """Slices of the reference computation run alongside measured work.

    `keep_up(busy_s)` runs slices until they have taken SHARE of
    `busy_s`, the CPU time spent in measured work so far.  `scale(start,
    end)` converts CPU seconds of the work done between busy times `start`
    and `end` to reference seconds, from the slices that ran within
    WINDOW_S of busy time around it: the host's speed changes within
    seconds, so a request is scaled by the speed of its own moments."""

    def __init__(self):
        self.spent = 0.0
        self.at = array("d")        # busy time when each slice ran
        self.prefix = array("d", [0.0])  # CPU time of the first k slices

    def keep_up(self, busy_s):
        if self.spent >= SHARE * busy_s:
            return
        gc.disable()
        try:
            while self.spent < SHARE * busy_s:
                t0 = CLOCK()
                reference_slice()
                self.spent += CLOCK() - t0
                self.at.append(busy_s)
                self.prefix.append(self.spent)
        finally:
            gc.enable()

    def slice_s(self):
        """Mean CPU time of one slice over the run."""
        return self.spent / len(self.at)

    def scale(self, start, end):
        """Reference seconds per CPU second of the work between busy times
        `start` and `end`."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if hi == lo:
            return REFERENCE_SLICE_S / self.slice_s()
        return REFERENCE_SLICE_S * (hi - lo) / (self.prefix[hi] - self.prefix[lo])
