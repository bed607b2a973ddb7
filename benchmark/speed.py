"""Speed-adjusted timing.

The benchmark runs on a shared host whose CPU speed changes by up to
about 1.6x, for seconds to minutes at a time, as other tenants load it.
Wall times of the same work then differ between runs by more than a
regression worth catching.  To take that out, every timed unit of work is
followed by a probe: a fixed pure-Python loop that does not touch capax.
A round's *adjusted* times are its wall times scaled by ``PROBE_REF_MS``
over the median of the round's probes, that is, the times the round would
have taken on a machine where the probe takes ``PROBE_REF_MS``.  The
median keeps a single disturbed probe from moving a round.

A change to capax moves adjusted times as it moves wall times; a change in
machine speed moves the probes and the work together and cancels, in
large part.  Wall times are kept next to the adjusted ones in every record.

This module uses only the standard library, so a fresh process can probe
before it imports numpy or capax.
"""

from __future__ import annotations

import gc
import statistics
import time

clock = time.perf_counter

# the probe's typical time, in ms, on the machine the baseline was taken on
# (BASELINE.md); adjusted times read as times on that machine
PROBE_REF_MS = 1.9


def probe_ms():
    """Wall time of a fixed integer loop, in ms, with the cyclic garbage
    collector held off so that no collection lands inside it."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = clock()
    s = 0
    for i in range(20_000):
        s += (i * 7) % 13
    dt = clock() - t0
    if enabled:
        gc.enable()
    return dt * 1e3


class SpeedClock:
    """Times units of work, each followed by a probe; ``probes`` also holds
    one probe taken before the first unit."""

    def __init__(self):
        self.probes = [probe_ms()]

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), wall seconds)``."""
        t0 = clock()
        out = fn(*args, **kwargs)
        wall = clock() - t0
        self.probes.append(probe_ms())
        return out, wall

    def factor(self):
        """Adjusted time over wall time for the units timed so far."""
        return PROBE_REF_MS / statistics.median(self.probes)
