"""Timings at a reference host speed.

A shared VM's vCPUs do not run at one speed: the host clocks its cores
up and down with the load of every tenant on them, and this benchmark's
timed code ran up to 2x faster for seconds at a time, then slower again.
Over ten runs, that moved the wall-clock medians by more than any bound
a regression check can use, with nothing changed.

So the client times a fixed probe (:func:`probe`) after every unit of
load it times (an engine window, a bulk call), and reports each unit's
seconds at the speed at which the probe takes :data:`REF_PROBE_S`.  The
probe is two loops of equal length: dict updates that stay in L1, and
updates scattered over a dict several times the size of L2.  A faster
clock speeds up the first fully and the second less, as it does the
benchmark's mix of interpreted code and cache misses; on all three
workloads tried, half of each tracked the program's speed best (the
L1 loop alone over-corrected by about a sixth).  A change that makes the
program faster still reads exactly as much faster.  Time spent waiting
for the disk (``fsync``) does not follow the CPU clock and is kept as
measured.

The host also takes whole vCPUs away for a while to run other guests.
The guest kernel counts that time as steal (:func:`stolen_s`); it is
not the program's time, so it is taken out of each unit before
rescaling.  Probes do not see it: a block's median probe is one the
host left alone.

Steal is counted per vCPU, and summed over them it overstates the time
a unit lost: a worker process waking on the other vCPU accrues steal
while the client's vCPU accrues its own.  So a run first pins itself,
and every process it starts, to one vCPU (:func:`pin`), and reads that
vCPU's steal only.  The probe then also times the vCPU the program runs
on, and a round trip to a worker process is two context switches
rather than a cross-vCPU wake-up, whose latency follows the host's load.
"""

from __future__ import annotations

import functools
import os
import random
import statistics
import time
from typing import Sequence

#: iterations of the L1 loop
PROBE_ITERS = 3000
#: updates of the scattered loop (about as long as the L1 loop)
SCATTER_ITERS = 1000
#: keys of the scattered loop's dict: ~10 MB of dict and int objects,
#: several times the 2 MiB L2
SCATTER_KEYS = 1 << 17
#: seconds the probe takes at the reference speed — its median on the
#: 2-vCPU sandbox the baselines were measured on, at its sustained
#: (slowest) clock; at that speed reported and wall-clock timings agree
REF_PROBE_S = 800e-6
#: seconds per clock tick of ``/proc/stat``
TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
#: consecutive units that share one speed estimate (the median of their
#: probes: a probe that an interrupt stretched does not count)
BLOCK = 8


class _Scatter:
    """The scattered loop's dict, its keys in a fixed random order, and
    where the next probe starts (each probe moves on, so the keys it
    touches were not touched recently)."""

    def __init__(self):
        keys = list(range(0, SCATTER_KEYS * 7919, 7919))
        random.Random(0).shuffle(keys)
        self.keys = keys
        self.table = dict.fromkeys(keys, 0)
        self.at = 0


@functools.cache
def _scatter() -> _Scatter:
    return _Scatter()


def probe() -> float:
    """Seconds the fixed probe takes now."""
    scatter = _scatter()
    lo = scatter.at
    scatter.at = (lo + SCATTER_ITERS) % (SCATTER_KEYS - SCATTER_ITERS)
    keys, table = scatter.keys[lo:lo + SCATTER_ITERS], scatter.table
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(PROBE_ITERS):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    for key in keys:
        table[key] += 1
    return time.perf_counter() - t0


def probes(n: int) -> list[float]:
    return [probe() for _ in range(n)]


#: ``/proc/stat`` row whose steal :func:`stolen_s` reads: every vCPU's
#: until :func:`pin` names one
_STAT_ROW = b"cpu"


def pin() -> int | None:
    """Pin this process, and the processes it starts from now on, to the
    last vCPU it may run on, and read that vCPU's steal from then on.
    Returns the vCPU, or None where affinity cannot be set."""
    global _STAT_ROW
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    _STAT_ROW = b"cpu%d" % cpu
    return cpu


def stolen_s() -> float:
    """Seconds since boot that the host ran something else while the
    pinned vCPU (else any vCPU, summed) had work: ``/proc/stat``'s steal
    column, 0 where the kernel reports none."""
    try:
        with open("/proc/stat", "rb") as fh:
            for line in fh:
                fields = line.split()
                if fields and fields[0] == _STAT_ROW:
                    break
            else:
                return 0.0
    except OSError:
        return 0.0
    return int(fields[8]) * TICK_S if len(fields) > 8 else 0.0


def at_reference(seconds: float, probe_s: float, io_s: float = 0.0,
                 stolen: float = 0.0) -> float:
    """*seconds* of which *io_s* waited for the disk and *stolen* was
    steal, at reference speed, given the probe's duration *probe_s*
    around them."""
    cpu = max(seconds - stolen - io_s, 0.0)
    return cpu * REF_PROBE_S / probe_s + io_s


def scale_units(seconds: Sequence[float], probe_s: Sequence[float],
                io_s: Sequence[float], stolen: Sequence[float]
                ) -> list[float]:
    """Per-unit factors from wall-clock to reference seconds.

    Units are taken in blocks of :data:`BLOCK`; each block's speed is the
    median of its probes.  ``seconds[i] * factor[i]`` is unit *i* at
    reference speed, without its steal ``stolen[i]`` and with its disk
    waits ``io_s[i]`` unscaled.
    """
    factors = []
    for lo in range(0, len(seconds), BLOCK):
        speed = statistics.median(probe_s[lo:lo + BLOCK])
        for i in range(lo, min(lo + BLOCK, len(seconds))):
            wall = seconds[i]
            factors.append(at_reference(wall, speed, io_s[i], stolen[i])
                           / wall if wall > 0 else 1.0)
    return factors
