"""Host speed, read from a fixed snippet timed beside the served windows.

On a shared host the same code runs up to 1.5x slower for seconds or
minutes at a time while the process stays on the CPU (its CPU time tracks
its wall time), so neither CPU time nor a median over windows removes it;
at other times the hypervisor keeps the machine off the CPU (steal time,
which also delays the wake-up from every timer wait).
The snippet below is the benchmark's own and never changes with the
program: interpreter work on a dict and a few small-array products, the mix
a served read is made of.  Timed before and after every timed step, it
gives the host's speed then, and :func:`scale` turns the step's CPU seconds
into those of a host that runs the snippet in :data:`REFERENCE_S`.  On a
2-core shared Xeon, over 37 stretches of 35 solo_miss windows, the
quartile spread of the read rate was 0.25 of its median unscaled and 0.04
scaled; snippets of pure interpreter work, of small-array work alone, of
full scans or of random gathers tracked the host less well.
"""

from __future__ import annotations

import os
import time

import numpy as np

#: Seconds the snippet takes on the reference host (the 2-core Xeon the
#: benchmark was sized on, in its faster state).
REFERENCE_S = 0.8e-3

#: Timings of the snippet per probe; the probe reports their median.
REPEATS = 3

_ROWS = np.random.default_rng(0).random((64, 4))
_WEIGHTS = np.random.default_rng(1).dirichlet(np.ones(4), size=64)


def _snippet() -> None:
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i & 255
        counts[key] = counts.get(key, 0) + i
    for w in _WEIGHTS:
        (_ROWS @ w).argsort()


def probe() -> float:
    """Seconds the snippet takes now (median of :data:`REPEATS` timings)."""
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        _snippet()
        times.append(time.perf_counter() - start)
    return sorted(times)[REPEATS // 2]


def stolen() -> float:
    """Seconds the hypervisor has kept this machine's CPUs from running
    while they had work (the steal column of ``/proc/stat``); 0 where the
    kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def scale(seconds: float, cpu: float, steal: float, before: float, after: float) -> float:
    """``seconds`` of wall time, ``cpu`` of them on the CPU and ``steal``
    of them taken by the hypervisor, measured between probes ``before`` and
    ``after``, at reference host speed.  The CPU part runs faster or slower
    with the host and is scaled; stolen time is the host's and is left
    out; the rest is waiting the program chose (the gateway's flush
    timer) and is kept as it is."""
    busy = min(cpu, seconds)
    waiting = max(seconds - busy - steal, 0.0)
    return busy * REFERENCE_S / ((before + after) / 2.0) + waiting
