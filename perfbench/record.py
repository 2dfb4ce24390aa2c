"""Compact records of what a run served.

Answers are written into the preallocated arrays of one :class:`Window`,
checked once the window's timing has stopped, and then dropped; a
:class:`Phase` keeps only a few numbers per read.  No per-read Python
object outlives its read, so the cyclic garbage collector, left on during
timed phases, sees only the program's own garbage.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class Window:
    """The reads served between two checks, in arrays reused window after window."""

    def __init__(self, size: int, k: int) -> None:
        self.size = size
        self.index = np.empty(size, dtype=np.int64)
        self.latency = np.empty(size)
        #: Answer length per read; -1 when the read raised.
        self.length = np.empty(size, dtype=np.int64)
        self.ids = np.empty((size, k), dtype=np.int64)
        self.scores = np.empty((size, k))
        self.real = np.empty(size, dtype=np.int64)
        self.pseudo = np.empty(size, dtype=np.int64)
        #: Sum of a cluster answer's per-shard costs (0 for other answers).
        self.shard = np.empty(size, dtype=np.int64)
        self.count = 0
        self.errors: list[str] = []
        #: Seconds per write served in the window.
        self.write_s: list[float] = []

    def clear(self) -> None:
        self.count = 0
        self.errors = []
        self.write_s = []

    def add(self, index: int, seconds: float, result) -> None:
        """Record read ``index``: its latency and ``result`` (None if it raised)."""
        n = self.count
        self.count = n + 1
        self.index[n] = index
        self.latency[n] = seconds
        if result is None:
            self.length[n] = -1
            return
        m = result.ids.shape[0]
        self.length[n] = m
        self.ids[n, :m] = result.ids
        self.scores[n, :m] = result.scores
        counter = result.counter
        self.real[n] = counter.real
        self.pseudo[n] = counter.pseudo
        shard_costs = getattr(result, "shard_costs", None)
        self.shard[n] = sum(shard_costs.values()) if shard_costs else 0

    def answers(self):
        """``(positions, [(ids, scores), ...])`` of the reads that returned."""
        positions = np.flatnonzero(self.length[:self.count] >= 0)
        return positions, [
            (self.ids[p, :self.length[p]], self.scores[p, :self.length[p]])
            for p in positions
        ]


@dataclass
class Phase:
    """What one warm-up or timed phase served, window by window."""

    #: Timed seconds summed over windows (checks in between are not timed).
    elapsed: float = 0.0
    #: CPU seconds of the process over the same windows.
    cpu: float = 0.0
    #: :attr:`elapsed` at reference host speed.
    scaled: float = 0.0
    #: Reads per window.
    windows: list = field(default_factory=list)
    #: Per read, in completion order: input index, client seconds, cost.
    index: list = field(default_factory=list)
    latency: list = field(default_factory=list)
    cost: list = field(default_factory=list)
    #: Definition-9 counts summed over reads that missed the cache.
    misses: int = 0
    real: int = 0
    pseudo: int = 0
    shard: int = 0
    write_s: list = field(default_factory=list)
    #: Reads or writes that raised, and answers the oracle refused.
    failures: list = field(default_factory=list)

    def close(self, window: Window, seconds: float, cpu: float, scaled: float) -> None:
        """Fold in one window served in ``seconds`` wall and ``cpu`` CPU
        seconds, ``scaled`` seconds at reference host speed."""
        n = window.count
        self.elapsed += seconds
        self.cpu += cpu
        self.scaled += scaled
        self.windows.append(n)
        self.failures += window.errors
        self.write_s += window.write_s
        served = window.length[:n] >= 0
        real = window.real[:n][served]
        pseudo = window.pseudo[:n][served]
        cost = np.zeros(n, dtype=np.int32)
        cost[served] = real + pseudo
        miss = cost[served] > 0
        # Narrow types keep what a phase holds per read small.
        self.index.append(window.index[:n].astype(np.int32))
        self.latency.append(window.latency[:n].astype(np.float32))
        self.cost.append(cost)
        self.misses += int(miss.sum())
        self.real += int(real[miss].sum())
        self.pseudo += int(pseudo[miss].sum())
        self.shard += int(window.shard[:n][served][miss].sum())

    @property
    def writes(self) -> int:
        return len(self.write_s)

    @property
    def reads(self) -> int:
        return sum(self.windows)

    def read_s(self) -> np.ndarray:
        """Client seconds per read, in completion order."""
        return (np.concatenate(self.latency) if self.latency else np.empty(0)).astype(float)

    def indices(self) -> np.ndarray:
        return np.concatenate(self.index) if self.index else np.empty(0, np.int32)

    def costs(self) -> np.ndarray:
        return np.concatenate(self.cost) if self.cost else np.empty(0, np.int32)
