"""Seeded inputs: the data set, query weights and the write sequence.

The data set is one fixed IND relation, the same for every seed: built
sizes, layer counts and per-read costs vary by several percent between
random data sets, and a seed should move only the requests, not the data
they are served from.  Query weights and the write sequence come from
``--seed`` through independent numpy streams, so one seed always gives the
same inputs however many of them a run gets through.  Streams that may be
consumed for an open length are generated in fixed-size blocks, which
keeps every prefix identical whatever the final length.
"""

from __future__ import annotations

import numpy as np

#: The served configuration: DL+ over IND, d=4, n=20k, k=10.
N = 20_000
D = 4
K = 10
DATA_SEED = 20120401

#: Rows per generated block of an open-ended stream.
BLOCK = 1 << 14

#: cluster_rw reads draw from a pool this large with Zipf(ZIPF_S) ranks.
POOL = 20_000
ZIPF_S = 1.1

_DATA, _FRESH, _POOL, _RANKS, _WRITES = range(5)


def rng(seed: int, stream: int, *block: int) -> np.random.Generator:
    """The generator of one named input stream of ``seed`` (or of one block
    of it)."""
    return np.random.default_rng([int(seed), stream, *block])


def relation():
    """The IND data set (a fresh :class:`~repro.relation.Relation`)."""
    from repro.data.generators import generate_independent

    return generate_independent(N, D, seed=rng(DATA_SEED, _DATA))


def simplex(generator: np.random.Generator, rows: int) -> np.ndarray:
    """``rows`` weight vectors uniform on the simplex, strictly positive."""
    return np.maximum(generator.dirichlet(np.ones(D), size=rows), 1e-12)


class WeightStream:
    """Fresh uniform weight vectors, never repeated: every read misses.

    Read ``i`` gets row ``i % BLOCK`` of block ``i // BLOCK``, and each
    block has its own seeded generator, so the stream holds only the blocks
    in use however many reads a run gets through.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._blocks: dict[int, np.ndarray] = {}

    def _block(self, number: int) -> np.ndarray:
        block = self._blocks.get(number)
        if block is None:
            if len(self._blocks) >= 2:
                del self._blocks[min(self._blocks)]
            block = simplex(rng(self.seed, _FRESH, number), BLOCK)
            self._blocks[number] = block
        return block

    def at(self, indices) -> np.ndarray:
        """The weight vectors of reads ``indices``, one row each."""
        indices = np.asarray(indices, dtype=np.int64)
        rows = np.empty((indices.shape[0], D))
        numbers = indices // BLOCK
        for number in np.unique(numbers):
            picked = numbers == number
            rows[picked] = self._block(int(number))[indices[picked] % BLOCK]
        return rows


class ZipfReads:
    """Read weights drawn with Zipf popularity from a fixed pool."""

    def __init__(self, seed: int) -> None:
        self.pool = simplex(rng(seed, _POOL), POOL)
        ranks = np.arange(1, POOL + 1, dtype=np.float64)
        weights = ranks ** -ZIPF_S
        self._p = weights / weights.sum()
        self._rng = rng(seed, _RANKS)
        self.picks = np.empty(0, dtype=np.intp)

    def reserve(self, count: int) -> np.ndarray:
        """Make at least ``count`` pool indices available; returns them all."""
        blocks = [self.picks]
        have = self.picks.shape[0]
        while have < count:
            blocks.append(self._rng.choice(POOL, size=BLOCK, p=self._p))
            have += BLOCK
        if len(blocks) > 1:
            self.picks = np.concatenate(blocks)
        return self.picks


class Writes:
    """The cluster_rw write sequence: insert and delete, alternating."""

    def __init__(self, seed: int) -> None:
        self._rng = rng(seed, _WRITES)
        self.count = 0

    def next(self, live_ids: np.ndarray):
        """``("insert", values)`` or ``("delete", global id)``."""
        self.count += 1
        if self.count % 2:
            values = np.clip(self._rng.random(D), 1e-9, 1.0 - 1e-9)
            return "insert", values
        return "delete", int(live_ids[self._rng.integers(live_ids.shape[0])])
