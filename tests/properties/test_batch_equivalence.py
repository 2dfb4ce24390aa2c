"""Bitwise equivalence of batched serving.

:meth:`~repro.serving.QueryEngine.query_batch` serves a whole weight matrix
in one call; every row must be indistinguishable from the per-node oracle
:func:`~repro.core.query.process_top_k_reference` — same ids,
byte-identical scores, ascending order, and the same Definition 9
real/pseudo counts per row — across the full equivalence grid, with
duplicate-tuple tie-breaks, with rows of wildly different k (k=1 next to
k=50) in one call, and with the engine's workspaces reused across batch
widths and rebuilt structures.
"""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core.query import process_top_k_reference
from repro.data import generate
from repro.exceptions import InvalidQueryError, InvalidWeightError
from repro.relation import Relation, normalize_weights
from repro.serving import QueryEngine
from repro.stats import AccessCounter


def _seed_for(distribution: str, d: int) -> int:
    return sum(map(ord, distribution)) * 10 + d  # deterministic across runs


def assert_batch_agrees(engine, weights_matrix, ks):
    """Run ``query_batch``; assert every row matches the oracle bitwise."""
    weights_matrix = np.asarray(weights_matrix, dtype=np.float64)
    n_rows, d = weights_matrix.shape
    results = engine.query_batch(weights_matrix, ks)
    ks_arr = np.broadcast_to(np.asarray(ks, dtype=np.int64), (n_rows,))
    structure = engine.index.structure
    for row, result in enumerate(results):
        counter = AccessCounter()
        ids, scores = process_top_k_reference(
            structure,
            normalize_weights(weights_matrix[row], d),
            min(int(ks_arr[row]), engine.n),
            counter,
        )
        assert np.array_equal(ids, result.ids), f"row {row} ids diverge"
        assert scores.tobytes() == result.scores.tobytes(), f"row {row} scores"
        assert result.ids.dtype == ids.dtype and result.scores.dtype == scores.dtype
        assert (counter.real, counter.pseudo) == (
            result.counter.real,
            result.counter.pseudo,
        ), f"row {row} Definition 9 counts diverge"
        assert np.all(np.diff(result.scores) >= 0)
    return results


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
def test_batch_kernel_agrees_bitwise(distribution, d, index_class):
    seed = _seed_for(distribution, d)
    relation = generate(distribution, 400, d, seed=seed)
    engine = QueryEngine(index_class(relation).build(), cache_size=0)
    rng = np.random.default_rng(seed + 2)
    for batch_width in (1, 5, 16):
        weights = rng.dirichlet(np.ones(d), size=batch_width)
        k = int(rng.integers(1, 41))
        assert_batch_agrees(engine, weights, k)


def test_batch_mixed_k_lanes_finish_independently():
    """A k=1 row next to a k=50 row in one call: neither perturbs the
    other's traversal or counts."""
    relation = generate("ANT", 400, 3, seed=_seed_for("ANT", 3))
    engine = QueryEngine(DLPlusIndex(relation).build(), cache_size=0)
    rng = np.random.default_rng(33)
    weights = rng.dirichlet(np.ones(3), size=8)
    ks = [1, 50, 1, 50, 1, 50, 1, 50]
    assert_batch_agrees(engine, weights, ks)


def test_batch_duplicate_tuple_tie_breaks():
    """Exact duplicate rows score identically; the (score, id) heap order
    must resolve ties the same way in every row as the oracle."""
    rng = np.random.default_rng(7)
    base = rng.random((60, 3))
    points = np.vstack([base, base[:20], base[:10]])  # 30 exact duplicates
    relation = Relation(points, check_domain=False)
    for index_class in (DLIndex, DLPlusIndex):
        engine = QueryEngine(index_class(relation).build(), cache_size=0)
        weights = rng.dirichlet(np.ones(3), size=6)
        # Duplicate weight rows too: identical rows must emit identical
        # answers without interfering with each other's gate state.
        weights[3] = weights[0]
        assert_batch_agrees(engine, weights, 25)


def test_batch_workspace_reuse_and_growth():
    """One engine's workspace serves narrower and wider batches, and
    re-primes for a rebuilt structure, without contaminating state:
    every row checks out the shared workspace (no fallback)."""
    rng = np.random.default_rng(21)
    index = DLPlusIndex(generate("IND", 250, 3, seed=1)).build()
    engine = QueryEngine(index, cache_size=0, kernel="csr")
    served = 0
    for rebuild in (False, True, True):
        if rebuild:
            index.build()  # fresh structure, fresh gate-state template
        for width in (12, 3, 20):
            weights = rng.dirichlet(np.ones(3), size=width)
            assert_batch_agrees(engine, weights, 10)
            served += width
    stats = engine.stats()
    assert stats["workspace_checkouts"] == float(served)
    assert stats["workspace_fallbacks"] == 0.0


def test_batch_validates_inputs():
    """A malformed call fails as a whole, before any row is served."""
    relation = generate("IND", 100, 2, seed=4)
    engine = QueryEngine(DLIndex(relation).build(), cache_size=0)
    weights = np.full((3, 2), 0.5)
    with pytest.raises(InvalidQueryError):
        engine.query_batch(weights, [5])  # one k for three rows
    with pytest.raises(InvalidWeightError):
        engine.query_batch(np.full((3, 2, 1), 0.5), 5)  # 3-D matrix
    with pytest.raises(InvalidWeightError):
        engine.query_batch(np.full((3, 3), 0.5), 5)  # wrong dimensionality
    with pytest.raises(InvalidWeightError):
        engine.query_batch(np.array([[0.5, 0.5], [0.5, -0.5]]), 5)
    assert engine.metrics.queries == 0
