"""Bitwise equivalence of layer-bound pruning (``prune=True``).

Pruning may only change *which nodes get scored*, never the answer: a
pruned :func:`~repro.core.query.process_top_k` run and a pruned
``query_batch`` row must return the same ids and byte-identical scores as the per-node
reference traversal, while their Definition 9 access counts never exceed
the unpruned run's — across the same distribution/dimension grid the
unpruned kernel-equivalence suite sweeps.  The bound table must also
actually prune: across the grid at small k some query must touch strictly
fewer tuples, otherwise the fast path is dead code.
"""

import numpy as np
import pytest

from repro.core import DLIndex, DLPlusIndex
from repro.core.query import process_top_k, process_top_k_reference
from repro.data import generate
from repro.relation import normalize_weights
from repro.serving import QueryEngine
from repro.stats import AccessCounter


def _seed_for(distribution: str, d: int) -> int:
    return sum(map(ord, distribution)) * 10 + d  # deterministic across runs


def assert_pruned_agrees(structure, weights, k):
    """Pruned CSR vs reference: bitwise answer, no-worse cost.

    Returns ``(pruned_total, unpruned_total)`` Definition 9 counts.
    """
    c_ref, c_plain, c_prune = AccessCounter(), AccessCounter(), AccessCounter()
    ids_ref, scores_ref = process_top_k_reference(structure, weights, k, c_ref)
    process_top_k(structure, weights, k, c_plain)
    ids_p, scores_p = process_top_k(structure, weights, k, c_prune, prune=True)
    assert np.array_equal(ids_ref, ids_p)
    assert scores_ref.tobytes() == scores_p.tobytes()
    assert c_prune.total <= c_plain.total
    return c_prune.total, c_plain.total


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
def test_pruned_kernel_agrees_bitwise(distribution, d, index_class):
    seed = _seed_for(distribution, d)
    relation = generate(distribution, 400, d, seed=seed)
    structure = index_class(relation).build().structure
    rng = np.random.default_rng(seed + 1)
    for _ in range(12):
        weights = rng.dirichlet(np.ones(d))
        k = int(rng.integers(1, 41))
        assert_pruned_agrees(structure, weights, k)


@pytest.mark.parametrize("index_class", [DLIndex, DLPlusIndex], ids=["DL", "DL+"])
@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize("distribution", ["IND", "ANT", "COR"])
def test_pruned_batch_matches_pruned_solo(distribution, d, index_class):
    """Each row of a pruned engine's ``query_batch`` is bitwise the solo
    pruned run — including the access counts, so every row skips exactly
    the same nodes whichever kernel the engine dispatched."""
    seed = _seed_for(distribution, d)
    relation = generate(distribution, 400, d, seed=seed)
    index = index_class(relation).build()
    engine = QueryEngine(index, cache_size=0, prune=True)
    rng = np.random.default_rng(seed + 2)
    weights_matrix = rng.dirichlet(np.ones(d), size=6)
    ks = rng.integers(1, 41, size=6)
    results = engine.query_batch(weights_matrix, ks)
    for row, result in enumerate(results):
        c_solo = AccessCounter()
        ids_s, scores_s = process_top_k(
            index.structure,
            normalize_weights(weights_matrix[row], d),
            int(ks[row]),
            c_solo,
            prune=True,
        )
        assert np.array_equal(result.ids, ids_s)
        assert result.scores.tobytes() == scores_s.tobytes()
        assert (result.counter.real, result.counter.pseudo) == (
            c_solo.real,
            c_solo.pseudo,
        )


def test_pruning_saves_somewhere_at_small_k():
    """The bound table must skip work for some small-k query, or the prune
    fast path silently degenerated into a no-op."""
    saved = False
    for distribution in ("IND", "ANT", "COR"):
        relation = generate(distribution, 400, 4, seed=_seed_for(distribution, 4))
        structure = DLPlusIndex(relation).build().structure
        rng = np.random.default_rng(99)
        for _ in range(12):
            weights = rng.dirichlet(np.ones(4))
            k = int(rng.integers(1, 11))
            pruned, unpruned = assert_pruned_agrees(structure, weights, k)
            saved = saved or pruned < unpruned
    assert saved


def test_prune_ignored_under_fetch_real():
    """Storage-backed runs bypass the bound table (bounds come from the
    in-memory values the override replaces); prune=True must not change
    answers or crash there."""
    relation = generate("IND", 300, 3, seed=9)
    structure = DLPlusIndex(relation).build().structure
    heap_file = relation.matrix.copy()
    c_a, c_b = AccessCounter(), AccessCounter()
    w = np.array([0.2, 0.3, 0.5])
    ids_a, scores_a = process_top_k(
        structure, w, 10, c_a, fetch_real=lambda node: heap_file[node]
    )
    ids_b, scores_b = process_top_k(
        structure, w, 10, c_b, fetch_real=lambda node: heap_file[node], prune=True
    )
    assert np.array_equal(ids_a, ids_b)
    assert scores_a.tobytes() == scores_b.tobytes()
    assert (c_a.real, c_a.pseudo) == (c_b.real, c_b.pseudo)
