"""Algorithm 2: top-k processing over a gated layer structure.

A priority queue of accessed nodes ordered by ``(score, node id)``.  Seeds
are scored and enqueued; popping a node emits it (real tuples only) and
relaxes its children's gates; a child is scored and enqueued the moment both
its gates are open (Theorem 3's filtering condition).  Each node is scored
at most once — that count *is* the paper's cost metric.

Correctness (Theorem 4) rests on the gate soundness invariants the builders
maintain: every ∀-parent and at least one member of each ∃-parent facet
scores strictly (weakly, for duplicate-tolerant gates) below the gated node
under every positive weight vector, so a node's gates are always fully open
by the time its score could be the queue minimum.

Two kernels implement the identical algorithm:

* :func:`process_top_k` — the production kernel.  On each pop it slices the
  structure's CSR child arrays, relaxes all gates of the popped node with
  numpy ops, and scores every newly opened child in one batched product
  before pushing them.
* :func:`process_top_k_reference` — the original per-node traversal, kept
  as the equivalence oracle: one Python iteration and one score per child.

Both kernels must return **bitwise identical** ids, scores, and Definition 9
access counts (the property tests assert this).  That only holds if scoring
arithmetic is independent of batch size, which BLAS matmul does **not**
guarantee (``A @ w`` row results differ in the last ulp from ``A[i] @ w``
under OpenBLAS).  All child scoring therefore goes through
:func:`score_rows` / :func:`score_node` — ``einsum`` contractions whose
per-row reduction order depends only on ``d``, never on how many rows are
scored together.

Gate-state encoding
-------------------
The vectorized kernel tracks all per-query gate state in **one** integer
per node instead of a counter array plus two boolean arrays:

``state[v] = remaining ∀-parents + (n_nodes + 1) * (∃-gate still closed)``

* popping a ∀-parent decrements ``state`` by 1;
* popping the first ∃-parent subtracts the ``n_nodes + 1`` offset (later
  ∃-parents see ``state < offset`` and are skipped — "any parent" semantics);
* a node is accessed exactly when its state reaches 0 — both gates open —
  and is then stamped with the sentinel ``-1``, which no remaining
  decrement can bring back to 0 (a non-enqueued node's ∀-component never
  goes below zero, and enqueued nodes are excluded from ∃-subtraction).

This halves the per-pop fancy-indexing work and turns per-query state
setup into a single ``copy()`` of a cached template
(:meth:`~repro.core.structure.LayerStructure.gate_state_template`).  The
encoding only changes *bookkeeping*; scoring arithmetic and access order
are untouched, so bitwise equivalence with the reference kernel holds.
"""

from __future__ import annotations

import heapq
import threading

import numpy as np

from repro.exceptions import IndexCapacityError
from repro.core.structure import LayerStructure
from repro.stats import AccessCounter

try:
    # Bind the C entry point ``np.einsum`` dispatches to when ``optimize``
    # is off — the same contraction routine, minus ~2µs of Python wrapper
    # per call (the kernel makes one call per pop).
    from numpy._core._multiarray_umath import c_einsum as _einsum
except ImportError:  # pragma: no cover - numpy < 2 module layout
    try:
        from numpy.core._multiarray_umath import c_einsum as _einsum
    except ImportError:
        _einsum = np.einsum


def score_rows(
    values: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Scores of ``values[nodes]`` under ``weights``, batch-size invariant.

    ``einsum``'s per-row dot uses a reduction order that depends only on the
    dimensionality, so ``score_rows(v, nodes, w)[i] ==
    score_node(v, nodes[i], w)`` *bitwise* — the vectorized kernel and the
    per-node reference kernel produce identical floats.
    """
    return _einsum("ij,j->i", values[nodes], weights)


def score_node(values: np.ndarray, node: int, weights: np.ndarray) -> float:
    """Single-node counterpart of :func:`score_rows` (same arithmetic)."""
    return float(_einsum("j,j->", values[node], weights))


def seed_scores(
    structure: LayerStructure, weights: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(seed_ids, scores)`` for a query's entry nodes, scored in one matmul.

    This is the single scoring path shared by :func:`process_top_k`,
    :func:`process_top_k_reference`,
    :class:`~repro.core.cursor.TopKCursor`, and the native kernel: because
    all of them obtain seed scores from this helper, their answers agree
    bitwise.

    Seeds use the same ``einsum`` contraction as child scoring, not BLAS
    gemv: identical value rows must receive identical scores no matter
    which path scored them, or the heap's (score, id) order — and hence the
    ascending-score output guarantee — breaks on duplicate tuples (gemv
    rows can differ from the per-row dot in the last ulp).
    """
    if structure.seed_selector is None:
        seeds, block = structure.seed_block()  # static seeds: shared block
        return seeds, _einsum("ij,j->i", block, weights)
    seeds = np.asarray(structure.seeds(weights), dtype=np.intp)
    if seeds.shape[0] > 1:
        # Selectors may in principle repeat ids; dedupe preserving order.
        _, first = np.unique(seeds, return_index=True)
        if first.shape[0] != seeds.shape[0]:
            seeds = seeds[np.sort(first)]
    return seeds, _einsum("ij,j->i", structure.values[seeds], weights)


def relax_gates(
    structure: LayerStructure,
    node: int,
    remaining_forall: np.ndarray,
    exists_open: np.ndarray,
    enqueued: np.ndarray,
) -> np.ndarray | None:
    """Vectorized gate relaxation for one popped ``node``.

    Decrements the ∀-counters of the node's ∀-children, opens the ∃-gates of
    its ∃-children, and returns the ids of nodes whose **both** gates just
    opened (∀-children first, then ∃-children — the access order of the
    reference kernel), or ``None`` when nothing opened.  Mutates the three
    per-query state arrays in place.  :class:`~repro.core.cursor.TopKCursor`
    shares this helper; :func:`process_top_k` inlines the same logic to keep
    the hot loop free of function-call overhead.
    """
    f_indptr = structure.forall_indptr
    start, end = f_indptr[node], f_indptr[node + 1]
    opened_f = opened_e = None
    if start != end:
        children = structure.forall_indices[start:end]
        count = remaining_forall[children] - 1
        remaining_forall[children] = count
        opened = children[(count == 0) & exists_open[children] & ~enqueued[children]]
        if opened.shape[0]:
            opened_f = opened
    e_indptr = structure.exists_indptr
    start, end = e_indptr[node], e_indptr[node + 1]
    if start != end:
        children = structure.exists_indices[start:end]
        newly = children[~exists_open[children]]
        if newly.shape[0]:
            exists_open[newly] = True
            opened = newly[(remaining_forall[newly] == 0) & ~enqueued[newly]]
            if opened.shape[0]:
                opened_e = opened
    if opened_f is None:
        return opened_e
    if opened_e is None:
        return opened_f
    return np.concatenate((opened_f, opened_e))


class QueryWorkspace:
    """Reusable gate-state scratch for the solo :func:`process_top_k` kernel.

    The solo kernel's only O(n_nodes) per-query cost is initialising the
    fused gate-state array — a ``copy()`` of the cached template.  A
    workspace keeps one state array allocated *in template state* between
    queries: the kernel checks it out, records every node whose state it
    writes, and restores exactly those entries from the template before
    returning, so a steady-state query allocates no O(n) scratch at all
    (a tracemalloc regression test pins this).

    Checkout is non-blocking: a query that finds the workspace busy falls
    back to a private template copy (counted in :attr:`fallbacks`; the
    serving engine surfaces both counters in its stats), and a query that
    dies mid-traversal drops the state array instead of restoring it.
    The array is keyed by template *identity*, so a rebuilt structure
    transparently re-primes fresh state.
    """

    __slots__ = (
        "_lock", "_state", "_template", "_stats_lock", "checkouts", "fallbacks",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._state: np.ndarray | None = None
        self._template: np.ndarray | None = None
        self._stats_lock = threading.Lock()
        #: Queries served from the shared state array (lock acquired).
        self.checkouts = 0
        #: Queries that found the workspace busy and fell back to a
        #: private template copy.
        self.fallbacks = 0

    def _checkout(self, structure: LayerStructure) -> np.ndarray:
        """Return the template-state array for ``structure`` (lock held)."""
        template = structure.gate_state_template()
        if self._template is not template:
            self._state = template.copy()
            self._template = template
        self.checkouts += 1
        return self._state

    def _invalidate(self) -> None:
        self._state = None
        self._template = None

    def _count_fallback(self) -> None:
        with self._stats_lock:
            self.fallbacks += 1


def process_top_k(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real=None,
    seeds: tuple[np.ndarray, np.ndarray] | None = None,
    prune: bool = False,
    workspace: QueryWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, scores)`` of the top-k real tuples, ascending by score.

    The vectorized CSR kernel: per round, child ranges are O(1) slices of
    the flat adjacency arrays, gate state updates are whole-slice numpy
    ops, and every newly opened child is scored in a single batched
    product before being pushed.  Results, heap order, and the
    Definition 9 access count are bitwise identical to
    :func:`process_top_k_reference`.

    The walk itself (:func:`_solo_walk_classic`) pops one heap entry per
    round; this wrapper only manages the gate-state scratch around it.

    ``fetch_real(node) -> values`` overrides where *real* tuple values come
    from (disk-resident execution reads them through a buffered heap file);
    pseudo-tuples always score from the in-memory structure.  ``seeds``
    optionally supplies a precomputed :func:`seed_scores` result; it is
    ignored when ``fetch_real`` is given, since real seed values must then
    come from storage.  ``workspace`` (see :class:`QueryWorkspace`)
    amortizes gate-state initialisation across queries; omitting it keeps
    the kernel a pure function.

    Layer-bound skipping (``prune=True``)
    -------------------------------------
    The structure's layer bound table
    (:meth:`~repro.core.structure.LayerStructure.layer_bound_table`)
    assigns every placed node to a value-sorted block of its sublayer and
    stores per-block per-attribute minima; ``block_mins[b] @ w`` —
    computed with the kernel's own einsum contraction, so its rounding
    tree matches :func:`score_rows` — is a lower bound on the score of
    every member of block ``b``.  The kernel tracks ``s_k``, the k-th
    smallest *real* score accessed so far (a bounded max-heap).  A
    just-opened child whose block bound strictly exceeds ``s_k`` would pop
    strictly after the k-th answer (its score ≥ bound > ``s_k`` ≥ the
    final k-th answer score), so it is stamped as enqueued and dropped
    **without being scored**: emitted ids and scores stay bitwise
    identical to the unpruned run while the Definition 9 access count
    drops.  The check is hierarchical: a sublayer-level bound table
    (:meth:`~repro.core.structure.LayerStructure.sublayer_bound_table`)
    is consulted first, and a sublayer whose bound already exceeds
    ``s_k`` is remembered for the rest of the query — the k-th floor only
    descends, so the verdict can never be invalidated, and later children
    from that sublayer skip the per-node block gather entirely.  The drop
    *set* is provably identical to a block-only check (a sublayer minimum
    lower-bounds all of its blocks' minima), so pruned access counts equal
    those of a block-only check.  Bounds are gathered lazily, per opened
    batch — no per-query O(n) precompute.
    The bound comparison is only sound against einsum-scored nodes, so
    pruning is ignored when ``fetch_real`` rescoring is in effect; it is
    off by default because the access count is part of the
    kernel-equivalence contract (pruned runs report *fewer* accesses by
    design).
    """
    if not structure.complete and k > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k} requires at least k layers"
        )

    trace_hook = getattr(counter, "count_real_tuple", None)

    ws_acquired = workspace is not None and workspace._lock.acquire(blocking=False)
    if workspace is not None and not ws_acquired:
        workspace._count_fallback()
    try:
        if ws_acquired:
            state = workspace._checkout(structure)
        else:
            state = structure.gate_state_template().copy()
        # Undo log: every node whose state was written this query (duplicate
        # entries are harmless — they restore the same template value).
        touched: list[np.ndarray] = []
        try:
            result = _solo_walk_classic(
                structure, weights, k, counter, fetch_real, trace_hook,
                seeds, prune, state, touched,
            )
        except BaseException:
            if ws_acquired:
                workspace._invalidate()
            raise
        if ws_acquired and touched:
            idx = touched[0] if len(touched) == 1 else np.concatenate(touched)
            state[idx] = structure.gate_state_template()[idx]
        return result
    finally:
        if ws_acquired:
            workspace._lock.release()


def _solo_walk_classic(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real,
    trace_hook,
    seeds: tuple[np.ndarray, np.ndarray] | None,
    prune: bool,
    state: np.ndarray,
    touched: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One-pop-per-round walk behind :func:`process_top_k`.

    Accesses nodes in exact heap order, so ``fetch_real`` storage reads,
    per-access trace hooks and the ``prune`` k-th floor all observe the
    same sequence as :func:`process_top_k_reference`.
    """
    values = structure.values
    n_real = structure.n_real
    f_indptr, e_indptr = structure.csr_indptr_lists()
    f_indices = structure.forall_indices
    e_indices = structure.exists_indices
    exists_offset = structure.n_nodes + 1
    t_append = touched.append

    heap: list[tuple[float, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace

    # Layer-bound skipping state (see process_top_k's docstring).
    # ``kth_score`` is +inf until k real tuples have been accessed, which
    # disables skipping (every finite bound passes); unplaced nodes
    # (``block_of == -1``) gather the tables' trailing -inf sentinel rows
    # and are likewise never skipped.
    prune_blocks = prune_mins = prune_subs = sub_mins = pruned_sub = None
    kth_heap: list[float] = []
    kth_score = np.inf
    if prune and fetch_real is None:
        prune_blocks, prune_mins = structure.layer_bound_table()
        prune_subs, sub_mins = structure.sublayer_bound_table()
        pruned_sub = np.zeros(sub_mins.shape[0], dtype=bool)

    def kth_note(score: float) -> None:
        """Fold one real-tuple score into the running k-th smallest."""
        nonlocal kth_score
        if len(kth_heap) < k:
            heappush(kth_heap, -score)
            if len(kth_heap) == k:
                kth_score = -kth_heap[0]
        elif score < kth_score:
            heapreplace(kth_heap, -score)
            kth_score = -kth_heap[0]

    count_real = counter.count_real
    count_pseudo = counter.count_pseudo

    def access_batch(opened: np.ndarray) -> None:
        """Score and enqueue just-opened nodes (counts toward Definition 9)."""
        state[opened] = -1
        t_append(opened)
        if prune_blocks is not None:
            # Drop children whose bound already beats the running k-th
            # score *before* scoring them — the skipped access is the
            # saving.  Stamping above still marks them enqueued, exactly
            # as if they had been pushed (they would never pop in time).
            # Level 1: sublayers already proven prunable this query.
            subs = prune_subs[opened]
            flags = pruned_sub[subs]
            if flags.any():
                keep = ~flags
                opened = opened[keep]
                if not opened.shape[0]:
                    return
                subs = subs[keep]
            # Level 2: sublayer bounds — a hit prunes the whole sublayer
            # for the rest of the query (the k-th floor only descends).
            sub_bounds = _einsum("ij,j->i", sub_mins[subs], weights)
            drop = sub_bounds > kth_score
            if drop.any():
                pruned_sub[subs[drop]] = True
                opened = opened[~drop]
                if not opened.shape[0]:
                    return
            # Level 3: exact block bounds for the survivors.
            bounds = _einsum("ij,j->i", prune_mins[prune_blocks[opened]], weights)
            keep = bounds <= kth_score
            if not keep.all():
                opened = opened[keep]
                if not opened.shape[0]:
                    return
        if fetch_real is None:
            scores = _einsum("ij,j->i", values[opened], weights)
            if prune_blocks is not None:
                real = 0
                for child, score in zip(opened.tolist(), scores.tolist()):
                    if child < n_real:
                        real += 1
                        if trace_hook is not None:
                            trace_hook(child)
                        kth_note(score)
                    heappush(heap, (score, child))
                count_real(real)
                count_pseudo(opened.shape[0] - real)
            elif trace_hook is None:
                real = 0
                for child, score in zip(opened.tolist(), scores.tolist()):
                    if child < n_real:
                        real += 1
                    heappush(heap, (score, child))
                count_real(real)
                count_pseudo(opened.shape[0] - real)
            else:
                for child, score in zip(opened.tolist(), scores.tolist()):
                    if child < n_real:
                        count_real()
                        trace_hook(child)
                    else:
                        count_pseudo()
                    heappush(heap, (score, child))
        else:
            for child in opened.tolist():
                if child < n_real:
                    score = float(fetch_real(child) @ weights)
                    count_real()
                    if trace_hook is not None:
                        trace_hook(child)
                else:
                    score = score_node(values, child, weights)
                    count_pseudo()
                heappush(heap, (score, child))

    if fetch_real is not None:
        seed_ids, precomputed = structure.seeds(weights), None
        for node in seed_ids.tolist():
            if state[node] >= 0:  # not yet enqueued
                access_batch(np.asarray([node], dtype=np.intp))
    else:
        seed_ids, precomputed = seeds if seeds is not None else seed_scores(
            structure, weights
        )
        # Seeds are unique (static seeds by construction, selector seeds
        # deduplicated in seed_scores), so the whole block enqueues in one
        # shot; heapify over an O(n log n) push loop.  The heap holds the
        # same (score, node) set either way, and pops from equal heaps
        # yield the identical sequence.
        state[seed_ids] = -1
        t_append(seed_ids)
        if trace_hook is None:
            real = 0
            for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                if node < n_real:
                    real += 1
                heap.append((score, node))
            count_real(real)
            count_pseudo(seed_ids.shape[0] - real)
        else:
            for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                if node < n_real:
                    count_real()
                    trace_hook(node)
                else:
                    count_pseudo()
                heap.append((score, node))
        heapq.heapify(heap)
        if prune_blocks is not None:
            # Seed accesses count toward s_k too — folding them in up
            # front lets the bound start biting as early as possible.
            for node, score in zip(seed_ids.tolist(), precomputed.tolist()):
                if node < n_real:
                    kth_note(score)

    answer_ids: list[int] = []
    answer_scores: list[float] = []
    while heap and len(answer_ids) < k:
        score, node = heappop(heap)
        if node < n_real:
            answer_ids.append(node)
            answer_scores.append(score)
            if len(answer_ids) >= k:
                break  # done — don't pay for relaxing the last answer's children
        # Relax children gates on the fused state encoding; access every
        # node whose gates both opened — ∀-children first, then ∃-children,
        # matching the reference kernel's access order.
        start, end = f_indptr[node], f_indptr[node + 1]
        opened_f = opened_e = None
        if start != end:
            children = f_indices[start:end]
            count = state[children] - 1
            state[children] = count
            t_append(children)
            opened = children[count == 0]
            if opened.shape[0]:
                opened_f = opened
        start, end = e_indptr[node], e_indptr[node + 1]
        if start != end:
            children = e_indices[start:end]
            count = state[children]
            gated = count >= exists_offset
            if gated.any():
                newly = children[gated]
                count = count[gated] - exists_offset
                state[newly] = count
                t_append(newly)
                opened = newly[count == 0]
                if opened.shape[0]:
                    opened_e = opened
        if opened_f is not None:
            if opened_e is not None:
                access_batch(np.concatenate((opened_f, opened_e)))
            else:
                access_batch(opened_f)
        elif opened_e is not None:
            access_batch(opened_e)

    return (
        np.asarray(answer_ids, dtype=np.intp),
        np.asarray(answer_scores, dtype=np.float64),
    )


def process_top_k_reference(
    structure: LayerStructure,
    weights: np.ndarray,
    k: int,
    counter: AccessCounter,
    fetch_real=None,
    seeds: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """The per-node reference kernel — Algorithm 2, one child at a time.

    This is the pre-CSR traversal retained verbatim as the equivalence
    oracle for :func:`process_top_k`: same signature, same gate semantics,
    same scoring arithmetic (:func:`score_node`), walking the CSR adjacency
    through the per-node :class:`~repro.core.structure.CSRAdjacency` view.
    The property suite asserts both kernels agree bitwise on ids, scores,
    and real/pseudo access counts; benchmarks use it as the wall-clock
    "before" baseline.
    """
    if not structure.complete and k > structure.num_coarse_layers:
        raise IndexCapacityError(
            f"index was built with only {structure.num_coarse_layers} coarse "
            f"layers; top-{k} requires at least k layers"
        )

    values = structure.values
    n_real = structure.n_real
    remaining_forall = structure.forall_parent_count.copy()
    exists_open = ~structure.exists_gated
    enqueued = np.zeros(structure.n_nodes, dtype=bool)

    heap: list[tuple[float, int]] = []

    trace_hook = getattr(counter, "count_real_tuple", None)

    def access(node: int, score: float | None = None) -> None:
        """Score a node and enqueue it (counts toward Definition 9 cost)."""
        if score is None:
            if fetch_real is not None and node < n_real:
                score = float(fetch_real(node) @ weights)
            else:
                score = score_node(values, node, weights)
        if node < n_real:
            counter.count_real()
            if trace_hook is not None:
                trace_hook(node)
        else:
            counter.count_pseudo()
        enqueued[node] = True
        heapq.heappush(heap, (score, node))

    if fetch_real is not None:
        seed_ids, precomputed = structure.seeds(weights), None
    else:
        seed_ids, precomputed = seeds if seeds is not None else seed_scores(
            structure, weights
        )
    for pos, node in enumerate(seed_ids):
        node = int(node)
        if not enqueued[node]:
            access(node, None if precomputed is None else float(precomputed[pos]))

    forall_children = structure.forall_children
    exists_children = structure.exists_children
    answer_ids: list[int] = []
    answer_scores: list[float] = []
    while heap and len(answer_ids) < k:
        score, node = heapq.heappop(heap)
        if node < n_real:
            answer_ids.append(node)
            answer_scores.append(score)
            if len(answer_ids) >= k:
                break  # done — don't pay for relaxing the last answer's children
        # Relax children gates; access every node whose gates both opened.
        for child in forall_children[node]:
            child = int(child)
            remaining_forall[child] -= 1
            if (
                not enqueued[child]
                and remaining_forall[child] == 0
                and exists_open[child]
            ):
                access(child)
        for child in exists_children[node]:
            child = int(child)
            if exists_open[child]:
                continue
            exists_open[child] = True
            if not enqueued[child] and remaining_forall[child] == 0:
                access(child)

    return (
        np.asarray(answer_ids, dtype=np.intp),
        np.asarray(answer_scores, dtype=np.float64),
    )
