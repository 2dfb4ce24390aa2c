"""Wall-clock benchmark: build time and per-query latency, kernel vs kernel.

The cost-model sweeps (:mod:`repro.bench.harness`) count tuple evaluations;
this suite measures *time*: how long an index takes to build and how fast
queries run through the Algorithm 2 kernels —
:func:`~repro.core.query.process_top_k_reference` (the per-node traversal,
the "before"), :func:`~repro.core.query.process_top_k` (the vectorized
CSR kernel), and — when the host can build it — the compiled
:func:`~repro.core.native.native_process_top_k` C walker.  All kernels are
timed on the identical frozen structure and weight stream, so the
reported speedups isolate the kernel.  The batch sweep times
``QueryEngine.query_batch`` against a loop of ``QueryEngine.query`` on
the same engine at each batch width; ``bench-check`` fails any width
where the batched call is slower than the loop.

Every timed query is also checked for bitwise agreement between the kernels
(ids, scores, Definition 9 counts) — a benchmark run doubles as an
end-to-end equivalence pass, and a run that produced wrong answers can
never report a (meaningless) speedup.

Latency aggregation reuses :func:`repro.stats.latency.percentile`; each
(weights, kernel) pair is timed ``repeats`` times and the best run is kept
(standard practice to strip scheduler noise from microbenchmarks).

The default grid is the acceptance grid — IND/ANT × d ∈ {2, 4} ×
n ∈ {10k, 100k} — and the CLI (``repro-topk perf-bench``) scales every
axis down for smoke runs (CI uses n=2000).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

import numpy as np

# Grid/seed constants and write_report live in repro.bench.workload (the
# single source every bench suite shares); re-exported here for callers.
from repro.bench.workload import (
    DEFAULT_DIMS,
    DEFAULT_DISTRIBUTIONS,
    DEFAULT_SEED,
    DEFAULT_SIZES,
    Workload,
    query_weights,
    write_report,
)
from repro.core.dispatch import select_kernel
from repro.core.native import (
    NativeWorkspace,
    native_process_top_k,
    native_ready,
    native_supported,
)
from repro.core.query import (
    QueryWorkspace,
    process_top_k,
    process_top_k_reference,
)
from repro.relation import normalize_weights
from repro.serving import QueryEngine
from repro.stats import AccessCounter
from repro.stats.latency import percentile

__all__ = [
    "DEFAULT_BATCH_SIZES",
    "DEFAULT_DIMS",
    "DEFAULT_DISTRIBUTIONS",
    "DEFAULT_SEED",
    "DEFAULT_SIZES",
    "KERNELS",
    "BatchTiming",
    "KernelTiming",
    "WallclockCell",
    "run_wallclock",
    "validate_query_report",
    "write_report",
]


def _auto_kernel(structure, w, k, counter):
    """Single-query ``auto`` dispatch (native, else csr)."""
    name = select_kernel(structure)
    if name == "native":
        return native_process_top_k(structure, w, k, counter)
    return KERNELS[name](structure, w, k, counter)


KERNELS = {
    "reference": process_top_k_reference,
    "csr": process_top_k,
    "native": native_process_top_k,
    "auto": _auto_kernel,
}


def _make_kernels(structure) -> dict:
    """Per-run kernel table: csr (and auto's csr path) reuse one warm
    :class:`QueryWorkspace`, and the native column (present only when the
    compiled kernel loads and supports the structure) a warm
    :class:`NativeWorkspace` — matching how a serving engine runs each
    solo kernel: steady-state queries reset workspace state via the undo
    log instead of copying the O(n) gate-state template."""
    workspace = QueryWorkspace()

    def csr(structure, w, k, counter):
        return process_top_k(structure, w, k, counter, workspace=workspace)

    def auto(structure, w, k, counter):
        return kernels[select_kernel(structure)](structure, w, k, counter)

    kernels = {
        "reference": process_top_k_reference,
        "csr": csr,
        "auto": auto,
    }
    if native_supported(structure) and native_ready(warn=True):
        native_workspace = NativeWorkspace()

        def native(structure, w, k, counter):
            return native_process_top_k(
                structure, w, k, counter, workspace=native_workspace
            )

        kernels["native"] = native
    return kernels

#: Batch widths of the ``query_batch``-vs-loop sweep (B=1 exposes the
#: batched call's fixed overhead; B=128 its asymptotic throughput).
DEFAULT_BATCH_SIZES = (1, 8, 32, 128)


@dataclass
class KernelTiming:
    """Latency summary of one kernel over one cell's query stream (ms)."""

    p50_ms: float
    p95_ms: float
    mean_ms: float


@dataclass
class BatchTiming:
    """Throughput of ``QueryEngine.query_batch`` at one batch width.

    ``speedup_vs_loop`` is against a loop of ``engine.query`` over the
    *same* weight rows on the same engine — what a caller gains (>1) or
    loses (<1) by handing the engine the rows as one batch.
    """

    B: int
    qps: float
    ms_per_query: float
    speedup_vs_loop: float


@dataclass
class WallclockCell:
    """One (distribution, d, n) cell of the wall-clock grid."""

    distribution: str
    d: int
    n: int
    k: int
    build_seconds: float
    mean_cost: float
    #: Per-pipeline-stage breakdown of build_seconds (empty when the index
    #: type doesn't run the staged pipeline) — lets future runs see *which*
    #: stage regressed, not just the total.
    build_stage_seconds: dict[str, float] = field(default_factory=dict)
    kernels: dict[str, KernelTiming] = field(default_factory=dict)
    #: ``query_batch`` throughput per batch width (empty when the sweep is off).
    batch: list[BatchTiming] = field(default_factory=list)

    @property
    def speedup_p50(self) -> float:
        """Median-latency ratio reference/csr (>1 means CSR is faster)."""
        ref = self.kernels["reference"].p50_ms
        csr = self.kernels["csr"].p50_ms
        return ref / csr if csr > 0 else float("inf")

    @property
    def speedup_native_p50(self) -> float:
        """Median-latency ratio csr/native (>1 means native is faster).

        0.0 when the cell has no native column (compiler-less host or
        unsupported structure) — the regression gate treats a missing
        column at full scale as a failure, not this sentinel.
        """
        native = self.kernels.get("native")
        if native is None:
            return 0.0
        csr = self.kernels["csr"].p50_ms
        return csr / native.p50_ms if native.p50_ms > 0 else float("inf")


def _time_kernel(kernel, structure, weights, k: int, repeats: int) -> list[float]:
    """Best-of-``repeats`` latency (ms) of ``kernel`` per weight vector."""
    latencies: list[float] = []
    for w in weights:
        best = float("inf")
        for _ in range(repeats):
            counter = AccessCounter()
            start = time.perf_counter()
            kernel(structure, w, k, counter)
            best = min(best, time.perf_counter() - start)
        latencies.append(best * 1e3)
    return latencies


def _check_equivalence(structure, weights, k: int) -> float:
    """Assert every kernel agrees bitwise; returns the mean Definition 9 cost.

    The CSR side runs exactly as it is later timed — through a warm
    :class:`QueryWorkspace` — so the bitwise check covers the workspace
    checkout/undo-reset path, not just the fresh-allocation one.  When
    the compiled native kernel is available it is held to the same bar
    on every query (ids, score bytes, real/pseudo counts vs the
    reference oracle), likewise through a warm :class:`NativeWorkspace`.
    """
    costs: list[int] = []
    workspace = QueryWorkspace()
    native_workspace = (
        NativeWorkspace()
        if native_supported(structure) and native_ready(warn=True)
        else None
    )
    for w in weights:
        c_ref, c_csr = AccessCounter(), AccessCounter()
        ids_ref, scores_ref = process_top_k_reference(structure, w, k, c_ref)
        ids_csr, scores_csr = process_top_k(
            structure, w, k, c_csr, workspace=workspace
        )
        if not (
            np.array_equal(ids_ref, ids_csr)
            and scores_ref.tobytes() == scores_csr.tobytes()
            and (c_ref.real, c_ref.pseudo) == (c_csr.real, c_csr.pseudo)
        ):
            raise AssertionError(
                "kernel mismatch: CSR and reference disagree for weights "
                f"{w.tolist()} (k={k})"
            )
        if native_workspace is not None:
            c_nat = AccessCounter()
            ids_nat, scores_nat = native_process_top_k(
                structure, w, k, c_nat, workspace=native_workspace
            )
            if not (
                np.array_equal(ids_ref, ids_nat)
                and scores_ref.tobytes() == scores_nat.tobytes()
                and (c_ref.real, c_ref.pseudo) == (c_nat.real, c_nat.pseudo)
            ):
                raise AssertionError(
                    "kernel mismatch: native and reference disagree for "
                    f"weights {w.tolist()} (k={k})"
                )
        costs.append(c_csr.total)
    return float(np.mean(costs))


def _sweep_batch(
    index, d: int, k: int, batch_sizes, repeats: int, seed: int
) -> list[BatchTiming]:
    """Time ``query_batch`` against a per-query loop at each batch width.

    Both sides run on one uncached ``kernel="auto"`` engine, so they share
    dispatch, workspaces and kernel.  Every row of every batch is first
    verified bitwise (ids, scores, Definition 9 counts) against
    :func:`process_top_k_reference`, then both sides are timed
    best-of-``repeats``, interleaved so drift hits them alike — a sweep
    that produced a wrong answer can never report a timing.
    """
    engine = QueryEngine(index, cache_size=0, kernel="auto")
    structure = index.structure
    timings: list[BatchTiming] = []
    for B in batch_sizes:
        weights = np.asarray(query_weights(d, B, seed + 7000 + B), dtype=np.float64)
        # Correctness pass (also warms the engine's workspaces).
        results = engine.query_batch(weights, k)
        for row, result in enumerate(results):
            counter = AccessCounter()
            ids, scores = process_top_k_reference(
                structure, normalize_weights(weights[row], d), k, counter
            )
            if not (
                np.array_equal(ids, result.ids)
                and scores.tobytes() == result.scores.tobytes()
                and (counter.real, counter.pseudo)
                == (result.counter.real, result.counter.pseudo)
            ):
                raise AssertionError(
                    f"query_batch mismatch at B={B} row {row} for weights "
                    f"{weights[row].tolist()} (k={k})"
                )
        best_batch = best_loop = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            engine.query_batch(weights, k)
            best_batch = min(best_batch, time.perf_counter() - start)
            start = time.perf_counter()
            for w in weights:
                engine.query(w, k)
            best_loop = min(best_loop, time.perf_counter() - start)
        timings.append(
            BatchTiming(
                B=B,
                qps=round(B / best_batch, 1),
                ms_per_query=round(best_batch * 1e3 / B, 4),
                speedup_vs_loop=round(best_loop / best_batch, 2),
            )
        )
    return timings


def run_wallclock(
    *,
    distributions=DEFAULT_DISTRIBUTIONS,
    dims=DEFAULT_DIMS,
    sizes=DEFAULT_SIZES,
    k: int = 10,
    queries: int = 32,
    repeats: int = 3,
    seed: int = DEFAULT_SEED,
    algorithm: str = "DL+",
    batch_sizes=DEFAULT_BATCH_SIZES,
    progress=None,
) -> dict:
    """Run the grid; returns the JSON-serializable report.

    ``progress`` is an optional ``callable(str)`` fed one line per cell
    (the CLI passes ``print``).
    """
    from repro import ALGORITHMS

    index_class = ALGORITHMS[algorithm]
    cells: list[WallclockCell] = []
    for distribution in distributions:
        for d in dims:
            for n in sizes:
                workload = Workload.make(distribution, n, d, queries, seed)
                start = time.perf_counter()
                try:
                    index = index_class(workload.relation, max_layers=k).build()
                except TypeError:  # algorithm without a max_layers knob
                    index = index_class(workload.relation).build()
                build_seconds = time.perf_counter() - start
                structure = getattr(index, "structure", None)
                if structure is None:
                    raise ValueError(
                        f"{algorithm} is not a gated layer index; perf-bench "
                        "times the Algorithm 2 kernels and needs a frozen "
                        "structure (use DL/DL+/DG/DG+)"
                    )
                mean_cost = _check_equivalence(structure, workload.weights, k)
                cell = WallclockCell(
                    distribution=distribution,
                    d=d,
                    n=n,
                    k=k,
                    build_seconds=round(build_seconds, 3),
                    mean_cost=round(mean_cost, 2),
                    build_stage_seconds={
                        stage: round(seconds, 3)
                        for stage, seconds in getattr(
                            index.build_stats, "stage_seconds", {}
                        ).items()
                    },
                )
                for name, kernel in _make_kernels(structure).items():
                    # One untimed pass warms caches (seed block, indptr
                    # lists, gate-state template) so neither kernel pays
                    # one-time costs inside its timings.
                    _time_kernel(kernel, structure, workload.weights[:1], k, 1)
                    latencies = _time_kernel(
                        kernel, structure, workload.weights, k, repeats
                    )
                    cell.kernels[name] = KernelTiming(
                        p50_ms=round(percentile(latencies, 50.0), 4),
                        p95_ms=round(percentile(latencies, 95.0), 4),
                        mean_ms=round(float(np.mean(latencies)), 4),
                    )
                if batch_sizes:
                    cell.batch = _sweep_batch(
                        index, d, k, batch_sizes, repeats, seed
                    )
                cells.append(cell)
                if progress is not None:
                    line = (
                        f"{distribution} d={d} n={n}: build {build_seconds:.1f}s, "
                        f"ref p50 {cell.kernels['reference'].p50_ms:.3f}ms, "
                        f"csr p50 {cell.kernels['csr'].p50_ms:.3f}ms "
                        f"({cell.speedup_p50:.2f}x)"
                    )
                    if "native" in cell.kernels:
                        line += (
                            f", native p50 {cell.kernels['native'].p50_ms:.3f}ms"
                            f" ({cell.speedup_native_p50:.2f}x over csr)"
                        )
                    if cell.batch:
                        line += ", batch/loop " + " ".join(
                            f"B{t.B}={t.speedup_vs_loop:.2f}x" for t in cell.batch
                        )
                    progress(line)
    return {
        "suite": "wallclock",
        "algorithm": algorithm,
        "k": k,
        "queries": queries,
        "repeats": repeats,
        "seed": seed,
        # Every timed query (per-query kernels and every batch row) was
        # checked bitwise against the oracle during this run; consumers
        # (the bench-check regression gate) require this marker.
        "crosscheck": "bitwise",
        "cells": [
            {
                **asdict(cell),
                "speedup_p50": round(cell.speedup_p50, 2),
                "speedup_native_p50": round(cell.speedup_native_p50, 2),
            }
            for cell in cells
        ],
    }


def validate_query_report(report: dict) -> None:
    """Schema check for a wall-clock report; raises ``ValueError`` on drift.

    Used by CI after the smoke run and available to consumers that load a
    committed ``BENCH_query.json``.
    """
    for key in ("suite", "algorithm", "k", "queries", "repeats", "seed", "cells"):
        if key not in report:
            raise ValueError(f"query report missing key {key!r}")
    if report["suite"] != "wallclock":
        raise ValueError(f"unexpected suite {report['suite']!r}")
    if not report["cells"]:
        raise ValueError("query report has no cells")
    for cell in report["cells"]:
        for key in ("distribution", "d", "n", "k", "kernels", "speedup_p50"):
            if key not in cell:
                raise ValueError(f"query cell missing key {key!r}: {cell}")
        for kernel in ("reference", "csr"):
            if kernel not in cell["kernels"]:
                raise ValueError(
                    f"query cell missing kernel {kernel!r}: {cell}"
                )
        for kernel, timing in cell["kernels"].items():
            for key in ("p50_ms", "p95_ms", "mean_ms"):
                if key not in timing:
                    raise ValueError(
                        f"kernel {kernel!r} timing missing {key!r}: {timing}"
                    )
                if not timing[key] > 0:
                    raise ValueError(
                        f"kernel {kernel!r} has non-positive {key}: {timing}"
                    )
        # Batch rows need only the fields every report version carries,
        # so a report from before the query_batch-vs-loop sweep still
        # loads as a baseline; the within-run gate demands
        # ``speedup_vs_loop`` of fresh reports.
        for timing in cell.get("batch", []):
            for key in ("B", "qps", "ms_per_query"):
                if key not in timing:
                    raise ValueError(f"batch timing missing {key!r}: {timing}")
            if not (timing["B"] >= 1 and timing["qps"] > 0):
                raise ValueError(f"implausible batch timing: {timing}")
