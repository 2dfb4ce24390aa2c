"""Turn a run's phases and spans into the reported metrics."""

from __future__ import annotations

import numpy as np

from perfbench import layers, stats
from perfbench.spans import self_times

#: End-to-end metrics every untraced run reports, with their units.  Read
#: latency percentiles are printed beside them but held to no bound: on a
#: shared 2-core host whose speed drifts by up to 1.5x over minutes, their
#: run-to-run spread reached 0.40 of the median, past the largest bound
#: allowed.  In a closed loop ``read_qps`` is the reciprocal of the mean
#: read time (per caller), so it carries the latency a bound can hold.
#: ``setup_s`` and ``read_qps`` are scaled to reference host speed
#: (:mod:`perfbench.speed`); their wall-clock values are reported beside.
END_TO_END = {
    "setup_s": "s",
    "read_qps": "1/s",
    "tuples_per_read": "count",
    "peak_rss_mib": "MiB",
}


def end_to_end(workload, setup_s, phases, peak_rss_mib) -> tuple[dict, dict]:
    """``(metric -> value, report extras)`` of an untraced run: its warm-up
    and timed ``phases``.

    ``read_qps`` is reads per timed second at reference host speed
    (:mod:`perfbench.speed`).  On cluster_rw it includes the time the
    caller is blocked on writes: timed phases there are whole cycles of
    reads and a write.  The wall-clock rate is reported beside it.
    """
    phase = phases[-1]
    read_ms = phase.read_s() * 1e3
    metrics = {
        "setup_s": stats.median(setup_s),
        "read_qps": phase.reads / phase.scaled,
        "tuples_per_read": workload.exact_cost(phases),
        "peak_rss_mib": peak_rss_mib,
    }
    tail_p, tail_ms = stats.tail(read_ms)
    extras = {
        "read_samples": len(read_ms),
        "read_p50_ms": stats.median(read_ms),
        "read_p99_ms": stats.percentile(read_ms, 99.0),
        "read_tail": {"percentile": tail_p, "ms": tail_ms},
        "read_qps_wall": phase.reads / phase.elapsed,
        "windows": len(phase.windows),
        "cpu_share": phase.cpu / phase.elapsed,
        "setup_samples": len(setup_s),
    }
    if phase.write_s:
        extras["write_p50_ms"] = stats.median(phase.write_s) * 1e3
        extras["write_samples"] = len(phase.write_s)
    return metrics, extras


def per_layer(tracer, workload, base, phase, before, after) -> tuple[dict, list]:
    """``(metric -> value, names not measured)`` from a traced run.

    ``base`` is the untraced phase served just before the traced ``phase``;
    ``before``/``after`` are :meth:`Workload.counts` around the traced phase.
    A metric with nothing to measure reads 0 and is listed as not measured.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    setup_roots = {span[0] for span in spans if span[3] == "bench.setup"}
    served: dict[str, list] = {}
    setup: dict[str, list] = {}
    for span in spans:
        (setup if span[2] in setup_roots else served).setdefault(span[3], []).append(span)

    values: dict[str, float] = {}
    missing: list[str] = []

    def put(name: str, value) -> None:
        if value is None:
            missing.append(name)
            value = 0.0
        values[name] = float(value)

    def pct(span_name: str, p: float, scale: float, own=False):
        found = served.get(span_name)
        if not found:
            return None
        return stats.percentile(
            [selfs[s[0]] if own else s[5] - s[4] for s in found], p
        ) * scale

    def delta(key: str):
        if key not in before:
            return None
        return before[key], after[key]

    put("serving.engine.self_us_p50", pct("serving.engine", 50, 1e6, own=True))
    put("relation.normalize_us_p50", pct("relation.normalize", 50, 1e6))
    put("serving.cache.key_us_p50", pct("serving.cache.key", 50, 1e6))
    put("serving.cache.get_us_p50", pct("serving.cache.get", 50, 1e6))
    put("serving.cache.put_us_p50", pct("serving.cache.put", 50, 1e6))
    put("core.dispatch.select_us_p50", pct("core.dispatch.select", 50, 1e6))
    put("core.native.call_us_p50", pct("core.native.call", 50, 1e6))
    put("core.native.call_us_p99", pct("core.native.call", 99, 1e6))

    kernels = delta("kernels")
    shares = None
    if kernels is not None:
        old, new = kernels
        served_by = {name: new.get(name, 0.0) - old.get(name, 0.0) for name in new}
        total = sum(served_by.values())
        if total > 0:
            shares = {name: count / total for name, count in served_by.items()}
    for kernel in ("native", "batch", "csr", "reference"):
        put(f"core.dispatch.share_{kernel}",
            None if shares is None else shares.get(kernel, 0.0))

    batches = served.get("core.query.batch", ())
    put("core.query.batch_lane_us_p50", stats.percentile(
        [(s[5] - s[4]) / s[6] for s in batches], 50) * 1e6 if batches else None)
    put("core.query.batch_width_mean",
        np.mean([s[6] for s in batches]) if batches else None)

    flushes_delta = delta("flushes")
    occupancy = None
    if flushes_delta is not None:
        (old_batches, old_rows), (new_batches, new_rows) = flushes_delta
        if new_batches > old_batches:
            occupancy = (new_rows - old_rows) / (new_batches - old_batches)
    put("serving.gateway.occupancy_mean", occupancy)
    flushes = [
        s for s in served.get("serving.engine", ()) if isinstance(s[6], np.ndarray)
    ]
    put("serving.gateway.flush_ms_p50", stats.percentile(
        [s[5] - s[4] for s in flushes], 50) * 1e3 if flushes else None)
    put("serving.gateway.wait_ms_p50", _wait_ms_p50(workload, phase, flushes))
    put("serving.gateway.outside_engine_share",
        1.0 - sum(s[5] - s[4] for s in flushes) / phase.elapsed if flushes else None)

    cache = delta("cache")
    hit_rate = None
    if cache is not None:
        (old_hits, old_misses), (hits, misses) = cache
        lookups = (hits - old_hits) + (misses - old_misses)
        if lookups:
            hit_rate = (hits - old_hits) / lookups
    put("serving.cache.hit_rate", hit_rate)
    prunes = served.get("serving.cache.prune", ())
    put("serving.cache.pruned_per_write",
        np.mean([s[6] for s in prunes]) if prunes else None)

    put("cluster.coordinator.self_us_p50",
        pct("cluster.coordinator", 50, 1e6, own=True))
    put("core.cursor.fetch_us_p50", pct("core.cursor.fetch", 50, 1e6))
    fetches = served.get("core.cursor.fetch", ())
    put("core.cursor.fetches_per_read",
        len(fetches) / phase.reads if fetches else None)
    put("cluster.shard_tuples_per_read",
        phase.shard / phase.misses if phase.shard else None)
    put("cluster.shard.rebuild_ms_p50", pct("cluster.shard.rebuild", 50, 1e3))
    put("cluster.coordinator.write_self_ms_p50",
        pct("cluster.write", 50, 1e3, own=True))
    put("cluster.write_p50_ms",
        stats.median(phase.write_s) * 1e3 if phase.write_s else None)

    put("stats.real_per_traversal",
        phase.real / phase.misses if phase.misses else None)
    put("stats.pseudo_per_traversal",
        phase.pseudo / phase.misses if phase.misses else None)

    builds: dict[int, list] = {}
    for span in setup.get("core.build.index", ()):
        builds.setdefault(span[2], []).append(span)
    per_setup = list(builds.values())
    put("core.build.index_s", stats.median(
        [sum(s[5] - s[4] for s in group) for group in per_setup]
    ) if per_setup else None)
    for stage in layers.BUILD_STAGES:
        seconds = [
            [s[6][stage] for s in group if stage in (s[6] or {})]
            for group in per_setup
        ]
        put(f"core.build.stage.{stage}_s",
            stats.median([sum(group) for group in seconds])
            if per_setup and all(seconds) else None)
    for step in ("save", "open"):
        found = setup.get(f"io.snapshot.{step}", ())
        put(f"io.snapshot.{step}_ms", stats.median(
            [s[5] - s[4] for s in found]) * 1e3 if found else None)

    untraced = stats.median(base.read_s())
    put("bench.trace_overhead_pct",
        (stats.median(phase.read_s()) - untraced) / untraced * 100.0)
    return values, missing


def _wait_ms_p50(workload, phase, flushes):
    """Median of client latency minus the flush that served the read.

    A read's flush is found by its weight row, which the gateway stacks
    unchanged into the matrix it hands ``query_batch``.
    """
    if not flushes:
        return None
    flush_of = {}
    for span in flushes:
        for row in span[6]:
            flush_of[row.tobytes()] = span[5] - span[4]
    waits = []
    for row, latency in zip(workload.weights(phase.indices()), phase.read_s()):
        flush = flush_of.get(row.tobytes())
        if flush is not None:
            waits.append(latency - flush)
    return stats.median(waits) * 1e3 if waits else None

