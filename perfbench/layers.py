"""Per-layer metrics of the traced run, and the end-to-end metric each should move.

``BENCHMARK.json`` lists these names under ``per_layer`` (a test keeps the
two in step); this table adds what that file's fixed keys cannot hold:
which end-to-end metric a layer metric should move, and on which workload.
``read_p50_ms`` and ``read_p99_ms`` are printed by every untraced run but
held to no bound (see :data:`perfbench.measure.END_TO_END`).  A traced run
reports every name here.  One whose layer the workload does
not exercise, or whose wrapped name no longer exists, reads 0 and is listed
under ``not_measured`` in the run's report.
"""

from __future__ import annotations

SOLO, GATEWAY, CLUSTER = "solo_miss", "gateway_c16", "cluster_rw"
ALL = (SOLO, GATEWAY, CLUSTER)

#: Build stages DL+ times through ``build_stats.stage_seconds``.  DL+
#: freezes its structure outside the staged pipeline, so ``freeze`` always
#: reads 0 and is left out.
BUILD_STAGES = ("coarse_peel", "fine_peel", "eds", "forall_gates")

#: (name, unit, better, end-to-end metrics it should move, workloads)
LAYER_METRICS = (
    ("serving.engine.self_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("relation.normalize_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("serving.cache.key_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("serving.cache.get_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("serving.cache.put_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("core.dispatch.select_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("core.native.call_us_p50", "us", "lower", ("read_p50_ms",), (SOLO,)),
    ("core.native.call_us_p99", "us", "lower", ("read_p99_ms",), (SOLO,)),
    ("core.dispatch.share_native", "share", "higher", ("read_qps",), (GATEWAY,)),
    ("core.dispatch.share_batch", "share", "lower", ("read_qps",), (GATEWAY,)),
    ("core.dispatch.share_csr", "share", "lower", ("read_qps",), (GATEWAY,)),
    ("core.dispatch.share_reference", "share", "lower", ("read_qps",), (GATEWAY,)),
    ("core.query.batch_lane_us_p50", "us", "lower", ("read_qps",), (GATEWAY,)),
    ("core.query.batch_width_mean", "lanes", "higher", ("read_qps",), (GATEWAY,)),
    ("serving.gateway.occupancy_mean", "lanes", "higher",
     ("read_p50_ms", "read_qps"), (GATEWAY,)),
    ("serving.gateway.flush_ms_p50", "ms", "lower",
     ("read_p50_ms", "read_qps"), (GATEWAY,)),
    ("serving.gateway.wait_ms_p50", "ms", "lower",
     ("read_p50_ms", "read_qps"), (GATEWAY,)),
    ("serving.gateway.outside_engine_share", "share", "lower",
     ("read_p50_ms", "read_qps"), (GATEWAY,)),
    ("serving.cache.hit_rate", "share", "higher",
     ("read_p50_ms", "tuples_per_read"), (CLUSTER,)),
    ("serving.cache.pruned_per_write", "count", "lower",
     ("read_p50_ms", "tuples_per_read"), (CLUSTER,)),
    ("cluster.coordinator.self_us_p50", "us", "lower", ("read_p50_ms",), (CLUSTER,)),
    ("core.cursor.fetch_us_p50", "us", "lower", ("read_p50_ms",), (CLUSTER,)),
    ("core.cursor.fetches_per_read", "count", "lower", ("read_p50_ms",), (CLUSTER,)),
    ("cluster.shard_tuples_per_read", "count", "lower", ("read_p50_ms",), (CLUSTER,)),
    ("cluster.shard.rebuild_ms_p50", "ms", "lower", ("read_qps",), (CLUSTER,)),
    ("cluster.coordinator.write_self_ms_p50", "ms", "lower", ("read_qps",), (CLUSTER,)),
    ("cluster.write_p50_ms", "ms", "lower", ("read_qps",), (CLUSTER,)),
    ("stats.real_per_traversal", "count", "lower", ("tuples_per_read",), ALL),
    ("stats.pseudo_per_traversal", "count", "lower", ("tuples_per_read",), ALL),
    ("core.build.index_s", "s", "lower", ("setup_s",), ALL),
    *(
        (f"core.build.stage.{stage}_s", "s", "lower", ("setup_s",), ALL)
        for stage in BUILD_STAGES
    ),
    ("io.snapshot.save_ms", "ms", "lower", ("setup_s",), (SOLO,)),
    ("io.snapshot.open_ms", "ms", "lower", ("setup_s",), (SOLO,)),
    ("bench.trace_overhead_pct", "%", "lower", (), ALL),
)

#: Layers of the repository the benchmark leaves unmeasured, and why.
UNMEASURED = {
    "serving.snapshot_pool": (
        "runs one process per worker; on a 2-core host it was the noisiest "
        "workload tried, so it cannot be held to a bound"
    ),
    "core.maintenance": "not on the served path",
    "analytics": "not on the served path",
    "storage, sql, advisor, baselines": "not on the served path",
}


def units() -> dict[str, str]:
    return {name: unit for name, unit, *_ in LAYER_METRICS}
