"""Small end-to-end runs of each workload (n shrunk so they take seconds).

At this size the program serves a few wrong answers (see
``test_check.test_served_answer_matches_oracle_at_small_n``), so these tests
require only that every failure a run reports is an oracle mismatch.
"""

import numpy as np
import pytest

import repro.relation
import repro.serving.engine as engine_module
from perfbench import inputs, layers, measure
from perfbench.check import cluster_state
from perfbench.run import execute
from perfbench.workloads import WORKLOADS, ClusterRW


@pytest.fixture(autouse=True)
def small(monkeypatch):
    monkeypatch.setattr(inputs, "N", 500)


def only_mismatches(failures):
    return all(f.startswith("read ") and "; oracle ids=" in f for f in failures)


def test_cluster_mirror_equals_engine_state_after_writes(tmp_path):
    workload = ClusterRW(4, tmp_path)
    workload.window_reads = 1  # one read, then one write, per window
    workload.setup(None)
    phase = workload.serve(6, float("inf"))
    assert phase.failures == [] and phase.writes == 6
    ids, rows = cluster_state(workload.cluster)
    want_ids, want_rows = workload.mirror.state()
    assert np.array_equal(ids, want_ids) and np.array_equal(rows, want_rows)
    assert ids.shape[0] == 500 and workload.mirror.next_id == 503  # 3 in, 3 out
    assert workload.check_state() == []
    workload.close()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_end_to_end_metrics(name, tmp_path):
    workload = WORKLOADS[name](2, tmp_path)
    try:
        run = execute(workload, 2.0, trace=False)
    finally:
        workload.close()
    assert only_mismatches(run["failures"]) and run["attempted"] > 0
    assert set(run["values"]) == set(measure.END_TO_END)
    assert all(value > 0 for value in run["values"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    workload = WORKLOADS[name](3, tmp_path)
    try:
        run = execute(workload, 1.0, trace=True)
    finally:
        workload.close()
    assert only_mismatches(run["failures"])
    assert list(run["values"]) == [row[0] for row in layers.LAYER_METRICS]
    own = {row[0] for row in layers.LAYER_METRICS if name in row[4]}
    native = {"core.native.call_us_p50", "core.native.call_us_p99"}
    assert not (own - native) & set(run["not_measured"])
    # every wrapper is gone once the run is over
    assert engine_module.normalize_weights is repro.relation.normalize_weights
    assert not hasattr(engine_module.select_kernel, "__wrapped__")


def test_same_seed_gives_same_tuples_per_read(tmp_path):
    counts = []
    for attempt in range(2):
        workload = WORKLOADS["cluster_rw"](5, tmp_path / str(attempt))
        try:
            counts.append(execute(workload, 1.5, trace=False)["values"]["tuples_per_read"])
        finally:
            workload.close()
    assert counts[0] == counts[1]
