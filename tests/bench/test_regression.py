"""Bench-regression gate: matched-cell comparison, invariant fallback,
cross-check enforcement, and the bench-check CLI surface."""

import copy
import json

import pytest

from repro.bench.regression import (
    NOISE_FLOOR_MS,
    check_query_regression,
    check_regression,
    check_serve_regression,
    load_report,
)


def make_report(
    *, n=10_000, auto_p50=0.10, csr_p50=0.10, qps=5000.0, speedup_vs_loop=1.0
):
    timing = lambda p50: {"p50_ms": p50, "p95_ms": p50 * 2, "mean_ms": p50}  # noqa: E731
    return {
        "suite": "wallclock",
        "algorithm": "DL+",
        "k": 10,
        "queries": 8,
        "repeats": 1,
        "seed": 7,
        "crosscheck": "bitwise",
        "cells": [
            {
                "distribution": "IND",
                "d": 3,
                "n": n,
                "k": 10,
                "build_seconds": 0.1,
                "mean_cost": 40.0,
                "speedup_p50": 1.5,
                "kernels": {
                    "reference": timing(0.30),
                    "csr": timing(csr_p50),
                    "auto": timing(auto_p50),
                },
                "batch": [
                    {
                        "B": 8,
                        "qps": qps,
                        "ms_per_query": 1000.0 / qps,
                        "speedup_vs_loop": speedup_vs_loop,
                    }
                ],
            }
        ],
    }


def test_identical_reports_pass():
    report = make_report()
    assert check_query_regression(report, report) == []


def test_matched_cell_p50_regression_fails():
    baseline = make_report(csr_p50=1.0)
    fresh = make_report(csr_p50=1.0 * 1.26 + NOISE_FLOOR_MS + 0.01)
    failures = check_query_regression(fresh, baseline)
    assert any("kernel csr" in f for f in failures)
    # Within tolerance + noise floor: passes.
    ok = make_report(csr_p50=1.0 * 1.24)
    assert check_query_regression(ok, baseline) == []


def test_noise_floor_absorbs_sub_ms_jitter():
    """A 50% relative blip on a 0.05ms cell is scheduler noise, not a
    regression — the absolute floor must absorb it."""
    baseline = make_report(csr_p50=0.05, auto_p50=0.05)
    fresh = make_report(csr_p50=0.075, auto_p50=0.075)  # +50% but tiny
    assert check_query_regression(fresh, baseline) == []


def test_matched_cell_qps_regression_fails():
    # Batch lanes gate on amortized ms/query with the same noise floor
    # as the kernel p50s: at 1 qps-in-thousands scale (1.0ms/query) the
    # limit is 1.0 * 1.25 + 0.05 = 1.30ms — i.e. qps below 1000/1.3.
    baseline = make_report(qps=1000.0)
    fresh = make_report(qps=1000.0 / 1.5)
    failures = check_query_regression(fresh, baseline)
    assert any("batch B=8" in f for f in failures)
    assert check_query_regression(make_report(qps=1000.0 / 1.29), baseline) == []
    # At smoke scale (sub-0.1ms lanes) the absolute floor absorbs
    # scheduler jitter that a pure qps ratio would flag.
    tiny_base = make_report(qps=20000.0)  # 0.05ms/query
    tiny_fresh = make_report(qps=10000.0)  # 0.10ms — within 0.05*1.25+0.05
    assert check_query_regression(tiny_fresh, tiny_base) == []


def test_no_overlap_falls_back_to_invariants():
    baseline = make_report(n=100_000)
    smoke_ok = make_report(n=2000)
    assert check_query_regression(smoke_ok, baseline) == []
    # Auto far slower than best single kernel: the scale-free invariant
    # trips even without any comparable baseline cell.
    smoke_bad = make_report(n=2000, auto_p50=0.50, csr_p50=0.10)
    failures = check_query_regression(smoke_bad, baseline)
    assert any("auto p50" in f for f in failures)
    # Missing batch sweep also trips the invariant path.
    smoke_nobatch = make_report(n=2000)
    smoke_nobatch["cells"][0]["batch"] = []
    failures = check_query_regression(smoke_nobatch, baseline)
    assert any("batch sweep missing" in f for f in failures)


def test_batch_slower_than_loop_fails():
    """A B=8 row 3x slower than the per-query loop on the same engine is a
    mis-dispatch at that width, whatever the baseline says — the
    within-run invariant catches it even when every matched cell passes."""
    report = make_report(qps=1000.0 / 0.3)  # 0.3ms/query
    slow = make_report(qps=1000.0 / 0.3, speedup_vs_loop=1.0 / 3.0)
    failures = check_query_regression(slow, report)
    assert any("batch B=8" in f and "per-query loop" in f for f in failures)
    # Within tolerance + noise floor of the loop: passes.
    ok = make_report(qps=1000.0 / 0.3, speedup_vs_loop=0.85)
    assert check_query_regression(ok, report) == []
    # A fresh report without the loop comparison cannot pass the gate,
    # though it still loads as a baseline.
    legacy = copy.deepcopy(report)
    del legacy["cells"][0]["batch"][0]["speedup_vs_loop"]
    assert check_query_regression(report, legacy) == []
    failures = check_query_regression(legacy, report)
    assert any("speedup_vs_loop" in f for f in failures)


def test_missing_crosscheck_marker_rejected():
    baseline = make_report()
    unchecked = copy.deepcopy(baseline)
    del unchecked["crosscheck"]
    failures = check_query_regression(unchecked, baseline)
    assert any("crosscheck" in f for f in failures)


def test_malformed_reports_rejected_outright():
    report = make_report()
    broken = copy.deepcopy(report)
    broken["cells"][0]["kernels"].pop("reference")
    with pytest.raises((ValueError, KeyError)):
        check_query_regression(broken, report)
    with pytest.raises((ValueError, KeyError)):
        check_query_regression(report, broken)


def test_load_report_validates(tmp_path):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(make_report()))
    assert load_report(str(path))["suite"] == "wallclock"
    path.write_text(json.dumps({"suite": "wallclock"}))
    with pytest.raises((ValueError, KeyError)):
        load_report(str(path))


def make_serve_report(*, n=20_000, closed_qps=1500.0, top_occupancy=12.0):
    def entry(rate, occupancy):
        return {
            "arrival_rate": rate,
            "offered_qps": rate,
            "queries": 512,
            "completed": 512,
            "rejected": 0,
            "qps": min(rate, closed_qps),
            "p50_ms": 3.0,
            "p95_ms": 8.0,
            "p99_ms": 20.0,
            "batch_occupancy": occupancy,
            "batches": 100,
            "slo_violations": 5,
        }

    return {
        "suite": "serve",
        "algorithm": "DL+",
        "distribution": "IND",
        "n": n,
        "d": 4,
        "k": 10,
        "queries": 512,
        "distinct": 32,
        "seed": 7,
        "build_seconds": 1.0,
        "crosscheck": "bitwise",
        "gateway": {
            "max_batch": 32,
            "flush_window_ms": 2.0,
            "slo_target_ms": 10.0,
            "max_pending": 4096,
        },
        "closed_loop": {
            "clients": 16,
            "queries": 512,
            "qps": closed_qps,
            "p50_ms": 5.0,
            "p95_ms": 12.0,
            "p99_ms": 25.0,
            "batch_occupancy": 16.0,
        },
        "open_loop": [
            entry(closed_qps * 0.5, 3.0),
            entry(closed_qps * 2.0, top_occupancy),
        ],
    }


def test_serve_identical_reports_pass():
    report = make_serve_report()
    assert check_serve_regression(report, report) == []


def test_serve_matched_workload_capacity_drop_fails():
    baseline = make_serve_report(closed_qps=1500.0)
    fresh = make_serve_report(closed_qps=1500.0 / 1.3)
    failures = check_serve_regression(fresh, baseline)
    assert any("closed-loop capacity" in f for f in failures)
    within = make_serve_report(closed_qps=1500.0 / 1.2)
    assert check_serve_regression(within, baseline) == []


def test_serve_no_overlap_skips_capacity_comparison():
    """A smoke report at a different n must not gate on absolute q/s —
    only the scale-free occupancy invariant applies."""
    baseline = make_serve_report(n=20_000, closed_qps=1500.0)
    smoke = make_serve_report(n=1500, closed_qps=100.0)
    assert check_serve_regression(smoke, baseline) == []


def test_serve_occupancy_invariant_trips():
    baseline = make_serve_report()
    degenerate = make_serve_report(top_occupancy=1.0)
    failures = check_serve_regression(degenerate, baseline)
    assert any("occupancy" in f for f in failures)


def test_serve_missing_crosscheck_marker_rejected():
    baseline = make_serve_report()
    unchecked = copy.deepcopy(baseline)
    del unchecked["crosscheck"]
    failures = check_serve_regression(unchecked, baseline)
    assert any("crosscheck" in f for f in failures)


def test_check_regression_dispatches_by_suite():
    query = make_report()
    serve = make_serve_report()
    assert check_regression(query, query) == []
    assert check_regression(serve, serve) == []
    failures = check_regression(serve, query)
    assert any("suite mismatch" in f for f in failures)


def test_load_report_dispatches_serve_validator(tmp_path):
    path = tmp_path / "serve.json"
    path.write_text(json.dumps(make_serve_report()))
    assert load_report(str(path))["suite"] == "serve"
    broken = make_serve_report()
    broken["open_loop"][0]["completed"] = 1  # completed+rejected != queries
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError):
        load_report(str(path))


def test_bench_check_cli_routes_serve_reports(tmp_path, capsys):
    from repro.cli import main

    fresh = tmp_path / "fresh_serve.json"
    baseline = tmp_path / "baseline_serve.json"
    fresh.write_text(json.dumps(make_serve_report()))
    baseline.write_text(json.dumps(make_serve_report()))
    assert (
        main(
            ["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]
        )
        == 0
    )
    assert "bench-check OK" in capsys.readouterr().out

    fresh.write_text(json.dumps(make_serve_report(top_occupancy=0.9)))
    assert (
        main(
            ["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]
        )
        == 1
    )
    assert "occupancy" in capsys.readouterr().out


def test_bench_check_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main

    fresh = tmp_path / "fresh.json"
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(make_report(csr_p50=1.0)))
    fresh.write_text(json.dumps(make_report(csr_p50=1.0)))
    assert (
        main(["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]) == 0
    )
    assert "bench-check OK" in capsys.readouterr().out

    fresh.write_text(json.dumps(make_report(csr_p50=2.0)))
    assert (
        main(["bench-check", "--fresh", str(fresh), "--baseline", str(baseline)]) == 1
    )
    out = capsys.readouterr().out
    assert "kernel csr" in out
