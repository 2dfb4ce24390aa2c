"""Wall-clock benchmark suite: smoke coverage at miniature scale."""

import json

import pytest

from repro.bench.wallclock import (
    KERNELS,
    WallclockCell,
    KernelTiming,
    run_wallclock,
    validate_query_report,
    write_report,
)


def test_run_wallclock_smoke(tmp_path):
    report = run_wallclock(
        distributions=("IND",),
        dims=(2,),
        sizes=(500,),
        k=5,
        queries=4,
        repeats=1,
        seed=7,
        batch_sizes=(1, 8),
    )
    assert report["suite"] == "wallclock"
    assert report["crosscheck"] == "bitwise"
    assert len(report["cells"]) == 1
    cell = report["cells"][0]
    assert cell["distribution"] == "IND" and cell["n"] == 500
    # The native column appears only when the compiled kernel is
    # loadable on this host; every other kernel is unconditional.
    from repro.core.native import native_ready

    expected = set(KERNELS) if native_ready() else set(KERNELS) - {"native"}
    assert set(cell["kernels"]) == expected
    for timing in cell["kernels"].values():
        assert timing["p50_ms"] > 0
        assert timing["p95_ms"] >= timing["p50_ms"]
    assert cell["speedup_p50"] > 0
    if "native" in cell["kernels"]:
        assert cell["speedup_native_p50"] > 0
    assert cell["mean_cost"] >= 5  # at least k tuples are evaluated
    # The query_batch-vs-loop sweep ran and was cross-checked before timing.
    assert [t["B"] for t in cell["batch"]] == [1, 8]
    for timing in cell["batch"]:
        assert timing["qps"] > 0
        assert timing["ms_per_query"] > 0
        assert timing["speedup_vs_loop"] > 0

    validate_query_report(report)  # round-trips through the schema check
    out = tmp_path / "BENCH_query.json"
    write_report(report, str(out))
    assert json.loads(out.read_text()) == report
    validate_query_report(json.loads(out.read_text()))


def test_batch_sweep_disabled():
    report = run_wallclock(
        distributions=("IND",),
        dims=(2,),
        sizes=(300,),
        k=3,
        queries=2,
        repeats=1,
        seed=9,
        batch_sizes=(),
    )
    assert report["cells"][0]["batch"] == []


def test_validate_query_report_rejects_malformed():
    report = run_wallclock(
        distributions=("IND",),
        dims=(2,),
        sizes=(300,),
        k=3,
        queries=2,
        repeats=1,
        seed=9,
        batch_sizes=(1,),
    )
    validate_query_report(report)
    for mutate in (
        lambda r: r.pop("cells"),
        lambda r: r["cells"].clear(),
        lambda r: r["cells"][0]["kernels"].pop("csr"),
        lambda r: r["cells"][0]["kernels"]["csr"].__setitem__("p50_ms", 0.0),
        lambda r: r["cells"][0]["batch"][0].__setitem__("B", 0),
        lambda r: r["cells"][0]["batch"][0].pop("qps"),
        lambda r: r.__setitem__("suite", "nonsense"),
    ):
        broken = json.loads(json.dumps(report))
        mutate(broken)
        with pytest.raises((ValueError, KeyError)):
            validate_query_report(broken)


def test_committed_baseline_is_schema_valid():
    from pathlib import Path

    baseline = Path(__file__).resolve().parents[2] / "BENCH_query.json"
    report = json.loads(baseline.read_text())
    validate_query_report(report)
    assert report["crosscheck"] == "bitwise"


def test_wallclock_grid_covers_all_cells(tmp_path):
    report = run_wallclock(
        distributions=("IND", "ANT"),
        dims=(2, 3),
        sizes=(200,),
        k=3,
        queries=2,
        repeats=1,
        seed=11,
    )
    combos = {(c["distribution"], c["d"], c["n"]) for c in report["cells"]}
    assert combos == {("IND", 2, 200), ("IND", 3, 200), ("ANT", 2, 200), ("ANT", 3, 200)}


def test_speedup_property():
    cell = WallclockCell(
        distribution="IND", d=2, n=10, k=1, build_seconds=0.0, mean_cost=1.0
    )
    cell.kernels["reference"] = KernelTiming(p50_ms=2.0, p95_ms=3.0, mean_ms=2.0)
    cell.kernels["csr"] = KernelTiming(p50_ms=0.5, p95_ms=1.0, mean_ms=0.6)
    assert cell.speedup_p50 == 4.0
