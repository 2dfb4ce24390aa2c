import json
from pathlib import Path

from perfbench import layers, measure
from perfbench.workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == measure.END_TO_END


def test_per_layer_metrics_match():
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        row[:3] for row in layers.LAYER_METRICS
    ]
