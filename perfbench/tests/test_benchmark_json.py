import json
from pathlib import Path

from perfbench.run import WORKLOADS
from perfbench.workloads import per_layer_defaults

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmarked_workloads_are_runnable():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(WORKLOADS)


def test_every_traced_run_reports_every_declared_per_layer_metric():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == {name: unit for name, (_value, unit) in per_layer_defaults().items()}


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
