"""BENCHMARK.json's shape and spec.json's records."""

import json
import re
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_shape():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCHMARK["workloads"]] == \
        list(workloads.WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200
    names = [m["name"] for key in ("end_to_end", "per_layer")
             for m in BENCHMARK[key]] + \
        [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in BENCHMARK["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert UNIT.match(m["unit"]) and 0 < m["bound"] <= 0.25
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])
    for m in BENCHMARK["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and UNIT.match(m["unit"])


def test_every_per_layer_metric_is_mapped():
    prefixes = [p for p in SPEC["per_layer_moves"] if p != "about"]
    end_to_end = {m["name"] for m in BENCHMARK["end_to_end"]}
    for m in BENCHMARK["per_layer"]:
        assert any(m["name"].startswith(p) for p in prefixes), m["name"]
    for entry in (SPEC["per_layer_moves"][p] for p in prefixes):
        assert {x["metric"] for x in entry["moves"]} <= end_to_end
        assert {x["workload"] for x in entry["moves"]} \
            | set(entry["no_change_on"]) <= set(workloads.WORKLOADS)


def test_baseline_covers_every_workload_and_metric():
    e2e = SPEC["baseline"]["end_to_end"]["values"]
    layers = SPEC["baseline"]["per_layer"]["values"]
    for name in workloads.WORKLOADS:
        assert {m["name"] for m in BENCHMARK["end_to_end"]} \
            <= set(e2e[name])
        assert e2e[name]["fail_ratio"]["value"] == 0
        assert [m["name"] for m in BENCHMARK["per_layer"]] == \
            list(layers[name])
