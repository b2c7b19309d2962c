import json
from pathlib import Path

import run
from workloads import WORKLOADS

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_manifest_names_what_the_benchmark_prints():
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in MANIFEST["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in MANIFEST["per_layer"]} == run.PER_LAYER
