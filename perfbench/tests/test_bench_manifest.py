"""BENCHMARK.json names exactly the metrics the benchmark reports."""

import json
from pathlib import Path

from geaccbench.common import END_TO_END
from geaccbench.layers import PER_LAYER

MANIFEST = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_match_the_manifest():
    assert [(m["name"], m["unit"]) for m in MANIFEST["end_to_end"]] == list(END_TO_END)


def test_per_layer_metrics_match_the_manifest():
    assert [(m["name"], m["unit"]) for m in MANIFEST["per_layer"]] == list(PER_LAYER)

