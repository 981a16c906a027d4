"""The benchmark's traced runs: one seed-0 iteration of each workload of
`gzbench/workloads.py` under the tracer of `gzbench/spans.py` must finish,
write the reference bytes, and report every per-layer metric of
`BENCHMARK.json` that the workload reaches. The files are only read."""
import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "gzbench"

# the per-layer metrics each workload reaches: those whose names start with
# one of these prefixes; models are loaded only by `evaluate`
REACHED = {
    "sp-train": ("models.RF.", "models.ADA.", "models.GPC.", "models.DT.", "models.NB.",
                 "models.SVC.", "models.LR.", "models.PERC.", "models.save_s",
                 "data.split_s", "data.rows_", "simulate.", "metrics.", "pipeline.weight_s"),
    "novelty-vms": ("novelty.",),
    "evaluate": ("models.load_s", "data.load_csv_s", "metrics."),
}


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", list(REACHED))
def test_traced_iteration_reports_every_layer(name, tmp_path, monkeypatch):
    spans = _load("spans", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    workload = workloads.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workload.prepare(0, str(inputs))
    tracer = spans.Tracer(spans.gazescreen_targets())
    t0 = time.perf_counter()
    with tracer.installed():
        workload.run(0, str(inputs), str(tmp_path / "out"))
    layers = spans.layer_metrics(tracer.spans, time.perf_counter() - t0)

    reference = json.loads((BENCH / "references.json").read_text())[name]["0"]
    assert workloads.file_digests(str(tmp_path / "out"), workload.outputs) == reference
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    expected = [m for m in per_layer if m.startswith(REACHED[name])]
    assert expected
    assert [m for m in expected if m not in layers] == []
