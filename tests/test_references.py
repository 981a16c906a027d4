"""The benchmark's pinned output bytes: the `novelty-vms` and `sp-train`
workloads of `gzbench/workloads.py`, run at seed 0, must write files whose
sha256 equals `gzbench/references.json`. Both files are only read."""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "gzbench"


def _workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("gzbench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["novelty-vms", "sp-train"])
def test_seed_0_outputs_match_references(name, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS[name]
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    workload.prepare(0, str(inputs))
    workload.run(0, str(inputs), str(tmp_path / "out"))
    reference = json.loads((BENCH / "references.json").read_text())[name]["0"]
    assert workloads.file_digests(str(tmp_path / "out"), workload.outputs) == reference
