"""Smoke test of the benchmark harness at tiny sizes (about half a minute).

    python3 -m pytest benchmarks/test_smoke.py

It records a reference at tiny sizes, then checks the output schema against
BENCHMARK.json, that every workload passes its correctness check against that
reference and fails it against an altered one, and that a traced run fails
when a layer it needs records no call. It does not look at timings.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run as bench  # noqa: E402  (pins the BLAS threads before numpy loads)
from record import record  # noqa: E402
from workloads import WORKLOADS, Sizes  # noqa: E402

TINY = Sizes(image=32, frames=3, val_split_candidates=2, pairs=2, matches=16,
             reference_candidates=6, pool_candidates=4, run_candidates=3,
             val_candidates=2, points=64)
SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
SEED = 7


@pytest.fixture(scope="module")
def reference(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("bench") / "reference.json"
    record(TINY, path)
    return path


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_output_schema_and_correct(reference, workload, trace):
    _, result = bench.run(workload, SEED, 0.1, trace, TINY, reference)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    json.loads(json.dumps(result, allow_nan=False))


def _altered(reference: Path, workload: str, tmp_path: Path) -> Path:
    data = json.loads(reference.read_text())
    if workload == "train":
        data["train"][0][0] *= 1.0 + 1e-4
    else:
        for candidate in data[workload]["candidates"]:
            candidate["converged"] = not candidate["converged"]
            candidate["error"] = 0.0
    path = tmp_path / "altered.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_mismatch_fails_the_run(reference, workload, tmp_path):
    summary, result = bench.run(workload, SEED, 0.1, False, TINY, _altered(reference, workload, tmp_path))
    assert result["correct"] is False
    assert summary["problems"]


def test_layer_without_calls_fails_loudly(reference, monkeypatch):
    intensity = WORKLOADS["reloc-intensity"]
    monkeypatch.setattr(intensity, "required_layers", intensity.required_layers + ("tensor.conv2d",))
    with pytest.raises(SystemExit, match="tensor.conv2d"):
        bench.run("reloc-intensity", SEED, 0.1, True, TINY, reference)
