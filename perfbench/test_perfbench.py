"""Tests of the benchmark itself, on a tiny model.

    python3 -m pytest perfbench

No test here asserts a timing; they check the metric set against
BENCHMARK.json, that outputs pass their checks, and that tracing changes no
result bit.
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.use_checkout_source()
import workloads  # noqa: E402  (needs the checkout's src on the path)

TINY = workloads.TINY
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(name):
    result = run.run(name, seed=5, seconds=0.0, trace=0, scale=TINY)["result"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == TINY.warmup + TINY.min_ops
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 and math.isfinite(v["value"]) for v in result["metrics"].values())
    json.loads(json.dumps(result))


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_per_layer_metrics_emitted_and_spans_written(name, tmp_path):
    spans = tmp_path / "spans.npz"
    result = run.run(name, seed=5, seconds=0.0, trace=1, scale=TINY, spans_path=spans)["result"]
    assert result["correct"] and result["failed"] == 0
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    assert all(math.isfinite(v) for v in metrics.values())
    # self times partition each traced operation: named layers plus the rest
    assert metrics["trace.layers_ms"] + metrics["trace.unattributed_ms"] == pytest.approx(
        metrics["trace.op_ms"], rel=1e-9
    )
    assert metrics["model.decoder_fwd_total_ms"] > metrics["model.decoder_fwd_ms"] > 0
    with np.load(spans) as f:
        names = list(f["names"])
        assert "bench.op" in names and "ops.matmul" in names
        assert len(f["start"]) == len(f["end"]) == len(f["parent"]) == len(f["op"])
        assert (f["end"] >= f["start"]).all()


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tracing_leaves_outputs_bitwise_equal(name):
    plain = run.run(name, seed=7, seconds=0.0, trace=0, scale=TINY)
    traced = run.run(name, seed=7, seconds=0.0, trace=1, scale=TINY)
    assert None not in plain["digests"]
    assert plain["digests"] == traced["digests"]
    assert plain["sha256"] == traced["sha256"]


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "train", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
