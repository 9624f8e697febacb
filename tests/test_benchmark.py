"""Smoke test of the benchmark harness: each workload that
``BENCHMARK.json`` declares runs one short closed loop through
``perfbench/run.py`` and must report every op correct and none failed,
so a package change that breaks the harness's imports or its output
checks fails here. The harness writes its results under the ignored
``perfbench/out/``. Its per-layer rows name package functions; a row
whose function is gone reports zero calls, so the rows that resolve to
nothing may not grow."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]

# the per-layer rows (``<module>.<qualname>.<stat>``) whose function the
# package no longer defines; moving code may shrink this set, never grow it
UNRESOLVED_LAYERS = {
    "backend.ToyBackend.embed_ids",
    "backend.ToyBackend.generate",
    "backend.ToyBackend.log_probs_ids",
    "backend.ToyBackend.masked_logits_ids",
    "negatives.generate_nonoptimal",
    "negatives.token_replace",
    "objective.accumulated_total_loss",
    "objective.cl_batch_loss",
    "objective.cl_sample_loss",
    "objective.nll_ids",
    "objective.nll_value_ids",
    "objective.total_loss",
    "objective.total_loss_value",
}


def _resolves(layer: str) -> bool:
    """Whether ``<module>.<qualname>`` names a function of ``inferbench``,
    looked up as the harness's tracer looks it up."""
    module, *path = layer.split(".")
    owner = importlib.import_module(f"inferbench.{module}")
    for part in path:
        owner = getattr(owner, part, None)
    return callable(owner)


def test_no_more_per_layer_rows_resolve_to_nothing():
    layers = {row["name"].rsplit(".", 1)[0] for row in BENCHMARK["per_layer"]}
    unresolved = {layer for layer in layers if not _resolves(layer)}
    assert unresolved <= UNRESOLVED_LAYERS, sorted(unresolved - UNRESOLVED_LAYERS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_benchmark_workload_runs_correct(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, done.stdout[-2000:]
    assert result["failed"] == 0, done.stdout[-2000:]
