"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench

Exact per-layer counts must repeat, each workload must stay on the layers it
was chosen for (the predicted zeros), the pinned answer digests must hold,
and the benchmark must refuse to run without the program's sources.
"""

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import worker  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PREFIX = 30  # tasks per workload in the count checks, to keep them quick

# layer calls each workload must never make
PREDICTED_ZEROS = {
    "scan": ("simplex.lp.calls",),
    "lp_closure": ("cli.calls", "normality.calls"),
    "certify": ("kernels.scan.calls", "cli.calls"),
}


def traced_counts(name, specs):
    with Tracer() as tracer:
        worker._run_pass(WORKLOADS[name], specs, tracer)
    return layer_metrics(tracer.spans, len(specs))[0]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_counts_repeat_and_predicted_zeros(name):
    specs = WORKLOADS[name].inputs(random.Random(run.DEFAULT_SEED))[:PREFIX]
    first = traced_counts(name, specs)
    assert traced_counts(name, specs) == first
    for key in PREDICTED_ZEROS[name]:
        assert first[key] == 0, key
    assert first["kernels.antichain.calls"] > 0


def test_each_workload_reaches_its_layer():
    def counts(name):
        return traced_counts(name, WORKLOADS[name].inputs(random.Random(2))[:PREFIX])

    scan = counts("scan")
    assert scan["normality.calls"] > 0 and scan["cli.calls"] > 0
    assert scan["normality.calls"] + scan["cli.calls"] // 2 == PREFIX
    lp = counts("lp_closure")
    assert lp["kernels.scan.calls"] == PREFIX and lp["simplex.lp.calls"] > 0
    certify = counts("certify")
    assert certify["newton.witness.calls"] > 0 and certify["simplex.lp.calls"] > 0


def test_inputs_depend_only_on_the_seed():
    for name, w in WORKLOADS.items():
        assert w.inputs(random.Random(5)) == w.inputs(random.Random(5)), name
        assert w.inputs(random.Random(5)) != w.inputs(random.Random(6)), name


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pinned_digest(name):
    with open(os.path.join(HERE, "digests.json")) as f:
        pinned = json.load(f)[str(run.DEFAULT_SEED)][name]
    w = WORKLOADS[name]
    specs = w.inputs(random.Random(run.DEFAULT_SEED))
    _, _, outputs, _ = worker._run_pass(w, specs)
    assert worker._digest(worker._encode(w, specs, outputs)) == pinned


def test_tracer_patches_every_binding_and_restores():
    from monoclose import newton, simplex

    original = simplex.max_weight_lp
    with Tracer():
        assert newton.max_weight_lp is simplex.max_weight_lp
        assert newton.max_weight_lp is not original
    assert newton.max_weight_lp is original and simplex.max_weight_lp is original


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    counts, times = layer_metrics([], 1)
    produced = set(counts) | set(times) | {"trace.overhead_ratio"}
    assert produced == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END_UNITS) == {m["name"] for m in spec["end_to_end"]}
    assert set(WORKLOADS) == {w["name"] for w in spec["workloads"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_carries_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2000
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    assert "backend=" in proc.stdout and "fail_ratio" in proc.stdout
