"""Tests of the benchmark harness on tiny inputs.

The tiny inputs are a 2x2 periodic lattice at N=2, an 8^3 grid and one
bundled config. Most tests start ``run.py`` the way the benchmark is run.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import passes
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _bench(workload, trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", workload, "--seed", "5",
           "--seconds", "0.1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    return result


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


def test_benchmark_json_matches_harness():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert BENCHMARK["per_layer"] == [{"name": name, "unit": unit, "better": "lower"}
                                      for name, unit, _, _ in workloads.LAYERS]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_end_to_end_metrics_emitted_with_units(workload):
    result = _result(_bench(workload, trace=0))
    assert _units(result["metrics"]) == run.END_TO_END_UNITS
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_layer_metric(workload):
    result = _result(_bench(workload, trace=1))
    metrics = result["metrics"]
    assert _units(metrics) == {name: unit for name, unit, _, _ in workloads.LAYERS}
    tiny_configs = workloads.WORKLOADS["cli_configs"]["tiny"]["configs"]
    skipped = {"trace.overhead_s"} | {"cli." + name[:-4] + "_s" for name in
                                      workloads.BUNDLED_CONFIGS if name not in tiny_configs}
    own = [name for name, _, where, _ in workloads.LAYERS
           if (where == "all" or workload in where.split()) and name not in skipped]
    assert own and all(metrics[name]["value"] > 0 for name in own)
    with open(os.path.join(HERE, "out", f"trace-{workload}-5.json"), encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    assert spans and all({"name", "start", "end", "parent"} <= set(s) for s in spans)


@pytest.mark.parametrize("workload, key, wrong", [
    ("gauge_spectrum", "ground_energy", -12.5),
    ("gauge_spectrum", "max_deviation", 0.3),
    ("gauge_certify", "invariant_dim", 31),
])
def test_wrong_reference_value_counts_as_failure(monkeypatch, workload, key, wrong):
    monkeypatch.setitem(workloads.WORKLOADS[workload]["tiny"], key, wrong)
    result = passes.run_pass(workload, seed=5, t0=0.0, tiny=True)
    assert result["failed"] / result["attempted"] > 0
    assert any(key.split("_")[0] in f for f in result["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("gauge_spectrum", trace=0, cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
