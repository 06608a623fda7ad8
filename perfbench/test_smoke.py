"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that every end-to-end and per-layer metric named in BENCHMARK.json
is printed with its unit, that a run failing its check counts in
failed_frac, that traced counts repeat at one seed, that a workload with
fresh inputs runs a new config per invocation and repeats the first, and
that the command fails without printing a result when the checkout has no
sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import run
from layers import PER_LAYER
from workloads import WORKLOADS

TINY = {
    "return-k1": dict(params={"n_list": "64 128 256 512", "k": "1"}, replicas=20),
    "return-k2": dict(params={"n_list": "16 32 64", "k": "2", "t_ratios": "1 2",
                              "scenery_draws": "64"}, replicas=20),
    "gram-joint": dict(params={"n": "1024", "t_list": "1 2", "fineness": "1024"},
                       replicas=20),
    "boxcount": dict(params={"fineness": "4096", "dt": "1/4096", "paths": "4"}),
    "oracle": dict(params={"times": "8", "n_max": "8"}),
}


def tiny(name, **changes):
    return dataclasses.replace(WORKLOADS[name], **TINY[name], **changes)


def benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_the_printed_metrics():
    spec = benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_printed_with_unit(name):
    result = run.run_benchmark(tiny(name), seed=1, seconds=0, trace=1,
                               min_invocations=1)
    lines = list(run.report_lines(result))
    for metric, unit in run.END_TO_END + PER_LAYER:
        assert any(line.startswith(f"  {metric}: ") and f" {unit} (" in line
                   for line in lines), metric
    assert any(line.startswith("  failed_frac: ") for line in lines)
    assert any(line.startswith("  reference process: ") for line in lines)
    assert run.result_line(result)["metrics"].keys() == dict(PER_LAYER).keys()
    result["trace"] = 0
    assert run.result_line(result)["metrics"].keys() == dict(run.END_TO_END).keys()


def test_failed_check_counts_in_failed_frac():
    workload = tiny("oracle", check=lambda w, out_dir: "forced failure")
    result = run.run_benchmark(workload, seed=1, seconds=0, trace=0,
                               min_invocations=2)
    assert result["attempted"] == result["failed"] == 2
    assert result["failed_frac"] == 1.0
    assert "  failed_frac: 1 frac (2 of 2 invocations)" in run.report_lines(result)
    assert run.result_line(result)["correct"] is False


def test_traced_counts_repeat_at_one_seed():
    counts = []
    for _ in range(2):
        result = run.run_benchmark(tiny("return-k2"), seed=3, seconds=0, trace=1,
                                   min_invocations=1)
        # tiny sizes miss the paper's slope; only repeatability is tested here
        assert not [e for e in result["errors"] if "differs" in e]
        counts.append({name: s["median"] for name, s in result["per_layer"].items()
                       if s["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["simkit.streams"] > 0 and counts[0]["scenery.draws"] > 0


def test_fresh_inputs_vary_and_repeat_the_first():
    result = run.run_benchmark(tiny("return-k1"), seed=1, seconds=0, trace=0,
                               min_invocations=3)
    assert result["attempted"] == 3
    assert list(result["digests"]) == [0, 1]
    assert result["digests"][0] != result["digests"][1]
    assert not [e for e in result["errors"] if "differs" in e]


def test_fails_without_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
