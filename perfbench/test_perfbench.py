"""Tests of the benchmark itself: tiny runs of every workload emit every
metric BENCHMARK.json names, and the correctness checks catch a wrong edit
distance and a non-finite synthesis output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import flowtts.evaluation  # noqa: E402
import flowtts.pipeline  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_tiny(name, tmp_path, trace=False):
    return workloads.run_workload(name, seed=3, seconds=0.0, trace=trace,
                                  workdir=str(tmp_path), sizes=workloads.TINY)


def test_benchmark_lists_exactly_the_implemented_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(name, tmp_path):
    plain = run_tiny(name, tmp_path)
    assert {m["name"] for m in SPEC["end_to_end"]} <= set(plain.metrics)
    for m in SPEC["end_to_end"]:
        assert plain.metrics[m["name"]] > 0, m["name"]
    traced = run_tiny(name, tmp_path, trace=True)
    assert {m["name"] for m in SPEC["per_layer"]} <= set(traced.metrics)
    assert not traced.trace["unavailable"]
    assert plain.correct and traced.correct, plain.failed_checks + traced.failed_checks


def test_wrong_levenshtein_is_caught(tmp_path, monkeypatch):
    original = flowtts.evaluation.levenshtein
    monkeypatch.setattr(flowtts.evaluation, "levenshtein", lambda a, b: original(a, b) + 1)
    result = run_tiny("eval_cer", tmp_path)
    assert not result.correct and result.failed > 0
    assert any("independent DP" in label for label in result.failed_checks)


def test_non_finite_synthesis_is_caught(tmp_path, monkeypatch):
    def nan_patch(state, *args, **kwargs):
        return np.full(state.config.d_patch, np.nan, dtype=state.dtype)

    monkeypatch.setattr(flowtts.pipeline, "sample_patch", nan_patch)
    result = run_tiny("synth_short", tmp_path)
    assert not result.correct and result.failed > 0


def test_tracer_restores_every_rebound_attribute(tmp_path):
    before = dict(vars(flowtts.pipeline))
    backward = flowtts.autodiff.Tape.backward
    run_tiny("train", tmp_path, trace=True)
    assert dict(vars(flowtts.pipeline)) == before
    assert flowtts.autodiff.Tape.backward is backward


@pytest.mark.parametrize("a,b,expected", [
    ("", "", 0), ("", "abc", 3), ("kitten", "sitting", 3), ("flaw", "lawn", 2),
    ("ไทย", "ไท", 1), ("abc", "abc", 0),
])
def test_independent_edit_distance(a, b, expected):
    assert inputs.edit_distance(a, b) == expected == inputs.edit_distance(b, a)


def test_run_without_sources_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "trajectory"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
