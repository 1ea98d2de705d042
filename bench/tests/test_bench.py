"""Smoke test of the benchmark itself, at tiny sizes.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._use_source_tree()

import entgeo.closedform  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = {"campaign": {"chunk": 2}, "state3": {}, "wide": {"ns": (4, 5), "pool": 2}}


def tiny(name, tmp_path, seed=3):
    return workloads.make(name, seed, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_end_to_end_metric_is_emitted(name, tmp_path):
    wl = tiny(name, tmp_path)
    result = run.measure(wl, seconds=0.05)
    setup = {"setup_s": 0.1}
    metrics, _ = run.end_to_end(result, setup)
    assert result["failed"] == 0, result["reasons"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_per_layer_metric_is_emitted(name, tmp_path):
    wl = tiny(name, tmp_path)
    tr = tracer.Tracer()
    result = run.measure(wl, seconds=0.1, tracer=tr)
    metrics, _ = run.per_layer(result, tr)
    assert result["failed"] == 0, result["reasons"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    # the run leaves no wrapper behind
    assert not hasattr(entgeo.closedform.correlation_matrix, "__wrapped__")


def test_wrong_reference_counts_as_failure(tmp_path):
    wl = tiny("wide", tmp_path)
    unit = wl.unit(0)
    known = next(c for c in unit if c.inputs["expected"] is not None)
    known.inputs["expected"] += 1e-3
    result = run.measure(wl, seconds=0.01)
    metrics, details = run.end_to_end(result, {"setup_s": 0.1})
    assert result["failed"] == 1
    assert details["fail_frac"] == pytest.approx(1 / result["attempted"])
    assert metrics["pass_frac"]["value"] < 1.0


def test_tail_percentile_leaves_ten_samples_above():
    samples = list(range(1, 201))
    p, value = run.tail_percentile(samples)
    assert p == 95 and sum(s > value for s in samples) == 10


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(
        "results", ".work-*", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "state3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_library_exception_counts_as_failure(tmp_path):
    wl = tiny("state3", tmp_path)
    execute = wl.execute
    raised = []

    def flaky(call):
        if not raised:
            raised.append(call)
            raise ValueError("invariant out of range")
        return execute(call)

    wl.execute = flaky
    result = run.measure(wl, seconds=0.05)
    assert result["failed"] == 1
    assert result["reasons"] == ["ValueError: invariant out of range"]
    assert result["attempted"] > 1
