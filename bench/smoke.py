"""Smoke tests of the benchmark itself, on tiny inputs.

    python3 -m pytest bench/smoke.py

Run from the root of the checkout.  Every workload runs at a tiny size,
with and without tracing; every metric named in BENCHMARK.json must be
present with its unit; exact counts must repeat across two runs with one
seed, and the prove-n5 counts across two seeds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

EXACT_END_TO_END = ("proved", "incumbent_hits")
EXACT_PER_LAYER = (
    "solver.nodes",
    "solver.propagations",
    "models.rows",
    "lp.bytes",
    "verify.check_items",
)


@lru_cache(maxsize=None)
def run(workload: str, seed: int, trace: int, attempt: int = 0) -> dict:
    """Result line of one tiny run; ``attempt`` asks for a repeated run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _values(result: dict, names) -> dict:
    return {name: result["metrics"][name]["value"] for name in names}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_present_with_unit(workload, trace):
    result = run(workload, 1, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for metric in spec:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_with_one_seed(workload):
    assert _values(run(workload, 1, 0), EXACT_END_TO_END) == _values(
        run(workload, 1, 0, attempt=1), EXACT_END_TO_END
    )
    assert _values(run(workload, 1, 1), EXACT_PER_LAYER) == _values(
        run(workload, 1, 1, attempt=1), EXACT_PER_LAYER
    )


def test_prove_counts_do_not_depend_on_the_seed():
    assert _values(run("prove-n5", 1, 0), EXACT_END_TO_END) == _values(
        run("prove-n5", 2, 0), EXACT_END_TO_END
    )
    assert _values(run("prove-n5", 1, 1), EXACT_PER_LAYER) == _values(
        run("prove-n5", 2, 1), EXACT_PER_LAYER
    )


def test_end_to_end_metrics_are_never_zero():
    for workload in WORKLOADS:
        for name, metric in run(workload, 1, 0)["metrics"].items():
            assert metric["value"] > 0, (workload, name)


def test_refuses_to_run_without_the_sources(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
