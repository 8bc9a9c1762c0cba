"""Smoke test of the benchmark itself, on n≈40 versions of every workload.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that each run passes its correctness gate and emits exactly the
metrics ``BENCHMARK.json`` names, with their units; that the traced
run's span self times (``pipeline.self_s`` included) account for each
call's wall time; and that the benchmark fails without a source tree.
The first test of a fresh checkout trains the EMF (a few minutes).
"""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (BENCHMARK.json's workloads + wide2k)
SEED = 3


def run(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYSPARK")}
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=900,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout
    assert out["attempted"] >= 2 and out["failed"] == 0
    return out


def check_metrics(out: dict, declared: list[dict]) -> None:
    assert set(out["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = out["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    out = result(run(workload, 0))
    check_metrics(out, SPEC["end_to_end"])
    for m in SPEC["end_to_end"]:
        value = out["metrics"][m["name"]]["value"]
        assert value > 0 if m["unit"] in ("s", "MB") else value >= 0, m


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_accounts_for_wall_time(workload):
    out = result(run(workload, 1))
    check_metrics(out, SPEC["per_layer"])
    path = os.path.join(HERE, ".cache", "out", f"{workload}-tiny-s{SEED}-t1.json")
    with open(path) as f:
        record = json.load(f)
    traced = [c for c in record["calls"] if c["traced"]]
    assert traced
    for c in traced:
        acc = c["accounting"]
        assert acc["self_sum_s"] == pytest.approx(acc["root_s"], abs=1e-6)
        assert 0 <= acc["wall_s"] - acc["root_s"] <= max(2e-3, 0.01 * acc["wall_s"])
    m = out["metrics"]
    if workload.endswith("spark"):
        assert m["spark.jobs"]["value"] > 0 and m["spark.action_s"]["value"] > 0
    else:
        assert m["encoding.canonical_calls"]["value"] > 0
        assert m["nn.embed_rows"]["value"] > 0 and m["av.pairs"]["value"] > 0


def test_fails_without_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns(".cache", "__pycache__"))
    proc = run(WORKLOADS[0], 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
