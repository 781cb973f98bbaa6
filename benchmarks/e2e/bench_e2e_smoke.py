"""Smoke test of the end-to-end benchmark at tiny sizes.

Not collected by a bare ``pytest`` (the file name does not match
``test_*.py``); run it explicitly::

    python -m pytest benchmarks/e2e/bench_e2e_smoke.py -q

It runs every workload once with ``--smoke --trace 1`` and checks the
contract of ``run.py``: every metric ``BENCHMARK.json`` names is emitted
with its unit, no operation failed, every injected fault that changed an
output was detected, and the traced replay reproduced the untraced
verdicts and outputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SMOKE_BUDGET_S = 20.0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "smoke.jsonl"
    started = time.perf_counter()
    lines = {}
    for workload in WORKLOADS:
        proc = _run(
            ROOT, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", "1", "--smoke", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        lines[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    elapsed = time.perf_counter() - started
    records = {
        r["workload"]: r
        for r in map(json.loads, out.read_text(encoding="utf-8").splitlines())
    }
    return lines, records, elapsed


def test_smoke_runs_fit_the_budget(smoke_runs):
    assert smoke_runs[2] < SMOKE_BUDGET_S


@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_follows_the_contract(smoke_runs, workload):
    line = smoke_runs[0][workload]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_its_unit(smoke_runs, workload):
    metrics = smoke_runs[1][workload]["metrics"]
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metrics[spec["name"]]["unit"] == spec["unit"], spec["name"]
        assert np.isfinite(metrics[spec["name"]]["value"]), spec["name"]
    for spec in SPEC["end_to_end"]:
        assert metrics[spec["name"]]["value"] > 0, spec["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_errors_full_detection_faithful_replay(smoke_runs, workload):
    record = smoke_runs[1][workload]
    assert record["error_rate"] == 0, record["errors"]
    assert record["metrics"]["detect_rate"]["value"] == 1.0
    assert record["replay_matches"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = _run(tmp_path, "--workload", "reduce-zipf", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_exchange_frames_are_checked_against_the_ring():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import stream
        from repro.comm import proc_backend
    finally:
        del sys.path[:2]
    capacity = proc_backend._DEFAULT_DATA_CAP
    chunks, _ = stream.make_inputs(seed=1, smoke=True)
    assert stream.largest_exchange_frame(chunks) <= capacity
    # Two chunks of 20 000 distinct keys: each PE sends about 320 KB.
    wide = np.arange(80_000, dtype=np.uint64).reshape(2, 2, -1)
    ones = np.ones(20_000, dtype=np.int64)
    big = [[(wide[r, c], ones) for c in range(2)] for r in range(2)]
    assert stream.largest_exchange_frame(big) > capacity
