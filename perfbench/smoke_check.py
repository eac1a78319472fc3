"""Smoke test of the benchmark: every workload on a few inputs, untraced
and traced, plus the input and refusal contracts.

    python3 -m pytest -q perfbench/smoke_check.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_reports_every_metric(name, trace):
    wl = WORKLOADS[name]
    result = run.bench(wl, wl.keys(0)[:4], seconds=0, trace=bool(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == units("per_layer" if trace else "end_to_end")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        lp_calls = values["linprog.lp_solve.calls"]
        assert lp_calls == 0 if name == "verify-pe" else lp_calls > 0
    else:
        assert values["certified_ratio"] == 1.0  # failed_ratio 0
        assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_picks_recorded_inputs(name):
    wl = WORKLOADS[name]
    reference = run.load_reference(wl)
    assert set(reference) == set(wl.all_keys())
    keys = wl.keys(7)
    assert keys == wl.keys(7) and keys != wl.keys(8)
    assert sorted(keys) == sorted(reference)
    assert run.TAIL_BEYOND < len(keys)


def test_refuses_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "verify-pe",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""
