"""The runner's output contract, its failure path, and the compare mode.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
Each runner test makes one short benchmark run (about ten seconds).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import compare  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    SPEC = json.load(_f)


def _run(root, *args):
    return subprocess.run([sys.executable, os.path.join(root, "perfbench", "run.py"),
                           *args], cwd=root, capture_output=True, text=True,
                          timeout=180)


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == set(tracer.METRICS) | {"trace.overhead"}
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"]


@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_the_result_line(tmp_path, trace):
    out = tmp_path / "runs.jsonl"
    proc = _run(ROOT, "--workload", "netcontract", "--seed", "3", "--seconds", "1",
                "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 2 and result["attempted"] % 2 == 0
    if trace:
        wanted = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    else:
        wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(out.read_text().splitlines()[-1])
    assert record["workload"] == "netcontract" and record["metrics"] == result["metrics"]


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    proc = _run(str(tmp_path), "--workload", "qsim", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _runs(workload, values, failed=0):
    return [{"workload": workload, "attempted": 10, "failed": failed,
             "metrics": {"round_s": {"value": v, "unit": "s"}}} for v in values]


def test_compare_applies_the_bounds():
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "round_s")
    base = _runs("dmrg-u1", [10.0, 10.2, 9.8, 10.1])
    same = _runs("dmrg-u1", [10.1, 10.0, 9.9, 10.2])
    slower = _runs("dmrg-u1", [10.0 * (1 + 2 * bound)] * 4)
    assert compare.compare(base, same, SPEC)[1]
    lines, ok = compare.compare(base, slower, SPEC)
    assert not ok and any("WORSE" in line for line in lines)
    assert not compare.compare(base, _runs("dmrg-u1", [10.0] * 4, failed=1), SPEC)[1]


def test_summary_uses_quartiles():
    med, q1, q3 = compare.summary([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
