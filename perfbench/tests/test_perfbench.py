"""Tests of the benchmark itself, at smoke size (not part of the tier-1 suite).

    python3 -m pytest perfbench/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import gate  # noqa: E402
import run  # noqa: E402
from workloads import CANONICAL_SEED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=ROOT, timeout=300)
    return proc, proc.stdout.strip().splitlines()


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_declared_workloads_and_units_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for kind in ("end_to_end", "per_layer"):
        for m in SPEC[kind]:
            assert run.unit_of(m["name"]) == m["unit"], m["name"]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_reports_every_end_to_end_metric(workload):
    proc, lines = _bench(["--workload", workload, "--smoke", "--seconds", "0.5"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "gate passed=True outputs_identical=True" in lines


def test_traced_smoke_run_reports_every_per_layer_metric():
    proc, lines = _bench(["--workload", "extremal-lanczos", "--smoke", "--seconds", "0.5",
                          "--trace", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"]
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == _declared("per_layer")
    assert metrics["eigen.extremal_topk.calls"]["value"] == 6
    assert metrics["eigen.extremal_topk.converged_frac"]["value"] == 1.0
    assert metrics["operators.apply.calls"]["value"] > 6
    assert 0.0 < metrics["eigen.extremal_topk.share"]["value"] <= 1.0


def test_gate_catches_a_perturbed_csv(tmp_path):
    bench = run.Bench(WORKLOADS["extremal-lanczos"], CANONICAL_SEED, True, tmp_path)
    bench.rep()
    verdict = bench.gate()
    assert verdict == {"passed": True, "outputs_identical": True, "problems": []}

    csv = tmp_path / "rep0" / "extremal_L200.csv"
    lines = csv.read_text().splitlines()
    cells = lines[1].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-6))  # e1_raw of trial 0
    lines[1] = ",".join(cells)
    csv.write_text("\n".join(lines) + "\n")

    cfg = bench.config(tmp_path / "rep0").to_dict()
    assert any("e1_raw" in p for p in gate.oracle_check(cfg, tmp_path / "rep0"))
    ref = json.loads(run.reference_path("extremal-lanczos", True).read_text())
    identical, problems = gate.compare_reference(
        ref, gate.snapshot(tmp_path / "rep0", "extremal", cfg))
    assert not identical and any("e1_raw" in p for p in problems)
    assert bench.gate()["passed"] is False


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ids-bulk",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
