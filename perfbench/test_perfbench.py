"""Self-tests of the benchmark at reduced size.

Run from the repository root: python3 -m pytest perfbench
"""

import copy
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_matches_harness():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    result = run.run(workload, workloads.DEFAULT_SEED, 0.0, bool(trace), smoke=True)
    lines = run.summary_lines(result)
    final = json.loads(lines[-1])
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] and final["failed"] == 0 and final["attempted"] >= 1, result["failures"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in final["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    for m in declared:
        assert any(line.startswith(f"{m['name']} ") and f" {m['unit']} " in line for line in lines)
    assert all(isinstance(v["value"], (int, float)) for v in final["metrics"].values())
    for key in ("ipcap", "numpy", "python", "blas", "threads", "nproc", "seed", "config_sha256"):
        assert key in result["provenance"]
    assert set(result["provenance"]["threads"].values()) == {str(run.BLAS_THREADS)}


def _wrong(reference: dict) -> dict:
    wrong = copy.deepcopy(reference)
    if "divergence" in wrong:
        p = wrong["divergence"][0][1]
        wrong["divergence"][0][1] = p + 0.5 if p < 0.5 else p - 0.5
    else:
        first = sorted(wrong["raw"])[0]
        wrong["raw"][first] += 1e-9
    return wrong


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_wrong_reference_fails_the_output_check(workload):
    first = run.run(workload, workloads.DEFAULT_SEED, 0.0, False, smoke=True)
    outdir = run.OUT / "work" / workload / "run"
    files = workloads.output_files(workload, first["samples"][0]["basename"], outdir)
    reference = workloads.reference_from_output(workload, files)
    assert run.run(workload, workloads.DEFAULT_SEED, 0.0, False, smoke=True, reference=reference)["failed"] == 0

    result = run.run(workload, workloads.DEFAULT_SEED, 0.0, False, smoke=True, reference=_wrong(reference))
    assert result["failed"] == result["attempted"] >= 1
    assert not json.loads(run.summary_lines(result)[-1])["correct"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ipc_many_targets", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
