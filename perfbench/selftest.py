"""Self-tests of the benchmark.  They are kept out of the tier-1 suite
(the file name does not match ``test_*.py``) because they run the
benchmark itself; run them with

    python3 -m pytest -q perfbench/selftest.py
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

bench.pin_environment()

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    out = _bench("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    want = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in want}
    for m in want:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") and line.endswith(" " + m["unit"]) for line in lines)
    assert any(line.startswith("fail_frac ") for line in lines)


@pytest.mark.parametrize("workload", ["paged_check", "compile_rt"])
def test_counts_and_digests_repeat_exactly(workload):
    # a tiny --seconds runs exactly one check, or one whole compile cycle
    a = workloads.run_workload(workload, 3, 0.001, trace=True)
    b = workloads.run_workload(workload, 3, 0.001, trace=True)
    assert a.digests and a.digests == b.digests
    assert a.sim_counts == b.sim_counts
    assert a.programs == b.programs
    assert (a.attempted, a.failed) == (b.attempted, b.failed)


def test_known_compile_defect_stays_in_fail_frac():
    res = workloads.run_workload("compile_rt", 1, 0.001, trace=False)
    assert (res.attempted, res.failed, res.incorrect) == (100, 4, 0)
    assert res.layer_failures == {"passes": 4}
    assert all("gemm_256/" in e and "/vertical" in e for e in res.errors)


def test_other_failed_compile_is_incorrect(monkeypatch):
    real = workloads.match_target_size

    def reject_dot8(fn, target):
        if target.name == "dot8":
            raise workloads.PassError([])
        return real(fn, target)

    monkeypatch.setattr(workloads, "match_target_size", reject_dot8)
    res = workloads.run_workload("compile_rt", 1, 0.001, trace=False)
    # 5 fixtures x 4 hints newly fail on dot8, beside the 4 known failures
    assert (res.attempted, res.failed, res.incorrect) == (100, 24, 20)


def test_wrong_reference_counts_as_failed_check(monkeypatch):
    real = workloads.make_problem

    def skewed(fx, seed=None):
        prob = real(fx, seed=seed)
        return dataclasses.replace(prob, expected={k: v * 1.5 for k, v in prob.expected.items()})

    monkeypatch.setattr(workloads, "make_problem", skewed)
    res = workloads.run_workload("paged_check", 3, 0.001, trace=False)
    assert (res.attempted, res.failed, res.incorrect) == (1, 1, 1)
    assert res.layer_failures == {"oracle": 1}
    assert bench.run_facts(res)["fail_frac"][0] == 1.0


def test_bit_mismatch_between_paired_levels_counts_as_failed_check(monkeypatch):
    real = workloads.run

    def flip_visa(prog, launch, mem, trace=None):
        out = real(prog, launch, mem, trace=trace)
        if not hasattr(prog, "level"):  # a VProgram: nudge one output value by one ulp
            raw = out.raw("O")
            raw[0] = workloads.np.nextafter(raw[0], workloads.np.float32(2))
        return out

    monkeypatch.setattr(workloads, "run", flip_visa)
    res = workloads.run_workload("paged_check", 3, 0.001, trace=False)
    assert (res.failed, res.incorrect) == (1, 1)
    assert any("intrinsic and visa outputs differ" in e for e in res.errors)


def test_dynamic_bytes_match_static_stats():
    gemm = bench.per_layer(workloads.run_workload("gemm_check", 3, 0.001, trace=True))
    assert gemm["sim.bytes_loaded_vs_static"][0] == 1.0
    paged = bench.per_layer(workloads.run_workload("paged_check", 3, 0.001, trace=True))
    # paged_warp: 7 warps skip the 128 B Q load under scf.if warp==0, which
    # count_stats counts for every warp
    assert paged["sim.static_minus_dynamic_bytes"][0] == 7 * 128


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "gemm_check", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
