"""Smoke tests of the benchmark itself, at tiny sizes.

Every workload must emit every metric named in BENCHMARK.json, and a wrong
output must make the output checks, and so the command, fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads
from uavmec import allocator, baselines, delay, learner, model
from uavmec import env as env_module

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
SECONDS = 0.05


def tiny_run(name, trace=False, seed=3):
    return workloads.run(name, seed, SECONDS, trace, workloads.TINY)


def test_units_match_benchmark_json():
    assert workloads.END_TO_END_UNITS == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert workloads.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_every_end_to_end_metric(name):
    report = tiny_run(name)
    assert report.correct, report.problems
    assert report.failed == 0 and report.attempted >= workloads.TINY.min_ops
    assert list(report.metrics) == list(workloads.END_TO_END_UNITS)
    assert all(np.isfinite(v) and v > 0 for v in report.metrics.values())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_emits_every_per_layer_metric(name):
    report = tiny_run(name, trace=True)
    assert report.correct, report.problems
    assert list(report.metrics) == list(workloads.PER_LAYER_UNITS)
    assert all(np.isfinite(v) for v in report.metrics.values())
    exercised = {"train_warm": "learner.update_ms", "alloc_dense": "allocator.cd_search_ms",
                 "rollout_mobile": "baselines.ao_allocate_ms"}[name]
    assert report.metrics[exercised] > 0
    assert report.metrics["delay.slot_context_ms"] > 0


def test_tracing_restores_the_package():
    originals = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    tiny_run("rollout_mobile", trace=True)
    after = [owner.__dict__[attr] for owner, attr, _, _ in tracing.PATCHES]
    assert after == originals


def report_wrong_dor(monkeypatch):
    """Make cd_search report a DOR 0.5 above the one its decision achieves."""
    real = allocator.cd_search

    def wrong_dor(ctx, *args, **kwargs):
        result = real(ctx, *args, **kwargs)
        result.dor += 0.5
        return result

    monkeypatch.setattr(allocator, "cd_search", wrong_dor)


def test_wrong_dor_fails_the_check(monkeypatch):
    report_wrong_dor(monkeypatch)
    report = tiny_run("alloc_dense")
    assert not report.correct
    assert any("recomputed" in p for p in report.problems)


def test_improvable_allocation_fails_the_check(monkeypatch):
    def all_local(ctx, *args, **kwargs):
        decision, metrics = allocator.evaluate_assignment(
            np.full(ctx.num_users, delay.LOCAL), ctx, validate=True)
        return allocator.AllocationResult(decision, metrics.dor, 1, True)

    monkeypatch.setattr(allocator, "cd_search", all_local)
    report = tiny_run("alloc_dense")
    assert not report.correct
    assert any("raises DOR" in p for p in report.problems)


def test_invalid_rollout_decision_fails_the_check(monkeypatch):
    real = baselines.ao_allocate

    def oversubscribed(ctx):
        result = real(ctx)
        result.decision.bandwidth_hz *= 2.0
        return result

    monkeypatch.setattr(baselines, "ao_allocate", oversubscribed)
    report = tiny_run("rollout_mobile")
    assert not report.correct
    assert any("does not validate" in p for p in report.problems)


def test_unrepeatable_training_fails_the_check(monkeypatch):
    real = env_module.EdgeComputeEnv.step
    calls = []

    def drifting_step(self, actions):
        obs, reward, info = real(self, actions)
        calls.append(1)
        return obs, reward + 1e-6 * len(calls), info

    monkeypatch.setattr(env_module.EdgeComputeEnv, "step", drifting_step)
    report = tiny_run("train_warm")
    assert not report.correct
    assert any("differs" in p for p in report.problems)


def test_train_warm_setup_stops_at_the_first_slot():
    methods = [(learner.MaddpgTrainer, "joint_actions"), (env_module.EdgeComputeEnv, "step")]
    originals = [owner.__dict__[attr] for owner, attr in methods]
    workload = workloads.TrainWarm(3, workloads.TINY)
    scenario = workload.setup()
    assert [owner.__dict__[attr] for owner, attr in methods] == originals
    initial = model.build_scenario(workload.scenario_config).uav_positions
    assert np.array_equal(scenario.uav_positions, initial)   # no UAV moved: no slot ran


def test_failed_check_exits_nonzero(monkeypatch, tmp_path, capsys):
    report_wrong_dor(monkeypatch)
    monkeypatch.setattr(workloads, "FULL", workloads.TINY)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    code = run.main(["--workload", "alloc_dense", "--seed", "0", "--seconds", str(SECONDS),
                     "--trace", "0"])
    assert code == 1
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is False


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "alloc_dense",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
