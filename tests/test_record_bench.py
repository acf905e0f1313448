"""`tools/record_bench.py`'s parsing and aggregation, on canned run output:
no benchmark subprocess runs here."""

import json
import subprocess

import pytest

from bench import steadiness
from tools import record_bench

MANIFEST = {"commit": "40c891ff4f6a251a42be511159b7a543068e937e", "python": "3.11.7",
            "numpy": "2.4.6", "blas": "scipy-openblas 0.3.29",
            "blas_threads": {"OPENBLAS_NUM_THREADS": "1"}, "nproc": 2}


def run_stdout(workload, seed, p90, p50, rss=40.0, setup=1e-3, correct=True, failed=0):
    """What bench/run.py --trace 0 prints: a summary line, the manifest, the result."""
    manifest = {**MANIFEST, "workload": workload, "seed": seed, "op_ms_p50": p50,
                "attempted": 100, "failed": failed}
    result = {"correct": correct, "attempted": 100, "failed": failed, "metrics": {
        "setup_s": {"value": setup, "unit": "s"}, "op_ms_p90": {"value": p90, "unit": "ms"},
        "peak_rss_mb": {"value": rss, "unit": "MB"}}}
    return (f"{workload} seed={seed} trace=0 attempted=100 op_ms_p50={p50} ms\n"
            f"manifest {json.dumps(manifest, sort_keys=True)}\n{json.dumps(result)}\n")


def test_parse_run_reads_result_and_manifest():
    run = record_bench.parse_run(run_stdout("alloc_dense", 7, p90=2.5, p50=2.0, failed=1))
    assert run["workload"] == "alloc_dense" and run["seed"] == 7
    assert (run["correct"], run["attempted"], run["failed"]) == (True, 100, 1)
    assert run["metrics"] == {"setup_s": 1e-3, "op_ms_p90": 2.5, "peak_rss_mb": 40.0,
                              "op_ms_p50": 2.0}


def test_parse_run_needs_one_manifest_line():
    with pytest.raises(ValueError, match="one manifest line"):
        record_bench.parse_run('{"correct": true}\n')


def test_aggregate_gives_median_and_quartiles_per_workload():
    p90s = [5.0, 1.0, 4.0, 2.0, 3.0]
    runs = [record_bench.parse_run(run_stdout(w, seed=2 * i + (w == "b"), p90=p90, p50=p90 / 2,
                                              correct=(w, i) != ("b", 3), failed=i))
            for i, p90 in enumerate(p90s) for w in ("a", "b")]
    table = record_bench.aggregate(runs)
    assert list(table) == ["a", "b"]
    assert table["a"]["seeds"] == [0, 2, 4, 6, 8] and table["b"]["seeds"] == [1, 3, 5, 7, 9]
    assert table["a"]["correct"] and not table["b"]["correct"]
    assert table["a"]["failed"] == 10 and table["a"]["attempted"] == 500
    assert table["a"]["metrics"]["op_ms_p90"] == {"median": 3.0, "q1": 1.5, "q3": 4.5,
                                                  "iqr": 3.0, "n": 5}
    assert table["b"]["metrics"]["op_ms_p50"]["median"] == 1.5
    assert set(table["a"]["metrics"]) == {"setup_s", "op_ms_p90", "peak_rss_mb", "op_ms_p50"}


def test_summary_takes_quartiles_as_steadiness_does():
    assert record_bench.summary([1.0, 2.0, 3.0, 4.0]) == {
        "median": 2.5, "q1": 1.25, "q3": 3.75, "iqr": 2.5, "n": 4}
    values = [6.9, 7.4, 6.4, 7.5, 7.1, 6.2]
    row = record_bench.summary(values)
    assert (row["median"], row["iqr"] / row["median"]) == steadiness.spread(values)


def fake_run(monkeypatch, returncode, stdout, stderr=""):
    calls = []

    def run(cmd, **kwargs):
        calls.append(kwargs)
        return subprocess.CompletedProcess(cmd, returncode, stdout, stderr)
    monkeypatch.setattr(record_bench.subprocess, "run", run)
    return calls


SPEC = {"command": ["python3", "bench/run.py"], "run_seconds": 30}


def test_run_benchmark_records_a_failed_output_check(monkeypatch):
    calls = fake_run(monkeypatch, 1, run_stdout("a", 3, 1.0, 1.0, correct=False))
    assert record_bench.run_benchmark(None, SPEC, "a", 3)["correct"] is False
    assert calls[0]["timeout"] == 600


@pytest.mark.parametrize("returncode, stdout", [(1, ""), (1, "a seed=3\nTraceback\n"), (2, "")],
                         ids=["exit-1-silent", "exit-1-no-result", "exit-2"])
def test_run_benchmark_stops_on_a_crash(monkeypatch, returncode, stdout):
    fake_run(monkeypatch, returncode, stdout, stderr="ZeroDivisionError: boom")
    with pytest.raises(SystemExit, match=f"exited {returncode} .*\n.*boom"):
        record_bench.run_benchmark(None, SPEC, "a", 3)


def test_projection_splits_cold_and_warm_slots():
    full = record_bench.projection(6.0, 1.0, episodes=250, horizon=500, min_fill=1000)
    assert (full["slots"], full["cold_slots"], full["warm_slots"]) == (125_000, 999, 124_001)
    assert full["minutes"] == pytest.approx((999 * 1.0 + 124_001 * 6.0) / 60e3)
    short = record_bench.projection(6.0, 1.0, episodes=1, horizon=10, min_fill=1000)
    assert (short["cold_slots"], short["warm_slots"]) == (10, 0)


def test_record_holds_environment_projection_and_runs():
    runs = [record_bench.parse_run(run_stdout(w, seed, p90=3.0, p50=p50))
            for seed, (w, p50) in enumerate([("train_warm", 5.0), ("alloc_dense", 2.0),
                                             ("train_warm", 7.0), ("alloc_dense", 2.0)])]
    for run in runs:
        run.update(probe_before={"gemm_us": 20.0}, probe_after={"gemm_us": 21.0})
    fresh = {"warm_slot_ms_p50": 6.0, "cold_slot_ms_p50": 1.0}
    defaults = {"episodes": 2, "horizon": 10, "min_fill": 5}
    alloc = record_bench.alloc_summary({"10x4": {"full": [0.5, 0.7], "narrow": [0.3, 0.4]}})
    report = record_bench.record(runs, fresh, alloc, defaults)
    assert report["allocator"] == alloc
    assert report["environment"]["commit"] == MANIFEST["commit"]
    assert report["projected_full_run"]["fresh_process"]["minutes"] == pytest.approx(
        (4 * 1.0 + 16 * 6.0) / 60e3)
    assert report["projected_full_run"]["train_warm"]["minutes"] == pytest.approx(
        (4 * 1.0 + 16 * 6.0) / 60e3)    # the median of 5.0 and 7.0
    assert [run["probe_after"] for run in report["runs"]] == [{"gemm_us": 21.0}] * 4
    assert all("manifest" not in run for run in report["runs"])
    json.dumps(report)


def test_runs_from_different_checkouts_are_refused():
    runs = [record_bench.parse_run(run_stdout("a", 0, 1.0, 1.0)),
            record_bench.parse_run(run_stdout("a", 1, 1.0, 1.0))]
    runs[1]["manifest"]["commit"] = "0" * 40
    with pytest.raises(ValueError, match="disagree"):
        record_bench.environment([run["manifest"] for run in runs])


def test_alloc_summary_gives_medians_per_size_and_cone():
    times = {"10x4": {"full": [0.5, 0.9, 0.7], "narrow": [0.3, 0.4, 0.2]},
             "40x8": {"full": [2.0, 1.0], "narrow": [1.5, 1.5]}}
    assert record_bench.alloc_summary(times) == {
        "10x4": {"full_ms_p50": 0.7, "narrow_ms_p50": 0.3, "ms_p50": 0.45, "contexts": 6},
        "40x8": {"full_ms_p50": 1.5, "narrow_ms_p50": 1.5, "ms_p50": 1.5, "contexts": 4}}


def test_alloc_times_solves_every_seeded_context():
    times = record_bench.alloc_times(record_bench.REPO, sizes=((3, 2),), count=2)
    assert list(times) == ["3x2"] and {cone: len(ms) for cone, ms in times["3x2"].items()} == {
        "full": 2, "narrow": 2}
    assert all(t > 0 for ms in times["3x2"].values() for t in ms)


def test_alloc_contexts_are_seeded_bundles():
    from uavmec import delay, model
    narrow = [list(record_bench.alloc_contexts(model, delay, 4, 3, True, 2)) for _ in range(2)]
    assert [ctx.r0.tobytes() for ctx in narrow[0]] == [ctx.r0.tobytes() for ctx in narrow[1]]
    full = next(record_bench.alloc_contexts(model, delay, 4, 3, False, 1))
    assert full.coverage.all() and not narrow[0][0].coverage.all()
