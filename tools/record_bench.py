"""Record BENCH_<short-rev>.json: the benchmark's end-to-end medians for one
checkout, next to readings of the machine's speed taken around each run.

    python3 tools/record_bench.py record --runs 5 --first-seed 30001
    python3 tools/record_bench.py record --root ../parent --out-dir .
    python3 tools/record_bench.py probe
    python3 tools/record_bench.py train --root .
    python3 tools/record_bench.py alloc --root .

`record` runs the command in the checkout's BENCHMARK.json (bench/run.py)
with --trace 0 for its run_seconds, one subprocess per run, alternating
workloads: round r runs each workload once, workload i on seed first_seed +
r * (number of workloads) + i, so every run has a seed of its own. It parses
each run's `manifest` line and its last line, the JSON result. Before and
after each run it reads the speed probe in a subprocess of its own, and after
the last run it times one fresh training process and one allocator-only
process. It writes BENCH_<first 7 digits of the checkout's commit>.json,
holding:
- per workload, the median, quartiles and IQR of every end-to-end metric and
  of op_ms_p50 (statistics.quantiles, n=4, as bench/steadiness.py takes
  them, so both give one IQR for the same runs), the seeds, the op counts,
  and whether every run was correct;
- every run's metrics next to the probe readings taken before and after it;
- the fresh training reading, and from it and from train_warm's op_ms_p50 a
  projection of a full default run (TrainConfig and ScenarioConfig defaults:
  250 episodes x 500 slots);
- under `allocator`, the allocator-only reading;
- the commit, python, numpy and BLAS versions and BLAS thread settings, from
  the runs' manifests.

`probe` prints one JSON line: the median time of one B = 128, 64x64 float64
GEMM (the learner's regime) and of a fixed pure-Python float loop (the
allocator's). Two recordings can be compared only where their probes agree;
a box that slows down during a run shows as a gap between the probes before
and after it.

`train` prints one JSON line: per-slot wall times of train() on the default
10x4 scenario with min_fill = batch_size = 128, one episode, in a new process.
train_warm cannot show this number, because its set-ups warm glibc's
allocator before the timed slots.

`alloc` prints one JSON line: per size (10x4, 40x8 and 100x10 users x UAVs),
the median wall time of `allocator.cd_search` alone over 60 seeded contexts
with full cones and 60 with one 30-60 degree cone for all UAVs, as
bench/workloads.py AllocDense draws them, drawn from the ScenarioConfig
ranges and built as `model` array bundles; the medians per cone and over
both. Building the contexts is not timed.

Every subprocess runs with one BLAS thread, as bench/run.py pins it. The
benchmark runs leave their records in the checkout's git-ignored bench/out/.

bench/steadiness.py does some of the same jobs: it runs the same command per
seed and workload with --trace 0, parses the last line and takes medians and
quartiles. It is repeated here, not imported, because this script alternates
workloads within each round, reads probes around each run, measures another
checkout (--root) and keeps a crashed run apart from a failed output check,
while steadiness runs one workload at a time in its own checkout and stops
at the first incorrect run. Merging the run-and-parse step of the two into
one helper is left to a change that may edit bench/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_GEMM_REPS = 200
PROBE_LOOP_REPS = 5
PROBE_LOOP_STEPS = 200_000
FRESH_WARM = 128       # min_fill = batch_size of the fresh training reading
ALLOC_SIZES = ((10, 4), (40, 8), (100, 10))   # (users, UAVs) of the allocator reading
ALLOC_CONTEXTS = 60    # seeded contexts per size and cone


def pinned_env() -> dict:
    return {**os.environ, **{var: "1" for var in BLAS_THREAD_VARS}}


def self_command(mode: str, *args: str) -> dict:
    """Run this script's `mode` in a new process; its last stdout line, parsed."""
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), mode, *args],
                          capture_output=True, text=True, env=pinned_env(), check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---- the readings a subprocess takes ----

def python_loop() -> float:
    x = 0.0
    for i in range(PROBE_LOOP_STEPS):
        x = x * 0.5 + i * 1e-6
    return x


def probe() -> dict:
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((128, 64)), rng.standard_normal((64, 64))
    gemm = []
    for _ in range(PROBE_GEMM_REPS + 5):   # the first reading is cold: drop five
        t0 = time.perf_counter()
        np.matmul(a, b)
        gemm.append(time.perf_counter() - t0)
    loop = []
    for _ in range(PROBE_LOOP_REPS):
        t0 = time.perf_counter()
        python_loop()
        loop.append(time.perf_counter() - t0)
    return {"gemm_us": 1e6 * statistics.median(gemm[5:]),
            "python_loop_ms": 1e3 * statistics.median(loop)}


def fresh_train(root: Path) -> dict:
    sys.path.insert(0, str(root / "src"))
    from uavmec import learner, model

    stamps = []
    t0 = time.perf_counter()
    learner.train(model.build_scenario(model.ScenarioConfig()),
                  learner.TrainConfig(episodes=1, min_fill=FRESH_WARM, batch_size=FRESH_WARM),
                  slot_callback=lambda episode, info: stamps.append(time.perf_counter()))
    total = time.perf_counter() - t0
    slot_ms = 1e3 * np.diff(stamps)          # slot k's time is stamps[k] - stamps[k - 1]
    cold = slot_ms[:FRESH_WARM - 2]          # slots 1 .. FRESH_WARM - 2 run no update
    warm = slot_ms[FRESH_WARM - 2:]          # from slot FRESH_WARM - 1 on, every slot does
    return {"slots": len(stamps), "train_s": total,
            "cold_slot_ms_p50": float(np.median(cold)), "cold_slots": len(cold),
            "warm_slot_ms_p50": float(np.median(warm)), "warm_slots": len(warm)}


def alloc_contexts(model, delay, num_users: int, num_uavs: int, narrow: bool, count: int):
    """`count` slot contexts drawn from the ScenarioConfig ranges, context i on
    seed [num_users, num_uavs, narrow, i]; narrow ones give every UAV one
    30-60 degree cone."""
    config = model.ScenarioConfig(num_users=num_users, num_uavs=num_uavs)
    m, n = num_users, num_uavs
    for i in range(count):
        rng = np.random.default_rng([m, n, int(narrow), i])
        half_angle = rng.uniform(30.0, 60.0) if narrow else 90.0
        users = model.UserArrays(
            position=np.column_stack([rng.uniform(0.0, config.area_x, m),
                                      rng.uniform(0.0, config.area_y, m), np.zeros(m)]),
            cpu_freq=rng.uniform(*config.user_freq_range, m),
            tx_power=rng.uniform(*config.user_power_range, m))
        uavs = model.UavArrays(
            position=rng.uniform([0.0, 0.0, config.z_min],
                                 [config.area_x, config.area_y, config.z_max], size=(n, 3)),
            cpu_freq=np.full(n, config.uav_freq), tx_power=np.full(n, config.uav_power),
            half_angle_deg=np.full(n, half_angle))
        tasks = model.TaskArrays(bits=rng.uniform(*config.task_bits_range, m),
                                 cycles_per_bit=rng.uniform(*config.task_cycles_per_bit_range, m))
        yield delay.SlotContext(users, uavs, tasks, config.channel)


def alloc_times(root: Path, sizes=ALLOC_SIZES, count: int = ALLOC_CONTEXTS) -> dict:
    """cd_search wall times in ms, per "<users>x<UAVs>" and cone. Each size's
    first context is solved once, untimed, before the timed solves."""
    sys.path.insert(0, str(root / "src"))
    from uavmec import allocator, delay, model

    times = {}
    for m, n in sizes:
        row = times[f"{m}x{n}"] = {}
        for cone in ("full", "narrow"):
            contexts = list(alloc_contexts(model, delay, m, n, cone == "narrow", count))
            if cone == "full":
                allocator.cd_search(contexts[0])
            row[cone] = []
            for ctx in contexts:
                t0 = time.perf_counter()
                allocator.cd_search(ctx)
                row[cone].append(1e3 * (time.perf_counter() - t0))
    return times


# ---- parsing and aggregation, tested without subprocesses ----

def alloc_summary(times: dict) -> dict:
    """Per size, the median cd_search time per cone and over both, and the
    number of contexts."""
    return {size: {**{f"{cone}_ms_p50": statistics.median(ms) for cone, ms in cones.items()},
                   "ms_p50": statistics.median([t for ms in cones.values() for t in ms]),
                   "contexts": sum(map(len, cones.values()))}
            for size, cones in times.items()}


def parse_run(stdout: str) -> dict:
    """One bench/run.py --trace 0 run from its stdout: the last line's result and
    the manifest line's op_ms_p50 and versions. ValueError if there is no
    result line (a JSONDecodeError is one)."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("no output, so no result line")
    result = json.loads(lines[-1])
    manifests = [line[len("manifest "):] for line in lines if line.startswith("manifest ")]
    if len(manifests) != 1:
        raise ValueError(f"expected one manifest line, got {len(manifests)}")
    manifest = json.loads(manifests[0])
    return {"workload": manifest["workload"], "seed": manifest["seed"],
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {**{k: v["value"] for k, v in result["metrics"].items()},
                        "op_ms_p50": manifest["op_ms_p50"]},
            "manifest": manifest}


def summary(values: list[float]) -> dict:
    """Median and quartiles of two or more values, by bench/steadiness.py's rule."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": len(values)}


def aggregate(runs: list[dict]) -> dict:
    """Per workload, in first-run order: a `summary` of each metric over its runs."""
    table = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        table[workload] = {
            "seeds": [run["seed"] for run in mine],
            "correct": all(run["correct"] for run in mine),
            "attempted": sum(run["attempted"] for run in mine),
            "failed": sum(run["failed"] for run in mine),
            "metrics": {name: summary([run["metrics"][name] for run in mine])
                        for name in mine[0]["metrics"]},
        }
    return table


def projection(warm_slot_ms: float, cold_slot_ms: float, episodes: int, horizon: int,
               min_fill: int) -> dict:
    """Wall time of a full training run from per-slot medians. train() updates
    once the buffer holds min_fill transitions: from global slot min_fill - 1 on."""
    total = episodes * horizon
    cold = min(min_fill - 1, total)
    return {"slots": total, "cold_slots": cold, "warm_slots": total - cold,
            "minutes": (cold * cold_slot_ms + (total - cold) * warm_slot_ms) / 60e3}


def environment(manifests: list[dict]) -> dict:
    """The versions and BLAS settings the runs share; ValueError if they differ."""
    keys = ("commit", "python", "numpy", "blas", "blas_threads", "nproc")
    seen = {json.dumps({k: m.get(k) for k in keys}, sort_keys=True) for m in manifests}
    if len(seen) != 1:
        raise ValueError(f"the runs disagree on {keys}: {sorted(seen)}")
    return json.loads(seen.pop())


def record(runs: list[dict], fresh: dict, alloc: dict, defaults: dict) -> dict:
    env = environment([run["manifest"] for run in runs])
    workloads = aggregate(runs)
    cold = fresh["cold_slot_ms_p50"]
    projected = {"fresh_process": projection(fresh["warm_slot_ms_p50"], cold, **defaults)}
    if "train_warm" in workloads:
        warm = workloads["train_warm"]["metrics"]["op_ms_p50"]["median"]
        projected["train_warm"] = projection(warm, cold, **defaults)
    return {"environment": env, "workloads": workloads, "fresh_train": fresh,
            "allocator": alloc, "projected_full_run": {"defaults": defaults, **projected},
            "runs": [{k: v for k, v in run.items() if k != "manifest"} for run in runs]}


# ---- the recording ----

def run_benchmark(root: Path, spec: dict, workload: str, seed: int) -> dict:
    """One run for BENCHMARK.json's run_seconds. Exit code 1 with a result line
    is a failed output check, recorded as correct=false; any other exit code,
    or 1 without a result line (an uncaught exception), stops the recording."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=600)
    try:
        if proc.returncode not in (0, 1):
            raise ValueError("neither a result nor a failed output check")
        return parse_run(proc.stdout)
    except ValueError as exc:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode} ({exc}):\n"
                         f"{proc.stderr}") from None


def run_defaults(root: Path) -> dict:
    """The full default run's size, from the measured checkout's configs."""
    sys.path.insert(0, str(root / "src"))
    from uavmec import learner, model
    train, scenario = learner.TrainConfig(), model.ScenarioConfig()
    return {"episodes": train.episodes, "horizon": scenario.horizon, "min_fill": train.min_fill}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    modes = parser.add_subparsers(dest="mode", required=True)
    rec = modes.add_parser("record", help="run the benchmark and write BENCH_<rev>.json")
    rec.add_argument("--root", type=Path, default=REPO, help="checkout to measure")
    rec.add_argument("--out-dir", type=Path, default=REPO)
    rec.add_argument("--runs", type=int, default=5, help="runs per workload")
    rec.add_argument("--first-seed", type=int, default=30001)
    modes.add_parser("probe", help="print one speed-probe reading")
    modes.add_parser("train", help="print one fresh training reading").add_argument(
        "--root", type=Path, default=REPO)
    modes.add_parser("alloc", help="print one allocator-only reading").add_argument(
        "--root", type=Path, default=REPO)
    args = parser.parse_args(argv)

    if args.mode == "probe":
        print(json.dumps(probe()))
        return 0
    if args.mode == "train":
        print(json.dumps(fresh_train(args.root.resolve())))
        return 0
    if args.mode == "alloc":
        print(json.dumps(alloc_summary(alloc_times(args.root.resolve()))))
        return 0

    if args.runs < 2:
        parser.error("--runs must be >= 2: quartiles need two runs")
    root = args.root.resolve()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    runs = []
    for r in range(args.runs):
        for i, workload in enumerate(names):
            seed = args.first_seed + r * len(names) + i
            before = self_command("probe")
            run = run_benchmark(root, spec, workload, seed)
            run.update(probe_before=before, probe_after=self_command("probe"))
            runs.append(run)
            print(f"{workload} seed={seed} correct={run['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items())
                  + f" gemm_us={before['gemm_us']:.3g}/{run['probe_after']['gemm_us']:.3g}",
                  flush=True)
    fresh = self_command("train", "--root", str(root))
    alloc = self_command("alloc", "--root", str(root))
    report = record(runs, fresh, alloc, run_defaults(root))
    report["settings"] = {"runs": args.runs, "first_seed": args.first_seed,
                          "seconds": spec["run_seconds"]}
    out = args.out_dir / f"BENCH_{report['environment']['commit'][:7]}.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0 if all(w["correct"] for w in report["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
