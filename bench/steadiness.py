"""Run-to-run spread of every end-to-end metric, over runs with different seeds.

    python3 bench/steadiness.py --runs 10 --first-seed 400 --out bench/reports/a.json
    python3 bench/steadiness.py --runs 10 --first-seed 500 --compare bench/reports/a.json \
        --out bench/reports/b.json

Runs the command in BENCHMARK.json once per seed and workload, one run at a
time, with BENCHMARK.json's run_seconds. For each metric it reports the
median of the runs and the spread: the distance between the first and the
third quartile (statistics.quantiles, n=4) as a share of the median. With
--compare, it also reports how far each median moved, in the worse
direction, from an earlier report.

The benchmark is steady when every spread is below a third of its metric's
bound and, with --compare, no median is worse than the earlier one by more
than its bound. setup_s is held to the second test only, and its spread
across seeds is reported but not gated: a set-up takes under 2 ms, so each
sample sees the machine in one state, and work moved into set-up shows as a
shift of its median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPREAD_NOT_GATED = {"setup_s"}


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} reported correct=false")
    return {"seed": seed, "wall_s": wall, "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def spread(values: list[float]) -> tuple[float, float]:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median


def worse_shift(old: float, new: float, better: str) -> float:
    """How much worse `new` is than `old`, as a share of `old` (negative: better)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--workloads", nargs="*", help="default: all in BENCHMARK.json")
    parser.add_argument("--out", type=Path, help="write the report here (JSON)")
    parser.add_argument("--compare", type=Path, help="earlier report to compare medians with")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else {}

    report = {"run_seconds": spec["run_seconds"], "runs": args.runs,
              "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
              "workloads": {}}
    steady = True
    for workload in names:
        runs = [run_once(spec, workload, seed) for seed in report["seeds"]]
        table = {}
        for metric, m in bounds.items():
            values = [r["metrics"][metric] for r in runs]
            median, rel = spread(values)
            row = {"median": median, "spread": rel, "bound": m["bound"],
                   "within_third": rel <= m["bound"] / 3, "values": values}
            line = f"{workload:15s} {metric:14s} median={median:<12.6g} spread={rel:.4f} bound={m['bound']}"
            if not row["within_third"] and metric not in SPREAD_NOT_GATED:
                steady = False
                line += " SPREAD"
            if workload in earlier:
                old = earlier[workload]["metrics"][metric]["median"]
                row["worse_than_earlier"] = worse_shift(old, median, m["better"])
                line += f" worse_than_earlier={row['worse_than_earlier']:+.4f}"
                if row["worse_than_earlier"] > m["bound"]:
                    steady = False
                    line += " SHIFT"
            table[metric] = row
            print(line, flush=True)
        report["workloads"][workload] = {
            "metrics": table,
            "wall_s": [r["wall_s"] for r in runs],
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady: see the lines marked SPREAD or SHIFT")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
