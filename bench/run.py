"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload alloc_dense --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory, never from an installed copy. The output is a summary line
with every metric and its unit, a manifest line, and last a JSON object with
the keys correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. The same record, with the
trace summary, goes to bench/out/; a traced run also writes its spans there.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when the
package source is missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train_warm", "alloc_dense", "rollout_mobile"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="op time measured per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def git_commit(root: Path) -> str:
    """HEAD commit read from .git files; 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def openblas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        return "unknown"


def manifest(args, report, np) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas_version(np),
        "blas_threads": {var: os.environ.get(var, "unset") for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "attempted": report.attempted,
        "failed": report.failed,
        **report.extra,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "uavmec"
    if not (package / "__init__.py").is_file():
        print(f"error: package source not found at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import uavmec
    if Path(uavmec.__file__).resolve().parent != package.resolve():
        print(f"error: uavmec imported from {uavmec.__file__}, not {package}",
              file=sys.stderr)
        return 2
    import workloads

    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           workloads.FULL)
    units = workloads.PER_LAYER_UNITS if args.trace else workloads.END_TO_END_UNITS
    info = manifest(args, report, np)

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={report.attempted} failed={report.failed} "
          f"failed_frac={info['failed_frac']:.6g} dor_mean={info['dor_mean']:.6g} "
          f"op_ms_p50={info['op_ms_p50']:.6g} ms "
          f"ops_per_s={info['ops_per_s']:.6g} 1/s "
          + " ".join(f"{k}={v:.6g} {units[k]}" for k, v in report.metrics.items()))
    print("manifest " + json.dumps(info, sort_keys=True))
    for line in report.errors[:5] + report.problems[:20]:
        print(line, file=sys.stderr)

    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in report.metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": info, "result": result, "problems": report.problems,
              "errors": report.errors}
    if report.tracer is not None:
        record["spans"] = report.tracer.summary()
        report.tracer.save(OUT_DIR / f"{stem}-spans.npz")
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if report.correct else 1


if __name__ == "__main__":
    # Pinned before main() imports numpy, which reads these once, at load time.
    for _var in BLAS_THREAD_VARS:
        os.environ[_var] = BLAS_THREADS
    sys.dont_write_bytecode = True
    sys.exit(main())
