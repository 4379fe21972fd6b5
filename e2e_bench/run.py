#!/usr/bin/env python3
"""Builds the end-to-end benchmark runner from source and runs one workload.

Usage (from the repository root):

    python3 e2e_bench/run.py --workload lab1_batch --seed 6833 --seconds 12 --trace 0

The runner is configured with CMake into $CARGO_TARGET_DIR/e2e_bench-<hash>
(default .bench_build/e2e_bench-<hash>) on first use and rebuilt incrementally
afterwards; <hash> names the source tree, so checkouts that share one
CARGO_TARGET_DIR never run each other's build. Build output goes to stderr.
The last line of stdout is the result JSON. With --trace 1 the span tree is
written to e2e_trace_<workload>_<seed>.json in the build directory. Extra
arguments (--scale, --inject-mismatch) are passed to the runner unchanged;
the self-test uses them.
"""

import argparse
import fcntl
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("lab1_batch", "lab1_refresh", "campus_cluster")
RUN_TIMEOUT_S = 175


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    # A CMake cache builds the source tree it was configured from, so each
    # tree gets its own build directory.
    tree = hashlib.sha256(str(ROOT).encode()).hexdigest()[:12]
    return base / f"e2e_bench-{tree}"


def build(out: Path) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    with open(out / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (out / "CMakeCache.txt").exists():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "-j", jobs],
                       check=True, stdout=sys.stderr)
    return out / "e2e_runner"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0x1AB1)
    parser.add_argument("--seconds", type=int, default=12)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()
    # SIGTERM unwinds like Ctrl-C, so subprocess.run kills and reaps the
    # build or the runner before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))

    out = build_dir()
    try:
        runner = build(out)
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"e2e_bench: build failed: {err}", file=sys.stderr)
        return 3

    cmd = [str(runner), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                str(out / f"e2e_trace_{args.workload}_{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd + extra, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"e2e_bench: runner exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
