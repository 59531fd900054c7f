#!/usr/bin/env python3
r"""Build and run the fleet benchmark.

    python3 fleetbench/run.py --workload hot_hits --seed 1 \
        --seconds 10 --trace 0

Run from the root of a checkout. The first call configures and builds
fleetbench/ (a CMake package that compiles the stitch libraries from
../src) into $CARGO_TARGET_DIR/fleetbench, or .bench_build/fleetbench
when that variable is unset; later calls rebuild incrementally. Build
output goes to stderr, so the last stdout line is the benchmark's JSON
result. Exits non-zero, without a result, when the build fails.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "fleetbench"


def build(out: Path) -> Path:
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", str(out), "--parallel", jobs,
         "--target", "fleetbench"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / "fleetbench"


def main() -> int:
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2
    proc = subprocess.Popen([str(binary), *sys.argv[1:]], cwd=ROOT)
    try:
        return proc.wait(timeout=170)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("run.py: benchmark timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
