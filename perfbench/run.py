#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload range_file --seed 1 --seconds 10 --trace 0

The driver (perfbench/stpq_perfbench.cc) and the stpq library under src/
are compiled in Release mode into .bench_build/perfbench; later runs only
rebuild what changed.  Index files written while the benchmark runs go to
.bench_build/work.  The last line of stdout is the driver's JSON result;
build output goes to stderr.  Any build or run failure exits non-zero
without printing a result.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("range_file", "influence_mem", "nn_mem")
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> bool:
    if not (build_dir / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(source), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would skip configuration next time.
            shutil.rmtree(build_dir, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    out = source.parent / ".bench_build"
    build_dir = out / "perfbench"
    work_dir = out / "work"
    # Compiler temporaries stay inside the checkout too.
    tmp_dir = out / "tmp"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp_dir)
    if not build(source, build_dir):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    work_dir.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "stpq_perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    if run.returncode != 0:
        print(f"perfbench: driver exited with {run.returncode}",
              file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
