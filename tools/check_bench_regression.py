#!/usr/bin/env python3
"""Compare a bench_micro JSON run against a committed baseline.

Usage:
    check_bench_regression.py --baseline bench/baseline.json \
        --current artifacts/bench_micro.json [--threshold 2.0]

Fails (exit 1) if any benchmark tracked in the baseline is more than
`threshold` times slower in the current run, or has no result in it: a
renamed or deleted kernel must leave the baseline in the same change,
otherwise it would drop out of the gate without a word.  Benchmarks only
in the current run are reported but never fatal, so a new kernel joins
the gate at the next baseline refresh.

The threshold is deliberately loose: CI machines are shared and noisy,
and the point of the gate is to catch complexity regressions (an O(1)
path going O(n), an allocation sneaking back into a hot loop), not small
drifts.  Refresh the baseline with:

    ./build/bench/bench_micro --benchmark_min_time=0.5 \
        --benchmark_format=json --benchmark_out=bench/baseline.json
"""

import argparse
import json
import sys


def load_times(path):
    """Return {benchmark name: real_time in ns} for a benchmark JSON file."""
    with open(path) as f:
        data = json.load(f)
    times = {}
    for b in data.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) if repetitions were used.
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}[unit]
        times[b["name"]] = b["real_time"] * scale
    return times


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="fail if current/baseline exceeds this (default 2.0)")
    args = ap.parse_args()

    baseline = load_times(args.baseline)
    current = load_times(args.current)

    if not baseline:
        print(f"error: no benchmarks found in baseline {args.baseline}")
        return 1

    regressions = []
    missing = []
    width = max(len(n) for n in baseline)
    for name in sorted(baseline):
        base_ns = baseline[name]
        if name not in current:
            print(f"  [  MISSING] {name:<{width}}  (no result in current run)")
            missing.append(name)
            continue
        cur_ns = current[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = "REGRESSED" if ratio > args.threshold else "ok"
        print(f"  [{flag:>9}] {name:<{width}}  "
              f"{base_ns:10.1f} ns -> {cur_ns:10.1f} ns  ({ratio:5.2f}x)")
        if ratio > args.threshold:
            regressions.append((name, ratio))

    for name in sorted(set(current) - set(baseline)):
        print(f"  [untracked] {name} (not in baseline; add it on refresh)")

    if missing:
        print(f"\n{len(missing)} baseline kernel(s) have no result in the "
              f"current run; delete their rows from the baseline if the "
              f"kernels are gone:")
        for name in missing:
            print(f"  {name}")
    if regressions:
        print(f"\n{len(regressions)} kernel(s) regressed beyond "
              f"{args.threshold:.1f}x:")
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x")
    if missing or regressions:
        return 1
    print(f"\nall {len(baseline)} tracked kernels within "
          f"{args.threshold:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
