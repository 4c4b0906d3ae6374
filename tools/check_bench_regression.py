#!/usr/bin/env python3
"""Compare a bench_micro JSON run against a committed baseline.

Usage:
    check_bench_regression.py --baseline bench/baseline.json \
        --current artifacts/bench_micro.json [--threshold 2.0]
    check_bench_regression.py --self-test

Fails (exit 1) if any benchmark tracked in the baseline is more than
`threshold` times slower in the current run, or has no result in it: a
renamed or deleted kernel must leave the baseline in the same change,
otherwise it would drop out of the gate without a word.  Benchmarks only
in the current run are reported but never fatal, so a new kernel joins
the gate at the next baseline refresh.

A run made with --benchmark_repetitions=N has N rows per kernel, all
under the kernel's name; each kernel is compared by the median of its
repetitions (a single-shot file is its own median).  Google Benchmark's
aggregate rows (mean/median/stddev/cv) are skipped.

The threshold is deliberately loose: CI machines are shared and noisy,
and the point of the gate is to catch complexity regressions (an O(1)
path going O(n), an allocation sneaking back into a hot loop), not small
drifts.  Refresh the baseline with:

    ./build/bench/bench_micro --benchmark_min_time=0.5 \
        --benchmark_repetitions=3 \
        --benchmark_format=json --benchmark_out=bench/baseline.json
"""

import argparse
import json
import statistics
import sys

UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def fold_repetitions(payload, fields):
    """Google Benchmark JSON -> {kernel name: {field: median}}.

    Every iteration row of a kernel counts as one repetition; `fields`
    are the row keys whose median is taken.  Time fields stay in the
    row's `time_unit`, which is kept (it is the same for every
    repetition of a kernel).  `repetitions` counts the rows folded."""
    rows = {}
    for b in payload.get("benchmarks", []):
        if b.get("run_type", "iteration") != "iteration":
            continue
        rows.setdefault(b["name"], []).append(b)
    folded = {}
    for name, reps in rows.items():
        entry = {f: statistics.median(r[f] for r in reps) for f in fields}
        entry["time_unit"] = reps[0].get("time_unit", "ns")
        entry["repetitions"] = len(reps)
        folded[name] = entry
    return folded


def times_ns(payload):
    """{benchmark name: median real_time in ns} for a benchmark payload."""
    return {name: row["real_time"] * UNIT_NS[row["time_unit"]]
            for name, row in fold_repetitions(payload, ["real_time"]).items()}


def load_times(path):
    """times_ns of the benchmark JSON file at `path`."""
    with open(path) as f:
        return times_ns(json.load(f))


def compare(baseline, current, threshold, out=print):
    """Prints the per-kernel verdicts; returns the exit code."""
    if not baseline:
        out("error: no benchmarks found in baseline")
        return 1

    regressions = []
    missing = []
    width = max(len(n) for n in baseline)
    for name in sorted(baseline):
        base_ns = baseline[name]
        if name not in current:
            out(f"  [  MISSING] {name:<{width}}  (no result in current run)")
            missing.append(name)
            continue
        cur_ns = current[name]
        ratio = cur_ns / base_ns if base_ns > 0 else float("inf")
        flag = "REGRESSED" if ratio > threshold else "ok"
        out(f"  [{flag:>9}] {name:<{width}}  "
            f"{base_ns:10.1f} ns -> {cur_ns:10.1f} ns  ({ratio:5.2f}x)")
        if ratio > threshold:
            regressions.append((name, ratio))

    for name in sorted(set(current) - set(baseline)):
        out(f"  [untracked] {name} (not in baseline; add it on refresh)")

    if missing:
        out(f"\n{len(missing)} baseline kernel(s) have no result in the "
            f"current run; delete their rows from the baseline if the "
            f"kernels are gone:")
        for name in missing:
            out(f"  {name}")
    if regressions:
        out(f"\n{len(regressions)} kernel(s) regressed beyond "
            f"{threshold:.1f}x:")
        for name, ratio in regressions:
            out(f"  {name}: {ratio:.2f}x")
    if missing or regressions:
        return 1
    out(f"\nall {len(baseline)} tracked kernels within "
        f"{threshold:.1f}x of baseline")
    return 0


# ---------------------------------------------------------- self-test

def _row(name, real_time, unit="ns", run_type="iteration"):
    return {"name": name, "run_type": run_type, "real_time": real_time,
            "cpu_time": real_time, "time_unit": unit, "iterations": 1000}


def _payload(*rows):
    return {"benchmarks": list(rows)}


BASELINE = _payload(_row("BM_A", 10.0), _row("BM_B", 2.0, "us"))

# (name, current payload, expected exit code, substring of the output)
CASES = [
    ("single shot within threshold",
     _payload(_row("BM_A", 15.0), _row("BM_B", 2500.0)), 0, "all 2 tracked"),
    # The last repetition alone would read 10x; the median reads 1.2x.
    ("median of repetitions, not the last one",
     _payload(_row("BM_A", 10.0), _row("BM_A", 12.0), _row("BM_A", 100.0),
              _row("BM_B", 2.0, "us")), 0, "1.20x"),
    ("aggregate rows skipped",
     _payload(_row("BM_A", 11.0), _row("BM_A_median", 500.0, "ns",
                                       "aggregate"),
              _row("BM_B", 2.0, "us")), 0, "all 2 tracked"),
    ("median above threshold regresses",
     _payload(_row("BM_A", 31.0), _row("BM_A", 29.0), _row("BM_A", 30.0),
              _row("BM_B", 2.0, "us")), 1, "BM_A: 3.00x"),
    ("units converted before comparing",
     _payload(_row("BM_A", 0.01, "us"), _row("BM_B", 0.005, "ms")), 1,
     "BM_B: 2.50x"),
    ("missing kernel fails",
     _payload(_row("BM_A", 10.0)), 1, "no result in current run"),
    ("untracked kernel reported, not fatal",
     _payload(_row("BM_A", 10.0), _row("BM_B", 2.0, "us"),
              _row("BM_C", 1.0)), 0, "[untracked] BM_C"),
]


def self_test():
    failures = 0
    baseline = times_ns(BASELINE)
    for label, payload, want_code, want_text in CASES:
        lines = []
        code = compare(baseline, times_ns(payload), 2.0, lines.append)
        text = "\n".join(lines)
        if code != want_code or want_text not in text:
            failures += 1
            print(f"self-test: {label}: exit {code} (want {want_code}), "
                  f"expected {want_text!r} in:\n{text}")
    # Every field is folded the same way, time_unit is carried.
    folded = fold_repetitions(
        _payload(_row("BM_A", 3.0, "us"), _row("BM_A", 1.0, "us"),
                 _row("BM_A", 2.0, "us")), ["real_time", "cpu_time"])
    want = {"BM_A": {"real_time": 2.0, "cpu_time": 2.0, "time_unit": "us",
                     "repetitions": 3}}
    if folded != want:
        failures += 1
        print(f"self-test: fold_repetitions gave {folded}, want {want}")
    if failures == 0:
        print(f"self-test: {len(CASES) + 1} fixtures OK")
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--threshold", type=float, default=2.0,
                    help="fail if current/baseline exceeds this (default 2.0)")
    ap.add_argument("--self-test", action="store_true",
                    help="check the comparison against built-in fixtures")
    args = ap.parse_args()
    if args.self_test:
        return 1 if self_test() else 0
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required")
    return compare(load_times(args.baseline), load_times(args.current),
                   args.threshold)


if __name__ == "__main__":
    sys.exit(main())
