#!/usr/bin/env python3
"""Folds the per-run benchmark JSON outputs into one BENCH_summary.json.

Inputs (all optional — missing or unreadable files are reported in the
summary's `inputs` block instead of failing the run, so the CI step stays
green even when a bench was skipped):

  * bench_micro.json     Google Benchmark --benchmark_format=json
  * bench_parallel.json  `bench_paper --figure parallel --json` records
                         (records of other figures are ignored)

The summary is one flat JSON object per CI run: per-micro-benchmark
cpu_time rows (each the median over --benchmark_repetitions), the
parallel-throughput sweep keyed by algo/workers (the threads that ran)
with each row's speedup over the 1-worker row called out, and enough
context (host, cpu count, date) to compare runs across commits.

Usage:
  bench_report.py --micro bench_micro.json \\
                  --parallel bench_parallel.json \\
                  --out BENCH_summary.json
"""

import argparse
import json
import sys

from check_bench_regression import fold_repetitions


def load_json(path):
    """Returns (payload, error_string); exactly one is None."""
    if not path:
        return None, "not provided"
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f), None
    except (OSError, ValueError) as err:
        return None, str(err)


def summarize_micro(payload):
    """Google Benchmark JSON -> context + one row per benchmark: the median
    cpu_time, real_time and iterations over its repetitions (aggregate
    rows are skipped), as check_bench_regression.py compares them."""
    benchmarks = [
        dict(row, name=name)
        for name, row in fold_repetitions(
            payload, ["cpu_time", "real_time", "iterations"]).items()
    ]
    context = payload.get("context", {})
    return {
        "context": {
            "date": context.get("date"),
            "host_name": context.get("host_name"),
            "num_cpus": context.get("num_cpus"),
            "library_build_type": context.get("library_build_type"),
        },
        "count": len(benchmarks),
        "benchmarks": benchmarks,
    }


def sweep_row(record, base_qps):
    """One bench_paper thread-sweep record -> one sweep row."""
    qps = record.get("queries_per_sec", 0.0)
    latency = record.get("latency_ms", {})
    return {
        "algo": record.get("algo", "?"),
        "threads": record.get("threads", 0),
        "workers": record.get("workers", 0),
        "wall_ms": record.get("wall_ms"),
        "queries_per_sec": qps,
        "speedup": qps / base_qps if base_qps else 0.0,
        "reads_per_query": record.get("reads_per_query"),
        "p50_ms": latency.get("p50"),
        "p95_ms": latency.get("p95"),
        "p99_ms": latency.get("p99"),
    }


def summarize_parallel(payload):
    """bench_paper thread-sweep records -> sweep keyed by algo, with the
    speedup over each algo's 1-worker row called out.  A row asking for
    more threads than it has queries runs fewer workers, so speedups are
    keyed by the workers that ran, not the threads asked for."""
    by_algo = {}
    for record in payload:
        if record.get("figure") == "parallel":
            by_algo.setdefault(record.get("algo", "?"), []).append(record)
    summary = {"algos": {}}
    for algo, records in sorted(by_algo.items()):
        base_qps = next((r.get("queries_per_sec", 0.0) for r in records
                         if r.get("workers") == 1), 0.0)
        rows = sorted((sweep_row(r, base_qps) for r in records),
                      key=lambda r: (r["workers"], r["threads"]))
        best = max(rows, key=lambda r: r.get("queries_per_sec", 0.0))
        summary["algos"][algo] = {
            "sweep": rows,
            "max_queries_per_sec": best.get("queries_per_sec"),
            "max_speedup": max(r.get("speedup", 0.0) for r in rows),
            "threads_at_max": best.get("threads"),
            "workers_at_max": best.get("workers"),
        }
    return summary


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--micro", default="",
                        help="bench_micro.json (Google Benchmark format)")
    parser.add_argument("--parallel", default="",
                        help="bench_parallel.json (bench_paper --json)")
    parser.add_argument("--out", required=True,
                        help="where to write BENCH_summary.json")
    args = parser.parse_args()

    summary = {"inputs": {}}

    micro, err = load_json(args.micro)
    summary["inputs"]["micro"] = err or args.micro
    if micro is not None:
        try:
            summary["micro"] = summarize_micro(micro)
        except (TypeError, AttributeError, KeyError) as bad:
            summary["inputs"]["micro"] = "unexpected shape: %s" % bad

    parallel, err = load_json(args.parallel)
    summary["inputs"]["parallel"] = err or args.parallel
    if parallel is not None:
        try:
            summary["parallel"] = summarize_parallel(parallel)
        except (TypeError, AttributeError) as bad:
            summary["inputs"]["parallel"] = "unexpected shape: %s" % bad

    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")

    folded = [k for k in ("micro", "parallel") if k in summary]
    print("bench_report: folded %s into %s"
          % (" + ".join(folded) if folded else "no inputs", args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
