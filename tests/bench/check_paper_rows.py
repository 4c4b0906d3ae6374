#!/usr/bin/env python3
"""Exact read gate for the paper's figure rows (bench/bench_paper.cc).

Runs `bench_paper --json` at STPQ_SCALE=0.01 STPQ_QUERIES=2 and checks:
  * every panel the runner declares (the ids it lists when refusing an
    unknown --figure) produced records;
  * every record's exact object, feature and Voronoi page reads equal the
    committed rows (tests/bench/paper_rows.json), printing a row-by-row
    diff on mismatch;
  * the thread sweep reads the same pages at 1, 2, 4 and 8 threads, and
    each row ran as many workers as its threads (its own run at 16
    queries, so that every thread count has queries to share);
  * a malformed or out-of-range STPQ_SCALE, STPQ_QUERIES or STPQ_IO_MS,
    an unknown --figure and an unknown argument exit 2 with a message
    naming what was refused, before any dataset is generated.

Algorithm 5 runs only while its first query fits a wall-clock budget, so
an over-budget Algorithm 5 row is compared only by its outcome.

After a change meant to move page reads, rewrite the committed rows:
  check_paper_rows.py --bench build/bench/bench_paper \\
      --expected tests/bench/paper_rows.json --write
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

READS = ("object_reads", "feature_reads", "voronoi_reads")
SMALL = {"STPQ_SCALE": "0.01", "STPQ_QUERIES": "2"}

BAD_ENV = [
    ("STPQ_SCALE", "abc"), ("STPQ_SCALE", "-3"), ("STPQ_SCALE", "0"),
    ("STPQ_SCALE", "1.5"), ("STPQ_SCALE", "nan"), ("STPQ_SCALE", ""),
    ("STPQ_QUERIES", "-1"), ("STPQ_QUERIES", "0"), ("STPQ_QUERIES", "10001"),
    ("STPQ_QUERIES", "2.5"), ("STPQ_QUERIES", "x"),
    ("STPQ_IO_MS", "fast"), ("STPQ_IO_MS", "-1"), ("STPQ_IO_MS", "inf"),
]


def run(bench, args, env_extra, timeout):
    env = {k: v for k, v in os.environ.items() if not k.startswith("STPQ_")}
    env.update(env_extra)
    return subprocess.run([bench] + args, env=env, capture_output=True,
                          text=True, timeout=timeout)


def run_json(bench, args, env_extra, tmp, name):
    path = os.path.join(tmp, name)
    p = run(bench, args + ["--json", path], env_extra, timeout=600)
    if p.returncode != 0:
        sys.exit("FAIL: bench_paper %s exited %d\n%s"
                 % (" ".join(args), p.returncode, p.stderr))
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def key(r):
    return (r["panel"], r["param"], r["variant"])


def gated(r):
    """The fields the committed rows hold."""
    out = {"panel": r["panel"], "param": r["param"], "variant": r["variant"],
           "status": r["status"]}
    if r["status"] == "ran":
        out.update({f: r[f] for f in READS})
    return out


def declared_panels(bench):
    """Panel ids from the runner's refusal of an unknown --figure."""
    p = run(bench, ["--figure", "no-such-figure"], {}, timeout=60)
    m = re.search(r"; panels: (.*)$", p.stderr.strip())
    if p.returncode != 2 or not m:
        sys.exit("FAIL: unknown --figure exited %d without listing "
                 "panels:\n%s" % (p.returncode, p.stderr))
    return m.group(1).split()


def check_rows(got, expected):
    failures = []
    want = {key(r): r for r in expected}
    have = {key(r): gated(r) for r in got}
    for k in sorted(set(want) | set(have)):
        w, h = want.get(k), have.get(k)
        if w is None or h is None:
            failures.append("%s: %s" % ("/".join(k), "not in the committed rows"
                                        if w is None else "no record"))
        elif "over_budget" in (w["status"], h["status"]):
            continue  # Algorithm 5's budget is wall-clock time
        elif w != h:
            diff = ", ".join("%s %s -> %s" % (f, w.get(f), h.get(f))
                             for f in ("status",) + READS
                             if w.get(f) != h.get(f))
            failures.append("%s: %s" % ("/".join(k), diff))
    return failures


def check_thread_sweep(records):
    failures = []
    by_panel = {}
    for r in records:
        by_panel.setdefault((r["panel"], r["variant"]), []).append(r)
    for (panel, variant), rows in sorted(by_panel.items()):
        threads = sorted(r["threads"] for r in rows)
        if threads != [1, 2, 4, 8]:
            failures.append("%s/%s: thread counts %s" % (panel, variant,
                                                        threads))
        short = [(r["threads"], r.get("workers")) for r in rows
                 if r.get("workers") != r["threads"]]
        if short:
            failures.append("%s/%s: (threads, workers) ran %s"
                            % (panel, variant, short))
        reads = {tuple(r[f] for f in READS) for r in rows}
        if len(reads) != 1:
            failures.append("%s/%s: reads differ across threads: %s"
                            % (panel, variant,
                               [(r["threads"], [r[f] for f in READS])
                                for r in rows]))
    if not by_panel:
        failures.append("--figure parallel produced no records")
    return failures


def check_refusals(bench):
    failures = []
    cases = [([], {name: value}, name) for name, value in BAD_ENV]
    cases += [(["--figure", "99z"], {}, "--figure"),
              (["--frobnicate"], {}, "--frobnicate")]
    for args, env, name in cases:
        p = run(bench, ["--figure", "srt"] + args, dict(SMALL, **env),
                timeout=60)
        what = " ".join("%s=%r" % kv for kv in env.items()) or " ".join(args)
        if p.returncode != 2:
            failures.append("%s: exit %d, want 2" % (what, p.returncode))
        elif name not in p.stderr:
            failures.append("%s: message does not name %s: %r"
                            % (what, name, p.stderr))
        elif p.stdout or "measuring" in p.stderr:
            failures.append("%s: refused only after measuring" % what)
    return failures


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bench", required=True, help="bench_paper binary")
    ap.add_argument("--expected", required=True, help="paper_rows.json")
    ap.add_argument("--write", action="store_true",
                    help="rewrite --expected from this run instead of "
                         "checking it")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory() as tmp:
        records = run_json(args.bench, [], SMALL, tmp, "rows.json")
        if args.write:
            with open(args.expected, "w", encoding="utf-8") as f:
                f.write("[\n" + ",\n".join(json.dumps(gated(r))
                                           for r in records) + "\n]\n")
            print("wrote %d rows to %s" % (len(records), args.expected))
            return 0
        sweep = run_json(args.bench, ["--figure", "parallel"],
                         dict(SMALL, STPQ_QUERIES="16"), tmp, "sweep.json")

    with open(args.expected, encoding="utf-8") as f:
        expected = json.load(f)
    failures = []
    produced = {r["panel"] for r in records}
    for panel in declared_panels(args.bench):
        if panel not in produced:
            failures.append("panel %s produced no records" % panel)
    failures += check_rows(records, expected)
    failures += check_thread_sweep(sweep)
    failures += check_refusals(args.bench)

    print("paper_rows: %d records against %d committed rows, %d thread-sweep "
          "records, %d refusal cases" % (len(records), len(expected),
                                         len(sweep), len(BAD_ENV) + 2))
    for line in failures:
        print("FAIL: " + line)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
