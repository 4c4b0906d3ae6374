#!/usr/bin/env python3
"""Self-test for tools/stpq_lint.py and tools/check_lint_baseline.py.

Three layers, all run via ctest (see tests/CMakeLists.txt):

 1. Fixture goldens: lint tests/lint/fixtures/ and compare the stable
    finding keys (active and suppressed) against expected_findings.json.
    Every rule has a firing case, a clean case, and a suppressed case.
 2. Seeded-violation negative test: copy two real project files into a
    temp tree, confirm they lint clean in isolation, then append one
    violation per rule and confirm each rule fires.  This guards against
    the linter silently going blind on real-world code shapes rather
    than only on hand-built fixtures.
 3. Ratchet: check_lint_baseline.py accepts equal/shrunk baselines and
    rejects grown ones.

Exit code 0 on success; prints a diff and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile

FAILURES = []


def check(cond, label, detail=""):
    if cond:
        print(f"ok   {label}")
    else:
        print(f"FAIL {label}{': ' + detail if detail else ''}")
        FAILURES.append(label)


def run_lint(lint, extra, cwd):
    """Runs stpq_lint with a JSON report; returns (exit_code, report)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        report_path = tmp.name
    try:
        proc = subprocess.run(
            [sys.executable, lint, "--json", report_path] + extra,
            cwd=cwd, capture_output=True, text=True)
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        return proc.returncode, report
    finally:
        os.unlink(report_path)


def keys(report, *, suppressed):
    return sorted(f["key"] for f in report["findings"]
                  if f["suppressed"] == suppressed)


def test_fixture_goldens(root, lint):
    golden = json.load(open(os.path.join(root, "tests/lint",
                                         "expected_findings.json"),
                            encoding="utf-8"))
    code, report = run_lint(
        lint, ["--sources", "tests/lint/fixtures", "--project-root", "."],
        cwd=root)
    active = keys(report, suppressed=False)
    suppressed = keys(report, suppressed=True)
    check(active == sorted(golden["active"]), "fixture active findings",
          f"\n  got:      {active}\n  expected: "
          f"{sorted(golden['active'])}")
    check(suppressed == sorted(golden["suppressed"]),
          "fixture suppressed findings",
          f"\n  got:      {suppressed}\n  expected: "
          f"{sorted(golden['suppressed'])}")
    check(code == 1, "fixture run exits 1 (new findings, no baseline)",
          f"exit={code}")

    # With the goldens as baseline the same run must pass.
    with tempfile.NamedTemporaryFile("w", suffix=".json",
                                     delete=False) as tmp:
        json.dump({"version": 1, "findings": golden["active"]}, tmp)
        baseline = tmp.name
    try:
        code2, _ = run_lint(
            lint, ["--sources", "tests/lint/fixtures", "--project-root",
                   ".", "--baseline", baseline], cwd=root)
        check(code2 == 0, "fixture run exits 0 against matching baseline",
              f"exit={code2}")
    finally:
        os.unlink(baseline)


SEEDS_CC = """
namespace stpq {
STPQ_HOT int LintSeedHot() { return *new int(1); }  // hot-alloc
long LintSeedClock() {  // raw-clock
  return std::chrono::steady_clock::now().time_since_epoch().count();
}
}  // namespace stpq
"""

SEEDS_H = """
namespace stpq {
std::priority_queue<int> LintSeedHeap();  // priority-queue
Status LintSeedStatus();  // nodiscard-status (public, header, no attr)
class LintSeedLock {
 private:
  Mutex mu_;  // mutex-guard
};
}  // namespace stpq
"""


def test_seeded_violations(root, lint):
    """Real project files must lint clean as copies, then light up all
    five rules once violations are seeded into them."""
    victims = ["src/text/vocabulary.cc", "src/text/vocabulary.h"]
    with tempfile.TemporaryDirectory() as tree:
        for rel in victims:
            dst = os.path.join(tree, os.path.basename(rel))
            shutil.copy(os.path.join(root, rel), dst)
        code, report = run_lint(
            lint, ["--sources", ".", "--project-root", "."], cwd=tree)
        check(code == 0 and not report["findings"],
              "unseeded copies lint clean",
              f"exit={code} findings={keys(report, suppressed=False)}")

        with open(os.path.join(tree, "vocabulary.cc"), "a",
                  encoding="utf-8") as fh:
            fh.write(SEEDS_CC)
        with open(os.path.join(tree, "vocabulary.h"), "a",
                  encoding="utf-8") as fh:
            fh.write(SEEDS_H)
        code, report = run_lint(
            lint, ["--sources", ".", "--project-root", "."], cwd=tree)
        fired = {f["rule"] for f in report["findings"]
                 if not f["suppressed"]}
        expected = {"hot-alloc", "priority-queue", "mutex-guard",
                    "raw-clock", "nodiscard-status"}
        check(code == 1, "seeded copies fail the lint", f"exit={code}")
        check(fired >= expected, "every rule fires on seeded violations",
              f"missing: {sorted(expected - fired)}")


def test_ratchet(root, checker):
    old = {"version": 1, "findings": ["r|a|x", "r|b|y"]}
    cases = [
        ("equal baseline accepted", old["findings"], 0),
        ("shrunk baseline accepted", old["findings"][:1], 0),
        ("grown baseline rejected", old["findings"] + ["r|c|z"], 1),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        old_path = os.path.join(tmp, "old.json")
        json.dump(old, open(old_path, "w", encoding="utf-8"))
        for label, findings, want in cases:
            new_path = os.path.join(tmp, "new.json")
            json.dump({"version": 1, "findings": findings},
                      open(new_path, "w", encoding="utf-8"))
            proc = subprocess.run(
                [sys.executable, checker, "--old", old_path,
                 "--new", new_path],
                capture_output=True, text=True)
            check(proc.returncode == want, f"ratchet: {label}",
                  f"exit={proc.returncode}, want {want}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", default=None,
                    help="repo root (default: two levels up)")
    args = ap.parse_args()
    root = os.path.abspath(args.root or os.path.join(
        os.path.dirname(__file__), os.pardir, os.pardir))
    lint = os.path.join(root, "tools", "stpq_lint.py")
    checker = os.path.join(root, "tools", "check_lint_baseline.py")

    test_fixture_goldens(root, lint)
    test_seeded_violations(root, lint)
    test_ratchet(root, checker)

    if FAILURES:
        print(f"{len(FAILURES)} lint self-test failure(s)")
        return 1
    print("all lint self-tests passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
