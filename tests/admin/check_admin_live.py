#!/usr/bin/env python3
"""End-to-end smoke check for the live introspection service.

Generates a small dataset, launches `stpq_cli workload --serve-admin 0`
(ephemeral port) with the sampler and slow-query log armed, scrapes every
admin endpoint over real HTTP while the process lingers — several of them
concurrently — and validates the payloads:

  * /healthz answers 200 with status "ok";
  * /statusz reports the engine rows and an armed sampler;
  * /metrics passes tools/check_prom_exposition.py;
  * /varz has closed intervals whose query counts sum to the workload's
    query count, and every active interval has p50 <= p99;
  * /slowz (threshold 0) retained queries;
  * an unknown endpoint answers 404;
  * the --trace-out file parses, holds a balanced `query` span for every
    trace id /slowz retained, and reports the same droppedEvents as
    /tracez's dropped_total (both count the events a full ring refused).

With --out DIR every scraped payload is saved there (the CI admin-smoke
step uploads the directory as an artifact).

Exit code 0 = all checks passed.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
import tempfile
import time
import urllib.error
import urllib.request

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, os.pardir, "tools"))
import check_prom_exposition  # noqa: E402

LISTEN_RE = re.compile(r"admin: listening on 127\.0\.0\.1:(\d+)")
QUERIES = 200


def fetch(port, path):
    """Returns (status_code, body_text) for one GET."""
    url = "http://127.0.0.1:%d%s" % (port, path)
    try:
        with urllib.request.urlopen(url, timeout=10) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as err:
        return err.code, err.read().decode("utf-8", "replace")


def balanced_query_spans(trace):
    """Trace ids whose `query` begin is closed by a `query` end in the
    same lane.  End events carry no args, so spans are paired per lane
    with a stack, as the Chrome trace viewer pairs them."""
    open_spans = {}
    closed = set()
    for event in trace["traceEvents"]:
        if event.get("ph") not in ("B", "E"):
            continue
        stack = open_spans.setdefault(event.get("tid"), [])
        if event["ph"] == "B":
            stack.append((event["name"],
                          event.get("args", {}).get("trace_id")))
        elif stack:
            name, trace_id = stack.pop()
            if name == "query" and event["name"] == "query":
                closed.add(trace_id)
    return closed


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--cli", required=True, help="path to stpq_cli")
    parser.add_argument("--out", default="", help="save payloads here")
    args = parser.parse_args()

    failures = []

    def check(ok, message):
        print("%s %s" % ("ok  " if ok else "FAIL", message))
        if not ok:
            failures.append(message)

    with tempfile.TemporaryDirectory(prefix="stpq_admin_smoke.") as tmp:
        data = os.path.join(tmp, "smoke.stpq")
        trace_path = os.path.join(tmp, "smoke_trace.json")
        subprocess.run(
            [args.cli, "generate", "--out", data, "--scale", "0.02",
             "--seed", "7"],
            check=True, stdout=subprocess.DEVNULL)

        proc = subprocess.Popen(
            [args.cli, "workload", "--data", data,
             "--queries", str(QUERIES), "--threads", "2",
             "--serve-admin", "0", "--metrics-interval", "50",
             "--slow-ms", "0", "--trace-out", trace_path,
             "--linger-ms", "15000"],
            stdout=subprocess.PIPE, text=True)
        try:
            port = None
            for line in proc.stdout:
                match = LISTEN_RE.search(line)
                if match:
                    port = int(match.group(1))
                    break
            check(port is not None, "server announced its port")
            if port is None:
                proc.kill()
                return 1

            # Wait for the run itself to finish (the linger line) so the
            # scraped state covers the whole workload.
            for line in proc.stdout:
                if "admin: lingering" in line:
                    break

            # A fast workload can finish before the sampler's first tick;
            # poll until an interval covering the queries has closed (the
            # sampler keeps ticking through the linger window).
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                status, body = fetch(port, "/varz")
                if status == 200:
                    varz = json.loads(body)
                    if sum(s.get("queries", 0)
                           for s in varz.get("samples", [])) >= QUERIES:
                        break
                time.sleep(0.1)

            # Concurrent scrapes: every endpoint in flight at once.
            paths = ["/healthz", "/statusz", "/metrics", "/varz",
                     "/slowz", "/tracez", "/", "/definitely-missing"]
            with concurrent.futures.ThreadPoolExecutor(len(paths)) as pool:
                results = dict(zip(
                    paths, pool.map(lambda p: fetch(port, p), paths)))

            if args.out:
                os.makedirs(args.out, exist_ok=True)
                for path, (_, body) in results.items():
                    name = path.strip("/").replace("/", "_") or "root"
                    with open(os.path.join(args.out, name + ".txt"), "w") as f:
                        f.write(body)

            status, body = results["/healthz"]
            health = json.loads(body)
            check(status == 200 and health.get("status") == "ok",
                  "/healthz is ok")

            status, body = results["/statusz"]
            statusz = json.loads(body)
            check(status == 200, "/statusz answers 200")
            check(statusz.get("sampler", {}).get("armed") is True,
                  "/statusz reports an armed sampler")
            check(statusz.get("status", {}).get("objects", "0") != "0",
                  "/statusz carries engine rows")

            status, body = results["/metrics"]
            check(status == 200, "/metrics answers 200")
            prom_errors = check_prom_exposition.validate(body)
            for error in prom_errors[:10]:
                print("     " + error)
            check(not prom_errors, "/metrics passes the exposition validator")
            check("stpq_admin_requests_total" in body,
                  "/metrics includes the server's own instruments")

            status, body = results["/varz"]
            varz = json.loads(body)
            check(status == 200 and varz.get("armed") is True,
                  "/varz sampler armed")
            samples = varz.get("samples", [])
            check(len(samples) > 0, "/varz has closed intervals")
            total_queries = sum(s.get("queries", 0) for s in samples)
            check(total_queries == QUERIES,
                  "/varz interval deltas sum to the workload size "
                  "(%d == %d)" % (total_queries, QUERIES))
            active = [s for s in samples if s.get("queries", 0) > 0]
            check(all(s["interval_p50_ms"] <= s["interval_p99_ms"] + 1e-9
                      for s in active),
                  "every active interval has p50 <= p99")
            check(any(s.get("qps", 0) > 0 for s in active),
                  "/varz reports a nonzero interval QPS")

            status, body = results["/slowz"]
            slowz = json.loads(body)
            check(status == 200 and slowz.get("armed") is True,
                  "/slowz armed")
            check(slowz.get("count", 0) > 0, "/slowz retained queries")

            status, body = results["/tracez"]
            check(status == 200, "/tracez answers 200")
            tracez = json.loads(body)

            # The process wrote the trace file before lingering.
            try:
                with open(trace_path) as f:
                    trace = json.load(f)
            except (OSError, ValueError) as err:
                trace = None
                print("     " + str(err))
            check(trace is not None, "the --trace-out file parses")
            if trace is not None:
                retained = {q["trace_id"] for q in slowz.get("queries", [])}
                missing = retained - balanced_query_spans(trace)
                check(retained and not missing,
                      "the trace file holds a balanced query span for "
                      "each of the %d queries /slowz retained (missing %s)"
                      % (len(retained), sorted(missing)[:5]))
                dropped = trace.get("otherData", {}).get("droppedEvents")
                check(dropped == tracez.get("dropped_total"),
                      "trace file droppedEvents equals /tracez "
                      "dropped_total (%s == %s)"
                      % (dropped, tracez.get("dropped_total")))
            check(results["/"][0] == 200, "/ lists the endpoints")
            check(results["/definitely-missing"][0] == 404,
                  "unknown endpoint answers 404")
        finally:
            try:
                proc.terminate()
                proc.wait(timeout=30)
            except Exception:
                proc.kill()

    print("%d checks failed" % len(failures) if failures
          else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
