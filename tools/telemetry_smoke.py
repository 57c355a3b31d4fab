#!/usr/bin/env python3
"""End-to-end smoke for the live telemetry server (obs::TelemetryServer).

Usage: telemetry_smoke.py STREAMING_MONITOR_BIN

Boots `streaming_monitor --demo --listen=127.0.0.1:0 --linger
--metrics`, reads the bound endpoint from its stderr announcement, and
exercises all four HTTP endpoints:

    GET /healthz   -> 200 "ok"
    GET /spans     -> 200 chrome://tracing JSON
    GET /status    -> 200 operator JSON with run summaries
    GET /metrics   -> 200 Prometheus exposition  (scraped LAST)

then closes the monitor's stdin (ending --linger) and diffs the
process's final --metrics stdout against the last /metrics scrape
BYTE FOR BYTE. That equality is the tentpole contract: /metrics is
render_prometheus(engine.snapshot()) at scrape time, rate-gauge ticks
happen only inside a /metrics scrape, and nothing else mutates the
registry between that scrape and the exit dump. /metrics must be the
final request -- a later /status or /healthz would not tick the rate
windows, but ordering it last keeps the invariant independent of that.

The port is announced before any monitoring work, so the last scrape
first waits, bounded, for /status to record the demo run as finished
and for the pool to have completed every task it was given: a run's
final counters land when it finishes, and a pool worker counts its
task just after the task returns.

Registered as the `telemetry_smoke` ctest case (integration label) so
./ci.sh's non-unit sweep runs it on every pipeline.
"""

import json
import subprocess
import sys
import time
import urllib.request

ANNOUNCE = "telemetry listening on http://"
SETTLE_TIMEOUT_S = 30


def fail(message):
    print(f"telemetry_smoke: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def get(endpoint, target):
    with urllib.request.urlopen(f"http://{endpoint}{target}",
                                timeout=10) as response:
        return response.status, response.read().decode()


def counter(exposition, name):
    for line in exposition.splitlines():
        if line.startswith(name + " "):
            return line.split()[1]
    return None


def settled_scrape(endpoint):
    """The /metrics scrape taken once the demo run is over: /status shows
    a finished run and none in flight, and the pool has completed as
    many tasks as were submitted. Fails after SETTLE_TIMEOUT_S."""
    deadline = time.monotonic() + SETTLE_TIMEOUT_S
    while True:
        status, body = get(endpoint, "/status")
        if status != 200:
            fail(f"/status while waiting: {status} {body[:200]!r}")
        runs = json.loads(body)["runs"]
        if runs["completed"] + runs["cancelled"] >= 1 and runs["in_flight"] == 0:
            break
        if time.monotonic() > deadline:
            fail(f"demo run not finished after {SETTLE_TIMEOUT_S}s: {runs}")
        time.sleep(0.05)
    while True:
        status, scraped = get(endpoint, "/metrics")
        if status != 200 or "# TYPE" not in scraped:
            fail(f"/metrics: {status} {scraped[:120]!r}")
        submitted = counter(scraped, "kav_pool_tasks_submitted_total")
        if submitted == counter(scraped, "kav_pool_tasks_completed_total"):
            return scraped
        if time.monotonic() > deadline:
            fail(f"pool still busy after {SETTLE_TIMEOUT_S}s")
        time.sleep(0.05)


def main():
    if len(sys.argv) != 2:
        fail("usage: telemetry_smoke.py STREAMING_MONITOR_BIN")
    proc = subprocess.Popen(
        [sys.argv[1], "--demo", "--ops=200", "--metrics",
         "--listen=127.0.0.1:0", "--linger"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    try:
        # stderr is unbuffered; the announcement is printed right after
        # the bind, before any monitoring work.
        endpoint = None
        for _ in range(64):
            line = proc.stderr.readline()
            if not line:
                break
            if ANNOUNCE in line:
                endpoint = line.split(ANNOUNCE, 1)[1].strip().rstrip("/")
                break
        if endpoint is None:
            fail("no 'telemetry listening' announcement on stderr")
        print(f"telemetry_smoke: endpoint {endpoint}")

        status, body = get(endpoint, "/healthz")
        if status != 200 or body != "ok\n":
            fail(f"/healthz: {status} {body!r}")
        status, body = get(endpoint, "/spans")
        if status != 200 or '"traceEvents"' not in body:
            fail(f"/spans: {status} {body[:120]!r}")
        status, body = get(endpoint, "/status")
        if status != 200 or '"server"' not in body or '"runs"' not in body:
            fail(f"/status: {status} {body[:200]!r}")
        scraped = settled_scrape(endpoint)
        print(f"telemetry_smoke: four endpoints OK "
              f"(/metrics {len(scraped)} bytes)")

        # End the linger: the process dumps its final Prometheus render
        # to stdout and exits. Quiescent registry + scrape-time-only
        # rate ticks make that dump identical to the scrape above.
        stdout, stderr = proc.communicate(input="", timeout=60)
        if proc.returncode != 0:
            fail(f"monitor exited {proc.returncode}; stderr:\n{stderr}")
        if stdout != scraped:
            scraped_lines = scraped.splitlines()
            stdout_lines = stdout.splitlines()
            for i, (a, b) in enumerate(zip(scraped_lines, stdout_lines)):
                if a != b:
                    fail("final --metrics stdout diverges from the last "
                         f"/metrics scrape at line {i}:\n"
                         f"  scraped: {a!r}\n  stdout:  {b!r}")
            fail("final --metrics stdout and /metrics scrape differ in "
                 f"length: {len(scraped)} vs {len(stdout)} bytes")
        print("telemetry_smoke: /metrics byte-identical to final dump "
              "-- PASS")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    main()
