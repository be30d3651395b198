#!/usr/bin/env python
"""CI smoke for the live metrics layer (``make metrics-smoke``).

Starts a 4-node ``repro serve`` group with ``--metrics-port`` and
``--linger``, then, while the group lingers after convergence:

1. scrapes every node's ``/metrics`` (Prometheus text 0.0.4) and
   ``/metrics.json`` (``repro-metrics/1``) and validates both formats;
2. runs ``repro top --once --json`` against all endpoints and asserts
   every node is up, converged, and has nonzero gossip counters;
3. SIGTERMs the group and asserts the clean-stop contract (exit 0)
   plus the final ``repro-run/1`` record carrying the net stats the
   engines report (``messages_rejected``, ``net.pings_sent``, ...);
4. asserts that the ping, pong and rejected-frame counters scraped in
   step 1 sum to the record's ``net`` object: one ledger, read over
   HTTP and in the report, checked end to end over real UDP.

Ports are derived from the PID so parallel CI jobs cannot collide.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import time
import urllib.request

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MEMBERS = 4
BASE_PORT = 20000 + (os.getpid() % 500) * 16
METRICS_PORT = BASE_PORT + MEMBERS + 1


def fail(message: str) -> None:
    print(f"metrics-smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def fetch(path: str, port: int, timeout: float = 2.0) -> bytes:
    url = f"http://127.0.0.1:{port}{path}"
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def wait_for_convergence(deadline: float = 60.0) -> None:
    """Poll node 0's gauges until the whole group reports terminated."""
    started = time.monotonic()
    while time.monotonic() - started < deadline:
        try:
            converged = 0
            for node in range(MEMBERS):
                snapshot = json.loads(
                    fetch("/metrics.json", METRICS_PORT + node)
                )
                family = snapshot["metrics"].get("repro_net_terminated")
                if family and family["samples"][0]["value"] == 1:
                    converged += 1
            if converged == MEMBERS:
                return
        except OSError:
            pass
        time.sleep(0.25)
    fail("group did not converge within the deadline")


def check_prometheus_text(port: int) -> None:
    text = fetch("/metrics", port).decode("utf-8")
    lines = text.splitlines()
    if not any(line.startswith("# TYPE ") for line in lines):
        fail("/metrics has no TYPE comments")
    if "repro_net_tx_total" not in text:
        fail("/metrics lacks repro_net_tx_total")
    for line in lines:
        if line.startswith("#") or not line:
            continue
        name_part, _, value = line.rpartition(" ")
        if not name_part:
            fail(f"unparseable exposition line: {line!r}")
        try:
            float(value)
        except ValueError:
            fail(f"non-numeric sample value in line: {line!r}")


def check_json_snapshot(port: int) -> dict:
    snapshot = json.loads(fetch("/metrics.json", port))
    if snapshot.get("schema") != "repro-metrics/1":
        fail(f"bad snapshot schema: {snapshot.get('schema')!r}")
    gossip_tx = sum(
        sample["value"]
        for sample in snapshot["metrics"]["repro_net_tx_total"]["samples"]
        if "gossip" in sample["labels"]
    )
    if gossip_tx <= 0:
        fail("node sent no gossip according to its own registry")
    return snapshot


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    serve = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--members", str(MEMBERS),
            "--port", str(BASE_PORT),
            "--metrics-port", str(METRICS_PORT),
            "--tick", "0.02",
            "--rounds-factor-c", "2.0",
            "--deadline", "60",
            "--linger", "120",
            "--json",
        ],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        wait_for_convergence()
        for node in range(MEMBERS):
            check_prometheus_text(METRICS_PORT + node)
        snapshots = [
            check_json_snapshot(METRICS_PORT + node)
            for node in range(MEMBERS)
        ]
        print(f"exposition ok: {MEMBERS} nodes serving both formats")

        top = subprocess.run(
            [
                sys.executable, "-m", "repro", "top", "--once", "--json",
                *(f"127.0.0.1:{METRICS_PORT + n}"
                  for n in range(MEMBERS)),
            ],
            cwd=REPO_ROOT, env=env,
            capture_output=True, text=True, timeout=30,
        )
        if top.returncode != 0:
            fail(f"repro top exited {top.returncode}: {top.stderr}")
        record = json.loads(top.stdout)
        if record.get("schema") != "repro-top/1":
            fail(f"bad top schema: {record.get('schema')!r}")
        if record["nodes_up"] != MEMBERS:
            fail(f"top saw {record['nodes_up']}/{MEMBERS} nodes up")
        if record["nodes_converged"] != MEMBERS:
            fail(f"top saw {record['nodes_converged']}/{MEMBERS} "
                 "converged")
        for row in record["nodes"]:
            if not row["tx_total"] or not row["rx_total"]:
                fail(f"zero gossip counters at {row['endpoint']}")
        print("repro top ok: all nodes up, converged, nonzero counters")
    finally:
        serve.send_signal(signal.SIGTERM)
        stdout, stderr = serve.communicate(timeout=30)

    if serve.returncode != 0:
        fail(f"serve exited {serve.returncode} on SIGTERM: {stderr}")
    report = json.loads(stdout.strip().splitlines()[-1])
    if report.get("schema") != "repro-run/1":
        fail(f"bad final report schema: {report.get('schema')!r}")
    if report["completeness"] != 1.0:
        fail(f"group converged incomplete: {report['completeness']}")
    if "messages_rejected" not in report:
        fail("final report lacks messages_rejected")
    net = report.get("net")
    if not net or net.get("pings_sent", 0) <= 0:
        fail(f"final report lacks liveness stats: {net!r}")
    print("final report ok: repro-run/1 with net/liveness stats, "
          "clean SIGTERM exit")
    # The ticker stopped at convergence, so nothing was sent between
    # the scrape and the report: both read the same final ledger.
    for family, key in (
        ("repro_net_pings_sent_total", "pings_sent"),
        ("repro_net_pongs_received_total", "pongs_received"),
        ("repro_net_rx_rejected_total", "frames_rejected"),
    ):
        scraped = sum(
            sample["value"]
            for snapshot in snapshots
            for sample in snapshot["metrics"][family]["samples"]
        )
        if scraped != net[key]:
            fail(f"{family} scraped {scraped}, report says "
                 f"net.{key} = {net[key]}")
    print("one ledger ok: scraped counters equal the report's net object")
    print("metrics smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
