"""UDP capacity probe: a 64-member ``repro serve`` group on a tick ladder.

Diagnostic, never gated.  One ``repro serve --members 64 --json``
process per rung of the tick ladder (40/20/10/5 ms), all members on the
host's loopback interface.  A rung whose completeness is below 1.0 is
the finding (one tick's CPU work exceeded the tick and votes were lost),
not an error; only a nonzero exit at the slowest rung is.

    python3 benchmarks/layered/udp_probe.py
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import socket
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
LADDER_MS = (40, 20, 10, 5)
PREFIX = "net.serve.udp64_"


def free_port_block(count: int, attempts: int = 20) -> int:
    """A base port with ``count`` consecutive free UDP ports above it."""
    base = 20000 + (os.getpid() * 97) % 20000
    for attempt in range(attempts):
        candidate = base + attempt * (count + 3)
        sockets = []
        try:
            for port in range(candidate, candidate + count):
                sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                sockets.append(sock)
                sock.bind(("127.0.0.1", port))
            return candidate
        except OSError:
            continue
        finally:
            for sock in sockets:
                sock.close()
    raise OSError(f"no block of {count} free UDP ports found")


def serve_once(members: int, tick_ms: int, seed: int) -> dict:
    """Run one group to the end; the run record plus wall and CPU."""
    command = [
        sys.executable, "-m", "repro", "serve",
        "--members", str(members), "--port", str(free_port_block(members)),
        "--tick", str(tick_ms / 1000.0), "--run-seed", str(seed),
        "--deadline", "30", "--json",
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    done = subprocess.run(command, env=env, capture_output=True, text=True,
                          timeout=60, cwd=ROOT)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    record = {}
    if done.stdout.strip():
        record = json.loads(done.stdout.strip().splitlines()[-1])
    return {
        "exit": done.returncode,
        "wall_s": wall,
        "cpu_s": (after.ru_utime + after.ru_stime
                  - before.ru_utime - before.ru_stime),
        "record": record,
        "stderr": done.stderr[-400:],
    }


def probe(seed: int, members: int = 64, ladder=LADDER_MS):
    """``(metrics, notes, fault)`` of one pass down the ladder.

    ``metrics`` fills the names of the ladder's rungs that were run
    (``--check`` runs a shorter ladder); ``fault`` is non-empty when the
    slowest rung exits nonzero.
    """
    notes = {"load_before": os.getloadavg(), "rungs": {}}
    metrics: dict[str, float] = {}
    fault = ""
    complete = []
    for tick_ms in ladder:
        outcome = serve_once(members, tick_ms, seed)
        record = outcome["record"]
        completeness = float(record.get("completeness") or 0.0)
        notes["rungs"][tick_ms] = {
            "exit": outcome["exit"], "wall_s": outcome["wall_s"],
            "completeness": completeness, "rounds": record.get("rounds"),
        }
        metrics[f"{PREFIX}completeness_t{tick_ms}"] = completeness
        if completeness == 1.0:
            complete.append(tick_ms)
        if tick_ms == max(ladder) and outcome["exit"] != 0:
            fault = (f"repro serve exited {outcome['exit']} at "
                     f"{tick_ms} ms: {outcome['stderr']}")
        if tick_ms == 20 and record:
            net = record.get("net") or {}
            metrics.update({
                f"{PREFIX}wall_s_t20": outcome["wall_s"],
                f"{PREFIX}rounds_t20": record["rounds"],
                f"{PREFIX}datagrams_per_s_t20":
                    net.get("datagrams_received", 0) / outcome["wall_s"],
                f"{PREFIX}cpu_s_t20": outcome["cpu_s"],
                f"{PREFIX}dropped_t20": record["messages_dropped"],
            })
    # Twice the slowest rung stands for "no rung reached 1.0".
    metrics[f"{PREFIX}min_tick_ms"] = (
        min(complete) if complete else 2 * max(ladder)
    )
    notes["load_after"] = os.getloadavg()
    return metrics, notes, fault


if __name__ == "__main__":
    probe_metrics, probe_notes, probe_fault = probe(seed=0)
    for name, value in probe_metrics.items():
        print(f"{name:45s} {value:14.4f}")
    print(json.dumps(probe_notes), file=sys.stderr)
    sys.exit(1 if probe_fault else 0)
