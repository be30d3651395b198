#!/usr/bin/env python
"""CI smoke: one hostile ``Join`` cannot silence a live group
(``make serve-hostile-smoke``).

Starts an 8-node ``repro serve`` group with a tick slow enough that it
is still gossiping a second later, then sends every member two raw UDP
``Join`` datagrams for member 3: one naming port 70 000, one naming a
host with a NUL byte.  Neither is a socket address: a node that wrote
one into its book raised a non-``OSError`` from its next ``sendto`` to
member 3, and asyncio closed that node's socket, so the group never
converged.  The group must still exit 0 with completeness 1.0.

Ports are derived from the PID so parallel CI jobs cannot collide.
"""

from __future__ import annotations

import json
import os
import pathlib
import socket
import subprocess
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MEMBERS = 8
BASE_PORT = 21000 + (os.getpid() % 500) * 16

#: Wire v3 ``Join`` frames (docs/NET.md): header, kind 1, id 3, then an
#: address (host length, host bytes, port varint).
HOSTILE = (
    b"RA\x03\x01\x03\x09127.0.0.1\xf0\xa2\x04",      # port 70 000
    b"RA\x03\x01\x03\x0a127.0.0.1\x00\x01",          # host "127.0.0.1\0"
)


def fail(message: str) -> None:
    print(f"serve-hostile-smoke FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def main() -> None:
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    group = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--members", str(MEMBERS),
         "--port", str(BASE_PORT), "--tick", "0.3", "--deadline", "60",
         "--json"],
        cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(1.2)
        if group.poll() is not None:
            fail(f"the group ended (exit {group.returncode}) before the "
                 "hostile joins were sent: slow its tick")
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sender:
            for frame in HOSTILE:
                for member in range(MEMBERS):
                    sender.sendto(frame, ("127.0.0.1", BASE_PORT + member))
        out, err = group.communicate(timeout=90)
    finally:
        if group.poll() is None:
            group.kill()
            group.wait()
    if group.returncode != 0:
        fail(f"exit {group.returncode}, wanted 0\n{err}")
    try:
        record = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        fail(f"no JSON record on stdout\n{err}")
    if record["completeness"] != 1.0:
        fail(f"completeness {record['completeness']}, wanted 1.0")
    rejected = record["net"]["frames_rejected"]
    if rejected < MEMBERS * len(HOSTILE):
        fail(f"{rejected} frames rejected, wanted at least "
             f"{MEMBERS * len(HOSTILE)}")
    print(f"serve hostile smoke ok: {MEMBERS} UDP nodes converged at "
          f"completeness 1.0 with {rejected} hostile frames rejected")


if __name__ == "__main__":
    main()
