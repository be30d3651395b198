"""Asyncio/UDP runtime for the aggregation protocols (``repro serve``).

The protocols in :mod:`repro.core` are written against the explicit
runtime contract of :mod:`repro.core.runtime`; this package is the
second substrate implementing it, next to the discrete-event simulator:

* :mod:`repro.net.codec` — versioned, canonical binary wire framing
  for the protocol payloads and the control plane (join/welcome,
  ping/pong).
* :mod:`repro.net.bootstrap` — the address book and seed-based join.
* :mod:`repro.net.liveness` — ping-based peer liveness, **metrics
  only** (protocol code never consults it; lint rule REP010).
* :mod:`repro.net.node` — the transport-agnostic :class:`NetNode` +
  :class:`NetContext` pair hosting one protocol process.
* :mod:`repro.net.loopback` — an in-memory datagram router driving a
  whole group deterministically (the cross-runtime golden harness).
* :mod:`repro.net.clock` — the wall-clock round ticker (asyncio).
* :mod:`repro.net.serve` — the ``repro serve`` CLI verb: N localhost
  UDP nodes computing a live aggregate.
* :mod:`repro.net.exposition` — the ``--metrics-port`` HTTP listener
  over one node's :class:`~repro.obs.metrics.MetricsRegistry`
  (``/metrics`` Prometheus text, ``/metrics.json``, ``/healthz``).
* :mod:`repro.net.top` — the ``repro top`` CLI verb: polls exposition
  endpoints and renders a live per-node table or a ``repro-top/1``
  JSON snapshot.

Wall-clock time is confined to this package (``clock``/``serve``/
``exposition``/``top``); the layering spec (REP007) lets ``net`` see
only ``core``/``obs``/``sanitize``/``shutdown``/``sim``, and the
determinism rules (REP002) deliberately exempt it — a live network
*is* nondeterministic.  The simulator stays
the golden oracle: ``tests/integration/test_net_golden.py`` runs the
same seeds through both substrates.  See ``docs/NET.md``.
"""

from __future__ import annotations

from repro.net.bootstrap import AddressBook
from repro.net.codec import CodecError, decode, encode
from repro.net.exposition import MetricsServer, start_metrics_server
from repro.net.liveness import LivenessView
from repro.net.loopback import NetRunReport, run_loopback_group
from repro.net.node import (
    NetContext,
    NetNode,
    NodeConfig,
    net_stats_record,
)

__all__ = [
    "AddressBook",
    "CodecError",
    "LivenessView",
    "MetricsServer",
    "NetContext",
    "NetNode",
    "NetRunReport",
    "NodeConfig",
    "decode",
    "encode",
    "net_stats_record",
    "run_loopback_group",
    "start_metrics_server",
]
