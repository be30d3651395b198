"""``repro serve`` — live localhost UDP nodes computing an aggregate.

Two modes:

* **Group mode** (default): host all ``--members`` nodes in one
  process, each on its own UDP port (``--port`` .. ``--port+N-1``),
  node 0 acting as the bootstrap seed.  This is the smoke-test and
  demo topology (``make serve-smoke`` drives it in CI).
* **Single-node mode** (``--node ID``): host exactly one member and
  bootstrap against ``--seed HOST:PORT`` — run N copies of the command
  (one per id) to spread a group over processes or machines.

Every node ticks on the shared wall-clock :class:`~repro.net.clock.
RoundTicker`; the protocol itself is the untouched
:class:`~repro.core.hierarchical_gossip.HierarchicalGossipProcess`
driven through :class:`~repro.net.node.NetNode`.

Exit codes: 0 once every hosted node converged (or on SIGTERM/SIGINT —
stopping a live node is success, and registered shutdown callbacks run
on the way out); 1 if ``--deadline`` elapses first.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

from repro import shutdown
from repro.net.clock import RoundTicker
from repro.net.exposition import MetricsServer, start_metrics_server
from repro.net.loopback import group_report
from repro.net.node import NetNode, NodeConfig
from repro.obs.metrics import MetricsRegistry

__all__ = ["run_serve"]


class _NodeProtocol(asyncio.DatagramProtocol):
    """Feeds an endpoint's datagrams into one :class:`NetNode`.

    The endpoint must exist before its node (the node's transport_send
    wraps the endpoint's transport), so the node arrives via a one-slot
    holder; datagrams racing the constructor are dropped — UDP loss the
    bootstrap retry loop already absorbs.
    """

    def __init__(self, holder: list[NetNode]):
        self.holder = holder

    def datagram_received(self, data: bytes, addr) -> None:
        if self.holder:
            self.holder[0].datagram_received(data, (addr[0], addr[1]))


def _node_config(args: argparse.Namespace, node_id: int) -> NodeConfig:
    return NodeConfig(
        node_id=node_id,
        group_size=args.members,
        k=args.k,
        seed=args.run_seed,
        aggregate=args.aggregate,
        fanout_m=args.fanout,
        rounds_factor_c=args.rounds_factor_c,
    )


async def _open_nodes(
    args: argparse.Namespace, loop: asyncio.AbstractEventLoop
) -> tuple[
    list[NetNode],
    list[asyncio.DatagramTransport],
    list[MetricsServer],
]:
    """Bind every hosted node to its UDP endpoint (and, under
    ``--metrics-port``, its own registry + exposition listener)."""
    if args.node is not None:
        ids = [args.node]
    else:
        ids = list(range(args.members))
    nodes: list[NetNode] = []
    transports: list[asyncio.DatagramTransport] = []
    metrics_servers: list[MetricsServer] = []
    metrics_port = getattr(args, "metrics_port", None)
    seed_address = args.seed if args.seed is not None else (
        args.host, args.port
    )
    for node_id in ids:
        port = args.port if args.node is not None else args.port + node_id
        config = _node_config(args, node_id)
        registry: MetricsRegistry | None = None
        if metrics_port is not None:
            registry = MetricsRegistry()
            # Mirror the UDP port layout: one exposition endpoint per
            # hosted node, metrics_port + node_id in group mode.
            expose_on = (
                metrics_port if args.node is not None
                else metrics_port + node_id
            )
            metrics_servers.append(await start_metrics_server(
                registry, expose_on, host=args.host
            ))
        holder: list[NetNode] = []
        transport, __ = await loop.create_datagram_endpoint(
            lambda holder=holder: _NodeProtocol(holder),
            local_addr=(args.host, port),
        )
        node = NetNode(
            config,
            lambda data, address, t=transport: t.sendto(data, address),
            seeds=() if node_id == 0 and args.seed is None
            else (seed_address,),
            registry=registry,
        )
        holder.append(node)
        bound = transport.get_extra_info("sockname")
        node.register_self((bound[0], bound[1]))
        nodes.append(node)
        transports.append(transport)
    return nodes, transports, metrics_servers


def _status_line(nodes: list[NetNode]) -> str:
    done = sum(1 for node in nodes if node.terminated)
    started = sum(1 for node in nodes if node.started)
    ticks = max((node.tick_count for node in nodes), default=0)
    return (
        f"tick {ticks}: {started}/{len(nodes)} started, "
        f"{done}/{len(nodes)} converged"
    )


def _final_report(nodes: list[NetNode]) -> dict:
    """A ``repro-run/1`` record for group mode (JSON output)."""
    from repro.obs.export import run_result_record

    ticks = max((node.tick_count for node in nodes), default=0)
    return run_result_record(group_report(nodes, ticks))


async def _serve(args: argparse.Namespace) -> int:
    loop = asyncio.get_running_loop()
    nodes, transports, metrics_servers = await _open_nodes(args, loop)
    stop_signal: list[int] = []
    stop_event = asyncio.Event()

    def _tick_all() -> bool:
        for node in nodes:
            node.tick()
        if not args.json and max(n.tick_count for n in nodes) % 20 == 1:
            print(_status_line(nodes), file=sys.stderr)
        return all(node.terminated for node in nodes)

    ticker = RoundTicker(args.tick, _tick_all)
    previous_handlers = {
        signum: signal.getsignal(signum)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(
            signum,
            lambda signum=signum: (stop_signal.append(signum),
                                   ticker.stop(),
                                   stop_event.set()),
        )
    try:
        await asyncio.wait_for(
            ticker.run(),
            timeout=args.deadline if args.deadline > 0 else None,
        )
        timed_out = False
        linger = getattr(args, "linger", 0.0) or 0.0
        if linger > 0 and not stop_signal:
            # Keep the metrics endpoints scrapeable after convergence
            # (CI's metrics-smoke needs a window to curl them); a
            # signal ends the linger early and still exits 0.
            try:
                await asyncio.wait_for(stop_event.wait(), timeout=linger)
            except asyncio.TimeoutError:
                pass
    except asyncio.TimeoutError:
        timed_out = True
    finally:
        for transport in transports:
            transport.close()
        for server in metrics_servers:
            await server.close()
        # Restore the host process's handlers before the loop closes —
        # remove_signal_handler would reset to SIG_DFL and clobber the
        # repro.shutdown handler (the CLI runs in-process under pytest).
        for signum, handler in previous_handlers.items():
            loop.remove_signal_handler(signum)
            signal.signal(signum, handler)
    converged = all(node.terminated for node in nodes)
    if stop_signal:
        # Operator-requested stop: success by contract.  The JSON
        # record still goes out (a SIGTERM ending a --linger window is
        # the normal way CI tears a metrics-smoke group down).
        print(
            f"stopped by signal {stop_signal[0]} — {_status_line(nodes)}",
            file=sys.stderr,
        )
        if args.json and args.node is None:
            print(json.dumps(_final_report(nodes), sort_keys=True))
        return 0
    if args.json and args.node is None:
        print(json.dumps(_final_report(nodes), sort_keys=True))
    else:
        for node in nodes:
            process = node.process
            if process.result is not None:
                estimate = process.function.finalize(process.result)
                print(
                    f"node {node.config.node_id}: {args.aggregate} = "
                    f"{estimate:.6f} "
                    f"(coverage {process.coverage_fraction:.4f}, "
                    f"{node.tick_count} ticks)"
                )
            else:
                print(
                    f"node {node.config.node_id}: not converged "
                    f"({node.tick_count} ticks, "
                    f"book {node.book.known}/{args.members})"
                )
    if timed_out and not converged:
        print("deadline elapsed before convergence", file=sys.stderr)
        return 1
    return 0


def run_serve(args: argparse.Namespace) -> int:
    """Entry point for the ``repro serve`` CLI verb."""
    if args.members < 1:
        print("--members must be positive", file=sys.stderr)
        return 2
    if args.node is not None and not 0 <= args.node < args.members:
        print(
            f"--node {args.node} outside the group 0..{args.members - 1}",
            file=sys.stderr,
        )
        return 2
    if args.node is not None and args.node != 0 and args.seed is None:
        print(
            "--node requires --seed HOST:PORT (unless hosting node 0, "
            "the seed itself)",
            file=sys.stderr,
        )
        return 2
    metrics_port = getattr(args, "metrics_port", None)
    if metrics_port is not None and not 0 < metrics_port < 65536:
        print("--metrics-port must be a valid port", file=sys.stderr)
        return 2
    try:
        return asyncio.run(_serve(args))
    finally:
        shutdown.run_callbacks()
