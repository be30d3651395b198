"""A deterministic in-memory datagram router over :class:`NetNode`.

This is the cross-runtime golden harness: it drives a whole group of
real net nodes — real codec, real address books, real tick loop —
without sockets or wall clock, so a run is exactly reproducible and
directly comparable with the simulator under the same seed.

Delivery model: a datagram sent during tick ``t`` (whether from a tick
callback or from handling an inbound datagram) is delivered at the
start of tick ``t + 1``, in send order, before any node takes its
round.  That is the simulator's fixed one-round latency and its
deliver-before-step ordering, which is what makes a lossless loopback
run gossip-decision-identical to a lossless simulated run.

By default every node's address book is pre-filled so the whole group
starts its protocol on tick 0 — the simulator's simultaneous start,
required for the golden comparison.  ``bootstrap=True`` instead starts
nodes knowing only node 0's address and exercises the join handshake;
starts are then staggered by a few ticks (the protocol tolerates this:
gossip reaching an unstarted member is dropped and re-pushed by the
epidemic redundancy).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.core.aggregates import get_aggregate
from repro.core.protocol import (
    CompletenessReport,
    measure_completeness,
    measure_estimates,
)
from repro.net.bootstrap import Address
from repro.net.node import (
    NetNode,
    NodeConfig,
    make_votes,
    net_stats_record,
)
from repro.obs.metrics import MetricsRegistry

__all__ = [
    "NetRunConfigView",
    "NetRunReport",
    "group_report",
    "run_loopback_group",
]


@dataclass(frozen=True)
class NetRunConfigView:
    """The config subset :func:`repro.obs.export.run_result_record`
    reads — a loopback run reports through the same ``repro-run/1``
    schema as a simulated one."""

    protocol: str
    n: int
    k: int
    seed: int
    aggregate: str
    campaign: None = None


@dataclass
class NetRunReport:
    """Result of one loopback group run (RunResult-shaped, duck-typed)."""

    config: NetRunConfigView
    report: CompletenessReport
    rounds: int
    messages_sent: int
    messages_dropped: int
    bytes_sent: int
    crashes: int
    true_value: float
    mean_estimate_error: float
    recoveries: int = 0
    messages_rejected: int = 0
    mean_coverage: float = float("nan")
    #: Final global-aggregate estimate per member id.
    estimates: dict[int, float] = field(default_factory=dict)
    converged: bool = True
    #: Liveness/codec accounting (repro.net.node.net_stats_record).
    net: dict | None = None

    @property
    def completeness(self) -> float:
        return self.report.mean_completeness

    @property
    def incompleteness(self) -> float:
        return self.report.mean_incompleteness


class LoopbackRouter:
    """Next-tick datagram queue shared by a group of loopback nodes."""

    def __init__(self) -> None:
        self._pending: list[tuple[bytes, Address, Address]] = []

    def sender_for(self, address: Address):
        """A ``transport_send`` bound to ``address`` as the source."""
        def transport_send(data: bytes, dest: Address) -> None:
            self._pending.append((data, dest, address))
        return transport_send

    def take(self) -> list[tuple[bytes, Address, Address]]:
        """Drain everything queued so far (one tick's worth)."""
        batch, self._pending = self._pending, []
        return batch


@lru_cache(maxsize=1 << 16)  # one tuple per id, not one per book entry
def loopback_address(node_id: int) -> Address:
    return ("loopback", node_id)


def run_loopback_group(
    group_size: int,
    k: int = 4,
    seed: int = 0,
    rounds_factor_c: float = 1.0,
    bootstrap: bool = False,
    registry: MetricsRegistry | None = None,
) -> NetRunReport:
    """Run one whole group to convergence over the in-memory router
    (the other :class:`NodeConfig` fields at their defaults)."""
    router = LoopbackRouter()
    nodes: list[NetNode] = []
    for node_id in range(group_size):
        config = NodeConfig(
            node_id=node_id,
            group_size=group_size,
            k=k,
            seed=seed,
            rounds_factor_c=rounds_factor_c,
        )
        address = loopback_address(node_id)
        node = NetNode(
            config,
            router.sender_for(address),
            seeds=(loopback_address(0),) if (bootstrap and node_id != 0)
            else (),
            registry=registry,
        )
        node.register_self(address)
        if not bootstrap:
            for peer in range(group_size):
                node.book.record(peer, loopback_address(peer))
        nodes.append(node)
    by_address = {loopback_address(n.config.node_id): n for n in nodes}
    horizon = nodes[0].max_ticks
    if bootstrap:
        # Join/welcome round trips delay the staggered starts; two extra
        # book-convergence rounds per member of slack is generous.
        horizon += 2 * group_size + 10
    ticks = 0
    while ticks < horizon:
        for data, dest, src in router.take():
            receiver = by_address.get(dest)
            if receiver is not None:
                # Like UDP, the receiver sees the *sender's* address —
                # the bootstrap Welcome replies to it.
                receiver.datagram_received(data, src)
        done = True
        for node in nodes:
            if not node.tick():
                done = False
        ticks += 1
        if done:
            break
    return group_report(nodes, ticks)


def group_report(nodes: list[NetNode], ticks: int) -> NetRunReport:
    """Measure a whole hosted group after ``ticks`` ticks.

    The one report tail of the net runtime: the loopback harness and
    ``repro serve --json`` both end here, so both speak ``repro-run/1``
    with the same books.
    """
    config = nodes[0].config
    processes = [node.process for node in nodes]
    report = measure_completeness(processes, group_size=config.group_size)
    function = get_aggregate(config.aggregate)
    true_value = function.finalize(function.over(make_votes(config)))
    mean_error, mean_coverage, estimates = measure_estimates(
        processes, report, true_value
    )
    return NetRunReport(
        config=NetRunConfigView(
            protocol="hierarchical_gossip",
            n=config.group_size,
            k=config.k,
            seed=config.seed,
            aggregate=config.aggregate,
        ),
        report=report,
        rounds=ticks,
        messages_sent=sum(n.stats.messages_sent for n in nodes),
        messages_dropped=sum(
            n.stats.gossip_dropped_unstarted + n.stats.frames_rejected
            for n in nodes
        ),
        bytes_sent=sum(n.stats.bytes_sent for n in nodes),
        crashes=0,
        true_value=true_value,
        mean_estimate_error=mean_error,
        mean_coverage=mean_coverage,
        messages_rejected=sum(n.stats.sends_rejected for n in nodes),
        estimates=estimates,
        converged=all(node.terminated for node in nodes),
        net=net_stats_record(nodes),
    )
