"""Compile declarative fault campaigns down to simulator hook points.

A :class:`ChaosCampaign` is a named, seeded timeline of
:mod:`repro.chaos.events` fault events.  :meth:`ChaosCampaign.compile`
resolves each event's fractions of the run's protocol horizon to
absolute rounds, once, into a timeline of ``(start, stop, event)``
entries in campaign order (see :func:`_schedule`), and hands that one
timeline to the three interpreters that apply it on the simulator's
extension points:

* crash processes (storms, rack wipes, churn): a
  :class:`CampaignFailureModel` — a
  :class:`~repro.sim.failures.FailureModel` that steps the paper's
  independent per-round crash process and the correlated events
  together;
* loss / latency / partition processes: a :class:`CampaignController`
  subscribed to the engine's begin-round bus
  (:class:`~repro.sim.events.RoundBus`) rewrites a mutable
  :class:`ChaosNetwork`, so network state changes land on exact round
  boundaries;
* tampering and Sybil storms: a
  :class:`~repro.chaos.adversary.TamperPlanner`, whose crafted messages
  enter there too (:meth:`~repro.sim.engine.SimulationEngine.inject`).

Each interpreter reads the events' own fields.  All sampling uses the
run's seeded ``failures`` (and ``adversary``) streams, keeping every
campaign bit-for-bit reproducible and safe to fan out across worker
processes.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.chaos.adversary import TamperPlanner
from repro.chaos.events import (
    ChurnWindow,
    CorrelatedCrash,
    CrashStorm,
    FaultEvent,
    LatencyBurst,
    LossBurst,
    MessageTampering,
    PartitionWindow,
    RegionPartition,
    SybilJoinStorm,
    Timeline,
)
from repro.sim.failures import CrashWithoutRecovery, FailureModel
from repro.sim.network import PartitionedNetwork
from repro.topology.regions import RegionMap

__all__ = [
    "ChaosCampaign",
    "CompiledCampaign",
    "ChaosNetwork",
    "CampaignFailureModel",
    "CampaignController",
]

#: Partition labels of an array of member ids (``PartitionedNetwork``).
_Labels = Callable[[np.ndarray], np.ndarray]


def _to_round(fraction: float, horizon: int) -> int:
    """Resolve a [0, 1] timeline fraction to an absolute round number."""
    return min(max(0, int(fraction * horizon)), max(0, horizon - 1))


def _schedule(event: Any, horizon: int) -> tuple[int, int, FaultEvent]:
    """An event with its rounds, as ``(start, stop, event)``.

    A window event (``start``/``stop`` fields) is active in rounds
    ``[start, stop)``, at least one round long.  An instant event
    (``at``) fires in round ``start``, and ``stop`` is the round after,
    except for a :class:`CorrelatedCrash` that recovers: its ``stop`` is
    the recovery round, after the wipe.
    """
    if not hasattr(event, "at"):
        start = _to_round(event.start, horizon)
        return start, max(start + 1, int(event.stop * horizon)), event
    start = _to_round(event.at, horizon)
    recover_at = getattr(event, "recover_at", None)
    if recover_at is None:
        return start, start + 1, event
    return start, max(start + 1, _to_round(recover_at, horizon)), event


def _reject_overlapping_partitions(
    campaign_name: str, timeline: Timeline
) -> None:
    """Raise if two partition windows (of any kind) are ever concurrent.

    The network holds exactly one partition state at a time, so two
    active windows would silently last-write-win.
    """
    ordered = sorted(
        (start, stop, type(event).__name__)
        for start, stop, event in timeline
        if isinstance(event, (PartitionWindow, RegionPartition))
    )
    for first, second in zip(ordered, ordered[1:]):
        if second[0] < first[1]:
            raise ValueError(
                f"campaign {campaign_name!r}: partition events overlap — "
                f"{first[2]} rounds [{first[0]}, {first[1]}) and "
                f"{second[2]} rounds [{second[0]}, {second[1]}) are "
                f"concurrent; the network can hold only one partition "
                f"at a time"
            )


def _partition(
    event: PartitionWindow | RegionPartition,
    box_groups: Sequence[Sequence[int]],
) -> tuple[_Labels, float | np.ndarray]:
    """The ``ChaosNetwork.partition`` a partition event sets.

    A :class:`PartitionWindow` labels each id by its residue modulo
    ``parts`` and drops every crossing with ``partl``.  A
    :class:`RegionPartition` labels each id by its WAN region (-1 where
    the region map does not hold it) and drops a crossing with the
    floor of its (source, destination) region pair: outbound from an
    isolated region, else inbound to one, else the WAN floor.
    """
    if isinstance(event, PartitionWindow):
        parts = event.parts
        return (lambda ids: ids % parts), event.partl
    region_of = RegionMap(box_groups, event.num_regions).region_of_member
    regions = np.full(max(region_of) + 1, -1, dtype=np.int64)
    regions[list(region_of)] = list(region_of.values())

    def labels(ids: np.ndarray) -> np.ndarray:
        mapped = (ids >= 0) & (ids < len(regions))
        return np.where(mapped, regions[np.where(mapped, ids, 0)], -1)

    isolated = list(event.isolated)
    floors = np.full((event.num_regions,) * 2, event.wan_loss, dtype=float)
    floors[:, isolated] = event.inbound_loss
    floors[isolated, :] = event.outbound_loss
    return labels, floors


class ChaosNetwork(PartitionedNetwork):
    """A lossy network whose fault state is mutated at round boundaries.

    The :class:`CampaignController` (via the engine's round bus) sets
    ``current_loss``, ``current_extra_latency`` and the active
    ``partition`` before each round's sends; between mutations the model
    behaves like :class:`~repro.sim.network.LossyNetwork` at its loss
    floor ``ucastl`` (the ``base_loss`` it was built with).
    ``partition`` is ``(labels, partl)``, as on
    :class:`~repro.sim.network.PartitionedNetwork`, where ``partl`` may
    also be a matrix of loss floors by (source label, destination
    label), and an id labelled negative crosses nothing.  A message
    crossing the partition is lost with the larger of its floor and
    ``current_loss``; the drop is counted in ``dropped_cross_partition``.
    Latency may vary from round to round but is uniform within one, so
    a send block shares one delivery round.
    """

    def __init__(self, base_loss: float = 0.25, **kwargs):
        super().__init__(ucastl=base_loss, **kwargs)
        self.current_loss = base_loss
        self.current_extra_latency = 0

    def _cut(self, src: np.ndarray, dest: np.ndarray):
        """Which messages cross the partition, and the loss floor of each;
        None while whole."""
        if self.partition is None:
            return None
        labels, partl = self.partition
        source, target = labels(src), labels(dest)
        if isinstance(partl, np.ndarray):
            partl = partl[source, target]
        return (source != target) & (source >= 0) & (target >= 0), partl

    def _crossings(self, src, dest):
        cut = self._cut(src, dest)
        return None if cut is None else cut[0]

    def block_loss(self, src, dest):
        loss = self.current_loss
        cut = self._cut(src, dest)
        if cut is None:
            return loss
        crossings, partl = cut
        return np.where(crossings, np.maximum(partl, loss), loss)

    def block_latency(self, src, dest, rng):
        return 1 + self.current_extra_latency


class CampaignController:
    """Begin-round subscriber that applies the network events.

    Rewrites the :class:`ChaosNetwork`'s mutable state every round from
    the loss bursts, latency bursts and partitions active in it, then
    lets the tamper planner (if any) inject.  Stateless across rounds —
    each round's state is recomputed from the timeline, so the
    controller is trivially deterministic and restart-safe.
    """

    def __init__(
        self,
        network: ChaosNetwork,
        timeline: Timeline = (),
        box_groups: Sequence[Sequence[int]] = (),
        planner: TamperPlanner | None = None,
    ):
        self.network = network
        self.timeline = tuple(timeline)
        self.planner = planner
        #: The partition each partition event sets, by timeline index.
        self._partitions = {
            index: _partition(event, box_groups)
            for index, (__, __, event) in enumerate(self.timeline)
            if isinstance(event, (PartitionWindow, RegionPartition))
        }

    def on_round_start(self, round_number: int) -> None:
        network = self.network
        loss = network.ucastl
        delta_sum = 0.0
        extra_latency = 0
        partition: tuple[_Labels, float | np.ndarray] | None = None
        for index, (start, stop, event) in enumerate(self.timeline):
            if not start <= round_number < stop:
                continue
            if isinstance(event, LossBurst):
                if event.loss is not None:
                    loss = max(loss, event.loss)
                else:
                    assert event.delta is not None
                    delta_sum += event.delta
            elif isinstance(event, LatencyBurst):
                extra_latency = max(extra_latency, event.extra_rounds)
            elif index in self._partitions:
                partition = self._partitions[index]
        # Additive bursts stack on top of the absolute floor; the sum is
        # clamped so overlapping deltas on a nonzero base stay a valid
        # probability.
        if delta_sum > 0.0:
            loss = min(1.0, loss + delta_sum)
        network.current_loss = loss
        network.current_extra_latency = extra_latency
        network.partition = partition
        if self.planner is not None:
            # Last: injections for this round are crafted after the
            # network state above is in place.
            self.planner.on_round_start(round_number)


class CampaignFailureModel(FailureModel):
    """Correlated crash / recovery processes layered over iid crashes.

    Stepped once per round by the engine with the seeded ``failures``
    stream; all victim sampling happens here, in a fixed order (base iid
    draws, then storms, then rack wipes, then churn, each kind in
    campaign order), so adding an event type never perturbs the draws
    of another.
    """

    def __init__(
        self,
        base_pf: float = 0.0,
        timeline: Timeline = (),
        box_groups: Sequence[Sequence[int]] = (),
    ):
        self.base = CrashWithoutRecovery(pf=base_pf) if base_pf > 0 else None
        self.timeline = tuple(timeline)
        self.box_groups = tuple(tuple(group) for group in box_groups)
        wipes = [event for __, __, event in self.timeline
                 if isinstance(event, CorrelatedCrash)]
        if not self.box_groups and any(wipe.boxes > 0 for wipe in wipes):
            raise ValueError(
                "a CorrelatedCrash event needs box_groups (the "
                "member-by-grid-box partition) to sample victims from"
            )
        self._pending_recovery: dict[int, set[int]] = {}
        self.may_recover = any(
            isinstance(event, ChurnWindow) for __, __, event in self.timeline
        ) or any(wipe.recover_at is not None for wipe in wipes)

    def step(self, round_number, alive_ids, crashed_ids, rng):
        to_crash: set[int] = set()
        if self.base is not None:
            crashed, __ = self.base.step(
                round_number, alive_ids, crashed_ids, rng
            )
            to_crash |= crashed
        timeline = self.timeline
        for at, __, event in timeline:
            if (not isinstance(event, CrashStorm) or at != round_number
                    or not alive_ids):
                continue
            count = int(round(event.fraction * len(alive_ids)))
            if count >= len(alive_ids):
                to_crash |= set(alive_ids)
            elif count > 0:
                picks = rng.choice(len(alive_ids), size=count, replace=False)
                to_crash |= {alive_ids[int(i)] for i in picks}
        groups = self.box_groups
        for at, recover_round, event in timeline:
            if (not isinstance(event, CorrelatedCrash) or at != round_number
                    or not groups):
                continue
            count = max(1, int(round(event.boxes * len(groups))))
            picks = rng.choice(
                len(groups), size=min(count, len(groups)), replace=False
            )
            victims = {
                member
                for i in sorted(int(p) for p in picks)
                for member in groups[i]
            }
            to_crash |= victims
            if event.recover_at is not None:
                self._pending_recovery.setdefault(
                    recover_round, set()
                ).update(victims)
        for start, stop, event in timeline:
            if (not isinstance(event, ChurnWindow)
                    or not start <= round_number < stop
                    or not alive_ids or event.crash_rate <= 0):
                continue
            delay_low, delay_high = event.recovery_delay
            draws = rng.random(len(alive_ids))
            for node_id, draw in zip(alive_ids, draws):
                if draw < event.crash_rate:
                    to_crash.add(node_id)
                    delay = int(rng.integers(delay_low, delay_high + 1))
                    self._pending_recovery.setdefault(
                        round_number + delay, set()
                    ).add(node_id)
        return to_crash, self._pending_recovery.pop(round_number, set())


@dataclass
class CompiledCampaign:
    """A campaign lowered onto one run's concrete round timeline."""

    campaign: "ChaosCampaign"
    horizon: int
    network: ChaosNetwork
    failure_model: CampaignFailureModel
    controller: CampaignController
    planner: TamperPlanner | None = None

    def install(self, engine) -> None:
        """Subscribe the controller to the engine's begin-round bus.

        The engine must be driving this campaign's network and failure
        model — installing onto a different world would silently split
        the timeline in two.  Adversarial campaigns additionally bind
        the tamper planner to the engine (it injects through
        :meth:`~repro.sim.engine.SimulationEngine.inject`) and the run's
        seeded ``adversary`` stream here, and set it as the engine's
        send tap: it snoops every message the members submit, in send
        order.
        """
        if engine.network is not self.network:
            raise ValueError(
                "engine.network is not this campaign's compiled network"
            )
        if engine.failure_model is not self.failure_model:
            raise ValueError(
                "engine.failure_model is not this campaign's compiled model"
            )
        if self.planner is not None:
            self.planner.bind(engine, engine.rngs.stream("adversary"))
            engine.send_tap = self.planner.observe
        engine.round_bus.subscribe(self.controller.on_round_start)


@dataclass(frozen=True)
class ChaosCampaign:
    """A named, composable timeline of fault events.

    ``paper_assumptions`` marks campaigns whose fault processes stay
    inside Theorem 1's model — independent per-message loss plus
    independent per-round crashes — so the robustness harness knows where
    the ``1 - 1/N`` completeness bound must hold and where it is merely
    measured.
    """

    name: str
    description: str
    events: tuple[FaultEvent, ...] = ()
    paper_assumptions: bool = False

    def __post_init__(self):
        if not self.name:
            raise ValueError("campaign name must be non-empty")
        for event in self.events:
            if not isinstance(event, FaultEvent):
                raise TypeError(
                    f"campaign {self.name!r}: {event!r} is not a FaultEvent"
                )
        if self.paper_assumptions and self.events:
            raise ValueError(
                f"campaign {self.name!r} claims paper_assumptions but "
                f"schedules correlated events; Theorem 1's model allows "
                f"only independent loss and per-round crashes"
            )

    @property
    def adversarial(self) -> bool:
        """True when the campaign injects Byzantine traffic (tampered
        messages or Sybil identities) rather than only crash/omission
        faults — such campaigns need the sanitizer's detection oracle."""
        return any(
            isinstance(event, (MessageTampering, SybilJoinStorm))
            for event in self.events
        )

    def compile(
        self,
        horizon: int,
        base_loss: float = 0.25,
        base_pf: float = 0.001,
        box_groups: Sequence[Sequence[int]] = (),
        **network_kwargs,
    ) -> CompiledCampaign:
        """Resolve the timeline against a concrete ``horizon`` (rounds).

        ``base_loss`` / ``base_pf`` are the background independent fault
        rates (the experiment config's ``ucastl`` / ``pf``); events layer
        on top.  ``box_groups`` partitions member ids by grid box for
        rack-correlated events.  ``network_kwargs`` pass through to the
        :class:`ChaosNetwork` (message-size bound, bandwidth cap).
        """
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1 round, got {horizon}")
        timeline = tuple(_schedule(event, horizon) for event in self.events)
        # Two partitions (modulo-class or region) active at once would
        # silently last-write-win inside the controller — reject at
        # compile time instead.
        _reject_overlapping_partitions(self.name, timeline)
        if not box_groups and any(
            isinstance(event, RegionPartition) for event in self.events
        ):
            raise ValueError(
                f"campaign {self.name!r}: a RegionPartition event "
                f"needs box_groups (the member-by-grid-box partition) "
                f"to derive the WAN region assignment from"
            )
        planner: TamperPlanner | None = None
        if self.adversarial:
            if not box_groups:
                raise ValueError(
                    f"campaign {self.name!r}: adversarial events "
                    f"(MessageTampering / SybilJoinStorm) need box_groups "
                    f"to know the genuine membership they impersonate"
                )
            planner = TamperPlanner(timeline, box_groups)
        network = ChaosNetwork(base_loss=base_loss, **network_kwargs)
        controller = CampaignController(
            network, timeline, box_groups, planner
        )
        return CompiledCampaign(
            campaign=self,
            horizon=horizon,
            network=network,
            failure_model=CampaignFailureModel(base_pf, timeline, box_groups),
            controller=controller,
            planner=planner,
        )
