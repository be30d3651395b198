"""Compile declarative fault campaigns down to simulator hook points.

A :class:`ChaosCampaign` is a named, seeded timeline of
:mod:`repro.chaos.events` fault events.  :meth:`ChaosCampaign.compile`
lowers it onto the three extension points the simulator already has:

* crash processes (storms, rack wipes, churn) become a
  :class:`CampaignFailureModel` — a
  :class:`~repro.sim.failures.FailureModel` that steps the paper's
  independent per-round crash process and the correlated events
  together;
* loss / latency / partition processes become a mutable
  :class:`ChaosNetwork` driven by a :class:`CampaignController`
  subscribed to the engine's begin-round bus
  (:class:`~repro.sim.events.RoundBus`), so network state changes land
  on exact round boundaries; the adversary's crafted messages enter
  there too (:meth:`~repro.sim.engine.SimulationEngine.inject`);
* all sampling uses the run's seeded ``failures`` stream, keeping every
  campaign bit-for-bit reproducible and safe to fan out across worker
  processes.

Event times are fractions of the run's protocol horizon; ``compile``
resolves them to absolute rounds (see :mod:`repro.chaos.events`).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

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


def _to_round(fraction: float, horizon: int) -> int:
    """Resolve a [0, 1] timeline fraction to an absolute round number."""
    return min(max(0, int(fraction * horizon)), max(0, horizon - 1))


def _reject_overlapping_partitions(
    campaign_name: str,
    windows: Sequence[tuple[int, int, str]],
) -> None:
    """Raise if two partition windows (of any kind) are ever concurrent.

    The network holds exactly one partition state at a time, so two
    active windows would silently last-write-win.  ``windows`` are
    resolved ``(start_round, stop_round, kind)`` triples.
    """
    ordered = sorted(windows)
    for first, second in zip(ordered, ordered[1:]):
        if second[0] < first[1]:
            raise ValueError(
                f"campaign {campaign_name!r}: partition events overlap — "
                f"{first[2]} rounds [{first[0]}, {first[1]}) and "
                f"{second[2]} rounds [{second[0]}, {second[1]}) are "
                f"concurrent; the network can hold only one partition "
                f"at a time"
            )


#: Partition labels of an array of member ids (``PartitionedNetwork``).
_Labels = Callable[[np.ndarray], np.ndarray]


def _residues(parts: int) -> _Labels:
    """Partition labels: each id's residue modulo ``parts``."""
    return lambda ids: ids % parts


def _regions(region_of: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Region of each member id; -1 for an id the map does not hold
    (an answer to a forged sender goes to id -1)."""
    mapped = (ids >= 0) & (ids < len(region_of))
    return np.where(mapped, region_of[np.where(mapped, ids, 0)], -1)


class ChaosNetwork(PartitionedNetwork):
    """A lossy network whose fault state is mutated at round boundaries.

    The :class:`CampaignController` (via the engine's round bus) sets
    ``current_loss``, ``current_extra_latency``, the active
    ``partition`` (``(labels, partl)``, as on
    :class:`~repro.sim.network.PartitionedNetwork`) and the active
    region partition before each round's sends; between mutations the
    model behaves like :class:`~repro.sim.network.LossyNetwork` at its
    loss floor ``ucastl`` (the ``base_loss`` it was built with).  A
    message crossing the partition (or two regions) is lost with the
    larger of its loss floor and ``current_loss``; the drop is counted
    in ``dropped_cross_partition`` (``dropped_cross_region``).  Latency
    may vary from round to round but is uniform within one, so a send
    block shares one delivery round.
    """

    def __init__(self, base_loss: float = 0.25, **kwargs):
        super().__init__(ucastl=base_loss, **kwargs)
        self.current_loss = base_loss
        self.current_extra_latency = 0
        #: Active WAN region partition, or None: (region per member id,
        #: -1 where unmapped; isolated regions; outbound, inbound, wan).
        self.region_state: (
            tuple[np.ndarray, frozenset[int], float, float, float] | None
        ) = None

    def _region_floors(self, src: np.ndarray, dest: np.ndarray):
        """(crosses two mapped regions, WAN loss floor) per message, or
        None without a region partition."""
        if self.region_state is None:
            return None
        region_of, isolated, outbound, inbound, wan = self.region_state
        src_region = _regions(region_of, src)
        dest_region = _regions(region_of, dest)
        crossing = (
            (src_region >= 0) & (dest_region >= 0)
            & (src_region != dest_region)
        )
        cut = sorted(isolated)
        floor = np.where(
            np.isin(src_region, cut), outbound,
            np.where(np.isin(dest_region, cut), inbound, wan),
        )
        return crossing, floor

    def block_loss(self, src, dest):
        loss = self.current_loss
        probability: np.ndarray | float = loss
        region = self._region_floors(src, dest)
        if region is not None:
            crossing, floor = region
            probability = np.where(crossing, np.maximum(floor, loss), loss)
        partition = self.partition
        if partition is not None:
            probability = np.where(
                self._crossings(src, dest), max(partition[1], loss),
                probability,
            )
        return probability

    def block_latency(self, src, dest, rng):
        return 1 + self.current_extra_latency

    def _count_losses(self, src, dest, lost) -> None:
        super()._count_losses(src, dest, lost)
        region = self._region_floors(src, dest)
        if region is not None:
            self.stats.dropped_cross_region += int((lost & region[0]).sum())


class CampaignController:
    """Begin-round subscriber that applies the compiled network timeline.

    Holds the resolved (absolute-round) loss / latency / partition
    windows and rewrites the :class:`ChaosNetwork`'s mutable state every
    round.  Stateless across rounds — each round's state is recomputed
    from the timeline, so the controller is trivially deterministic and
    restart-safe.
    """

    def __init__(
        self,
        network: ChaosNetwork,
        loss_windows: Sequence[tuple[int, int, float]] = (),
        latency_windows: Sequence[tuple[int, int, int]] = (),
        partition_windows: Sequence[tuple[int, int, _Labels, float]] = (),
        loss_delta_windows: Sequence[tuple[int, int, float]] = (),
        region_windows: Sequence[
            tuple[int, int, np.ndarray, frozenset[int], float, float,
                  float]
        ] = (),
        planner: TamperPlanner | None = None,
    ):
        self.network = network
        self.loss_windows = tuple(loss_windows)
        self.latency_windows = tuple(latency_windows)
        self.partition_windows = tuple(partition_windows)
        self.loss_delta_windows = tuple(loss_delta_windows)
        self.region_windows = tuple(region_windows)
        self.planner = planner
        #: Rounds during which any window was active (telemetry).
        self.degraded_rounds = 0

    def on_round_start(self, round_number: int) -> None:
        network = self.network
        loss = network.ucastl
        for start, stop, value in self.loss_windows:
            if start <= round_number < stop:
                loss = max(loss, value)
        # Additive bursts stack on top of the absolute floor; the sum is
        # clamped so overlapping deltas on a nonzero base stay a valid
        # probability.
        delta_sum = 0.0
        for start, stop, delta in self.loss_delta_windows:
            if start <= round_number < stop:
                delta_sum += delta
        if delta_sum > 0.0:
            loss = min(1.0, loss + delta_sum)
        extra_latency = 0
        for start, stop, extra in self.latency_windows:
            if start <= round_number < stop:
                extra_latency = max(extra_latency, extra)
        partition: tuple[_Labels, float] | None = None
        for start, stop, labels, partl in self.partition_windows:
            if start <= round_number < stop:
                partition = (labels, partl)
        region_state = None
        for (start, stop, region_of, isolated, outbound, inbound,
             wan) in self.region_windows:
            if start <= round_number < stop:
                region_state = (region_of, isolated, outbound, inbound, wan)
        degraded = (
            loss != network.ucastl
            or extra_latency > 0
            or partition is not None
            or region_state is not None
        )
        if degraded:
            self.degraded_rounds += 1
        network.current_loss = loss
        network.current_extra_latency = extra_latency
        network.partition = partition
        network.region_state = region_state
        if self.planner is not None:
            # Last: injections for this round are crafted after the
            # network state above is in place.
            self.planner.on_round_start(round_number)


class CampaignFailureModel(FailureModel):
    """Correlated crash / recovery processes layered over iid crashes.

    Stepped once per round by the engine with the seeded ``failures``
    stream; all victim sampling happens here, in a fixed order (base iid
    draws, then storms, then rack wipes, then churn), so adding an event
    type never perturbs the draws of another.
    """

    def __init__(
        self,
        base_pf: float = 0.0,
        storms: Sequence[tuple[int, float]] = (),
        rack_wipes: Sequence[tuple[int, float, int | None]] = (),
        churn_windows: Sequence[tuple[int, int, float, int, int]] = (),
        box_groups: Sequence[Sequence[int]] = (),
    ):
        self.base = CrashWithoutRecovery(pf=base_pf) if base_pf > 0 else None
        self.storms = tuple(storms)
        self.rack_wipes = tuple(rack_wipes)
        self.churn_windows = tuple(churn_windows)
        self.box_groups = tuple(tuple(group) for group in box_groups)
        for __, boxes, __rec in self.rack_wipes:
            if boxes > 0 and not self.box_groups:
                raise ValueError(
                    "a CorrelatedCrash event needs box_groups (the "
                    "member-by-grid-box partition) to sample victims from"
                )
        self._pending_recovery: dict[int, set[int]] = {}
        self.may_recover = bool(self.churn_windows) or any(
            recover is not None for __, __b, recover in self.rack_wipes
        )

    def step(self, round_number, alive_ids, crashed_ids, rng):
        to_crash: set[int] = set()
        to_recover: set[int] = set()
        if self.base is not None:
            crashed, __ = self.base.step(
                round_number, alive_ids, crashed_ids, rng
            )
            to_crash |= crashed
        for at, fraction in self.storms:
            if at != round_number or not alive_ids:
                continue
            count = int(round(fraction * len(alive_ids)))
            if count >= len(alive_ids):
                to_crash |= set(alive_ids)
            elif count > 0:
                picks = rng.choice(len(alive_ids), size=count, replace=False)
                to_crash |= {alive_ids[int(i)] for i in picks}
        for at, boxes, recover_round in self.rack_wipes:
            if at != round_number or not self.box_groups:
                continue
            count = max(1, int(round(boxes * len(self.box_groups))))
            count = min(count, len(self.box_groups))
            picks = rng.choice(len(self.box_groups), size=count, replace=False)
            victims = {
                member
                for i in sorted(int(p) for p in picks)
                for member in self.box_groups[i]
            }
            to_crash |= victims
            if recover_round is not None:
                self._pending_recovery.setdefault(
                    recover_round, set()
                ).update(victims)
        for start, stop, rate, delay_low, delay_high in self.churn_windows:
            if not start <= round_number < stop or not alive_ids or rate <= 0:
                continue
            draws = rng.random(len(alive_ids))
            for node_id, draw in zip(alive_ids, draws):
                if draw < rate:
                    to_crash.add(node_id)
                    delay = int(rng.integers(delay_low, delay_high + 1))
                    self._pending_recovery.setdefault(
                        round_number + delay, set()
                    ).add(node_id)
        to_recover |= self._pending_recovery.pop(round_number, set())
        return to_crash, to_recover


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
        storms: list[tuple[int, float]] = []
        rack_wipes: list[tuple[int, float, int | None]] = []
        churn: list[tuple[int, int, float, int, int]] = []
        loss_windows: list[tuple[int, int, float]] = []
        loss_delta_windows: list[tuple[int, int, float]] = []
        latency_windows: list[tuple[int, int, int]] = []
        partition_windows: list[tuple[int, int, _Labels, float]] = []
        tamper_windows: list[tuple[int, int, float, str]] = []
        sybil_storms: list[tuple[int, int, int, int]] = []
        region_events: list[tuple[int, int, RegionPartition]] = []

        def window(start: float, stop: float) -> tuple[int, int]:
            start_round = _to_round(start, horizon)
            stop_round = max(start_round + 1, int(stop * horizon))
            return start_round, stop_round

        for event in self.events:
            if isinstance(event, CrashStorm):
                storms.append((_to_round(event.at, horizon), event.fraction))
            elif isinstance(event, CorrelatedCrash):
                recover = (
                    None
                    if event.recover_at is None
                    else max(
                        _to_round(event.at, horizon) + 1,
                        _to_round(event.recover_at, horizon),
                    )
                )
                rack_wipes.append(
                    (_to_round(event.at, horizon), event.boxes, recover)
                )
            elif isinstance(event, ChurnWindow):
                start, stop = window(event.start, event.stop)
                low, high = event.recovery_delay
                churn.append((start, stop, event.crash_rate, low, high))
            elif isinstance(event, PartitionWindow):
                start, stop = window(event.start, event.stop)
                partition_windows.append(
                    (start, stop, _residues(event.parts), event.partl)
                )
            elif isinstance(event, RegionPartition):
                start, stop = window(event.start, event.stop)
                region_events.append((start, stop, event))
            elif isinstance(event, LossBurst):
                start, stop = window(event.start, event.stop)
                if event.loss is not None:
                    loss_windows.append((start, stop, event.loss))
                else:
                    assert event.delta is not None
                    loss_delta_windows.append((start, stop, event.delta))
            elif isinstance(event, LatencyBurst):
                start, stop = window(event.start, event.stop)
                latency_windows.append((start, stop, event.extra_rounds))
            elif isinstance(event, MessageTampering):
                start, stop = window(event.start, event.stop)
                tamper_windows.append((start, stop, event.rate, event.mode))
            elif isinstance(event, SybilJoinStorm):
                sybil_storms.append(
                    (
                        _to_round(event.at, horizon),
                        event.count,
                        event.pow_bits,
                        event.pow_budget,
                    )
                )
            else:  # pragma: no cover - guarded by __post_init__
                raise TypeError(f"unknown event type {type(event).__name__}")

        # Two partitions (modulo-class or region) active at once would
        # silently last-write-win inside the controller — reject at
        # compile time instead.
        _reject_overlapping_partitions(
            self.name,
            [(start, stop, "PartitionWindow")
             for start, stop, *__ in partition_windows]
            + [(start, stop, "RegionPartition")
               for start, stop, __ in region_events],
        )

        region_windows: list[
            tuple[int, int, np.ndarray, frozenset[int], float, float,
                  float]
        ] = []
        for start, stop, event in region_events:
            if not box_groups:
                raise ValueError(
                    f"campaign {self.name!r}: a RegionPartition event "
                    f"needs box_groups (the member-by-grid-box partition) "
                    f"to derive the WAN region assignment from"
                )
            region_of = RegionMap(
                box_groups, event.num_regions
            ).region_of_member
            regions = np.full(max(region_of) + 1, -1, dtype=np.int64)
            regions[list(region_of)] = list(region_of.values())
            region_windows.append(
                (
                    start,
                    stop,
                    regions,
                    frozenset(event.isolated),
                    event.outbound_loss,
                    event.inbound_loss,
                    event.wan_loss,
                )
            )

        planner: TamperPlanner | None = None
        if tamper_windows or sybil_storms:
            if not box_groups:
                raise ValueError(
                    f"campaign {self.name!r}: adversarial events "
                    f"(MessageTampering / SybilJoinStorm) need box_groups "
                    f"to know the genuine membership they impersonate"
                )
            planner = TamperPlanner(
                tamper_windows=tamper_windows,
                sybil_storms=sybil_storms,
                box_groups=box_groups,
            )

        network = ChaosNetwork(base_loss=base_loss, **network_kwargs)
        controller = CampaignController(
            network,
            loss_windows=loss_windows,
            latency_windows=latency_windows,
            partition_windows=partition_windows,
            loss_delta_windows=loss_delta_windows,
            region_windows=region_windows,
            planner=planner,
        )
        failure_model = CampaignFailureModel(
            base_pf=base_pf,
            storms=storms,
            rack_wipes=rack_wipes,
            churn_windows=churn,
            box_groups=box_groups,
        )
        return CompiledCampaign(
            campaign=self,
            horizon=horizon,
            network=network,
            failure_model=failure_model,
            controller=controller,
            planner=planner,
        )
