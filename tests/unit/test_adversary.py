"""Unit tests for the adversarial fault model: proof-of-work admission,
WAN region maps, the new fault events, the tamper planner, and the
region-aware chaos network."""

import numpy as np
import pytest

from repro.chaos.adversary import (
    AdversarialSummary,
    TamperPlanner,
    _hash_box,
    _mutate_payload,
    merge_adversarial,
)
from repro.chaos.campaign import ChaosCampaign
from repro.chaos.events import (
    LossBurst,
    MessageTampering,
    RegionPartition,
    SybilJoinStorm,
)
from repro.chaos.pow import admitted_identities, pow_admitted, pow_digest
from repro.core.aggregates import AggregateState
from repro.core.messages import GossipValue, VoteReport
from repro.sim.network import Message
from repro.topology.regions import RegionMap
from tests.planning import loss_of

BOX_GROUPS = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]


class TestProofOfWork:
    def test_zero_bits_admits_everyone(self):
        assert all(pow_admitted(i, 0) for i in range(50))

    def test_digest_is_deterministic(self):
        assert pow_digest(12, 3) == pow_digest(12, 3)
        assert pow_digest(12, 3) != pow_digest(12, 4)

    def test_admission_is_deterministic(self):
        first = admitted_identities(range(100, 140), bits=8)
        second = admitted_identities(range(100, 140), bits=8)
        assert first == second

    def test_harder_puzzles_admit_fewer(self):
        identities = range(200, 280)
        easy = admitted_identities(identities, bits=2)
        hard = admitted_identities(identities, bits=10)
        assert len(hard) < len(easy) <= len(tuple(identities))
        # Hardness is monotone per-identity too: an identity that solves
        # a hard puzzle within the budget has also solved the easy one.
        assert set(hard) <= set(easy)

    def test_budget_bounds_the_search(self):
        identities = range(300, 340)
        tight = admitted_identities(identities, bits=8, budget=1)
        roomy = admitted_identities(identities, bits=8, budget=256)
        assert set(tight) <= set(roomy)

    def test_validation(self):
        with pytest.raises(ValueError):
            pow_admitted(1, bits=-1)
        with pytest.raises(ValueError):
            pow_admitted(1, bits=4, budget=0)


class TestRegionMap:
    def test_regions_are_contiguous_box_runs(self):
        region_map = RegionMap(BOX_GROUPS, num_regions=3)
        regions = [region_map.region_of(group[0]) for group in BOX_GROUPS]
        assert regions == sorted(regions)  # contiguous runs, in order
        assert set(regions) == {0, 1, 2}

    def test_members_inherit_their_boxes_region(self):
        region_map = RegionMap(BOX_GROUPS, num_regions=2)
        for group in BOX_GROUPS:
            assert len({region_map.region_of(m) for m in group}) == 1

    def test_sizes_balance_within_one_box(self):
        region_map = RegionMap(BOX_GROUPS, num_regions=3)
        assert sum(region_map.region_sizes) == 12
        assert max(region_map.region_sizes) - min(
            region_map.region_sizes
        ) <= 2  # one box of 2 members

    def test_members_of_round_trips(self):
        region_map = RegionMap(BOX_GROUPS, num_regions=3)
        seen = []
        for region in range(3):
            members = region_map.members_of(region)
            assert all(region_map.region_of(m) == region for m in members)
            seen.extend(members)
        assert sorted(seen) == list(range(12))

    def test_validation(self):
        with pytest.raises(ValueError, match="num_regions"):
            RegionMap(BOX_GROUPS, num_regions=1)
        with pytest.raises(ValueError, match="cannot split"):
            RegionMap(BOX_GROUPS[:2], num_regions=3)
        with pytest.raises(ValueError, match="out of range"):
            RegionMap(BOX_GROUPS, num_regions=3).members_of(3)
        with pytest.raises(KeyError):
            RegionMap(BOX_GROUPS, num_regions=3).region_of(99)


class TestAdversarialEvents:
    def test_tampering_validates_rate_and_mode(self):
        MessageTampering(start=0.1, stop=0.5, rate=0.0)  # control arm ok
        with pytest.raises(ValueError, match="rate"):
            MessageTampering(start=0.1, stop=0.5, rate=-1.0)
        with pytest.raises(ValueError, match="mode"):
            MessageTampering(start=0.1, stop=0.5, rate=1.0, mode="spoof")

    def test_sybil_validates_count_and_pow(self):
        with pytest.raises(ValueError, match="count"):
            SybilJoinStorm(at=0.1, count=0)
        with pytest.raises(ValueError, match="pow_bits"):
            SybilJoinStorm(at=0.1, count=5, pow_bits=-1)
        with pytest.raises(ValueError, match="pow_budget"):
            SybilJoinStorm(at=0.1, count=5, pow_budget=0)

    def test_region_partition_validates_isolated(self):
        with pytest.raises(ValueError, match="isolated"):
            RegionPartition(start=0.1, stop=0.5, isolated=())
        with pytest.raises(ValueError, match="isolated"):
            RegionPartition(start=0.1, stop=0.5, num_regions=3,
                            isolated=(3,))
        with pytest.raises(ValueError, match="isolated"):
            RegionPartition(start=0.1, stop=0.5, num_regions=2,
                            isolated=(0, 1))

    def test_loss_burst_needs_exactly_one_rate(self):
        with pytest.raises(ValueError, match="exactly one"):
            LossBurst(start=0.1, stop=0.2)
        with pytest.raises(ValueError, match="exactly one"):
            LossBurst(start=0.1, stop=0.2, loss=0.5, delta=0.1)


def _aggregate_state(member: int) -> AggregateState:
    return AggregateState(float(member), frozenset((member,)))


def _planner(*timeline) -> TamperPlanner:
    return TamperPlanner(timeline, BOX_GROUPS)


def _tampering(rate, mode="forge", rounds=10):
    """A tampering window over rounds [0, rounds), as compiled."""
    return (0, rounds, MessageTampering(start=0.0, stop=1.0, rate=rate,
                                        mode=mode))


def _sybils(count, at=0, pow_bits=0):
    """A Sybil storm in round ``at`` of a 10-round horizon, as compiled."""
    return (at, at + 1, SybilJoinStorm(at=at / 10, count=count,
                                       pow_bits=pow_bits))


class _InjectLog:
    """Minimal engine stand-in recording planner injections."""

    def __init__(self):
        self.injected = []

    def inject(self, delivery_round, message):
        self.injected.append((delivery_round, message))


class TestTamperPlanner:
    def _bound(self, *timeline):
        planner = _planner(*timeline)
        log = _InjectLog()
        planner.bind(log, np.random.default_rng(1234))
        return planner, log

    def _snoop(self, planner, members=range(6)):
        for member in members:
            planner.observe(Message(
                src=member, dest=(member + 1) % 12,
                payload=GossipValue(1, member, _aggregate_state(member)),
                size=10, sent_round=0,
            ))

    def test_forge_injects_registered_mutants(self):
        planner, log = self._bound(_tampering(2.0))
        self._snoop(planner)
        planner.on_round_start(3)
        assert len(log.injected) == 2
        assert planner.summary.injected_forge == 2
        for delivery_round, message in log.injected:
            assert delivery_round == 4
            assert message.src == -1
            assert planner.planted_mode(message.payload.state) == "forge"

    def test_duplicate_rekeys_to_another_member(self):
        planner, log = self._bound(_tampering(1.0, "duplicate"))
        self._snoop(planner)
        planner.on_round_start(0)
        ((_, message),) = log.injected
        payload = message.payload
        # The planted state claims the victim's membership under a
        # different genuine member key — a double count by construction.
        assert payload.key not in payload.state.members
        assert planner.planted_mode(payload.state) == "duplicate"

    def test_replay_is_not_registered(self):
        planner, log = self._bound(_tampering(1.0, "replay"))
        self._snoop(planner)
        planner.on_round_start(0)
        ((_, message),) = log.injected
        assert planner.planted_mode(message.payload.state) is None
        assert planner.summary.injected_replay == 1

    def test_empty_archive_injects_nothing(self):
        planner, log = self._bound(_tampering(3.0))
        planner.on_round_start(0)
        assert log.injected == []
        assert planner.summary.injected_total == 0

    def test_sybil_identities_are_foreign(self):
        planner, log = self._bound(_sybils(10))
        self._snoop(planner)
        planner.on_round_start(0)
        assert len(log.injected) == 10
        assert planner.summary.sybil_minted == 10
        assert planner.summary.sybil_admitted == 10
        for __, message in log.injected:
            (identity,) = message.payload.state.members
            assert identity > 11  # beyond every genuine member id

    def test_sybil_storm_defers_until_traffic_exists(self):
        planner, log = self._bound(_sybils(5))
        planner.on_round_start(0)  # nothing snooped yet
        assert log.injected == []
        self._snoop(planner)
        planner.on_round_start(1)  # fires late, exactly once
        assert len(log.injected) == 5
        planner.on_round_start(2)
        assert len(log.injected) == 5

    def test_pow_gate_throttles_the_storm(self):
        open_planner, open_log = self._bound(_sybils(40))
        gated_planner, gated_log = self._bound(_sybils(40, pow_bits=8))
        for planner in (open_planner, gated_planner):
            self._snoop(planner)
            planner.on_round_start(0)
        assert len(open_log.injected) == 40
        assert 0 < len(gated_log.injected) < 40
        assert gated_planner.summary.sybil_minted == 40
        assert gated_planner.summary.sybil_admitted == len(
            gated_log.injected
        )

    def test_same_seed_same_injections(self):
        def run():
            planner = _planner(_tampering(1.5), _sybils(7, at=2))
            log = _InjectLog()
            planner.bind(log, np.random.default_rng(99))
            self._snoop(planner)
            for round_number in range(5):
                planner.on_round_start(round_number)
            return [
                (r, m.dest, m.payload.state.payload)
                for r, m in log.injected
            ], planner.summary

        first_log, first_summary = run()
        second_log, second_summary = run()
        assert first_log == second_log
        assert first_summary == second_summary

    def test_fractional_rate_is_bernoulli(self):
        planner, log = self._bound(_tampering(0.5, rounds=1000))
        self._snoop(planner)
        for round_number in range(1000):
            planner.on_round_start(round_number)
        assert 400 < len(log.injected) < 600

    def test_mutate_payload_disturbs_every_channel(self):
        assert _mutate_payload(3.0) != 3.0
        assert _mutate_payload(7) != 7
        total, count = _mutate_payload((10.0, 4))
        assert (total, count) != (10.0, 4)

    def test_hash_box_is_stable_and_in_range(self):
        for identity in range(50, 70):
            box = _hash_box(identity, 6)
            assert 0 <= box < 6
            assert box == _hash_box(identity, 6)


class TestAdversarialSummary:
    def test_detection_rate_excludes_lost_injections(self):
        summary = AdversarialSummary(injected_forge=10, reached=4,
                                     detected=4)
        assert summary.detection_rate == 1.0
        assert AdversarialSummary().detection_rate == 0.0

    def test_merge(self):
        merged = merge_adversarial([
            AdversarialSummary(injected_forge=2, reached=1, detected=1),
            None,
            AdversarialSummary(sybil_minted=5, sybil_admitted=3,
                               reached=3, detected=2),
        ])
        assert merged.injected_total == 5
        assert merged.reached == 4
        assert merged.detected == 3
        assert merge_adversarial([None, None]) is None

    def test_to_record_is_json_safe(self):
        import json

        record = AdversarialSummary(reached=3, detected=2).to_record()
        assert json.loads(json.dumps(record)) == record
        assert record["detection_rate"] == round(2 / 3, 6)


class TestRegionAwareNetwork:
    def _network(self):
        # Regions of four members each; region 0 is cut off.
        campaign = ChaosCampaign(name="t", description="x", events=(
            RegionPartition(start=0.0, stop=1.0, num_regions=3,
                            isolated=(0,), outbound_loss=0.95,
                            inbound_loss=0.7, wan_loss=0.35),
        ))
        compiled = campaign.compile(horizon=10, base_loss=0.1,
                                    base_pf=0.0, box_groups=BOX_GROUPS)
        compiled.controller.on_round_start(0)
        return compiled.network

    def test_asymmetric_region_loss(self):
        network = self._network()
        isolated = 0      # region 0
        healthy_a = 4     # region 1
        healthy_b = 8     # region 2
        # outbound from the isolated region
        assert loss_of(network, isolated, healthy_a) == 0.95
        # inbound to the isolated region
        assert loss_of(network, healthy_a, isolated) == 0.7
        # healthy WAN floor
        assert loss_of(network, healthy_a, healthy_b) == 0.35
        # intra-region traffic sees only the base rate
        assert loss_of(network, healthy_a, 5) == 0.1
        # an id the map does not hold (a forged sender) crosses nothing
        assert loss_of(network, healthy_a, -1) == 0.1

    def test_region_floor_never_lowers_current_loss(self):
        network = self._network()
        network.current_loss = 0.99
        assert loss_of(network, 4, 8) == 0.99
