"""Unit tests for the chaos campaign subsystem (events, compiler, models)."""

import numpy as np
import pytest

from repro.chaos import (
    CAMPAIGNS,
    CampaignFailureModel,
    ChaosCampaign,
    ChaosNetwork,
    ChurnWindow,
    CorrelatedCrash,
    CrashStorm,
    LatencyBurst,
    LossBurst,
    PartitionWindow,
    campaign_names,
    get_campaign,
)
from repro.sim.rng import RngRegistry
from tests.planning import loss_of, plan_one


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestEventValidation:
    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            CrashStorm(at=1.5, fraction=0.1)
        with pytest.raises(ValueError):
            CrashStorm(at=0.5, fraction=-0.1)

    def test_window_ordering(self):
        with pytest.raises(ValueError):
            LossBurst(start=0.6, stop=0.4, loss=0.5)
        with pytest.raises(ValueError):
            PartitionWindow(start=0.5, stop=0.5)

    def test_recover_must_follow_crash(self):
        with pytest.raises(ValueError):
            CorrelatedCrash(at=0.5, boxes=0.1, recover_at=0.3)
        CorrelatedCrash(at=0.3, boxes=0.1, recover_at=0.5)  # fine

    def test_churn_delay_validated(self):
        with pytest.raises(ValueError):
            ChurnWindow(start=0.1, stop=0.5, crash_rate=0.01,
                        recovery_delay=(0, 4))
        with pytest.raises(ValueError):
            ChurnWindow(start=0.1, stop=0.5, crash_rate=0.01,
                        recovery_delay=(5, 4))

    def test_latency_burst_needs_delay(self):
        with pytest.raises(ValueError):
            LatencyBurst(start=0.1, stop=0.5, extra_rounds=0)

    def test_partition_parts_validated(self):
        with pytest.raises(ValueError):
            PartitionWindow(start=0.1, stop=0.5, parts=1)


class TestCampaignDefinition:
    def test_name_required(self):
        with pytest.raises(ValueError):
            ChaosCampaign(name="", description="x")

    def test_events_must_be_fault_events(self):
        with pytest.raises(TypeError):
            ChaosCampaign(name="bad", description="x",
                          events=("not-an-event",))

    def test_paper_assumptions_forbids_events(self):
        with pytest.raises(ValueError):
            ChaosCampaign(
                name="cheat", description="x", paper_assumptions=True,
                events=(CrashStorm(at=0.5, fraction=0.1),),
            )


class TestRegistry:
    def test_names_match_registry_keys(self):
        assert list(campaign_names()) == list(CAMPAIGNS)
        for name, campaign in CAMPAIGNS.items():
            assert campaign.name == name

    def test_exactly_one_paper_assumption_campaign(self):
        flagged = [c for c in CAMPAIGNS.values() if c.paper_assumptions]
        assert [c.name for c in flagged] == ["paper-iid"]

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="crash-storm"):
            get_campaign("no-such-campaign")


class TestCompile:
    def test_horizon_validated(self):
        with pytest.raises(ValueError):
            get_campaign("paper-iid").compile(horizon=0)

    def test_fractions_resolve_to_rounds(self):
        storm = CrashStorm(at=0.5, fraction=0.2)
        burst = LossBurst(start=0.25, stop=0.75, loss=0.6)
        campaign = ChaosCampaign(
            name="t", description="x", events=(storm, burst),
        )
        compiled = campaign.compile(horizon=20, base_pf=0.0)
        timeline = ((10, 11, storm), (5, 15, burst))
        assert compiled.failure_model.timeline == timeline
        assert compiled.controller.timeline == timeline

    def test_recovery_round_follows_the_wipe(self):
        wipe = CorrelatedCrash(at=0.5, boxes=0.5, recover_at=0.55)
        campaign = ChaosCampaign(name="t", description="x", events=(wipe,))
        compiled = campaign.compile(horizon=4, base_pf=0.0,
                                    box_groups=[(0, 1), (2, 3)])
        assert compiled.failure_model.timeline == ((2, 3, wipe),)

    def test_degenerate_window_spans_one_round(self):
        campaign = ChaosCampaign(
            name="t", description="x",
            events=(LossBurst(start=0.5, stop=0.55, loss=0.9),),
        )
        compiled = campaign.compile(horizon=4, base_pf=0.0)
        ((start, stop, __),) = compiled.controller.timeline
        assert stop == start + 1

    def test_rack_wipe_requires_box_groups(self):
        campaign = ChaosCampaign(
            name="t", description="x",
            events=(CorrelatedCrash(at=0.5, boxes=0.2),),
        )
        with pytest.raises(ValueError, match="box_groups"):
            campaign.compile(horizon=20, base_pf=0.0)
        campaign.compile(horizon=20, base_pf=0.0,
                         box_groups=[(0, 1), (2, 3)])

    def test_network_kwargs_forwarded(self):
        compiled = get_campaign("paper-iid").compile(
            horizon=10, max_message_size=123
        )
        assert compiled.network.max_message_size == 123


class TestChaosNetwork:
    def test_base_loss_validated(self):
        with pytest.raises(ValueError):
            ChaosNetwork(base_loss=1.5)

    def test_loss_tracks_current_state(self):
        network = ChaosNetwork(base_loss=0.1)
        assert loss_of(network, 0, 1) == 0.1
        network.current_loss = 0.7
        assert loss_of(network, 0, 1) == 0.7

    def test_base_loss_is_the_loss_floor(self):
        network = ChaosNetwork(base_loss=0.1)
        assert network.ucastl == network.current_loss == 0.1

    def test_partition_raises_cross_side_loss(self):
        network = ChaosNetwork(base_loss=0.1)
        network.partition = (lambda ids: ids % 2, 0.9)
        assert loss_of(network, 0, 1) == 0.9  # 0 % 2 != 1 % 2: crossing
        assert loss_of(network, 0, 2) == 0.1  # same side

    def test_latency_adds_current_extra(self):
        network = ChaosNetwork(base_loss=0.0)
        rngs = RngRegistry(0)
        assert plan_one(network, rngs) == 1
        network.current_extra_latency = 3
        assert plan_one(network, rngs) == 4

    def test_partition_boundary_drops_counted(self):
        network = ChaosNetwork(base_loss=0.0)
        network.partition = (lambda ids: ids % 2, 1.0)
        rngs = RngRegistry(0)
        assert plan_one(network, rngs, 0, 1) is None
        assert network.stats.dropped_cross_partition == 1


class TestController:
    def _compiled(self, events, horizon=10):
        campaign = ChaosCampaign(name="t", description="x",
                                 events=tuple(events))
        return campaign.compile(horizon=horizon, base_loss=0.1, base_pf=0.0)

    def test_state_recomputed_each_round(self):
        compiled = self._compiled(
            [LossBurst(start=0.2, stop=0.6, loss=0.8)]
        )
        controller, network = compiled.controller, compiled.network
        controller.on_round_start(0)
        assert network.current_loss == 0.1
        controller.on_round_start(3)
        assert network.current_loss == 0.8
        controller.on_round_start(7)
        assert network.current_loss == 0.1

    def test_overlapping_bursts_take_max(self):
        compiled = self._compiled([
            LossBurst(start=0.0, stop=1.0, loss=0.4),
            LossBurst(start=0.2, stop=0.6, loss=0.7),
        ])
        compiled.controller.on_round_start(3)
        assert compiled.network.current_loss == 0.7

    def test_partition_window_sets_and_clears(self):
        compiled = self._compiled(
            [PartitionWindow(start=0.2, stop=0.6, partl=0.9, parts=2)]
        )
        controller, network = compiled.controller, compiled.network
        controller.on_round_start(3)
        labels, partl = network.partition
        assert partl == 0.9
        assert labels(np.arange(4)).tolist() == [0, 1, 0, 1]
        controller.on_round_start(6)
        assert network.partition is None

    def test_partition_window_drops_until_it_closes(self):
        # The partition-heal path: a window, not the network, heals it.
        campaign = ChaosCampaign(name="t", description="x", events=(
            PartitionWindow(start=0.2, stop=0.6, partl=1.0, parts=2),
        ))
        compiled = campaign.compile(horizon=10, base_loss=0.0, base_pf=0.0)
        controller, network = compiled.controller, compiled.network
        rngs = RngRegistry(0)
        controller.on_round_start(3)
        assert plan_one(network, rngs, 0, 1, sent_round=3) is None
        controller.on_round_start(6)
        assert plan_one(network, rngs, 0, 1, sent_round=6) == 7


def _failure_model(*events, box_groups=()):
    """A campaign's failure model over a 10-round horizon, without the
    background iid crashes."""
    campaign = ChaosCampaign(name="t", description="x", events=events)
    return campaign.compile(
        horizon=10, base_pf=0.0, box_groups=box_groups
    ).failure_model


class TestCampaignFailureModel:
    def test_storm_crashes_requested_fraction(self):
        model = _failure_model(CrashStorm(at=0.5, fraction=0.25))
        alive = list(range(100))
        assert model.step(4, alive, [], _rng()) == (set(), set())
        crash, __ = model.step(5, alive, [], _rng())
        assert len(crash) == 25
        assert crash <= set(alive)

    def test_storm_is_deterministic_under_seed(self):
        model_a = _failure_model(CrashStorm(at=0.5, fraction=0.3))
        model_b = _failure_model(CrashStorm(at=0.5, fraction=0.3))
        alive = list(range(64))
        crash_a, __ = model_a.step(5, alive, [], _rng(7))
        crash_b, __ = model_b.step(5, alive, [], _rng(7))
        assert crash_a == crash_b

    def test_rack_wipe_takes_whole_boxes(self):
        groups = [(0, 1), (2, 3), (4, 5), (6, 7)]
        model = _failure_model(
            CorrelatedCrash(at=0.3, boxes=0.5), box_groups=groups
        )
        crash, __ = model.step(3, list(range(8)), [], _rng())
        assert len(crash) == 4
        for group in groups:
            assert crash >= set(group) or not (crash & set(group))

    def test_rack_wipe_group_recovery(self):
        model = _failure_model(
            CorrelatedCrash(at=0.2, boxes=0.5, recover_at=0.6),
            box_groups=[(0, 1), (2, 3)],
        )
        assert model.may_recover
        crash, __ = model.step(2, [0, 1, 2, 3], [], _rng())
        __, recovered = model.step(6, [], sorted(crash), _rng())
        assert recovered == crash

    def test_churn_recovers_after_delay(self):
        model = _failure_model(  # everyone, fixed delay 2
            ChurnWindow(start=0.0, stop=0.5, crash_rate=1.0,
                        recovery_delay=(2, 2))
        )
        crash, __ = model.step(0, [0, 1], [], _rng())
        assert crash == {0, 1}
        assert model.step(1, [], [0, 1], _rng())[1] == set()
        assert model.step(2, [], [0, 1], _rng())[1] == {0, 1}

    def test_base_pf_layered_in(self):
        model = CampaignFailureModel(base_pf=1.0)
        crash, __ = model.step(0, [1, 2, 3], [], _rng())
        assert crash == {1, 2, 3}

    def test_no_recovery_without_recovering_events(self):
        model = _failure_model(CrashStorm(at=0.1, fraction=0.5))
        assert not model.may_recover


class TestInstallGuards:
    def test_install_rejects_foreign_engine(self):
        from repro.sim.engine import SimulationEngine
        from repro.sim.network import LossyNetwork

        compiled = get_campaign("loss-burst").compile(horizon=10)
        engine = SimulationEngine(
            network=LossyNetwork(), rngs=RngRegistry(0), max_rounds=5
        )
        with pytest.raises(ValueError, match="network"):
            compiled.install(engine)

    def test_install_sets_the_planner_as_send_tap(self):
        from repro.sim.engine import SimulationEngine

        boxes = [(0, 1), (2, 3)]
        compiled = get_campaign("tamper-forge").compile(
            horizon=10, box_groups=boxes
        )
        engine = SimulationEngine(
            network=compiled.network, failure_model=compiled.failure_model,
            rngs=RngRegistry(0), max_rounds=5,
        )
        compiled.install(engine)
        assert engine.send_tap == compiled.planner.observe
        plain = get_campaign("loss-burst").compile(horizon=10)
        engine = SimulationEngine(
            network=plain.network, failure_model=plain.failure_model,
            rngs=RngRegistry(0), max_rounds=5,
        )
        plain.install(engine)
        assert engine.send_tap is None
