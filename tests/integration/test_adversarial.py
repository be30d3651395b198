"""Integration tests: adversarial campaigns end-to-end — the detection
oracle's must-detect / no-false-positive guarantees, campaign
compilation of the new events, and the cross-baseline robustness
matrix's determinism."""

import json
import re

import pytest

import repro.sanitize as sanitize
from repro.chaos import get_campaign
from repro.chaos.campaign import ChaosCampaign
from repro.chaos.events import (
    LossBurst,
    MessageTampering,
    PartitionWindow,
    RegionPartition,
    SybilJoinStorm,
)
from repro.cli import main
from repro.experiments.params import with_params
from repro.experiments.robustness import robustness_comparison
from repro.experiments.runner import run_once
from repro.sanitize import DoubleCountViolation, ForgedContribution

ADVERSARIAL_CAMPAIGNS = (
    "tamper-forge", "tamper-replay", "sybil-storm", "sybil-pow",
)


class TestDetectionOracle:
    def test_forged_contributions_are_detected_and_attributed(self):
        result = run_once(with_params(n=64, campaign="tamper-forge",
                                      seed=7))
        summary = result.adversarial
        assert summary.injected_forge > 0
        assert summary.reached > 0
        assert summary.detected == summary.reached
        assert summary.false_positives == 0
        caught = sanitize.detections()
        assert caught and all(
            isinstance(error, ForgedContribution) for error in caught
        )
        for error in caught:
            violation = error.violation
            assert violation.member is not None
            assert violation.round is not None
            assert violation.phase is not None
            assert violation.kind in ("count-channel",
                                      "mass-conservation")

    def test_planted_duplicates_fire_double_count_violations(self):
        result = run_once(with_params(n=64, campaign="tamper-replay",
                                      seed=7))
        summary = result.adversarial
        assert summary.injected_duplicate > 0
        assert summary.injected_replay > 0
        assert summary.detected == summary.reached
        assert summary.false_positives == 0
        duplicates = [
            error for error in sanitize.detections()
            if isinstance(error, DoubleCountViolation)
        ]
        assert duplicates
        for error in duplicates:
            assert error.violation.kind == "double-count"
            assert error.violation.member is not None
            assert error.violation.round is not None
            assert error.violation.phase is not None
            # Named by member id (masks hold hierarchy ranks): the
            # victim is a genuine member other than the key it was
            # re-filed under.
            keyed, victim = re.search(
                r"keyed (\d+) covers members \[(\d+)\]",
                error.violation.detail,
            ).groups()
            assert keyed != victim and 0 <= int(victim) < 64

    def test_clean_run_same_seed_stays_silent(self):
        # The control arm arms the oracle (rate 0.0 keeps the screen on
        # every admission path) but injects nothing: any detection at
        # all is a false positive.
        result = run_once(with_params(n=64, campaign="tamper-control",
                                      seed=7))
        summary = result.adversarial
        assert summary.injected_total == 0
        assert summary.detected == 0
        assert summary.false_positives == 0
        assert sanitize.detections() == ()

    @pytest.mark.parametrize("campaign", ADVERSARIAL_CAMPAIGNS)
    @pytest.mark.parametrize(
        "protocol",
        ("hierarchical_gossip", "flood", "centralized",
         "leader_election"),
    )
    def test_every_reached_injection_is_caught(self, campaign, protocol):
        result = run_once(with_params(
            n=64, campaign=campaign, protocol=protocol, seed=3,
        ))
        summary = result.adversarial
        assert summary is not None
        assert summary.detected == summary.reached
        assert summary.false_positives == 0

    def test_sybil_detections_name_the_foreign_member(self):
        result = run_once(with_params(n=64, campaign="sybil-storm",
                                      seed=5))
        assert result.adversarial.reached > 0
        foreign = [
            error for error in sanitize.detections()
            if error.violation.kind == "foreign-member"
        ]
        assert foreign
        for error in foreign:
            # Sybil identities are minted above the membership: 64 on.
            (identity,) = re.search(
                r"covers ids \[(\d+)\]", error.violation.detail
            ).groups()
            assert int(identity) >= 64

    def test_pow_throttles_but_never_weakens_detection(self):
        open_result = run_once(with_params(n=64, campaign="sybil-storm",
                                           seed=5))
        gated_result = run_once(with_params(n=64, campaign="sybil-pow",
                                            seed=5))
        open_summary = open_result.adversarial
        gated_summary = gated_result.adversarial
        assert gated_summary.sybil_admitted < open_summary.sybil_admitted
        assert gated_summary.detected == gated_summary.reached

    def test_adversarial_summary_rides_the_run_record(self):
        from repro.obs.export import run_result_record

        result = run_once(with_params(n=64, campaign="tamper-forge",
                                      seed=1))
        record = run_result_record(result)
        assert record["adversarial"]["detection_rate"] == 1.0
        benign = run_result_record(
            run_once(with_params(n=64, seed=1))
        )
        assert benign["adversarial"] is None


class TestCampaignCompilation:
    def test_overlapping_partitions_rejected_naming_both(self):
        campaign = ChaosCampaign(
            name="clash",
            description="two concurrent partitions",
            events=(
                PartitionWindow(start=0.2, stop=0.6, partl=0.9),
                RegionPartition(start=0.5, stop=0.8, num_regions=3),
            ),
        )
        with pytest.raises(ValueError) as excinfo:
            campaign.compile(horizon=100,
                             box_groups=[(i, i + 1) for i in
                                         range(0, 12, 2)])
        message = str(excinfo.value)
        assert "PartitionWindow" in message
        assert "RegionPartition" in message
        assert "[20, 60)" in message and "[50, 80)" in message

    def test_two_modulo_partitions_also_rejected(self):
        campaign = ChaosCampaign(
            name="clash2",
            description="two concurrent modulo partitions",
            events=(
                PartitionWindow(start=0.1, stop=0.5, partl=0.9),
                PartitionWindow(start=0.4, stop=0.7, partl=0.5, parts=3),
            ),
        )
        with pytest.raises(ValueError, match="overlap"):
            campaign.compile(horizon=100)

    def test_sequential_partitions_allowed(self):
        campaign = ChaosCampaign(
            name="sequential",
            description="back-to-back partitions",
            events=(
                PartitionWindow(start=0.1, stop=0.4, partl=0.9),
                RegionPartition(start=0.4, stop=0.7, num_regions=2),
            ),
        )
        compiled = campaign.compile(
            horizon=100, box_groups=[(i, i + 1) for i in range(0, 12, 2)]
        )
        assert [
            (start, stop, type(event))
            for start, stop, event in compiled.controller.timeline
        ] == [(10, 40, PartitionWindow), (40, 70, RegionPartition)]

    def test_adversarial_events_need_box_groups(self):
        campaign = ChaosCampaign(
            name="needs-boxes",
            description="tampering without membership",
            events=(MessageTampering(start=0.1, stop=0.5, rate=1.0),),
        )
        with pytest.raises(ValueError, match="box_groups"):
            campaign.compile(horizon=100)

    def test_region_partition_needs_box_groups(self):
        campaign = ChaosCampaign(
            name="needs-boxes-2",
            description="regions without membership",
            events=(RegionPartition(start=0.1, stop=0.5),),
        )
        with pytest.raises(ValueError, match="box_groups"):
            campaign.compile(horizon=100)

    def test_adversarial_flag(self):
        assert get_campaign("tamper-forge").adversarial
        assert get_campaign("sybil-storm").adversarial
        assert not get_campaign("region-outage").adversarial
        assert not get_campaign("paper-iid").adversarial

    def test_stacked_loss_deltas_clamp_to_probability(self):
        # Two overlapping additive bursts on a high base rate: the
        # effective loss must clamp at 1.0, not exceed it (regression
        # for unclamped delta stacking).
        campaign = ChaosCampaign(
            name="stacked-deltas",
            description="overlapping additive loss bursts",
            events=(
                LossBurst(start=0.2, stop=0.6, delta=0.3),
                LossBurst(start=0.4, stop=0.8, delta=0.5),
            ),
        )
        compiled = campaign.compile(horizon=100, base_loss=0.6)
        controller = compiled.controller
        network = compiled.network
        controller.on_round_start(10)   # no burst active
        assert network.current_loss == 0.6
        controller.on_round_start(30)   # one delta: 0.6 + 0.3
        assert network.current_loss == pytest.approx(0.9)
        controller.on_round_start(50)   # both deltas: clamped
        assert network.current_loss == 1.0
        controller.on_round_start(70)   # second delta only: 0.6 + 0.5
        assert network.current_loss == 1.0
        controller.on_round_start(90)   # bursts over
        assert network.current_loss == 0.6

    def test_absolute_and_delta_bursts_compose(self):
        campaign = ChaosCampaign(
            name="mixed-bursts",
            description="absolute floor plus additive burst",
            events=(
                LossBurst(start=0.2, stop=0.6, loss=0.5),
                LossBurst(start=0.2, stop=0.6, delta=0.2),
            ),
        )
        compiled = campaign.compile(horizon=100, base_loss=0.25)
        compiled.controller.on_round_start(30)
        # max(base, absolute) + delta = 0.5 + 0.2
        assert compiled.network.current_loss == pytest.approx(0.7)

    def test_region_outage_crosses_count_drops(self):
        config = with_params(n=64, campaign="region-outage", seed=2)
        result = run_once(config)
        assert 0.0 <= result.completeness <= 1.0
        # The WAN outage must actually degrade vs the benign baseline.
        benign = run_once(with_params(n=64, campaign="paper-iid", seed=2))
        assert result.messages_dropped > benign.messages_dropped


class TestRobustnessComparison:
    def _matrix(self, **kwargs):
        defaults = dict(
            campaigns=("paper-iid", "tamper-forge"),
            protocols=("hierarchical_gossip", "centralized"),
            n=32, runs=2, seed=0,
        )
        defaults.update(kwargs)
        return robustness_comparison(**defaults)

    def test_grid_covers_campaign_by_protocol(self):
        matrix = self._matrix()
        assert [(c.campaign, c.protocol) for c in matrix.cells] == [
            ("paper-iid", "hierarchical_gossip"),
            ("paper-iid", "centralized"),
            ("tamper-forge", "hierarchical_gossip"),
            ("tamper-forge", "centralized"),
        ]
        by_campaign = {c.campaign for c in matrix.cells
                       if c.adversary is not None}
        assert by_campaign == {"tamper-forge"}

    def test_byte_identical_across_jobs(self):
        serial = self._matrix(jobs=1)
        parallel = self._matrix(jobs=2)
        assert serial.to_json() == parallel.to_json()
        assert serial.to_csv() == parallel.to_csv()
        assert serial.render() == parallel.render()

    def test_json_schema_and_adversary_payload(self):
        document = json.loads(self._matrix().to_json())
        assert document["schema"] == "repro-robustness-matrix/1"
        adversarial = [cell for cell in document["cells"]
                       if cell["adversarial"]]
        assert adversarial
        for cell in adversarial:
            assert cell["adversary"]["false_positives"] == 0
            assert cell["detection_rate"] == cell["adversary"][
                "detection_rate"
            ]

    def test_csv_shape(self):
        lines = self._matrix().to_csv().strip().splitlines()
        assert lines[0].startswith("campaign,protocol,adversarial,")
        assert len(lines) == 5

    def test_cli_matrix_deterministic_across_jobs(self, capsys):
        argv = ["chaos", "--matrix", "--campaign", "tamper-replay",
                "--protocol", "hierarchical_gossip", "--protocol",
                "flood", "--n", "32", "--runs", "1", "--seed", "0"]
        assert main(argv + ["--jobs", "1"]) == 0
        first = capsys.readouterr().out
        assert main(argv + ["--jobs", "2"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert "tamper-replay" in first

    def test_cli_matrix_writes_json_and_csv(self, tmp_path, capsys):
        json_path = tmp_path / "matrix.json"
        csv_path = tmp_path / "matrix.csv"
        assert main([
            "chaos", "--matrix", "--campaign", "sybil-storm",
            "--protocol", "centralized", "--n", "32", "--runs", "1",
            "--json", str(json_path), "--csv", str(csv_path),
        ]) == 0
        document = json.loads(json_path.read_text())
        assert document["schema"] == "repro-robustness-matrix/1"
        assert csv_path.read_text().startswith("campaign,protocol,")


class TestSanitizerAutoEnable:
    def test_adversarial_campaign_forces_the_oracle_on(self):
        # Even with the sanitizer globally off, an adversarial campaign
        # arms it for the run (and restores the previous state after).
        was_active = sanitize.ACTIVE
        sanitize.disable()
        try:
            result = run_once(with_params(n=48, campaign="tamper-forge",
                                          seed=0))
            assert result.adversarial.detected == result.adversarial.reached
            assert result.adversarial.reached > 0
            assert not sanitize.ACTIVE
        finally:
            if was_active:
                sanitize.enable()

    def test_benign_campaign_leaves_sanitizer_state_alone(self):
        was_active = sanitize.ACTIVE
        sanitize.disable()
        try:
            result = run_once(with_params(n=48, campaign="crash-storm",
                                          seed=0))
            assert result.adversarial is None
            assert not sanitize.ACTIVE
        finally:
            if was_active:
                sanitize.enable()
