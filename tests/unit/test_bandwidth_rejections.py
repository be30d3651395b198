"""Bandwidth-cap rejections are counted, surfaced, and engine-paired.

Regression for the silent-rejection bug: ``Context.send`` returning
False (per-round bandwidth cap) used to vanish — no engine counter, no
metrics row, no trace report line — so a capped run looked merely
lossy.  Now the network counts ``rejected_bandwidth`` (the one counter:
the engine keeps no copy), per-round metrics carry
``messages_rejected``, RunResult/repro-run/1 export it, and the phase
report names the cap; the object and array engines must agree exactly.
"""

import math

from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.export import run_result_record
from repro.obs.report import render_phase_report

CAPPED = dict(
    n=32, seed=7, ucastl=0.0, pf=0.0, max_sends_per_round=1,
)


def _run(**overrides):
    return run_once(with_params(**{**CAPPED, **overrides}))


class TestRejectionAccounting:
    def test_tight_cap_rejects_and_counts(self):
        result = _run(engine="object")
        assert result.messages_rejected > 0
        record = run_result_record(result)
        assert record["messages_rejected"] == result.messages_rejected

    def test_uncapped_run_rejects_nothing(self):
        result = _run(engine="object", max_sends_per_round=None)
        assert result.messages_rejected == 0

    def test_object_and_array_engines_agree(self):
        object_result = _run(engine="object")
        array_result = _run(engine="array")
        assert object_result.messages_rejected > 0
        assert (
            object_result.messages_rejected
            == array_result.messages_rejected
        )
        # The cap must not silently change the outcome either.
        assert math.isclose(
            object_result.completeness, array_result.completeness
        )

    def test_rejections_are_counted_once_by_the_network(self):
        from repro.sim.engine import SimulationEngine
        from repro.sim.network import LossyNetwork
        from repro.sim.rng import RngRegistry

        network = LossyNetwork(ucastl=0.0, max_sends_per_round=1)
        engine = SimulationEngine(network, rngs=RngRegistry(seed=0))
        submitted = [
            engine._submit(0, 1, "a", 1),
            engine._submit(0, 2, "b", 1),
            engine._submit(0, 3, "c", 1),
        ]
        assert submitted == [True, False, False]
        assert network.stats.rejected_bandwidth == 2
        assert not hasattr(engine.stats, "sends_rejected")


class TestRejectionSurfacing:
    def test_round_metrics_carry_rejections(self):
        from repro.obs.telemetry import RunTelemetry

        telemetry = RunTelemetry()
        result = run_once(with_params(**CAPPED), telemetry=telemetry)
        samples = telemetry.metrics.samples
        assert sum(s.messages_rejected for s in samples) == (
            result.messages_rejected
        )

    def test_phase_report_names_the_cap(self):
        config = with_params(**CAPPED, collect_telemetry=True)
        from repro.obs.telemetry import RunTelemetry

        telemetry = RunTelemetry()
        result = run_once(config, telemetry=telemetry)
        assert result.messages_rejected > 0
        report = render_phase_report(telemetry)
        assert "rejected by the bandwidth cap" in report

    def test_uncapped_phase_report_stays_quiet(self):
        from repro.obs.telemetry import RunTelemetry

        telemetry = RunTelemetry()
        run_once(
            with_params(n=32, seed=7, ucastl=0.0, pf=0.0,
                        collect_telemetry=True),
            telemetry=telemetry,
        )
        report = render_phase_report(telemetry)
        assert "rejected" not in report
