"""Registry determinism goldens (satellite S3 of the live-metrics layer).

Three guarantees, each load-bearing for "leave metrics on in
production":

1. **Observation is free of side effects** — a registry-enabled run's
   ``repro-run/1`` record is byte-identical to a plain run's, under
   both the metrics-only shape (array engine) and full telemetry with a
   registry attached (object engine);
2. **Snapshots are canonical** — two registries fed the same seeded run
   produce byte-identical ``snapshot_json()`` output;
3. **Job count is invisible** — per-run records collected through
   ``run_many`` feed a registry to the same bytes at ``jobs=1`` and
   ``jobs=2``, because the records themselves are bit-identical and the
   feed is order-preserving.
"""

import json

from repro.experiments.params import with_params
from repro.experiments.parallel import run_many
from repro.experiments.runner import run_once
from repro.obs.export import run_result_record
from repro.obs.metrics import MetricsRegistry, feed_run_record
from repro.obs.telemetry import RunTelemetry

CONFIG = dict(n=128, seed=5, ucastl=0.4)


def _record_bytes(result) -> str:
    return json.dumps(run_result_record(result), sort_keys=True)


class TestRegistryIsPureObservation:
    def test_metrics_only_run_record_is_byte_identical(self):
        plain = run_once(with_params(**CONFIG))
        fed = run_once(with_params(**CONFIG), registry=MetricsRegistry())
        assert _record_bytes(plain) == _record_bytes(fed)

    def test_metrics_only_keeps_the_array_engine(self):
        # The registry attaches no tracer/metrics/phase sink, so the
        # auto-selection that picks the array-stepped engine for plain
        # runs must be undisturbed — same engine, same result object.
        registry = MetricsRegistry()
        telemetry = RunTelemetry.metrics_only(registry)
        assert telemetry.tracer is None
        assert telemetry.metrics is None
        assert telemetry.phase_sink() is None
        result = run_once(with_params(**CONFIG), telemetry=telemetry)
        assert result.telemetry is None  # attach_summary is off
        assert registry.counter("repro_runs_total").value == 1

    def test_full_telemetry_with_registry_is_byte_identical(self):
        plain = run_once(with_params(**CONFIG), telemetry=RunTelemetry())
        registry = MetricsRegistry()
        fed = run_once(
            with_params(**CONFIG),
            telemetry=RunTelemetry(registry=registry),
        )
        assert _record_bytes(plain) == _record_bytes(fed)
        # The run's phase trace feeds the registry at finish.
        assert registry.counter(
            "repro_phase_events_total", labelnames=("kind",)
        ).labels("finalize").value > 0

    def test_registry_run_totals_match_the_record(self):
        registry = MetricsRegistry()
        result = run_once(with_params(**CONFIG), registry=registry)
        assert registry.counter(
            "repro_sim_messages_sent_total"
        ).value == result.messages_sent
        assert registry.counter(
            "repro_sim_rounds_total"
        ).value == result.rounds
        assert registry.gauge(
            "repro_run_completeness"
        ).value == result.completeness


class TestSnapshotDeterminism:
    def test_same_seed_same_bytes(self):
        snapshots = []
        for __ in range(2):
            registry = MetricsRegistry()
            run_once(with_params(**CONFIG), registry=registry)
            snapshots.append(registry.snapshot_json())
        assert snapshots[0] == snapshots[1]

    def test_full_telemetry_snapshots_are_byte_identical_too(self):
        snapshots = []
        for __ in range(2):
            registry = MetricsRegistry()
            run_once(
                with_params(**CONFIG),
                telemetry=RunTelemetry(registry=registry),
            )
            snapshots.append(registry.snapshot_json())
        assert snapshots[0] == snapshots[1]

    def test_different_seed_different_bytes(self):
        registries = [MetricsRegistry() for __ in range(2)]
        run_once(with_params(n=128, seed=1, ucastl=0.4),
                 registry=registries[0])
        run_once(with_params(n=128, seed=2, ucastl=0.4),
                 registry=registries[1])
        assert registries[0].snapshot_json() != registries[1].snapshot_json()


class TestAcrossJobs:
    def test_registry_bytes_are_job_count_invariant(self):
        configs = [
            with_params(n=64, seed=seed, ucastl=0.4)
            for seed in range(4)
        ]
        snapshots = []
        for jobs in (1, 2):
            registry = MetricsRegistry()
            for result in run_many(configs, jobs=jobs):
                feed_run_record(registry, run_result_record(result))
            snapshots.append(registry.snapshot_json())
        assert snapshots[0] == snapshots[1]
        registry = MetricsRegistry()
        # Sanity: the fed registry saw all four runs.
        for result in run_many(configs, jobs=1):
            feed_run_record(registry, run_result_record(result))
        assert registry.counter("repro_runs_total").value == 4
