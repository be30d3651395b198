"""Registry semantics of repro.obs.metrics.

The live metrics layer's whole value rests on two properties pinned
here: one name means one schema for a registry's lifetime (kind, label
set and bucket boundaries are checked on every lookup), and snapshots
are canonical — sorted family names, sorted label tuples, sorted JSON
keys — so two registries fed the same events serialize byte-for-byte
identically regardless of creation or feed order.
"""

import json
from collections import Counter

import pytest

from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    MetricsRegistry,
    feed_phase_counts,
    feed_run_record,
    observe_round,
)
from repro.obs.telemetry import RunTelemetry
from repro.sim.metrics import RoundSample
from tests.engines import ENGINES, forced


def _sample(round=0, messages=10):
    return RoundSample(
        round=round, messages_sent=messages, bytes_sent=messages * 8,
        messages_dropped=0, live_members=16, active_members=16,
        max_sends_by_member=3,
    )


def _phase_family(registry):
    """``{kind: value}`` of ``repro_phase_events_total`` ({} if absent)."""
    family = registry.snapshot()["metrics"].get("repro_phase_events_total")
    return {
        sample["labels"][0]: sample["value"]
        for sample in (family["samples"] if family else ())
    }


class TestCounter:
    def test_counts_up(self):
        counter = MetricsRegistry().counter("c_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_is_rejected(self):
        counter = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError, match="only go up"):
            counter.inc(-1)

    def test_labeled_series_are_independent(self):
        counter = MetricsRegistry().counter(
            "c_total", labelnames=("kind",)
        )
        counter.labels("a").inc(2)
        counter.labels("b").inc(3)
        assert counter.labels("a").value == 2
        assert counter.labels("b").value == 3
        assert counter.value == 5  # family total sums the series

    def test_label_arity_is_enforced(self):
        counter = MetricsRegistry().counter(
            "c_total", labelnames=("kind",)
        )
        with pytest.raises(ValueError, match="takes labels"):
            counter.labels("a", "b")

    def test_label_values_are_stringified(self):
        counter = MetricsRegistry().counter(
            "c_total", labelnames=("node",)
        )
        counter.labels(7).inc()
        assert counter.labels("7").value == 1


class TestGauge:
    def test_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(10)
        gauge.inc(5)
        gauge.dec(2)
        assert gauge.value == 13


class TestHistogram:
    def test_bucket_assignment_is_upper_bound_inclusive(self):
        histogram = MetricsRegistry().histogram(
            "h", buckets=(1.0, 2.0, 4.0)
        )
        for value in (0.5, 1.0, 2.0, 3.0, 100.0):
            histogram.observe(value)
        child = histogram.labels()
        # le=1 gets {0.5, 1.0}; le=2 gets {2.0}; le=4 gets {3.0};
        # +Inf overflow gets {100.0}.
        assert child.counts == [2, 1, 1, 1]
        assert child.count == 5
        assert child.sum == pytest.approx(106.5)

    def test_bucket_validation(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="at least one"):
            registry.histogram("h1", buckets=())
        with pytest.raises(ValueError, match="increase strictly"):
            registry.histogram("h2", buckets=(1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            registry.histogram("h3", buckets=(1.0, float("inf")))


class TestOneNameOneSchema:
    def test_kind_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("m")

    def test_labelnames_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("m", labelnames=("kind",))
        with pytest.raises(ValueError, match="registered with labels"):
            registry.counter("m", labelnames=("node",))

    def test_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="registered with buckets"):
            registry.histogram("h", buckets=(1.0, 4.0))

    def test_same_schema_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("m", labelnames=("kind",))
        second = registry.counter("m", labelnames=("kind",))
        assert first is second
        # Default buckets on re-lookup never conflict.
        h = registry.histogram("h")
        assert registry.histogram("h", buckets=DEFAULT_BUCKETS) is h


class TestSnapshot:
    def test_schema_and_shape(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "bees", labelnames=("kind",)) \
            .labels("worker").inc(3)
        snapshot = registry.snapshot()
        assert snapshot["schema"] == METRICS_SCHEMA
        family = snapshot["metrics"]["b_total"]
        assert family["type"] == "counter"
        assert family["help"] == "bees"
        assert family["labels"] == ["kind"]
        assert family["samples"] == [
            {"labels": ["worker"], "value": 3}
        ]

    def test_histogram_snapshot_carries_buckets(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        family = registry.snapshot()["metrics"]["h"]
        assert family["buckets"] == [1.0, 2.0]
        assert family["samples"][0]["counts"] == [0, 1, 0]
        assert family["samples"][0]["count"] == 1

    def test_nan_values_encode_as_null(self):
        registry = MetricsRegistry()
        registry.gauge("g").set(float("nan"))
        text = registry.snapshot_json()
        assert json.loads(text)["metrics"]["g"]["samples"][0][
            "value"
        ] is None

    def test_feed_order_does_not_change_the_bytes(self):
        forward, backward = MetricsRegistry(), MetricsRegistry()
        for registry, order in ((forward, (0, 1, 2)),
                                (backward, (2, 1, 0))):
            for node in order:
                registry.counter(
                    "tx_total", labelnames=("node",)
                ).labels(node).inc(node + 1)
                registry.gauge("up").set(1)
        assert forward.snapshot_json() == backward.snapshot_json()

    def test_families_are_sorted(self):
        registry = MetricsRegistry()
        registry.counter("z_total")
        registry.counter("a_total")
        assert registry.families() == ["a_total", "z_total"]


class TestPrometheusRendering:
    def test_counter_exposition(self):
        registry = MetricsRegistry()
        registry.counter("b_total", "bees", labelnames=("kind",)) \
            .labels("worker").inc(3)
        text = registry.render_prometheus()
        assert "# HELP b_total bees\n" in text
        assert "# TYPE b_total counter\n" in text
        assert 'b_total{kind="worker"} 3\n' in text

    def test_histogram_exposition_is_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 9.0):
            histogram.observe(value)
        lines = registry.render_prometheus().splitlines()
        assert 'h_bucket{le="1.0"} 1' in lines
        assert 'h_bucket{le="2.0"} 2' in lines
        assert 'h_bucket{le="+Inf"} 3' in lines
        assert "h_sum 11.0" in lines
        assert "h_count 3" in lines

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("c_total", labelnames=("path",)) \
            .labels('a"b\nc').inc()
        text = registry.render_prometheus()
        assert 'c_total{path="a\\"b\\nc"} 1' in text

    def test_every_sample_line_parses_numeric(self):
        registry = MetricsRegistry()
        registry.counter("c_total").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h").observe(3)
        for line in registry.render_prometheus().splitlines():
            if line.startswith("#") or not line:
                continue
            float(line.rpartition(" ")[2])


class TestHookPoints:
    def test_feed_phase_counts_adds_by_kind(self):
        registry = MetricsRegistry()
        feed_phase_counts(registry, Counter(finalize=0))
        assert registry.families() == []  # no events, no family
        feed_phase_counts(registry, Counter(phase_enter=2, finalize=1))
        feed_phase_counts(registry, Counter(phase_enter=1, finalize=0))
        assert _phase_family(registry) == {"phase_enter": 3, "finalize": 1}

    def test_observe_round_sets_gauges_and_histogram(self):
        registry = MetricsRegistry()
        observe_round(registry, _sample(round=7, messages=40))
        assert registry.gauge("repro_sim_round").value == 7
        assert registry.gauge("repro_sim_live_members").value == 16
        messages = registry.snapshot()["metrics"][
            "repro_sim_round_messages"
        ]
        assert messages["samples"][0]["count"] == 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_registry_reads_the_phase_trace(self, engine):
        # The family is the run's PhaseTrace counts, fed at finish, on
        # either engine; a second run into the same registry adds.
        registry = MetricsRegistry()
        counts = Counter()
        for seed in (1, 2):
            telemetry = RunTelemetry(tracer=None, registry=registry)
            with forced(engine):
                run_once(with_params(n=64, ucastl=0.4, seed=seed),
                         telemetry=telemetry)
            counts += telemetry.phase_trace.counts
            assert _phase_family(registry) == dict(counts)
        assert counts["bump_up_timeout"] > 0

    def test_feed_run_record_accumulates_counters(self):
        registry = MetricsRegistry()
        record = {
            "rounds": 10, "messages_sent": 100, "bytes_sent": 800,
            "completeness": 1.0,
        }
        feed_run_record(registry, record)
        feed_run_record(registry, record)
        assert registry.counter("repro_runs_total").value == 2
        assert registry.counter(
            "repro_sim_messages_sent_total"
        ).value == 200
        # Gauges hold the last fed record's value, not a sum.
        assert registry.gauge("repro_run_completeness").value == 1.0
