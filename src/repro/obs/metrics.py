"""Dependency-free metrics registry shared by both substrates.

Counter / Gauge / Histogram families with label tuples and fixed
bucket boundaries, rendered two ways: Prometheus text exposition
(format 0.0.4) for scrapers, and a canonical ``repro-metrics/1`` JSON
snapshot — ``json.dumps(..., sort_keys=True)`` over sorted family
names and sorted label tuples, no timestamps — so two registries fed
the same events serialize byte-identically (the determinism suite
pins this).

Both substrates feed one vocabulary:

* the **simulator** through its existing hook points — a
  :class:`MetricsPhaseSink` behind the protocol's ``phase_sink``
  (teed next to :class:`~repro.obs.phase.PhaseTrace` by
  :class:`~repro.obs.telemetry.RunTelemetry`), and
  :func:`feed_run_record`/:func:`feed_round_samples`/
  :func:`feed_summary` for end-of-run totals and round samples.  Feeding draws no randomness and mutates no
  simulation state, so a registry-enabled run stays byte-identical to
  a disabled one (golden-tested, exactly like traced-vs-untraced);
* the **live runtime** (:mod:`repro.net.node`) through a collector
  (:meth:`MetricsRegistry.add_collector`) that copies each node's own
  ledger — datagram counts, liveness RTT tallies, round and state —
  into its families on every read, exposed over HTTP by
  :mod:`repro.net.exposition` and read by ``repro top``.

Both simulation engines must reach the phase and round families
(through the ``phase_sink``/``RoundMetrics`` fan-out) or neither may — a
registry that saw different events under the array engine would
silently invalidate the parity guarantee.  The array engine's phase
events arrive as one block per round
(:meth:`MetricsPhaseSink.emit_block`: one increment per kind).

The registry itself never reads a clock: every number it holds is an
event count or a value handed to it.
"""

from __future__ import annotations

import collections
import json
import math
from bisect import bisect_left
from typing import Any, Callable, Iterable

from repro.core.observe import (
    PHASE_EVENT_KINDS,
    PhaseBlock,
    PhaseEvent,
    PhaseSink,
)
from repro.sim.metrics import RoundSample

__all__ = [
    "METRICS_SCHEMA",
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsPhaseSink",
    "TeePhaseSink",
    "observe_phase_event",
    "observe_round",
    "feed_run_record",
    "feed_summary",
]

METRICS_SCHEMA = "repro-metrics/1"

#: Default histogram boundaries: powers of two, the natural scale for
#: per-round message counts and tick-denominated latencies.
DEFAULT_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


def _json_safe(value: float | int) -> float | int | None:
    """NaN/inf are not valid JSON: encode them as null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _format_number(value: float | int) -> str:
    """Prometheus sample-value formatting (exact for ints)."""
    if isinstance(value, int):
        return str(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _label_block(labelnames: tuple[str, ...], key: tuple[str, ...]) -> str:
    if not labelnames:
        return ""
    parts = ", ".join(
        f'{name}="{_escape_label(value)}"'
        for name, value in zip(labelnames, key)
    )
    return "{" + parts + "}"


class _CounterChild:
    """One labeled counter series (monotonic)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | int = 0

    def inc(self, amount: float | int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class _GaugeChild:
    """One labeled gauge series (set to the current value)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | int = 0

    def set(self, value: float | int) -> None:
        self.value = value

    def inc(self, amount: float | int = 1) -> None:
        self.value += amount

    def dec(self, amount: float | int = 1) -> None:
        self.value -= amount


class _HistogramChild:
    """One labeled histogram series over fixed bucket boundaries."""

    __slots__ = ("buckets", "counts", "sum", "count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        self.buckets = buckets
        #: Per-bucket (non-cumulative) counts; the trailing slot is the
        #: +Inf overflow bucket.
        self.counts = [0] * (len(buckets) + 1)
        self.sum: float | int = 0
        self.count = 0

    def observe(self, value: float | int) -> None:
        self.sum += value
        self.count += 1
        self.counts[bisect_left(self.buckets, value)] += 1


class _Family:
    """One named metric family: labelnames plus its children."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: tuple[str, ...]):
        self.name = name
        self.help = help
        self.labelnames = labelnames
        self._children: dict[tuple[str, ...], Any] = {}

    def _make_child(self) -> Any:
        raise NotImplementedError

    def labels(self, *values: object) -> Any:
        key = tuple(str(value) for value in values)
        if len(key) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {key!r}"
            )
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    def _sorted_children(
        self,
    ) -> Iterable[tuple[tuple[str, ...], Any]]:
        return sorted(self._children.items())

    # -- serialization -------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "samples": [
                {"labels": list(key), "value": _json_safe(child.value)}
                for key, child in self._sorted_children()
            ],
        }

    def prometheus_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self._sorted_children():
            block = _label_block(self.labelnames, key)
            lines.append(
                f"{self.name}{block} {_format_number(child.value)}"
            )
        return lines


class Counter(_Family):
    """A monotonically increasing event count."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float | int = 1) -> None:
        """Increment the unlabeled series (labelnames must be empty)."""
        self.labels().inc(amount)

    @property
    def value(self) -> float | int:
        """Total over every labeled series."""
        return sum(child.value for child in self._children.values())


class Gauge(_Family):
    """A value that goes up and down (set to the latest observation)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float | int) -> None:
        self.labels().set(value)

    def inc(self, amount: float | int = 1) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float | int = 1) -> None:
        self.labels().dec(amount)

    @property
    def value(self) -> float | int:
        return self.labels().value


class Histogram(_Family):
    """A distribution over fixed, registry-stable bucket boundaries."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ):
        cleaned = tuple(float(bound) for bound in buckets)
        if not cleaned:
            raise ValueError("histogram needs at least one bucket bound")
        if any(not math.isfinite(bound) for bound in cleaned):
            raise ValueError("bucket bounds must be finite (+Inf is "
                             "implicit)")
        if any(b >= c for b, c in zip(cleaned, cleaned[1:])):
            raise ValueError("bucket bounds must increase strictly")
        super().__init__(name, help, labelnames)
        self.buckets = cleaned

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(self.buckets)

    def observe(self, value: float | int) -> None:
        self.labels().observe(value)

    def snapshot(self) -> dict:
        return {
            "type": self.kind,
            "help": self.help,
            "labels": list(self.labelnames),
            "buckets": list(self.buckets),
            "samples": [
                {
                    "labels": list(key),
                    "counts": list(child.counts),
                    "sum": _json_safe(child.sum),
                    "count": child.count,
                }
                for key, child in self._sorted_children()
            ],
        }

    def prometheus_lines(self) -> list[str]:
        lines = []
        if self.help:
            lines.append(f"# HELP {self.name} {_escape_help(self.help)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        for key, child in self._sorted_children():
            cumulative = 0
            for bound, count in zip(self.buckets, child.counts):
                cumulative += count
                block = _label_block(
                    self.labelnames + ("le",),
                    key + (_format_number(bound),),
                )
                lines.append(f"{self.name}_bucket{block} {cumulative}")
            block = _label_block(
                self.labelnames + ("le",), key + ("+Inf",)
            )
            lines.append(f"{self.name}_bucket{block} {child.count}")
            plain = _label_block(self.labelnames, key)
            lines.append(
                f"{self.name}_sum{plain} {_format_number(child.sum)}"
            )
            lines.append(f"{self.name}_count{plain} {child.count}")
        return lines


class MetricsRegistry:
    """Get-or-create registry of metric families, snapshot-stable.

    Families are created on first use and type-checked on every later
    lookup: asking for an existing name with a different kind, label
    set or bucket boundaries raises — one name means one schema for
    the registry's whole lifetime, which is what makes snapshots
    mergeable and comparable.
    """

    def __init__(self) -> None:
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[[], None]] = []

    def add_collector(self, collect: Callable[[], None]) -> None:
        """Call ``collect()`` before every snapshot or render.

        For a source that keeps its own books: ``collect`` copies them
        into children it registered, so the hot path pays nothing and
        every read is exact.  Values read off a child directly are only
        as fresh as the last snapshot.
        """
        self._collectors.append(collect)

    def _get(
        self,
        cls: type,
        name: str,
        help: str,
        labelnames: tuple[str, ...],
        **kwargs: Any,
    ) -> Any:
        family = self._families.get(name)
        if family is None:
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family
        if not isinstance(family, cls):
            raise ValueError(
                f"{name} is already registered as a {family.kind}"
            )
        if family.labelnames != labelnames:
            raise ValueError(
                f"{name} is registered with labels "
                f"{family.labelnames}, not {labelnames}"
            )
        buckets = kwargs.get("buckets")
        if buckets is not None and isinstance(family, Histogram):
            if family.buckets != tuple(float(b) for b in buckets):
                raise ValueError(
                    f"{name} is registered with buckets "
                    f"{family.buckets}"
                )
        return family

    def counter(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> Counter:
        family: Counter = self._get(
            Counter, name, help, tuple(labelnames)
        )
        return family

    def gauge(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
    ) -> Gauge:
        family: Gauge = self._get(Gauge, name, help, tuple(labelnames))
        return family

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: tuple[str, ...] = (),
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family: Histogram = self._get(
            Histogram, name, help, tuple(labelnames), buckets=buckets
        )
        return family

    def families(self) -> list[str]:
        """Registered family names, sorted."""
        return sorted(self._families)

    # -- serialization -------------------------------------------------

    def snapshot(self) -> dict:
        """The canonical ``repro-metrics/1`` snapshot (JSON-ready)."""
        for collect in self._collectors:
            collect()
        return {
            "schema": METRICS_SCHEMA,
            "metrics": {
                name: self._families[name].snapshot()
                for name in sorted(self._families)
            },
        }

    def snapshot_json(self) -> str:
        """Canonical JSON bytes of :meth:`snapshot` (sorted keys)."""
        return json.dumps(self.snapshot(), sort_keys=True)

    def render_prometheus(self) -> str:
        """Prometheus text exposition (format 0.0.4)."""
        for collect in self._collectors:
            collect()
        lines: list[str] = []
        for name in sorted(self._families):
            lines.extend(self._families[name].prometheus_lines())
        return "\n".join(lines) + "\n"


# -- the shared hook-point vocabulary ---------------------------------


def _phase_events(registry: MetricsRegistry) -> Counter:
    return registry.counter(
        "repro_phase_events_total",
        "Protocol phase events by kind",
        labelnames=("kind",),
    )


def observe_phase_event(
    registry: MetricsRegistry, event: PhaseEvent
) -> None:
    """Count one protocol phase event."""
    _phase_events(registry).labels(event.kind).inc()


def observe_round(registry: MetricsRegistry, sample: RoundSample) -> None:
    """Fold one engine round sample in (a REP009 metric site)."""
    registry.gauge(
        "repro_sim_round", "Last executed simulation round"
    ).set(sample.round)
    registry.gauge(
        "repro_sim_live_members", "Live members after the round"
    ).set(sample.live_members)
    registry.gauge(
        "repro_sim_active_members",
        "Members still running their protocol",
    ).set(sample.active_members)
    registry.histogram(
        "repro_sim_round_messages",
        "Messages sent per simulation round",
        buckets=(8.0, 32.0, 128.0, 512.0, 2048.0, 8192.0, 32768.0),
    ).observe(sample.messages_sent)


class MetricsPhaseSink(PhaseSink):
    """A :class:`PhaseSink` that counts events into a registry."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry

    def emit(self, event: PhaseEvent) -> None:
        observe_phase_event(self.registry, event)

    def emit_block(self, block: PhaseBlock) -> None:
        """One increment per kind the block holds, no event built."""
        events = _phase_events(self.registry)
        counts = collections.Counter(block.kinds.tolist())
        for code, count in sorted(counts.items()):
            events.labels(PHASE_EVENT_KINDS[code]).inc(count)


class TeePhaseSink(PhaseSink):
    """Fan one phase-event stream out to several sinks, in order."""

    def __init__(self, *sinks: PhaseSink | None):
        self.sinks = tuple(sink for sink in sinks if sink is not None)

    def emit(self, event: PhaseEvent) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def emit_block(self, block: PhaseBlock) -> None:
        for sink in self.sinks:
            sink.emit_block(block)


# -- end-of-run feeds --------------------------------------------------

#: ``repro-run/1`` counter keys folded in by :func:`feed_run_record`.
_RECORD_COUNTERS = (
    ("rounds", "repro_sim_rounds_total", "Simulation rounds executed"),
    ("messages_sent", "repro_sim_messages_sent_total",
     "Messages handed to the network"),
    ("messages_dropped", "repro_sim_messages_dropped_total",
     "Messages lost in transit"),
    ("messages_rejected", "repro_sim_messages_rejected_total",
     "Sends refused by the bandwidth cap"),
    ("bytes_sent", "repro_sim_bytes_sent_total", "Payload bytes sent"),
    ("crashes", "repro_sim_crashes_total", "Member crashes"),
    ("recoveries", "repro_sim_recoveries_total", "Member recoveries"),
)

#: ``repro-run/1`` gauge keys (last-run values) for the same feed.
_RECORD_GAUGES = (
    ("completeness", "repro_run_completeness",
     "Mean completeness of the last fed run"),
    ("mean_coverage", "repro_run_mean_coverage",
     "Mean self-assessed coverage of the last fed run"),
    ("mean_estimate_error", "repro_run_mean_estimate_error",
     "Mean absolute estimate error of the last fed run"),
)


def feed_run_record(registry: MetricsRegistry, record: dict) -> None:
    """Fold one ``repro-run/1`` record into run-level totals.

    Counters accumulate across every record fed (a sweep's worth of
    runs sums naturally); the ``repro_run_*`` gauges hold the values
    of the record fed last.
    """
    registry.counter("repro_runs_total", "Finished runs fed in").inc()
    for key, name, help in _RECORD_COUNTERS:
        value = record.get(key)
        if value:
            registry.counter(name, help).inc(value)
    for key, name, help in _RECORD_GAUGES:
        value = record.get(key)
        if value is not None:
            registry.gauge(name, help).set(value)


def feed_round_samples(
    registry: MetricsRegistry, samples: Iterable[RoundSample]
) -> None:
    """Replay collected round samples into the per-round metrics."""
    for sample in samples:
        observe_round(registry, sample)


def feed_summary(registry: MetricsRegistry, summary: Any) -> None:
    """Fold a :class:`~repro.obs.telemetry.TelemetrySummary` in.

    For summaries that crossed a worker boundary (``run_many`` with
    ``collect_telemetry``) — the live :class:`MetricsPhaseSink` path
    cannot see those runs.  Do not feed a run both ways: the phase
    counters would double.
    """
    events = _phase_events(registry)
    for kind in PHASE_EVENT_KINDS:
        count = getattr(summary, kind, 0)
        if count:
            events.labels(kind).inc(count)
    registry.counter(
        "repro_sim_incomplete_finalizes_total",
        "Finalize events with self-assessed coverage < 1",
    ).inc(summary.incomplete_finalizes)
    registry.counter(
        "repro_summarized_runs_total", "Runs folded in via summaries"
    ).inc(summary.runs)
