"""Cross-engine golden equivalence: array-stepped == object-stepped.

The array-stepped engine (`repro.sim.array_engine` driving
`repro.core.array_stepper`) promises *bit-identical* runs to the
object-stepped `SimulationEngine` on every configuration it accepts:
same estimates, same per-member completeness, same network statistics,
same phase events, same sanitizer outcomes — for every seed, chaos
campaign and job count.  These tests pin that promise; any divergence
is a bug in the array path, never an accepted drift.  Adversarial
campaigns tap sends and inject messages, which only the object engine
delivers: their tests pin that the runner routes them there.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import replace

import pytest

from repro.chaos import campaign_names, get_campaign
from repro.core.aggregates import AGGREGATE_NAMES
from repro.experiments.parallel import run_many
from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.export import run_result_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry
from tests.engines import ENGINES, forced, inject_at


def _summary(result):
    """(repro-run/1 record, per-member maps) of one run."""
    return (
        run_result_record(result),
        result.report.per_member,
        result.report.per_member_initial,
    )


def _records(config):
    """:func:`_summary` of ``config``'s run on both engines."""
    out = {}
    for engine in ENGINES:
        with forced(engine):
            out[engine] = _summary(run_once(config))
    return out


def _assert_identical(config):
    got = _records(config)
    assert got["array"] == got["object"]


def _built_engines(config):
    """The engine classes ``run_once(config)`` builds, and its result."""
    from unittest import mock

    from repro.experiments import runner as runner_mod

    built = []
    make_engine = runner_mod._make_engine

    def recording(*args):
        engine = make_engine(*args)
        built.append(type(engine).__name__)
        return engine

    with mock.patch.object(runner_mod, "_make_engine", recording):
        result = run_once(config)
    return built, result


def _assert_identical_on_campaign(config):
    """Array == object for a campaign the array engine runs; for an
    adversarial one the runner's own choice is the object engine, so
    its run is the object engine's run.  Returns the object engine's
    record."""
    if not get_campaign(config.campaign).adversarial:
        got = _records(config)
        assert got["array"] == got["object"]
        return got["object"][0]
    built, result = _built_engines(config)
    with forced("object"):
        reference = _summary(run_once(config))
    assert built == ["SimulationEngine"]
    assert _summary(result) == reference
    return reference[0]


#: The hardening knobs the stepper runs as they are (no per-message
#: engine needed): adaptive deadlines, partial representation.
HARDENED_CONFIGS = [
    pytest.param(
        with_params(n=128, ucastl=0.6, adaptive_deadlines=True, seed=0),
        id="adaptive",
    ),
    pytest.param(
        with_params(n=128, representative_fraction=0.5, seed=1),
        id="representatives-0.5",
    ),
    pytest.param(
        with_params(n=256, representative_fraction=0.5, final_retransmit=2,
                    view_size=50, seed=0),
        id="representatives+final-retransmit+partial-views",
    ),
    pytest.param(
        with_params(n=128, adaptive_deadlines=True, campaign="crash-storm",
                    seed=0),
        id="adaptive+crash-storm",
    ),
]

#: Push-pull: replies are planned during delivery, as a second block
#: right after the chunk that asked (see ``ArraySteppedEngine``).
PUSH_PULL_CONFIGS = [
    pytest.param(
        with_params(n=128, ucastl=0.4, push_pull=True, seed=0),
        id="push-pull-lossy",
    ),
    pytest.param(
        with_params(n=128, start_spread=4, push_pull=True, seed=1),
        id="push-pull+start-spread",
    ),
    pytest.param(
        with_params(n=128, k=2, pf=0.01, push_pull=True, seed=2),
        id="push-pull+crashes-k2",
    ),
    pytest.param(
        with_params(n=128, adaptive_deadlines=True,
                    representative_fraction=0.5, final_retransmit=2,
                    push_pull=True, seed=0),
        id="push-pull+hardened",
    ),
] + [
    # A reply is charged to the window the previous step's sends
    # opened (the window resets after the round bus, after delivery).
    pytest.param(
        with_params(n=128, max_sends_per_round=cap, push_pull=True, seed=1),
        id=f"push-pull+bandwidth-cap-{cap}",
    )
    for cap in (2, 3)
]

BASIC_CONFIGS = [
    pytest.param(with_params(seed=seed), id=f"paper-defaults-seed{seed}")
    for seed in range(3)
] + [
    pytest.param(with_params(n=128, k=8, seed=1), id="n128-k8"),
    pytest.param(
        with_params(n=128, partl=0.9, seed=0), id="partitioned"
    ),
    pytest.param(
        with_params(n=128, start_spread=5, seed=2), id="start-spread"
    ),
    pytest.param(
        with_params(n=256, view_size=50, seed=0), id="partial-views"
    ),
    pytest.param(with_params(n=128, pf=0.0, seed=0), id="no-failures"),
    pytest.param(
        with_params(n=128, max_sends_per_round=3, seed=1),
        id="bandwidth-capped",
    ),
    pytest.param(
        with_params(n=128, early_bump=False, seed=0), id="no-early-bump"
    ),
    pytest.param(
        with_params(n=128, n_estimate=200, seed=0), id="n-estimate"
    ),
    pytest.param(
        with_params(n=128, aggregate="min", seed=1), id="min-aggregate"
    ),
] + [
    pytest.param(
        with_params(n=128, ucastl=0.4, aggregate=name, seed=2),
        id=f"{name}-aggregate",
    )
    for name in AGGREGATE_NAMES if name not in ("average", "min")
] + HARDENED_CONFIGS + PUSH_PULL_CONFIGS


@pytest.mark.parametrize("config", BASIC_CONFIGS)
def test_equivalent_on_basic_configs(config):
    _assert_identical(config)


#: Single-value gossip (the protocol text, ``batch_values=False``): a
#: one-entry snapshot row per sender, or per gossipee under
#: ``independent_values``, its value drawn after the targets.  A single
#: value asks for no answer, so push-pull is inert.
CAPPED_SINGLE_VALUE = with_params(n=128, max_sends_per_round=1,
                                  batch_values=False,
                                  independent_values=True, seed=1)
SINGLE_VALUE_CONFIGS = [
    pytest.param(
        with_params(n=128, ucastl=0.3, batch_values=False, seed=0),
        id="single-value",
    ),
    pytest.param(
        with_params(n=128, ucastl=0.3, batch_values=False,
                    independent_values=True, seed=1),
        id="independent-values",
    ),
    pytest.param(
        with_params(n=128, batch_values=False, push_pull=True, seed=2),
        id="push-pull-inert",
    ),
    pytest.param(
        with_params(n=200, k=2, pf=0.004, batch_values=False,
                    independent_values=True, seed=6),
        id="k2-over-cap",
    ),
    pytest.param(
        with_params(n=256, view_size=50, batch_values=False, seed=0),
        id="partial-views",
    ),
    pytest.param(
        with_params(n=128, start_spread=4, batch_values=False, seed=1),
        id="start-spread",
    ),
    pytest.param(
        with_params(n=256, representative_fraction=0.5, final_retransmit=2,
                    batch_values=False, seed=0),
        id="representatives+final-retransmit",
    ),
    pytest.param(
        with_params(n=128, ucastl=0.6, adaptive_deadlines=True,
                    batch_values=False, seed=0),
        id="adaptive",
    ),
    pytest.param(CAPPED_SINGLE_VALUE, id="bandwidth-cap"),
    pytest.param(
        with_params(n=128, campaign="region-outage", batch_values=False,
                    seed=1),
        id="region-outage",
    ),
]


@pytest.mark.parametrize("config", SINGLE_VALUE_CONFIGS)
def test_single_value_equivalent(config):
    # The record, the per-member maps and the whole phase-event stream.
    got = {}
    for engine in ENGINES:
        telemetry = RunTelemetry(tracer=None, metrics=None)
        with forced(engine):
            result = run_once(config, telemetry=telemetry)
        got[engine] = (
            run_result_record(result), result.report.per_member,
            result.report.per_member_initial, telemetry.phase_trace.events,
        )
    assert len(got["object"][-1]) > 0
    assert got["array"] == got["object"]


def test_single_value_bandwidth_cap_rejects():
    # The capped pair above compares something: sends are rejected.
    with forced("array"):
        assert run_once(CAPPED_SINGLE_VALUE).messages_rejected > 0


def test_single_value_equivalent_on_jitter_network():
    _assert_identical_on_jitter(
        with_params(n=128, pf=0.002, batch_values=False,
                    independent_values=True, seed=3)
    )


def test_single_value_phase_event_streams_identical_crash_recovery():
    from repro.sim.failures import CrashRecovery

    _assert_streams_identical(
        with_params(n=128, batch_values=False, seed=3),
        CrashRecovery(pf=0.02, pr=0.3),
    )


#: Records compared as bytes, as ``repro run --json`` writes them:
#: push-pull answers from row snapshots across start waves, K=2 boxes
#: over the batch cap, a three-column payload.
RECORD_CONFIGS = [
    pytest.param(with_params(n=256, ucastl=0.4, seed=2), id="n256-lossy"),
    pytest.param(
        with_params(n=256, push_pull=True, start_spread=3, seed=1),
        id="n256-push-pull+start-spread",
    ),
    pytest.param(with_params(n=512, k=2, ucastl=0.4, seed=3), id="n512-k2"),
    pytest.param(
        with_params(n=256, ucastl=0.4, aggregate="mean_variance", seed=2),
        id="n256-mean-variance",
    ),
]


@pytest.mark.parametrize("config", RECORD_CONFIGS)
def test_run_records_byte_identical(config):
    import json

    records = set()
    for engine in ENGINES:
        with forced(engine):
            records.add(json.dumps(run_result_record(run_once(config)),
                                   indent=2, sort_keys=True))
    assert len(records) == 1


@pytest.mark.parametrize("cap", [2, 3])
def test_push_pull_replies_hit_the_bandwidth_cap(cap):
    # The capped pairs above compare something: replies are rejected.
    capped = with_params(n=128, max_sends_per_round=cap, push_pull=True,
                         seed=1)
    with forced("array"):
        push_only = run_once(replace(capped, push_pull=False))
        assert run_once(capped).messages_rejected > (
            push_only.messages_rejected
        )


def test_campaign_registry_is_covered():
    # The campaign sweep below runs every registered campaign; if one is
    # added, it is automatically picked up (this just pins the count the
    # suite was designed against, so silent registry shrinkage fails).
    assert len(campaign_names()) >= 7


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns(campaign):
    _assert_identical_on_campaign(
        with_params(n=128, campaign=campaign, seed=0)
    )


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns_with_compact_telemetry(campaign):
    # Compact telemetry attaches no tracer, so the array engine takes
    # it; the record compared includes the whole telemetry summary.
    record = _assert_identical_on_campaign(
        with_params(n=128, campaign=campaign, seed=0, collect_telemetry=True)
    )
    assert record["telemetry"] is not None


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns_with_push_pull(campaign):
    # Answers go out chunk by chunk, as one more block after the chunk
    # that asked.
    _assert_identical_on_campaign(
        with_params(n=128, campaign=campaign, seed=0, push_pull=True,
                    collect_telemetry=True)
    )


def test_runner_routes_adversarial_campaigns_to_the_object_engine():
    # Every adversarial campaign taps sends and injects messages, which
    # the array engine refuses: the runner picks the object engine for
    # it, and the array engine for every other campaign.
    adversarial = [
        name for name in campaign_names() if get_campaign(name).adversarial
    ]
    assert len(adversarial) >= 5
    for name in campaign_names():
        config = with_params(n=48, campaign=name, seed=0)
        reason = _reason(config)
        built, __ = _built_engines(config)
        if name in adversarial:
            assert "adversarial" in reason
            assert built == ["SimulationEngine"], name
        else:
            assert reason is None
            assert built == ["ArraySteppedEngine"], name


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(
            with_params(n=200, k=8, pf=0.01, max_sends_per_round=1, seed=2),
            id="bandwidth-capped",
        ),
        pytest.param(
            with_params(n=128, partl=0.6, seed=0), id="partitioned"
        ),
    ],
)
def test_round_metrics_samples_identical(config):
    samples, snapshots = {}, {}
    for engine in ENGINES:
        telemetry = RunTelemetry(tracer=None, registry=MetricsRegistry())
        with forced(engine):
            run_once(config, telemetry=telemetry)
        samples[engine] = telemetry.metrics.samples
        snapshots[engine] = telemetry.registry.snapshot_json()
    assert len(samples["object"]) > 0
    assert samples["array"] == samples["object"]
    # Every registry feed (the phase trace's counts, round samples, the
    # end-of-run record) is the same on both engine paths.
    assert "repro_phase_events_total" in snapshots["object"]
    assert snapshots["array"] == snapshots["object"]


def test_equivalent_across_job_counts():
    configs = [with_params(n=128, seed=seed) for seed in range(4)]
    serial = [run_result_record(r) for r in run_many(configs, jobs=1)]
    parallel = [run_result_record(r) for r in run_many(configs, jobs=2)]
    assert serial == parallel


def _assert_identical_under_sanitizer(config):
    from repro import sanitize

    was_active = sanitize.ACTIVE
    sanitize.enable()
    try:
        got = _records(config)
    finally:
        if not was_active:
            sanitize.disable()
    assert got["array"] == got["object"]


def test_equivalent_under_sanitizer():
    _assert_identical_under_sanitizer(with_params(n=128, seed=0))


def test_equivalent_under_sanitizer_with_push_pull():
    _assert_identical_under_sanitizer(
        with_params(n=128, seed=0, push_pull=True)
    )


@pytest.mark.parametrize(
    "config", HARDENED_CONFIGS + PUSH_PULL_CONFIGS[:1]
)
def test_auto_runs_hardened_configs_on_the_array_engine(config, monkeypatch):
    from repro.experiments import runner as runner_mod
    from repro.sim.array_engine import ArraySteppedEngine
    from repro.sim.engine import SimulationEngine

    built = []
    make_engine = runner_mod._make_engine

    def recording(*args):
        built.append(make_engine(*args))
        return built[-1]

    monkeypatch.setattr(runner_mod, "_make_engine", recording)
    streams = []
    for choice in (nullcontext(), forced("object")):
        telemetry = RunTelemetry(tracer=None, metrics=None)
        with choice:
            run_once(config, telemetry=telemetry)
        streams.append(telemetry.phase_trace.events)
    assert [type(e) for e in built] == [ArraySteppedEngine, SimulationEngine]
    auto, reference = streams
    assert len(reference) > 0
    assert auto == reference  # whole phase-event stream


def _reason(config, telemetry=None):
    from repro.experiments import runner as runner_mod

    return runner_mod._array_engine_reason(config, telemetry)


def test_array_engine_reasons():
    # Exactly three reasons: another protocol, a storing tracer and an
    # adversarial campaign.  Every ``GossipParams`` runs on the array
    # engine.
    assert _reason(with_params(n=64)) is None
    assert _reason(with_params(n=64), RunTelemetry.compact()) is None
    assert _reason(with_params(n=64, batch_values=False,
                               independent_values=True)) is None
    assert _reason(with_params(n=64, campaign="crash-storm")) is None
    assert "protocol" in _reason(with_params(n=64, protocol="flood"))
    assert "stores engine events" in _reason(with_params(n=64),
                                             RunTelemetry())
    assert "adversarial" in _reason(with_params(n=64,
                                                campaign="tamper-forge"))


def test_auto_falls_back_silently_on_unsupported():
    # An adversarial campaign: the runner takes the object engine, with
    # nothing said and the same record.
    config = with_params(n=64, campaign="tamper-forge", seed=1)
    with forced("object"):
        object_result = run_once(config)
    assert run_result_record(run_once(config)) == run_result_record(
        object_result
    )


# -- phase-event byte-identity ------------------------------------------

def _hand_built_run(config, engine, network=None, failure_model=None,
                    sinks=(), telemetry=None, injected=()):
    """Run a manually assembled world; returns (phase events, books).

    The group's phase sink records every event (returned) and passes
    each event or block on to ``sinks`` as it came.  ``telemetry`` reads
    the finished engine.  ``injected`` ``(delivery_round, message)``
    pairs are injected from a round-0 subscriber.
    """
    from repro.core.observe import PhaseSink
    from repro.experiments import runner as runner_mod
    from repro.sim.rng import RngRegistry

    events = []

    class Recorder(PhaseSink):
        def emit(self, event):
            events.append(event)
            for sink in sinks:
                sink.emit(event)

        def emit_block(self, block):
            events.extend(block.events())
            for sink in sinks:
                sink.emit_block(block)

    rngs = RngRegistry(seed=config.seed)
    votes = runner_mod._make_votes(config, rngs)
    processes, max_rounds = runner_mod._build_processes(
        config, votes, rngs, phase_sink=Recorder()
    )
    if network is None:
        network = runner_mod._make_network(config)
    if failure_model is None:
        failure_model = runner_mod._make_failures(config)
    with forced(engine):
        world = runner_mod._make_engine(
            config, None, network, failure_model, rngs, max_rounds,
        )
    world.add_processes(processes)
    if injected:
        inject_at(world, 0, injected)
    world.run()
    if telemetry is not None:
        telemetry.finish(engine=world)
    books = (
        world.stats, network.stats,
        [(p.node_id, p.alive, p.result) for p in processes],
    )
    return events, books


#: Every kind of run the phase-event stream can differ in: the
#: representatives configs are the only ones with
#: ``representative_elected``.
STREAM_CONFIGS = [
    pytest.param(with_params(n=128, seed=0), id="defaults"),
    pytest.param(
        with_params(n=128, start_spread=4, seed=1), id="start-spread"
    ),
    pytest.param(
        with_params(n=128, ucastl=0.4, push_pull=True, seed=0),
        id="push-pull",
    ),
    pytest.param(
        with_params(n=160, k=2, pf=0.004, push_pull=True, seed=6),
        id="k2-over-cap",
    ),
] + [
    config for config in HARDENED_CONFIGS
    if config.id != "adaptive+crash-storm"  # a campaign: run_once only
]


def _observed(config, engine, failure_model=None):
    """One hand-built run seen by three sinks: a recorder, a telemetry's
    storing ``PhaseTrace`` capped a few events into the stepper's first
    block, and a compact one.  What each of them saw, as comparable
    values."""
    import json

    from repro.obs.phase import PhaseTrace

    telemetry = RunTelemetry(
        tracer=None, metrics=None,
        phase_trace=PhaseTrace(max_events=config.n + 7),
    )
    compact = PhaseTrace(store_events=False)
    events, books = _hand_built_run(
        config, engine, failure_model=failure_model,
        sinks=(compact, telemetry.phase_sink()), telemetry=telemetry,
    )
    traces = [
        (trace.counts, trace.phase_counts, trace.phase_timeouts,
         trace.phase_early, trace.incomplete_finalizes,
         trace.dropped_events, trace.events)
        for trace in (telemetry.phase_trace, compact)
    ]
    return (
        events, books, traces,
        json.dumps(telemetry.summary().to_record(), sort_keys=True),
    )


def _assert_streams_identical(config, failure_model=None):
    got = {
        engine: _observed(config, engine, failure_model)
        for engine in ("object", "array")
    }
    events, __, ((counts, *__, dropped, stored), __), __ = got["object"]
    assert len(events) > 0 and dropped > 0
    assert len(stored) == config.n + 7
    assert sum(counts.values()) == len(events)
    if config.representative_fraction < 1:
        assert counts["representative_elected"] > 0
    assert got["array"] == got["object"]


@pytest.mark.parametrize("config", STREAM_CONFIGS)
def test_phase_event_streams_identical(config):
    _assert_streams_identical(config)


def test_phase_event_streams_identical_crash_recovery():
    from repro.sim.failures import CrashRecovery

    _assert_streams_identical(
        with_params(n=128, push_pull=True, seed=3),
        CrashRecovery(pf=0.02, pr=0.3),
    )


def test_phase_event_streams_identical_unsanitized(unsanitized):
    _assert_streams_identical(
        with_params(n=128, ucastl=0.4, push_pull=True, seed=0)
    )


def test_compact_array_run_builds_no_phase_event(monkeypatch):
    # A counting sink takes the stepper's blocks as columns, the phase-1
    # entries of round 0 included: no PhaseEvent is ever built.
    from repro.core.observe import PhaseEvent

    built = []
    init = PhaseEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["kind"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseEvent, "__init__", counted)
    telemetry = RunTelemetry.compact()
    with forced("array"):
        run_once(with_params(n=256, ucastl=0.4, push_pull=True, seed=0),
                 telemetry=telemetry)
    assert sum(telemetry.phase_trace.counts.values()) > 3 * 256
    assert built == []


def test_equivalent_on_jitter_network():
    _assert_identical_on_jitter(with_params(n=128, pf=0.002, seed=3))


def test_equivalent_on_jitter_network_with_push_pull():
    _assert_identical_on_jitter(
        with_params(n=128, pf=0.002, seed=3, push_pull=True)
    )


def _assert_identical_on_jitter(config):
    # Per-message latency: the array engine splits each planned block
    # (and each block of pull replies) into one chunk per delivery
    # round, and must still match the object engine end to end.
    from repro.sim.network import JitterNetwork

    runs = {
        engine: _hand_built_run(
            config, engine,
            JitterNetwork(ucastl=0.2, mean_extra_latency=1.5,
                          max_message_size=config.max_message_size),
        )
        for engine in ("object", "array")
    }
    events, (engine_stats, network_stats, members) = runs["object"]
    assert len(events) > 0 and engine_stats.messages_delivered > 0
    assert any(result is not None for __, __, result in members)
    assert runs["array"] == runs["object"]


# -- boundaries of the columnar stepper ---------------------------------
# The array stepper keeps member state as rows and admits arrivals in
# one pass, and the array engine delivers nothing else: these runs cross
# the places where a run needs single messages instead, which the
# object engine delivers.

def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_jitter_delivers_row_snapshot_chunks(monkeypatch):
    # Jitter plans in blocks like every model: sends and pull answers,
    # over-cap K=2 subsets too, arrive as chunks of snapshot rows.
    from repro.sim.array_engine import ArraySteppedEngine

    chunks = _counting(monkeypatch, ArraySteppedEngine, "_deliver_block")
    _assert_identical_on_jitter(
        with_params(n=160, k=2, pf=0.004, push_pull=True, seed=6)
    )
    assert chunks


def test_adversarial_campaign_under_sanitizer_admits_through_process(
    monkeypatch,
):
    # The runner arms the sanitizer's screen for an adversarial campaign,
    # whose adversary taps every send: it takes the object engine, where
    # each arrival is one message the process admits itself, screened
    # entry by entry.
    from repro import sanitize
    from repro.core.hierarchical_gossip import HierarchicalGossipProcess

    absorbed = _counting(
        monkeypatch, HierarchicalGossipProcess, "absorb_payloads"
    )
    screened = _counting(monkeypatch, sanitize, "_screen_contribution")
    for campaign in ("tamper-replay", "sybil-storm"):
        absorbed.clear()
        screened.clear()
        built, __ = _built_engines(
            with_params(n=128, k=2, campaign=campaign, push_pull=True,
                        seed=1)
        )
        assert built == ["SimulationEngine"]
        assert absorbed and screened


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_scalar_answer_shares_the_block_window(cap):
    # Injected push-pull requests on the object engine, whose outbox is
    # planned as one block per stage: under a bandwidth cap, each answer
    # is its receiver's next send in the window its planned sends
    # opened, so the answers add rejections.  (The array engine refuses
    # injected messages.)
    from repro.core.messages import GossipBatch
    from repro.sim.network import LossyNetwork, Message

    config = with_params(n=128, push_pull=True, max_sends_per_round=cap,
                         seed=4)

    def injected(inject):
        return [
            (round_number, Message(
                src=(member + 1) % 128, dest=member, size=8,
                payload=GossipBatch(1, ()),
            ))
            for round_number in ((1, 2, 3) if inject else ())
            for member in range(0, 128, 3)
        ]

    rejected = []
    for inject in (False, True):
        lossy = LossyNetwork(ucastl=config.ucastl, max_sends_per_round=cap,
                             max_message_size=config.max_message_size)
        __, (__, network_stats, __) = _hand_built_run(
            config, "object", lossy, injected=injected(inject)
        )
        rejected.append(network_stats.rejected_bandwidth)
    assert 0 < rejected[0] < rejected[1]


def test_adversarial_campaigns_deliver_no_chunks(monkeypatch):
    # An installed adversary snoops and injects single messages, so an
    # adversarial run delivers no chunk: the runner takes the object
    # engine, whose every arrival is a message.
    from repro.sim.array_engine import ArraySteppedEngine
    from repro.sim.engine import SimulationEngine

    chunks = _counting(monkeypatch, ArraySteppedEngine, "_deliver_block")
    messages = _counting(monkeypatch, SimulationEngine, "_dispatch")
    adversarial = [
        name for name in campaign_names() if get_campaign(name).adversarial
    ]
    assert adversarial
    for campaign in adversarial:
        for push_pull in (False, True):
            messages.clear()
            run_once(with_params(n=128, campaign=campaign,
                                 push_pull=push_pull, seed=1))
            assert (len(chunks), bool(messages)) == (0, True), campaign


def test_forged_keys_are_refused_by_the_receiver(monkeypatch):
    # A Sybil identity and a re-keyed duplicate, injected with no
    # screen armed (the object engine: the array engine refuses
    # injected messages): the receiver's own admission refuses both,
    # so the run is the run without them.
    from repro.core.aggregates import AggregateState
    from repro.core.gridbox import shared_dense_assignment
    from repro.core.hashing import FairHash
    from repro.core.hierarchical_gossip import HierarchicalGossipProcess
    from repro.core.intervals import IntervalMask
    from repro.core.messages import GossipValue
    from repro.sim.network import LossyNetwork, Message

    config = with_params(n=128, pf=0.0, push_pull=True, seed=2)
    assignment = shared_dense_assignment(128, 4, 128, FairHash(salt=0))
    victim = next(
        m for m in assignment.member_ids
        if len(assignment.members_of_box(assignment.box_of(m))) > 2
    )
    first, second = [
        m for m in assignment.members_of_box(assignment.box_of(victim))
        if m != victim
    ][:2]
    sybil = 128 + 9
    forgeries = [
        GossipValue(1, sybil, AggregateState(
            (50.0, 1), IntervalMask.single(sybil))),
        # ``second``'s rank under ``first``'s key.
        GossipValue(1, first, AggregateState(
            (50.0, 1), IntervalMask.single(assignment.rank_of(second)))),
    ]

    def run(payloads):
        # Delivered in round 1: the victim holds only its own vote.
        lossy = LossyNetwork(ucastl=config.ucastl,
                             max_message_size=config.max_message_size)
        return _hand_built_run(config, "object", lossy, injected=[
            (1, Message(src=payload.key, dest=victim, payload=payload,
                        size=24))
            for payload in payloads
        ])

    refused = []
    placed = HierarchicalGossipProcess._placed

    def recording(process, phase, key, state):
        admitted = placed(process, phase, key, state)
        if not admitted:
            refused.append((process.node_id, key))
        return admitted

    monkeypatch.setattr(HierarchicalGossipProcess, "_placed", recording)
    __, (__, __, clean) = run([])
    assert refused == []
    __, (__, __, members) = run(forgeries)
    assert refused == [(victim, sybil), (victim, first)]
    assert all(
        result is None or result.covers() <= 128
        for __, __, result in members
    )
    assert members == clean


@pytest.mark.parametrize("config", [
    pytest.param(with_params(n=256, k=2, seed=4), id="k2"),
    pytest.param(
        with_params(n=256, k=2, ucastl=0.4, prefer_coverage=False, seed=5),
        id="k2-first-wins",
    ),
    pytest.param(
        with_params(n=200, k=2, push_pull=True, start_spread=3, seed=6),
        id="k2-push-pull+start-spread",
    ),
])
def test_k2_boxes_over_the_batch_cap(config):
    # K=2 boxes hold more votes than a batch carries, so those rows send
    # a fresh Floyd subset every round, drawn after their targets.
    from repro.core.gridbox import shared_dense_assignment
    from repro.core.hashing import FairHash

    assignment = shared_dense_assignment(
        config.n, config.k, config.n, FairHash(salt=config.hash_salt)
    )
    assert max(
        len(assignment.members_of_box(box))
        for box in range(assignment.hierarchy.num_boxes)
    ) > config.k
    _assert_identical(config)


@pytest.mark.parametrize("push_pull", [False, True],
                         ids=["push", "push-pull"])
@pytest.mark.parametrize("seed", range(3))
def test_sparse_member_ids(seed, push_pull):
    # Ids that are not ``range(n)``: the array engine finds a member's
    # row by search, under crashes and push-pull answers.
    from repro.experiments.runner import _run_votes
    from repro.sim.rng import RngRegistry

    votes = {10_000 + 7 * i: float(i) for i in range(300)}
    config = with_params(n=300, ucastl=0.3, pf=0.004, push_pull=push_pull,
                         seed=seed)
    records = {}
    for engine in ENGINES:
        with forced(engine):
            result = _run_votes(config, RngRegistry(seed), votes)
        records[engine] = run_result_record(result)
    assert records["object"]["crashes"] > 0
    assert records["array"] == records["object"]


def test_crash_recovery():
    # Recovered members resume with their rows intact.
    from repro.sim.failures import CrashRecovery

    config = with_params(n=128, push_pull=True, seed=3)
    runs = {
        engine: _hand_built_run(
            config, engine, failure_model=CrashRecovery(pf=0.02, pr=0.3)
        )
        for engine in ("object", "array")
    }
    __, (engine_stats, __, __) = runs["object"]
    assert engine_stats.crashes > 0 and engine_stats.recoveries > 0
    assert runs["array"] == runs["object"]


def test_sanitized_array_run_folds_columns(monkeypatch):
    # The sanitizer checks next to the compose, never in its place: with
    # it on, a fixed-width aggregate's rows compose in the state table,
    # one column fold per compose, and neither the stepper nor the table
    # calls ``merge_all``.
    import sys

    from repro import sanitize
    from repro.core.aggregates import AggregateFunction, StateTable

    composing = []
    merge_all = AggregateFunction.merge_all
    compose_code = StateTable.compose.__code__

    def counted(self, states):
        frame = sys._getframe(1)
        if (frame.f_globals["__name__"] == "repro.core.array_stepper"
                or frame.f_code is compose_code):
            composing.append(frame.f_code.co_name)
        return merge_all(self, states)

    monkeypatch.setattr(AggregateFunction, "merge_all", counted)
    composes = _counting(monkeypatch, StateTable, "compose")
    folds = _counting(monkeypatch, AggregateFunction, "fold_columns")
    held = _counting(monkeypatch, sanitize, "check_held")
    was_active = sanitize.ACTIVE
    sanitize.enable()
    try:
        with forced("array"):
            run_once(with_params(n=128, aggregate="sum", seed=0))
    finally:
        if not was_active:
            sanitize.disable()
    assert composing == []
    assert composes and len(folds) == len(composes)
    assert len(held) >= 128


@pytest.mark.parametrize("name", AGGREGATE_NAMES)
def test_equivalent_composing_unsanitized(name, unsanitized):
    # A fixed-width aggregate folds payload columns; top_k and
    # distinct_count fold their object payloads with the combiner.
    _assert_identical(with_params(n=128, ucastl=0.4, aggregate=name, seed=2))


def test_array_run_calls_no_process_protocol_code(monkeypatch, unsanitized):
    # Block delivery, one-pass admission, the columnar buffer and the
    # columnar advance (under jitter, a region outage and single-value
    # gossip too): no member's own admission or advance runs, and every
    # run equals the object engine's.
    from repro.core.hierarchical_gossip import HierarchicalGossipProcess
    from repro.sim.network import JitterNetwork

    advanced = _counting(
        monkeypatch, HierarchicalGossipProcess, "_maybe_advance"
    )
    absorbed = _counting(
        monkeypatch, HierarchicalGossipProcess, "absorb_payloads"
    )

    def check(run):
        advanced.clear()
        absorbed.clear()
        array = run("array")
        assert (len(advanced), len(absorbed)) == (0, 0)
        assert array == run("object")
        assert advanced and absorbed

    def records(config):
        def run(engine):
            with forced(engine):
                return run_result_record(run_once(config))
        return run

    check(records(with_params(n=512, k=8)))
    check(records(with_params(n=128, campaign="region-outage", seed=1)))
    check(records(with_params(n=128, ucastl=0.3, batch_values=False,
                              independent_values=True, seed=1)))
    jitter = with_params(n=128, pf=0.002, push_pull=True, seed=3)
    check(lambda engine: _hand_built_run(
        jitter, engine,
        JitterNetwork(ucastl=0.2, mean_extra_latency=1.5,
                      max_message_size=jitter.max_message_size),
    ))
