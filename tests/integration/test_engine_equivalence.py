"""Cross-engine golden equivalence: array-stepped == object-stepped.

The array-stepped engine (`repro.sim.array_engine` driving
`repro.core.array_stepper`) promises *bit-identical* runs to the
object-stepped `SimulationEngine` on every configuration it accepts:
same estimates, same per-member completeness, same network statistics,
same phase events, same sanitizer outcomes — for every seed, chaos
campaign and job count.  These tests pin that promise; any divergence
is a bug in the array path, never an accepted drift.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.chaos import campaign_names
from repro.core.aggregates import AGGREGATE_NAMES
from repro.experiments.parallel import run_many
from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.export import run_result_record
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import RunTelemetry


def _records(config):
    """(repro-run/1 record, per-member maps) for both engines."""
    out = {}
    for engine in ("object", "array"):
        result = run_once(replace(config, engine=engine))
        out[engine] = (
            run_result_record(result),
            result.report.per_member,
            result.report.per_member_initial,
        )
    return out


def _assert_identical(config):
    got = _records(config)
    assert got["array"] == got["object"]


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
    # opened (``begin_round`` fires after delivery).
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


@pytest.mark.parametrize("cap", [2, 3])
def test_push_pull_replies_hit_the_bandwidth_cap(cap):
    # The capped pairs above compare something: replies are rejected.
    capped = with_params(n=128, max_sends_per_round=cap, push_pull=True,
                         seed=1, engine="array")
    push_only = run_once(replace(capped, push_pull=False))
    assert run_once(capped).messages_rejected > push_only.messages_rejected


def test_campaign_registry_is_covered():
    # The campaign sweep below runs every registered campaign; if one is
    # added, it is automatically picked up (this just pins the count the
    # suite was designed against, so silent registry shrinkage fails).
    assert len(campaign_names()) >= 7


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns(campaign):
    _assert_identical(with_params(n=128, campaign=campaign, seed=0))


def _assert_identical_with_telemetry(config):
    got = _records(replace(config, collect_telemetry=True))
    assert got["object"][0]["telemetry"] is not None
    assert got["array"] == got["object"]


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns_with_compact_telemetry(campaign):
    # Compact telemetry attaches no tracer, so the array engine takes
    # it; the record compared includes the whole telemetry summary.
    _assert_identical_with_telemetry(
        with_params(n=128, campaign=campaign, seed=0)
    )


@pytest.mark.parametrize("campaign", campaign_names())
def test_equivalent_on_campaigns_with_push_pull(campaign):
    # Tamper and Sybil campaigns plan per message, so every request
    # there arrives as a scalar ``Message`` and is answered through the
    # array engine's ``_receive``; the others answer chunk by chunk.
    _assert_identical_with_telemetry(
        with_params(n=128, campaign=campaign, seed=0, push_pull=True)
    )


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
    for engine in ("object", "array"):
        telemetry = RunTelemetry(tracer=None, registry=MetricsRegistry())
        run_once(replace(config, engine=engine), telemetry=telemetry)
        samples[engine] = telemetry.metrics.samples
        snapshots[engine] = telemetry.registry.snapshot_json()
    assert len(samples["object"]) > 0
    assert samples["array"] == samples["object"]
    # Every registry feed point (live phase events, round samples, the
    # end-of-run record) fires the same on both engine paths.
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
    streams = {}
    for engine in ("auto", "object"):
        telemetry = RunTelemetry(tracer=None, metrics=None)
        run_once(replace(config, engine=engine), telemetry=telemetry)
        streams[engine] = telemetry.phase_trace.events
    assert [type(e) for e in built] == [ArraySteppedEngine, SimulationEngine]
    assert len(streams["object"]) > 0
    assert streams["auto"] == streams["object"]  # whole phase-event stream


def test_forced_array_engine_rejects_unsupported():
    with pytest.raises(ValueError, match="single-value"):
        run_once(with_params(n=64, engine="array", batch_values=False))
    with pytest.raises(ValueError, match="protocol"):
        run_once(with_params(n=64, engine="array", protocol="flood"))
    with pytest.raises(ValueError, match="stores engine events"):
        run_once(with_params(n=64, engine="array"), telemetry=RunTelemetry())


def test_auto_falls_back_silently_on_unsupported():
    object_result = run_once(
        with_params(n=64, engine="object", batch_values=False)
    )
    auto_result = run_once(
        with_params(n=64, engine="auto", batch_values=False)
    )
    assert run_result_record(auto_result) == run_result_record(object_result)


# -- phase-event byte-identity ------------------------------------------

def _hand_built_run(config, engine, network=None, failure_model=None,
                    sinks=(), telemetry=None, sink_of=None):
    """Run a manually assembled world; returns (phase events, books).

    Every member's phase sink tees an emit-only recorder (whose events
    are returned) and ``sinks``; ``sink_of(index, sink)`` may give
    member ``index`` another.  ``telemetry`` reads the finished engine.
    """
    from repro.core.observe import PhaseSink
    from repro.experiments import runner as runner_mod
    from repro.obs.metrics import TeePhaseSink
    from repro.sim.rng import RngRegistry

    events = []

    class Recorder(PhaseSink):
        def emit(self, event):
            events.append(event)

    rngs = RngRegistry(seed=config.seed)
    votes = runner_mod._make_votes(config, rngs)
    sink = TeePhaseSink(Recorder(), *sinks) if sinks else Recorder()
    processes, max_rounds = runner_mod._build_processes(
        config, votes, rngs, phase_sink=sink
    )
    if sink_of is not None:
        for index, proc in enumerate(processes):
            proc.phase_sink = sink_of(index, proc.phase_sink)
    if network is None:
        network = runner_mod._make_network(config)
    if failure_model is None:
        failure_model = runner_mod._make_failures(config)
    world = runner_mod._make_engine(
        replace(config, engine=engine), None, processes, network,
        failure_model, rngs, max_rounds,
    )
    world.add_processes(processes)
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
    """One hand-built run seen by four sinks: an emit-only recorder, a
    storing ``PhaseTrace`` capped a few events into the stepper's first
    block, a compact one, and a telemetry's tee into a registry.  What
    each of them saw, as comparable values."""
    import json

    from repro.obs.phase import PhaseTrace

    telemetry = RunTelemetry(
        tracer=None, metrics=None,
        phase_trace=PhaseTrace(max_events=config.n + 7),
        registry=MetricsRegistry(),
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
        telemetry.registry.snapshot_json(),
    )


def _assert_streams_identical(config, failure_model=None):
    got = {
        engine: _observed(config, engine, failure_model)
        for engine in ("object", "array")
    }
    events, __, ((counts, *__, dropped, stored), __), __, __ = (
        got["object"]
    )
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


def test_phase_blocks_reach_each_members_sink():
    # One block per distinct sink: every third member has no sink, the
    # others alternate between the shared tee and a second trace.
    from repro.obs.phase import PhaseTrace

    config = with_params(n=128, ucastl=0.4, seed=2)
    seen = {}
    for engine in ("object", "array"):
        other = PhaseTrace()
        events, __ = _hand_built_run(
            config, engine, sink_of=lambda index, sink: (
                None if index % 3 == 0 else sink if index % 3 == 1
                else other
            ),
        )
        seen[engine] = (events, other.events)
    events, others = seen["object"]
    assert events and others
    assert not {e.member for e in events} & {e.member for e in others}
    assert seen["array"] == seen["object"]


def test_compact_array_run_builds_only_the_start_entries(monkeypatch):
    # A counting sink takes the stepper's blocks as columns: the only
    # PhaseEvents built are the phase-1 entries each process's on_start
    # emits, one per member.
    from repro.core.observe import PhaseEvent

    built = []
    init = PhaseEvent.__init__

    def counted(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["kind"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(PhaseEvent, "__init__", counted)
    telemetry = RunTelemetry.compact()
    run_once(with_params(n=256, ucastl=0.4, push_pull=True, seed=0,
                         engine="array"), telemetry=telemetry)
    assert sum(telemetry.phase_trace.counts.values()) > 3 * 256
    assert built == ["phase_enter"] * 256


def test_equivalent_on_jitter_network():
    _assert_identical_on_jitter(with_params(n=128, pf=0.002, seed=3))


def test_equivalent_on_jitter_network_with_push_pull():
    _assert_identical_on_jitter(
        with_params(n=128, pf=0.002, seed=3, push_pull=True)
    )


def _assert_identical_on_jitter(config):
    # Per-message latency cannot be block-planned: the array engine
    # submits its send block (and its block of pull replies) through
    # the scalar path, message by message, and must still match the
    # object engine end to end.
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
# waves; these runs cross each place where it admits one message at a
# time or has to build payload objects.

def _counting(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_jitter_fallback_builds_payloads_from_row_snapshots(monkeypatch):
    # Per-message planning needs a payload object per message: every
    # snapshot row sent under jitter, pull answers included, is built
    # into a GossipBatch, over-cap K=2 subsets too.
    from repro.core.array_stepper import RowSnapshots

    built = _counting(monkeypatch, RowSnapshots, "payloads")
    _assert_identical_on_jitter(
        with_params(n=160, k=2, pf=0.004, push_pull=True, seed=6)
    )
    assert built


def test_adversarial_campaign_under_sanitizer_admits_through_process(
    monkeypatch,
):
    # The sanitizer's screen is armed: every arrival (a scalar message,
    # since the adversary snoops per message) is admitted into its row
    # entry by entry, screened in the process's order.
    from repro.core.array_stepper import HierarchicalArrayStepper

    received = _counting(monkeypatch, HierarchicalArrayStepper, "receive")
    for campaign in ("tamper-replay", "sybil-storm"):
        _assert_identical_under_sanitizer(
            with_params(n=128, k=2, campaign=campaign, push_pull=True,
                        seed=1)
        )
    assert received


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_scalar_answer_shares_the_block_window(cap):
    # Injected push-pull requests are scalar arrivals on a block-planned
    # network: under a bandwidth cap, each answer is its receiver's next
    # send in the window its block-planned sends opened.
    from repro.core.messages import GossipBatch
    from repro.sim.network import LossyNetwork, Message

    config = with_params(n=128, push_pull=True, max_sends_per_round=cap,
                         seed=4)

    def network():
        lossy = LossyNetwork(ucastl=config.ucastl, max_sends_per_round=cap,
                             max_message_size=config.max_message_size)
        for round_number in (1, 2, 3):
            for member in range(0, 128, 3):
                lossy.inject(round_number, Message(
                    src=(member + 1) % 128, dest=member, size=8,
                    payload=GossipBatch(1, ()),
                ))
        return lossy

    runs = {
        engine: _hand_built_run(config, engine, network())
        for engine in ("object", "array")
    }
    __, (__, network_stats, __) = runs["object"]
    assert network_stats.rejected_bandwidth > 0
    assert runs["array"] == runs["object"]


def test_adversarial_campaigns_deliver_no_chunks(monkeypatch):
    # An installed adversary plans every message on its own, so with the
    # screen armed no chunk reaches wave admission: every arrival is
    # scalar, and the screen inspects each entry in arrival order.
    from repro.chaos import get_campaign
    from repro.sim.array_engine import ArraySteppedEngine

    chunks = _counting(monkeypatch, ArraySteppedEngine, "_deliver_block")
    scalars = _counting(monkeypatch, ArraySteppedEngine, "_receive")
    adversarial = [
        name for name in campaign_names() if get_campaign(name).adversarial
    ]
    assert adversarial
    for campaign in adversarial:
        for push_pull in (False, True):
            scalars.clear()
            run_once(with_params(n=128, campaign=campaign, engine="array",
                                 push_pull=push_pull, seed=1))
            assert (len(chunks), bool(scalars)) == (0, True), campaign


def test_forged_keys_are_refused_on_both_engines(monkeypatch):
    # A Sybil identity and a re-keyed duplicate, injected with no
    # screen armed: the receiver's own admission refuses both, so the
    # run is the run without them, on either engine.
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

    def network(injected):
        lossy = LossyNetwork(ucastl=config.ucastl,
                             max_message_size=config.max_message_size)
        for payload in injected:
            # At the head of round 1: the victim holds only its own vote.
            lossy.inject(1, Message(
                src=payload.key, dest=victim, payload=payload, size=24,
            ))
        return lossy

    refused = []
    placed = HierarchicalGossipProcess._placed

    def recording(process, phase, key, state):
        admitted = placed(process, phase, key, state)
        if not admitted:
            refused.append((process.node_id, key))
        return admitted

    monkeypatch.setattr(HierarchicalGossipProcess, "_placed", recording)
    runs = {}
    for engine in ("object", "array"):
        __, (__, __, clean) = _hand_built_run(config, engine, network([]))
        assert refused == []
        runs[engine] = _hand_built_run(config, engine, network(forgeries))
        assert refused == [(victim, sybil), (victim, first)]
        refused.clear()
        __, (__, __, members) = runs[engine]
        assert all(
            result is None or result.covers() <= 128
            for __, __, result in members
        )
        assert members == clean
    assert runs["array"] == runs["object"]


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


@pytest.fixture
def unsanitized():
    """The runtime sanitizer off for one test (the suite arms it): the
    configuration benchmarks and the CLI run."""
    from repro import sanitize

    was_active = sanitize.ACTIVE
    sanitize.disable()
    yield
    if was_active:
        sanitize.enable()


def test_sanitized_array_run_folds_columns(monkeypatch):
    # The sanitizer checks next to the compose, never in its place: a
    # fixed-width aggregate's rows fold as columns with it on, and the
    # stepper calls no ``merge_all``.
    import sys

    from repro import sanitize
    from repro.core.aggregates import AggregateFunction

    stepper_merges = []
    merge_all = AggregateFunction.merge_all

    def counted(self, states):
        caller = sys._getframe(1).f_globals["__name__"]
        if caller == "repro.core.array_stepper":
            stepper_merges.append(caller)
        return merge_all(self, states)

    monkeypatch.setattr(AggregateFunction, "merge_all", counted)
    folds = _counting(monkeypatch, AggregateFunction, "fold_columns")
    held = _counting(monkeypatch, sanitize, "check_held")
    was_active = sanitize.ACTIVE
    sanitize.enable()
    try:
        run_once(with_params(n=128, aggregate="sum", engine="array",
                             seed=0))
    finally:
        if not was_active:
            sanitize.disable()
    assert stepper_merges == []
    assert folds and len(held) >= 128


@pytest.mark.parametrize("name", AGGREGATE_NAMES)
def test_equivalent_composing_unsanitized(name, unsanitized):
    # A fixed-width aggregate folds payload columns; top_k and
    # distinct_count fold their states with ``merge_all``.
    _assert_identical(with_params(n=128, ucastl=0.4, aggregate=name, seed=2))


def test_array_run_calls_no_process_protocol_code(monkeypatch, unsanitized):
    # Block delivery, wave admission, the columnar buffer and the
    # columnar advance — and, for scalar arrivals (per-message jitter
    # planning, a region outage, adversarial injections with the screen
    # armed), admission into the row: no member's own admission or
    # advance runs, and every run equals the object engine's.
    from repro import sanitize
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
        return lambda engine: run_result_record(
            run_once(replace(config, engine=engine))
        )

    check(records(with_params(n=512, k=8)))
    check(records(with_params(n=128, campaign="region-outage", seed=1)))
    jitter = with_params(n=128, pf=0.002, push_pull=True, seed=3)
    check(lambda engine: _hand_built_run(
        jitter, engine,
        JitterNetwork(ucastl=0.2, mean_extra_latency=1.5,
                      max_message_size=jitter.max_message_size),
    ))
    sanitize.enable()
    try:
        for campaign in ("tamper-forge", "sybil-storm"):
            check(records(with_params(n=128, campaign=campaign, seed=1)))
    finally:
        sanitize.disable()
