"""The traced pass: one repetition rebuilt from public constructors.

The untraced pass hands the program a ``RunConfig`` and times the whole
run.  To say which *layer* a second went to, this pass assembles the
same world by hand from the layers' public constructors, wraps the
calls that cross a layer boundary in timers that live in this file, and
records spans (see ``spans.py``).  Nothing under ``src/`` is touched.

Span tree of a simulated run::

    run
      build
        core.gridbox.assign
        core.hierarchical_gossip.build
        sim.engine.add_processes
      sim.engine.start            (on_start of every process)
        core.array_stepper.bind
      round                       (one per round)
        sim.failures.step
        sim.engine.deliver
          sim.network.plan        (push-pull replies sent on delivery)
        sim.engine.step
          core.array_stepper.step (array engine only)
            sim.network.plan
          sim.network.plan        (object engine: one per Context.send)
      measure

and of a loopback run::

    run
      net.node.build
      tick                        (one per tick)
        net.loopback.route
          net.node.rx             (one per datagram, folded)
        net.node.tick             (one per node, folded)
      measure

The traced repetition's counts must equal the untraced repetition's of
the same seed: that is what proves the hand-assembled world is the same
program.
"""

from __future__ import annotations

import gc
import pathlib
import sys
import time
from dataclasses import replace

from repro.core.aggregates import clear_mask_union_cache, get_aggregate
from repro.core.array_stepper import (
    HierarchicalArrayStepper,
    unsupported_reason,
)
from repro.core.gridbox import shared_dense_assignment
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipParams,
    build_hierarchical_gossip_group,
)
from repro.core.protocol import measure_completeness
from repro.net import codec
from repro.net.node import NodeConfig, make_votes
from repro.sim.array_engine import ArraySteppedEngine
from repro.sim.engine import SimulationEngine
from repro.sim.failures import CrashWithoutRecovery, NoFailures
from repro.sim.network import LossyNetwork
from repro.sim.rng import RngRegistry

import diagnostics
import micro
import udp_probe
import workloads as wl
from spans import Spans

#: The runner's slack past the protocol's nominal round budget.
_HORIZON_SLACK = 50


# -- simulated substrate ----------------------------------------------------

def traced_sim_run(workload: wl.Workload, config, spans: Spans):
    """One ``run_once``-equivalent run, spans around every layer call.

    Returns ``(Run, engine)``.
    """
    clear_mask_union_cache()
    telemetry = wl.sim_telemetry(workload)
    n = config.n
    spans.begin("build")
    rngs = RngRegistry(seed=config.seed)
    votes = make_votes(NodeConfig(
        node_id=0, group_size=n, seed=config.seed,
        vote_low=config.vote_low, vote_high=config.vote_high,
    ))
    function = get_aggregate(config.aggregate)
    with spans.span("core.gridbox.assign"):
        assignment = shared_dense_assignment(
            n, config.k, n, FairHash(salt=config.hash_salt)
        )
    params = GossipParams(
        fanout_m=config.fanout_m,
        rounds_factor_c=config.rounds_factor_c,
        rounds_per_phase=config.rounds_per_phase,
        early_bump=config.early_bump,
        batch_values=config.batch_values,
        independent_values=config.independent_values,
        prefer_coverage=config.prefer_coverage,
        push_pull=config.push_pull,
        representative_fraction=config.representative_fraction,
        adaptive_deadlines=config.adaptive_deadlines,
        final_retransmit=config.final_retransmit,
    )
    with spans.span("core.hierarchical_gossip.build"):
        processes = build_hierarchical_gossip_group(
            votes, function, assignment, params,
            phase_sink=telemetry.phase_sink(),
        )
    rounds_per_phase = params.resolve_rounds(n)
    phases = assignment.hierarchy.num_phases
    max_rounds = (rounds_per_phase * phases + config.start_spread
                  + params.extension_budget(rounds_per_phase) * phases
                  + _HORIZON_SLACK)
    network = LossyNetwork(
        ucastl=config.ucastl,
        max_message_size=config.max_message_size,
        max_sends_per_round=config.max_sends_per_round,
    )
    failure_model = (CrashWithoutRecovery(pf=config.pf) if config.pf > 0.0
                     else NoFailures())
    # Timers go on before the engine is built: it keeps references.
    network.plan_delivery = spans.folded(
        "sim.network.plan", network.plan_delivery)
    network.plan_delivery_block = spans.folded(
        "sim.network.plan", network.plan_delivery_block)
    failure_step = failure_model.step

    def timed_failure_step(*args):
        # Delivery starts where the failure model's answer ends.
        with spans.span("sim.failures.step"):
            outcome = failure_step(*args)
        spans.begin("sim.engine.deliver")
        return outcome

    failure_model.step = timed_failure_step
    # The runner's "auto" rule: array engine unless a per-message hook
    # is attached or the protocol knobs need per-message dispatch.
    if (telemetry.tracer is None and telemetry.metrics is None
            and unsupported_reason(params) is None):
        stepper = HierarchicalArrayStepper()
        stepper.bind = spans.folded("core.array_stepper.bind", stepper.bind)
        stepper.step = spans.folded("core.array_stepper.step", stepper.step)
        engine = ArraySteppedEngine(
            stepper=stepper, network=network, failure_model=failure_model,
            rngs=rngs, max_rounds=max_rounds,
        )
    else:
        engine = SimulationEngine(
            network=network, failure_model=failure_model, rngs=rngs,
            max_rounds=max_rounds, tracer=telemetry.tracer,
            metrics=telemetry.metrics,
        )
    with spans.span("sim.engine.add_processes"):
        engine.add_processes(processes)
    spans.end()  # build

    # Round boundaries seen from outside: ``until`` is asked once at the
    # top of every round, the failure model is stepped first (unless it
    # is null), the round bus fires between delivery and step.
    base = spans.depth

    def until() -> bool:
        spans.end_to(base)
        if failure_model.may_recover:
            done = engine.terminated_count == len(engine.processes)
        else:
            done = engine.active_count == 0
        if not done:
            spans.begin("round")
            if failure_model.is_null:
                spans.begin("sim.engine.deliver")
        return done

    def after_delivery(round_number: int) -> None:
        spans.end_to(base + 1)
        spans.begin("sim.engine.step")

    engine.round_bus.subscribe(after_delivery)
    spans.begin("sim.engine.start")
    engine.run(until=until)
    spans.end_to(base)

    with spans.span("measure"):
        true_value = function.finalize(function.over(votes))
        report = measure_completeness(processes, group_size=n)
        errors = [
            abs(p.function.finalize(p.result) - true_value)
            for p in processes if p.node_id in report.per_member
        ]
    run = wl.Run(
        n=n,
        rounds=engine.stats.rounds_executed,
        messages_sent=network.stats.sent,
        messages_dropped=network.stats.dropped,
        bytes_sent=network.stats.bytes_sent,
        completeness=report.mean_completeness,
        estimate_error=sum(errors) / len(errors) if errors else float("nan"),
        true_value=true_value,
        unfinished=report.unfinished,
        crashes=engine.stats.crashes,
    )
    run.fault = wl.check_sim_run(run)
    return run, engine


# -- net substrate ----------------------------------------------------------

def traced_net_run(workload: wl.Workload, seed: int, spans: Spans):
    """The loopback loop of ``workloads.net_run`` with spans and frame
    capture.  Returns ``(Run, nodes, frames)``."""
    configs = wl.net_configs(workload, seed)
    with spans.span("net.node.build"):
        router, nodes, by_address = wl.build_net_group(configs)
    frames: list[bytes] = []
    horizon = nodes[0].max_ticks
    clock = time.perf_counter
    started = clock()
    ticks = 0
    while ticks < horizon:
        spans.begin("tick")
        spans.begin("net.loopback.route")
        batch = router.take()
        rx_s = 0.0
        for data, dest, src in batch:
            receiver = by_address.get(dest)
            if receiver is not None:
                t0 = clock()
                receiver.datagram_received(data, src)
                rx_s += clock() - t0
        spans.add("net.node.rx", rx_s, len(batch))
        spans.end()
        frames.extend(data for data, __, __ in batch)
        spans.begin("net.node.tick", count=len(nodes))
        done = True
        for node in nodes:
            if not node.tick():
                done = False
        spans.end()
        spans.end()  # tick
        ticks += 1
        if done:
            break
    with spans.span("measure"):
        run = wl.measure_net_group(nodes, ticks, started)
    return run, nodes, frames


def replay_frames(frames: list[bytes]) -> dict[str, float]:
    """Re-decode and re-encode every frame the run put on the wire.

    Each message is dropped as soon as it is re-encoded: holding 40 000
    decoded messages alive makes the allocator, not the codec, the cost.
    """
    clock = time.perf_counter
    decode_s = encode_s = 0.0
    kinds: dict[type, int] = {}
    for frame in frames:
        start = clock()
        message = codec.decode(frame)
        middle = clock()
        encoded = codec.encode(message)
        encode_s += clock() - middle
        decode_s += middle - start
        if encoded != frame:
            raise AssertionError("a re-encoded frame differs from the wire")
        kinds[type(message)] = kinds.get(type(message), 0) + 1
    sizes = [len(frame) for frame in frames]
    return {
        "net.codec.decode_replay_s": decode_s,
        "net.codec.encode_replay_s": encode_s,
        "net.codec.mean_frame_bytes": sum(sizes) / len(sizes),
        "net.codec.max_frame_bytes": max(sizes),
        "net.node.frames_tx": len(frames),
        "net.node.gossip_frames": kinds.get(codec.Gossip, 0),
        "net.node.ping_frames":
            kinds.get(codec.Ping, 0) + kinds.get(codec.Pong, 0),
    }


# -- the pass ---------------------------------------------------------------

#: Spans that only give the tree its shape; time left in them belongs to
#: no layer and is what the coverage check bounds.
STRUCTURAL = ("run", "round", "tick")


def assignment_timings(workload: wl.Workload) -> dict[str, float]:
    """First (cold) and second (memoized) ``shared_dense_assignment`` at
    the workload's N; must run before anything else builds a world."""
    seconds = []
    for __ in ("cold", "warm"):
        start = time.perf_counter()
        shared_dense_assignment(
            workload.n, workload.k, workload.n, FairHash(salt=0)
        )
        seconds.append(time.perf_counter() - start)
    return {"core.gridbox.assign_cold_s": seconds[0],
            "core.gridbox.assign_warm_s": seconds[1]}


def traced_repetition(workload: wl.Workload, seed: int, spans: Spans):
    """``(Rep, per-layer counts)`` of the traced repetition of ``seed``."""
    rep = wl.Rep(seed)
    counts: dict[str, float] = {}
    if workload.kind == "net":
        with spans.span("run"):
            run, nodes, frames = traced_net_run(workload, seed, spans)
        rep.runs.append(run)
        counts.update(replay_frames(frames))
        counts["net.node.frames_rejected"] = sum(
            node.stats.frames_rejected for node in nodes)
        counts["net.node.gossip_dropped_unstarted"] = sum(
            node.stats.gossip_dropped_unstarted for node in nodes)
        return rep, counts
    for name in ("sim.engine.msgs_delivered", "sim.network.msgs_planned",
                 "sim.network.dropped", "sim.network.rejected",
                 "sim.failures.crashes"):
        counts[name] = 0
    for config in wl.sim_configs(workload, seed):
        with spans.span("run"):
            run, engine = traced_sim_run(workload, config, spans)
        rep.runs.append(run)
        network = engine.network.stats
        counts["sim.engine.msgs_delivered"] += engine.stats.messages_delivered
        counts["sim.network.msgs_planned"] += network.sent
        counts["sim.network.dropped"] += network.dropped
        counts["sim.network.rejected"] += network.rejected_bandwidth
        counts["sim.failures.crashes"] += engine.stats.crashes
    return rep, counts


def layer_metrics(workload: wl.Workload, totals: dict,
                  reference: dict[str, float], rep: wl.Rep) -> dict:
    """Per-layer numbers of one traced repetition.

    ``*_s`` figures are a span's whole duration (children included)
    unless the name says ``self``; ``reference`` holds the untraced
    repetition's end-to-end metrics.
    """
    def total(name):
        return totals.get(name, {}).get("total", 0.0)

    def own(name):
        return totals.get(name, {}).get("self", 0.0)

    def count(name):
        return totals.get(name, {}).get("count", 0)

    messages = sum(run.messages_sent for run in rep.runs)
    metrics = {
        "protocol.incompleteness": 1.0 - rep.metrics()["completeness"],
        "protocol.estimate_error": sum(
            run.estimate_error for run in rep.runs) / len(rep.runs),
    }
    if workload.kind == "net":
        metrics.update({
            "net.node.build_s": total("net.node.build"),
            "net.node.rx_s": total("net.node.rx"),
            "net.node.tick_s": total("net.node.tick"),
            "net.loopback.route_s": own("net.loopback.route"),
        })
        return metrics
    metrics.update({
        "experiments.runner.build_s": total("build"),
        "experiments.runner.measure_s": total("measure"),
        "core.hierarchical_gossip.build_s":
            total("core.hierarchical_gossip.build"),
        "core.array_stepper.step_s": total("core.array_stepper.step"),
        "core.array_stepper.step_self_s": own("core.array_stepper.step"),
        "core.array_stepper.bind_s": total("core.array_stepper.bind"),
        "sim.engine.deliver_s": total("sim.engine.deliver"),
        "sim.engine.step_s": total("sim.engine.step"),
        "sim.engine.rounds": count("round"),
        "sim.engine.ns_per_msg": reference["wall_s"] / messages * 1e9,
        "sim.network.plan_s": total("sim.network.plan"),
        "sim.network.plan_calls": count("sim.network.plan"),
        "sim.failures.step_s": total("sim.failures.step"),
    })
    if workload.sweep_seeds:
        metrics["sim.engine.us_per_round_fixed"] = (
            reference["wall_s"] / count("round") * 1e6
        )
    return metrics


def traced_pass(workload: wl.Workload, seed: int, declared: list[str],
                out_dir: pathlib.Path, small: bool) -> dict:
    """Everything ``run.py --trace 1`` reports for one workload."""
    metrics: dict[str, float] = dict.fromkeys(declared, 0.0)
    faults: list[str] = []
    notes: dict = {}
    out_dir.mkdir(exist_ok=True)
    metrics.update(assignment_timings(workload))

    reference_rep = wl.repetition(workload, seed)
    reference = reference_rep.metrics()
    gc.collect()
    spans = Spans()
    rep, counts = traced_repetition(workload, seed, spans)
    metrics.update(counts)
    totals = spans.totals()
    metrics.update(layer_metrics(workload, totals, reference, rep))
    if workload.kind == "net":
        metrics["net.node.rx_self_s"] = (
            metrics["net.node.rx_s"] - metrics["net.codec.decode_replay_s"]
        )

    faults.extend(run.fault for run in reference_rep.runs + rep.runs
                  if run.fault)
    if ([run.counts() for run in rep.runs]
            != [run.counts() for run in reference_rep.runs]):
        faults.append("traced counts differ from the untraced repetition's")
    traced_total = totals["run"]["total"]
    unattributed = sum(
        totals.get(name, {}).get("self", 0.0) for name in STRUCTURAL
    )
    share = notes["unattributed_share"] = unattributed / traced_total
    if share > 0.05:
        faults.append(
            f"{share:.1%} of the traced wall is in no layer's span (limit 5%)"
        )
    setup_name = "net.node.build" if workload.kind == "net" else "build"
    metrics["trace.overhead_ratio"] = (
        (traced_total - totals[setup_name]["total"]) / reference["wall_s"]
    )

    budget = 0.02 if small else 1.0
    if workload.compact_telemetry:
        bare = wl.repetition(replace(workload, compact_telemetry=False), seed)
        metrics["obs.telemetry.compact_overhead_ratio"] = (
            reference["wall_s"] / bare.metrics()["wall_s"]
        )
    if workload.kind == "net":
        probe, notes["udp_probe"], fault = udp_probe.probe(
            seed,
            members=8 if small else 64,
            ladder=(40, 20) if small else udp_probe.LADDER_MS,
        )
        metrics.update(probe)
        if fault:
            faults.append(fault)
    if workload.sweep_seeds:
        metrics.update(diagnostics.parallel(wl.sim_configs(workload, seed)))
        if not metrics["experiments.parallel.bit_identical"]:
            faults.append("run_many on two workers changed the results")
        metrics.update(diagnostics.lint(
            out_dir / "lint-cache.json",
            "src/repro/net" if small else "src",
        ))
    metrics.update(micro.run_all(seed, budget))
    metrics.update(diagnostics.loc())

    unknown = sorted(set(metrics) - set(declared))
    if unknown:
        raise KeyError(f"metrics not declared in BENCHMARK.json: {unknown}")
    spans.dump(out_dir / f"trace-{workload.name}.json", {
        "workload": workload.name, "seed": seed, "faults": faults,
        "notes": notes, "totals": totals,
    })
    for fault in faults:
        print(f"[{workload.name}] FAULT {fault}", file=sys.stderr)
    attempted = rep.members + reference_rep.members
    return {
        "correct": not faults,
        "attempted": attempted,
        "failed": attempted if faults else 0,
        "metrics": metrics,
    }
