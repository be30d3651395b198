"""The four workloads: inputs from a seed, untraced repetitions, checks.

Every workload is a closed, self-driven one-shot aggregation run to
convergence.  The program receives only the generated ``RunConfig`` /
``NodeConfig``; the sim workloads go through ``run_once`` and read the
build / simulate / measure split from the program's own opt-in
``SectionProfiler`` (the hook ``run_bench.py --profile`` already uses),
the net workload drives ``NetNode`` + ``LoopbackRouter`` through the
same loop as ``run_loopback_group`` so set-up and run can be timed
apart.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import statistics
import time
from dataclasses import dataclass, field, replace

from repro.core.aggregates import get_aggregate
from repro.core.protocol import measure_completeness
from repro.experiments.params import RunConfig, with_params
from repro.experiments.runner import run_once
from repro.net.loopback import LoopbackRouter, loopback_address
from repro.net.node import NetNode, NodeConfig, make_votes
from repro.obs.phase import PhaseTrace
from repro.obs.profiling import SectionProfiler
from repro.obs.telemetry import RunTelemetry

#: History checksum of sim_large seeds 0 and 1 (BENCH_core.json, n8192).
SIM_LARGE_CHECKSUM = "d3375ff194d37979"

#: Sweep shape (Figure 10): every pf value is run with this many seeds.
SWEEP_PF = (0.002, 0.004, 0.006, 0.008)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str            # "sim" or "net"
    n: int
    k: int
    #: Seeds per pf value (sim_sweep only; 0 = a single run per rep).
    sweep_seeds: int = 0
    push_pull: bool = False
    compact_telemetry: bool = False


#: Why each was chosen is recorded in BENCHMARK.json and the README.
#: All sim runs use the paper's ucastl=0.25, pf=0.001 (the sweep varies
#: pf), M=2, engine="auto"; the net group is lossless.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_large", "sim", 8192, 8),
        Workload("sim_slowpath", "sim", 2048, 4,
                 push_pull=True, compact_telemetry=True),
        Workload("sim_sweep", "sim", 200, 4, sweep_seeds=24),
        Workload("net_loopback", "net", 512, 8),
    )
}

#: Reduced sizes for ``bench.py --check`` (a smoke, not a measurement).
SMALL = {
    "sim_large": dict(n=512),
    "sim_slowpath": dict(n=256),
    "sim_sweep": dict(sweep_seeds=2),
    "net_loopback": dict(n=32, k=4),
}


def resolve(name: str, small: bool = False) -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **SMALL[name]) if small else workload


# -- inputs -----------------------------------------------------------------

def sim_configs(workload: Workload, seed: int) -> list[RunConfig]:
    """The RunConfigs of one repetition (one, or a whole sweep)."""
    base = dict(n=workload.n, k=workload.k, push_pull=workload.push_pull)
    if not workload.sweep_seeds:
        return [with_params(seed=seed, **base)]
    return [
        with_params(pf=pf, seed=seed * 1000 + offset, **base)
        for pf in SWEEP_PF
        for offset in range(workload.sweep_seeds)
    ]


def sim_telemetry(workload: Workload) -> RunTelemetry:
    """What the workload attaches, plus the section profiler."""
    if workload.compact_telemetry:
        telemetry = RunTelemetry.compact()
    else:
        # Every per-event hook detached: engine="auto" still picks the
        # array engine and the result equals an untelemetered run's.
        telemetry = RunTelemetry(
            tracer=None, metrics=None,
            phase_trace=PhaseTrace(store_events=False),
            attach_summary=False, attach_phase_sink=False,
        )
    telemetry.profiler = SectionProfiler()
    return telemetry


def net_configs(workload: Workload, seed: int) -> list[NodeConfig]:
    return [
        NodeConfig(node_id=i, group_size=workload.n, k=workload.k, seed=seed)
        for i in range(workload.n)
    ]


# -- one run, one repetition ------------------------------------------------

@dataclass
class Run:
    """What one aggregation run produced (either substrate)."""

    n: int
    rounds: int
    messages_sent: int
    messages_dropped: int
    bytes_sent: int
    completeness: float
    estimate_error: float
    true_value: float
    unfinished: int
    crashes: int = 0
    #: Timings of the untraced pass (the traced pass reads its spans).
    setup_s: float = 0.0
    wall_s: float = 0.0
    #: Why the run's output is wrong ("" = it is right).
    fault: str = ""

    def counts(self) -> tuple:
        return (self.rounds, self.messages_sent, self.messages_dropped,
                self.bytes_sent, self.completeness)


def checksum(results) -> str:
    """run_bench.py's ``_checksum`` recipe, over RunResults or Runs."""
    payload = json.dumps(
        [
            [1.0 - r.completeness, r.completeness, r.messages_sent,
             r.messages_dropped, r.rounds, r.crashes, r.bytes_sent]
            for r in results
        ],
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def check_sim_run(run: Run) -> str:
    """Output check of one simulated run (lossy, so bounds not equality)."""
    if run.unfinished:
        return f"{run.unfinished} survivors never finalized"
    if not run.completeness >= 0.95:
        return f"completeness {run.completeness} < 0.95"
    if not run.estimate_error <= 0.02 * abs(run.true_value):
        return (f"estimate error {run.estimate_error} > 2% of "
                f"{run.true_value}")
    return ""


def sim_run(workload: Workload, config: RunConfig) -> Run:
    telemetry = sim_telemetry(workload)
    result = run_once(config, telemetry=telemetry)
    sections = telemetry.profiler.totals
    run = Run(
        n=config.n,
        setup_s=sections["build"],
        wall_s=sections["simulate"] + sections["measure"],
        rounds=result.rounds,
        messages_sent=result.messages_sent,
        messages_dropped=result.messages_dropped,
        bytes_sent=result.bytes_sent,
        completeness=result.completeness,
        estimate_error=result.mean_estimate_error,
        true_value=result.true_value,
        unfinished=result.report.unfinished,
        crashes=result.crashes,
    )
    run.fault = check_sim_run(run)
    return run


def build_net_group(configs: list[NodeConfig]):
    """All-known address books, as ``run_loopback_group`` builds them."""
    router = LoopbackRouter()
    nodes = []
    size = len(configs)
    for config in configs:
        address = loopback_address(config.node_id)
        node = NetNode(config, router.sender_for(address))
        node.register_self(address)
        for peer in range(size):
            node.book.record(peer, loopback_address(peer))
        nodes.append(node)
    by_address = {loopback_address(n.config.node_id): n for n in nodes}
    return router, nodes, by_address


def drive_net_group(router, nodes, by_address) -> int:
    """The loopback tick loop; returns the ticks taken."""
    horizon = nodes[0].max_ticks
    ticks = 0
    while ticks < horizon:
        for data, dest, src in router.take():
            receiver = by_address.get(dest)
            if receiver is not None:
                receiver.datagram_received(data, src)
        done = True
        for node in nodes:
            if not node.tick():
                done = False
        ticks += 1
        if done:
            break
    return ticks


def measure_net_group(nodes, ticks: int, started: float,
                      setup_s: float = 0.0) -> Run:
    """Completeness and estimates of a finished group -> Run;
    ``started`` is when its tick loop began."""
    size = len(nodes)
    processes = [node.process for node in nodes]
    report = measure_completeness(processes, group_size=size)
    function = get_aggregate(nodes[0].config.aggregate)
    true_value = function.finalize(function.over(make_votes(nodes[0].config)))
    errors = [
        abs(p.function.finalize(p.result) - true_value)
        for p in processes if p.node_id in report.per_member
    ]
    wall_s = time.perf_counter() - started
    run = Run(
        n=size,
        setup_s=setup_s,
        wall_s=wall_s,
        rounds=ticks,
        messages_sent=sum(n.stats.messages_sent for n in nodes),
        messages_dropped=sum(
            n.stats.gossip_dropped_unstarted + n.stats.frames_rejected
            for n in nodes
        ),
        bytes_sent=sum(n.stats.bytes_sent for n in nodes),
        completeness=report.mean_completeness,
        estimate_error=(sum(errors) / len(errors)) if errors else math.nan,
        true_value=true_value,
        unfinished=report.unfinished,
    )
    if not all(node.terminated for node in nodes):
        run.fault = "group did not converge inside its tick budget"
    elif run.completeness != 1.0:
        run.fault = f"lossless completeness {run.completeness} != 1.0"
    elif len(errors) != size or max(errors) > 1e-9:
        run.fault = "a member's estimate is off the true mean by > 1e-9"
    return run


def net_run(workload: Workload, seed: int) -> Run:
    configs = net_configs(workload, seed)
    start = time.perf_counter()
    router, nodes, by_address = build_net_group(configs)
    started = time.perf_counter()
    ticks = drive_net_group(router, nodes, by_address)
    return measure_net_group(nodes, ticks, started, setup_s=started - start)


# -- repetitions and end-to-end metrics -------------------------------------

@dataclass
class Rep:
    """One repetition: a single run, or every run of one sweep."""

    seed: int
    runs: list[Run] = field(default_factory=list)

    @property
    def members(self) -> int:
        return sum(run.n for run in self.runs)

    @property
    def failed(self) -> int:
        """Failed operations: every member of a faulty run, else the
        survivors that never finalized."""
        return sum(run.n if run.fault else run.unfinished
                   for run in self.runs)

    def metrics(self) -> dict[str, float]:
        runs = self.runs
        member_rounds = sum(run.n * run.rounds for run in runs)
        accuracy = [
            1.0 - run.estimate_error / abs(run.true_value) for run in runs
        ]
        return {
            "wall_s": sum(run.wall_s for run in runs),
            # Per run, not per sweep: a sum of 96 sub-millisecond builds
            # is dominated by where the collector happens to fire (it
            # read 0.15-0.32 s between runs), their median is not.
            "setup_s": statistics.median(run.setup_s for run in runs),
            "rounds": statistics.fmean(run.rounds for run in runs),
            "msgs_per_member":
                sum(run.messages_sent for run in runs) / self.members,
            "bytes_per_member_round":
                sum(run.bytes_sent for run in runs) / member_rounds,
            "completeness":
                statistics.fmean(run.completeness for run in runs),
            "estimate_accuracy": statistics.fmean(accuracy),
        }


def repetition(workload: Workload, seed: int) -> Rep:
    # The previous repetition's world is cyclic garbage; collect it now
    # so it neither overlaps this one in memory nor is collected inside
    # a timed section.
    gc.collect()
    rep = Rep(seed)
    if workload.kind == "net":
        rep.runs.append(net_run(workload, seed))
    else:
        for config in sim_configs(workload, seed):
            rep.runs.append(sim_run(workload, config))
    return rep


def check_history(workload: Workload, reps: list[Rep]) -> str:
    """sim_large seeds 0,1 must reproduce the committed history digest."""
    if workload.name != "sim_large" or workload.n != 8192:
        return ""
    by_seed = {rep.seed: rep.runs[0] for rep in reps}
    if 0 not in by_seed or 1 not in by_seed:
        return ""
    digest = checksum([by_seed[0], by_seed[1]])
    if digest != SIM_LARGE_CHECKSUM:
        return f"seeds 0,1 checksum {digest} != {SIM_LARGE_CHECKSUM}"
    return ""


def repeat_for(workload: Workload, seed: int, seconds: float) -> list[Rep]:
    """Repetitions with seeds ``seed, seed+1, ...`` until ``seconds``
    have been measured (a repetition is never cut short)."""
    reps: list[Rep] = []
    start = time.perf_counter()
    while True:
        reps.append(repetition(workload, seed + len(reps)))
        if time.perf_counter() - start >= seconds:
            return reps


def median_metrics(reps: list[Rep]) -> dict[str, float]:
    """Median over repetitions of every per-repetition metric."""
    per_rep = [rep.metrics() for rep in reps]
    return {
        name: statistics.median(m[name] for m in per_rep)
        for name in per_rep[0]
    }
