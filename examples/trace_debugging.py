#!/usr/bin/env python3
"""Observability tour: tracing, per-round metrics, and a load profile.

Shows the debugging workflow a protocol developer uses with this library:
attach a Tracer and RoundMetrics to a faulty run, then drill into *why* a
specific member's estimate came out incomplete — which of its messages
were lost, when its box-mates crashed, and how the group-wide load curve
looked.

Run:  python examples/trace_debugging.py
"""

from repro.core import (
    AverageAggregate,
    FairHash,
    GossipParams,
    GridAssignment,
    GridBoxHierarchy,
    build_hierarchical_gossip_group,
    measure_completeness,
)
from repro.sim import (
    LossyNetwork,
    RngRegistry,
    RoundMetrics,
    ScheduledFailures,
    SimulationEngine,
    Tracer,
)


def main() -> None:
    votes = {i: float(i % 9) for i in range(48)}
    function = AverageAggregate()
    hierarchy = GridBoxHierarchy(len(votes), k=4)
    assignment = GridAssignment(hierarchy, votes, FairHash(salt=5))

    print("== the hierarchy under test ==")
    print(hierarchy)
    for box in range(hierarchy.num_boxes):
        members = ", ".join(f"M{m}" for m in assignment.members_of_box(box))
        print(f"  box {hierarchy.format_address(box)}: {members}")
    print()

    # A hostile run: 35% loss plus a mid-run crash of three members.
    tracer = Tracer()
    metrics = RoundMetrics()
    processes = build_hierarchical_gossip_group(
        votes, function, assignment, GossipParams(rounds_factor_c=1.2)
    )
    engine = SimulationEngine(
        network=LossyNetwork(ucastl=0.35, max_message_size=1 << 20),
        failure_model=ScheduledFailures(crash_at={4: [1, 2, 3]}),
        rngs=RngRegistry(5),
        max_rounds=300,
        tracer=tracer,
        metrics=metrics,
    )
    engine.add_processes(processes)
    engine.run()

    report = measure_completeness(processes, group_size=len(votes))
    print("== run outcome ==")
    print(f"mean completeness : {report.mean_completeness:.4f}")
    print(f"crashed members   : {report.crashed}")
    print()

    print("== trace summary ==")
    print(tracer.summary())
    print()

    worst_id, worst_fraction = min(
        report.per_member.items(), key=lambda item: item[1]
    )
    worst = next(p for p in processes if p.node_id == worst_id)
    # Coverage masks hold hierarchy ranks; covered_ids names the members.
    covered = set(worst.covered_ids(worst.result.members))
    missing = sorted(m for m in votes if m not in covered)
    lost_to = [
        event for event in tracer.of_kind("send_lost")
        if event.node == worst_id or event.peer == worst_id
    ]
    print(f"== drilling into the least complete member, M{worst_id} ==")
    print(f"completeness      : {worst_fraction:.4f}")
    print(f"missing votes of  : {missing}")
    print(f"its grid box      : "
          f"{hierarchy.format_address(assignment.box_of(worst_id))}")
    print(f"lost messages touching it: {len(lost_to)}")
    print()

    print("== per-round message load ==")
    print(metrics.render(width=30))


if __name__ == "__main__":
    main()
