"""The hierarchical-gossip group is a spec of columns, not processes.

``build_hierarchical_gossip_group`` returns a ``GossipGroup``.  The
array engine binds its columns and builds no process; the object engine
materialises one ``HierarchicalGossipProcess`` per member from it.
"""

from __future__ import annotations

import math

import pytest

from repro.core.aggregates import get_aggregate
from repro.core.gridbox import GridAssignment, GridBoxHierarchy
from repro.core.hashing import FairHash
from repro.core.hierarchical_gossip import (
    GossipGroup,
    GossipParams,
    GroupMember,
    HierarchicalGossipProcess,
    build_hierarchical_gossip_group,
)
from repro.core.observe import PHASE_ENTER
from repro.core.protocol import measure_completeness
from repro.experiments.params import with_params
from repro.experiments.runner import run_once
from repro.obs.phase import PhaseTrace
from repro.obs.telemetry import RunTelemetry
from tests.engines import forced


def _group(n=12, **kwargs):
    votes = {member: float(member) for member in range(n)}
    assignment = GridAssignment(GridBoxHierarchy(n, 4), votes, FairHash(0))
    return build_hierarchical_gossip_group(
        votes, get_aggregate("average"), assignment, **kwargs
    )


class TestSpec:
    def test_items_are_views_with_start_values(self):
        group = _group(start_round_of=lambda member: member % 3)
        assert isinstance(group, GossipGroup) and len(group) == 12
        member = group[-1]
        assert isinstance(member, GroupMember)
        assert (member.node_id, member.phase) == (11, 1)
        assert member.alive and not member.terminated
        assert member.result is None and member.coverage_fraction is None
        assert member.refused == 0
        assert group.start_rounds.tolist() == [m % 3 for m in range(12)]
        assert [m.node_id for m in group] == list(range(12))
        assert [m.node_id for m in group[2:5]] == [2, 3, 4]

    def test_complete_views_share_one_tuple(self):
        group = _group()
        assert group.views is None and group.view_of(5) == tuple(range(12))
        assert group.complete_views().all()
        partial = _group(view_of=lambda member: range(member + 1))
        assert partial.views[3] == (0, 1, 2, 3)
        assert partial.complete_views().tolist() == [False] * 11 + [True]

    def test_materialize_builds_each_process_once(self):
        group = _group(params=GossipParams(fanout_m=3),
                       start_round_of=lambda member: 2)
        processes = group.materialize()
        assert group.materialize() is processes
        assert all(isinstance(p, HierarchicalGossipProcess)
                   for p in processes)
        assert [p.node_id for p in processes] == list(range(12))
        assert processes[4].start_round == 2
        assert processes[4].params is group.params
        assert group[4] is processes[4] and list(group) == processes

    def test_an_unrun_group_measures_unfinished(self):
        report = measure_completeness(_group(), group_size=12)
        assert (report.survivors, report.unfinished) == (12, 12)
        assert report.per_member == {}


def _counting_inits(monkeypatch):
    built = []
    init = HierarchicalGossipProcess.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(HierarchicalGossipProcess, "__init__", counting)
    return built


def test_array_run_builds_no_process(monkeypatch):
    built = _counting_inits(monkeypatch)
    config = with_params(n=512, ucastl=0.25, pf=0.001, seed=0)
    with forced("array"):
        result = run_once(config)
    assert built == []
    assert result.completeness > 0.99
    with forced("object"):
        run_once(config)
    assert len(built) == 512


def test_round_zero_phase_entries_leave_as_one_block(monkeypatch):
    blocks, emitted = [], []
    emit_block = PhaseTrace.emit_block

    def recording(self, block):
        blocks.append((block.round, block.kinds.copy(),
                       block.phases.copy(), block.members.copy()))
        emit_block(self, block)

    monkeypatch.setattr(PhaseTrace, "emit_block", recording)
    monkeypatch.setattr(PhaseTrace, "emit",
                        lambda self, event: emitted.append(event))
    telemetry = RunTelemetry.compact()
    with forced("array"):
        run_once(with_params(n=256, seed=1), telemetry=telemetry)
    round_number, kinds, phases, members = blocks[0]
    assert round_number == 0
    assert (kinds == PHASE_ENTER).all() and (phases == 1).all()
    assert members.tolist() == list(range(256))
    assert emitted == []
    assert telemetry.phase_trace.phase_counts["phase_enter", 1] == 256


def test_views_after_an_array_run_read_the_columns():
    group = _group(n=64)
    from repro.core.array_stepper import HierarchicalArrayStepper
    from repro.sim.array_engine import ArraySteppedEngine
    from repro.sim.network import Network
    from repro.sim.rng import RngRegistry

    engine = ArraySteppedEngine(
        stepper=HierarchicalArrayStepper(),
        network=Network(max_message_size=1 << 20), rngs=RngRegistry(0),
        max_rounds=200,
    )
    engine.add_processes(group)
    assert engine.processes is group
    engine.run()
    assert engine.terminated_count == 64 == len(engine.processes)
    assert group.processes is None
    for member in group:
        assert member.terminated and member.phase == group.num_phases + 1
        assert member.result.covers() == 64
        assert math.isclose(member.function.finalize(member.result), 31.5)
        assert member.coverage_fraction == 1.0
    assert engine.alive_rows is group.alive
    with pytest.raises(TypeError):
        engine.add_process(_group().materialize()[0])
