"""Simulation substrate: engine, unreliable network, failures, membership.

This package knows nothing about aggregation — it is the generic
round-based discrete-event world that the protocols in
:mod:`repro.core` and :mod:`repro.baselines` run inside.
"""

from repro.sim.engine import Context, EngineStats, Process, SimulationEngine
from repro.sim.events import RoundBus
from repro.sim.failures import (
    ComposedFailures,
    CrashRecovery,
    CrashWithoutRecovery,
    FailureModel,
    NoFailures,
    ScheduledFailures,
)
from repro.sim.group import GroupMembership, PartialViews
from repro.sim.metrics import RoundMetrics, RoundSample
from repro.sim.network import (
    JitterNetwork,
    LossyNetwork,
    Message,
    MessageTooLarge,
    Network,
    NetworkStats,
    PartitionedNetwork,
    TopologyNetwork,
)
from repro.sim.rng import RngRegistry, derive_seed
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Context",
    "EngineStats",
    "Process",
    "SimulationEngine",
    "RoundBus",
    "FailureModel",
    "NoFailures",
    "CrashWithoutRecovery",
    "CrashRecovery",
    "ScheduledFailures",
    "ComposedFailures",
    "GroupMembership",
    "PartialViews",
    "Network",
    "JitterNetwork",
    "LossyNetwork",
    "PartitionedNetwork",
    "TopologyNetwork",
    "Message",
    "MessageTooLarge",
    "NetworkStats",
    "RngRegistry",
    "derive_seed",
    "RoundMetrics",
    "RoundSample",
    "TraceEvent",
    "Tracer",
]
