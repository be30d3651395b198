"""Chaos campaign subsystem: composable, seeded fault injection.

The paper's simulations inject exactly two *independent* fault processes
(per-message loss, per-round crashes).  This package expresses the
correlated failure structures that actually break gossip aggregation in
deployment — crash storms, rack-correlated wipes, membership churn,
healing partitions, loss and latency bursts, tampering and Sybil
storms — as declarative, named campaigns of events.  A campaign compiles
to one timeline of its events resolved to rounds, which a
:class:`~repro.sim.failures.FailureModel`, a begin-round controller of a
:class:`~repro.sim.network.Network` and a tamper planner each apply from
the events' own fields.  Campaigns are deterministic under a seed and
are swept against the Theorem 1 completeness bound by
:mod:`repro.experiments.robustness` (CLI: ``repro chaos``).
"""

from repro.chaos.campaign import (
    CampaignController,
    CampaignFailureModel,
    ChaosCampaign,
    ChaosNetwork,
    CompiledCampaign,
)
from repro.chaos.adversary import AdversarialSummary, TamperPlanner
from repro.chaos.campaigns import CAMPAIGNS, campaign_names, get_campaign
from repro.chaos.events import (
    ChurnWindow,
    CorrelatedCrash,
    CrashStorm,
    FaultEvent,
    LatencyBurst,
    LossBurst,
    MessageTampering,
    PartitionWindow,
    RegionPartition,
    SybilJoinStorm,
)

__all__ = [
    "CAMPAIGNS",
    "campaign_names",
    "get_campaign",
    "ChaosCampaign",
    "CompiledCampaign",
    "ChaosNetwork",
    "CampaignFailureModel",
    "CampaignController",
    "FaultEvent",
    "CrashStorm",
    "CorrelatedCrash",
    "ChurnWindow",
    "PartitionWindow",
    "LossBurst",
    "LatencyBurst",
    "MessageTampering",
    "SybilJoinStorm",
    "RegionPartition",
    "TamperPlanner",
    "AdversarialSummary",
]
