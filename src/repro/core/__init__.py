"""The paper's primary contribution: composable aggregates, the Grid Box
Hierarchy, and the Hierarchical Gossiping protocol."""

from repro.core.aggregates import (
    AGGREGATE_REGISTRY,
    AggregateFunction,
    AggregateState,
    AllAggregate,
    AnyAggregate,
    AverageAggregate,
    BoundsAggregate,
    CountAggregate,
    DoubleCountError,
    HistogramAggregate,
    MaxAggregate,
    MeanVarianceAggregate,
    MinAggregate,
    SumAggregate,
    get_aggregate,
)
from repro.core.gridbox import GridAssignment, GridBoxHierarchy, SubtreeId
from repro.core.hashing import (
    CidrHash,
    FairHash,
    HashFunction,
    StaticHash,
    TopologicalHash,
)
from repro.core.hierarchical_gossip import (
    GossipParams,
    HierarchicalGossipProcess,
    build_hierarchical_gossip_group,
    rounds_per_phase_for,
)
from repro.core.intervals import IntervalMask
from repro.core.messages import (
    AggregateReport,
    Dissemination,
    GossipValue,
    VoteReport,
)
from repro.core.protocol import (
    AggregationProcess,
    CompletenessReport,
    measure_completeness,
)

__all__ = [
    "AGGREGATE_REGISTRY",
    "AggregateFunction",
    "AggregateState",
    "AllAggregate",
    "AnyAggregate",
    "AverageAggregate",
    "BoundsAggregate",
    "CountAggregate",
    "DoubleCountError",
    "HistogramAggregate",
    "MaxAggregate",
    "MeanVarianceAggregate",
    "MinAggregate",
    "SumAggregate",
    "get_aggregate",
    "GridAssignment",
    "GridBoxHierarchy",
    "SubtreeId",
    "CidrHash",
    "FairHash",
    "HashFunction",
    "StaticHash",
    "TopologicalHash",
    "IntervalMask",
    "GossipParams",
    "HierarchicalGossipProcess",
    "build_hierarchical_gossip_group",
    "rounds_per_phase_for",
    "AggregateReport",
    "Dissemination",
    "GossipValue",
    "VoteReport",
    "AggregationProcess",
    "CompletenessReport",
    "measure_completeness",
]
