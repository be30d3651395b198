"""Reproduction of *Scalable Fault-Tolerant Aggregation in Large Process
Groups* (Gupta, van Renesse, Birman — DSN 2001).

The package implements the paper's Grid Box Hierarchy and Hierarchical
Gossiping protocol for one-shot evaluation of composable global aggregate
functions in large fault-prone process groups, together with every
substrate the evaluation needs: a deterministic round-based simulator,
unreliable network and crash-failure models, the baseline protocols the
paper argues against, the epidemic-theoretic analysis, and a harness that
regenerates all eight figures of Section 6.3/7.

Quickstart::

    from repro import aggregate_once

    result = aggregate_once(
        votes={i: 20.0 + i % 7 for i in range(128)},
        aggregate="average", k=4, ucastl=0.1, seed=7,
    )
    print(result.completeness, result.true_value)

See ``examples/`` for realistic scenarios and ``benchmarks/`` for the
per-figure reproduction harness.

The re-exports below resolve lazily (PEP 562): importing :mod:`repro`
costs a few milliseconds, and numpy/scipy only load when a name that
needs them is first touched.  Stdlib-only subsystems — ``repro.lint``
in particular, whose warm-cache runs are dominated by interpreter
startup — depend on the root import staying this cheap.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.experiments import RunResult

#: Lazy re-export table: public name -> providing module.
_EXPORTS = {
    "AggregateFunction": "repro.core",
    "AggregateState": "repro.core",
    "AverageAggregate": "repro.core",
    "CountAggregate": "repro.core",
    "DoubleCountError": "repro.core",
    "FairHash": "repro.core",
    "GossipParams": "repro.core",
    "GridAssignment": "repro.core",
    "GridBoxHierarchy": "repro.core",
    "HierarchicalGossipProcess": "repro.core",
    "MaxAggregate": "repro.core",
    "MinAggregate": "repro.core",
    "StaticHash": "repro.core",
    "SumAggregate": "repro.core",
    "TopologicalHash": "repro.core",
    "build_hierarchical_gossip_group": "repro.core",
    "get_aggregate": "repro.core",
    "measure_completeness": "repro.core",
    "PAPER_DEFAULTS": "repro.experiments",
    "RunConfig": "repro.experiments",
    "RunResult": "repro.experiments",
    "run_once": "repro.experiments",
    "with_params": "repro.experiments",
}

__version__ = "1.0.0"

__all__ = [
    "AggregateFunction",
    "AggregateState",
    "AverageAggregate",
    "CountAggregate",
    "DoubleCountError",
    "FairHash",
    "GossipParams",
    "GridAssignment",
    "GridBoxHierarchy",
    "HierarchicalGossipProcess",
    "MaxAggregate",
    "MinAggregate",
    "StaticHash",
    "SumAggregate",
    "TopologicalHash",
    "build_hierarchical_gossip_group",
    "get_aggregate",
    "measure_completeness",
    "PAPER_DEFAULTS",
    "RunConfig",
    "RunResult",
    "run_once",
    "with_params",
    "aggregate_once",
    "__version__",
]


def __getattr__(name: str) -> object:
    target = _EXPORTS.get(name)
    if target is not None:
        value = getattr(importlib.import_module(target), name)
    else:
        # ``import repro; repro.core.X`` worked when the root imported
        # every subsystem eagerly; keep submodule access working.
        try:
            value = importlib.import_module(f"repro.{name}")
        except ModuleNotFoundError as error:
            if error.name != f"repro.{name}":
                raise
            raise AttributeError(
                f"module 'repro' has no attribute {name!r}"
            ) from None
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(__all__) | set(globals()))


def aggregate_once(
    votes: dict[int, float],
    aggregate: str = "average",
    k: int = 4,
    ucastl: float = 0.0,
    pf: float = 0.0,
    fanout_m: int = 2,
    rounds_factor_c: float = 1.0,
    seed: int = 0,
) -> RunResult:
    """One-call aggregation of an explicit vote map (library quickstart).

    Builds the Grid Box Hierarchy over the given members, runs the
    Hierarchical Gossiping protocol over a lossy network and returns the
    full :class:`~repro.experiments.runner.RunResult` (completeness,
    message counts, true value, estimate error).  Member ids may be
    arbitrary integers; completeness is relative to ``len(votes)``.
    """
    from repro.experiments import with_params
    from repro.experiments.runner import _run_votes
    from repro.sim.rng import RngRegistry

    config = with_params(
        n=len(votes), k=k, ucastl=ucastl, pf=pf, fanout_m=fanout_m,
        rounds_factor_c=rounds_factor_c, aggregate=aggregate, seed=seed,
        hash_salt=seed,
    )
    return _run_votes(config, RngRegistry(seed), votes)
