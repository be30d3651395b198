"""Canonical experiment parameters from the paper (Section 7).

Unless a figure says otherwise, every simulation point uses::

    N = 200, ucastl = 0.25, pf = 0.001, K = 4, M = 2, C = 1.0

with a fair (not topologically aware) hash, the protocol started
simultaneously at all members, members progressing through phases
asynchronously (early bump-up), and crash *without* recovery.  Each
reported point averages several runs; the paper plots mean
incompleteness = 1 - completeness.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

from repro.core.aggregates import get_aggregate
from repro.core.hierarchical_gossip import GossipParams

__all__ = ["ConfigError", "RunConfig", "PAPER_DEFAULTS", "with_params"]


class ConfigError(ValueError):
    """A run was asked for with parameters no world can be built from
    (the CLI reports it as a usage error instead of a traceback)."""


#: Knobs only hierarchical gossip reads.  ``fanout_m``,
#: ``rounds_factor_c``, ``rounds_per_phase`` and ``adaptive_deadlines``
#: are not among them: they size ``flat_gossip``'s round budget.
_HIERARCHY_ONLY = (
    "batch_values", "independent_values", "push_pull", "early_bump",
    "prefer_coverage", "representative_fraction", "final_retransmit",
    "start_spread", "view_size",
)


@dataclass(frozen=True)
class RunConfig:
    """Full specification of one simulated aggregation run."""

    # Group & hierarchy
    n: int = 200
    k: int = 4
    hash_salt: int = 0
    # Protocol selection and knobs
    protocol: str = "hierarchical_gossip"
    #: The protocol knobs are GossipParams' own fields and defaults;
    #: ``GossipParams.from_config`` reads them back by name.
    fanout_m: int = GossipParams.fanout_m
    rounds_factor_c: float = GossipParams.rounds_factor_c
    rounds_per_phase: int | None = GossipParams.rounds_per_phase
    early_bump: bool = GossipParams.early_bump
    batch_values: bool = GossipParams.batch_values
    independent_values: bool = GossipParams.independent_values
    prefer_coverage: bool = GossipParams.prefer_coverage
    push_pull: bool = GossipParams.push_pull
    representative_fraction: float = GossipParams.representative_fraction
    #: Hardening knobs (see GossipParams; defaults = paper protocol).
    adaptive_deadlines: bool = GossipParams.adaptive_deadlines
    final_retransmit: int = GossipParams.final_retransmit
    committee_size: int = 1
    # Extensions (paper Sections 2 and 6.1 side claims):
    #: hierarchy sized by this estimate of N instead of the true N
    #: ("an approximate estimate of N usually suffices").
    n_estimate: int | None = None
    #: multicast-initiation model: member start rounds drawn uniformly
    #: from [0, start_spread] instead of a simultaneous start.
    start_spread: int = 0
    #: partial views: each member knows this many members (None = all).
    view_size: int | None = None
    # Network & failures
    ucastl: float = 0.25
    pf: float = 0.001
    partl: float | None = None
    #: Chaos campaign name (see repro.chaos.campaigns); when set, the
    #: campaign compiles the network and failure models, layering its
    #: correlated fault timeline over ``ucastl`` / ``pf`` as the
    #: background independent rates.  ``partl`` is ignored.
    campaign: str | None = None
    max_message_size: int = 1 << 20
    max_sends_per_round: int | None = None
    # Votes & measurement
    aggregate: str = "average"
    vote_low: float = 0.0
    vote_high: float = 100.0
    seed: int = 0
    #: Attach compact run telemetry (``RunTelemetry.compact()``): phase /
    #: bump-up / timeout counters collected during the run and returned
    #: on ``RunResult.telemetry`` as a picklable summary — the flag (not
    #: an object) so it survives the ``ParallelRunner`` worker boundary.
    #: Never changes results (telemetry draws no randomness) nor engine
    #: selection (the compact shape attaches no tracer).
    collect_telemetry: bool = False

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError(f"group size n must be >= 1, got {self.n}")
        if not 0.0 <= self.pf <= 1.0:
            raise ConfigError(f"pf must be a probability, got {self.pf}")
        if self.start_spread < 0:
            raise ConfigError(
                f"start_spread must be >= 0 rounds, got {self.start_spread}"
            )
        if self.protocol != "hierarchical_gossip":
            defaults = {field.name: field.default for field in fields(self)}
            for name in _HIERARCHY_ONLY:
                if getattr(self, name) != defaults[name]:
                    raise ConfigError(
                        f"{name} applies only to hierarchical_gossip; "
                        f"protocol {self.protocol!r} would ignore it"
                    )
        try:
            get_aggregate(self.aggregate)
        except KeyError as error:
            raise ConfigError(error.args[0]) from None
        except TypeError as error:
            raise ConfigError(
                f"aggregate {self.aggregate!r} cannot be built by name: "
                f"{error}"
            ) from None
        if self.campaign is not None:
            from repro.chaos import get_campaign

            try:
                get_campaign(self.campaign)
            except ValueError as error:
                raise ConfigError(str(error)) from None

    def with_seed(self, seed: int) -> "RunConfig":
        return replace(self, seed=seed)


#: The Section 7 defaults (the baseline point of Figures 6-10).
PAPER_DEFAULTS = RunConfig()


def with_params(**overrides) -> RunConfig:
    """A :data:`PAPER_DEFAULTS` variant with the given fields replaced."""
    return replace(PAPER_DEFAULTS, **overrides)
