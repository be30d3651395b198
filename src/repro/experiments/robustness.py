"""Robustness harness: sweep chaos campaigns against Theorem 1's bound.

Theorem 1 (Section 5) promises completeness at least ``1 - 1/N`` when
its assumptions hold: independent per-message loss and per-round
crashes, grid boxes of ``K >= 2`` members, and an effective
per-representative contact rate ``b >= 4`` (``b`` combines gossip
fanout, loss and crash rates — see
:func:`repro.analysis.epidemic.effective_contact_rate`).  The chaos
campaigns in :mod:`repro.chaos` deliberately break those assumptions in
named, reproducible ways.

:func:`robustness_matrix` sweeps campaigns against a grid of ``(N, K,
fanout)`` points, runs every cell over several seeds (in parallel via
:mod:`repro.experiments.parallel` — results are bit-identical for any
job count), and reports per cell:

* whether the theorem's preconditions hold for that cell
  (``bound_applies``: a paper-assumption campaign with ``K >= 2`` and
  ``b >= 4``),
* whether measured completeness meets the bound where it applies
  (``bound_holds``), and
* the quantified degradation (shortfall below the bound) everywhere
  else.

CLI: ``repro chaos`` (see ``repro chaos --help``).  Output contains no
timestamps or timings, so a fixed seed reproduces it byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.analysis.epidemic import effective_contact_rate
from repro.chaos import campaign_names, get_campaign
from repro.chaos.adversary import AdversarialSummary, merge_adversarial
from repro.experiments.parallel import run_many
from repro.experiments.params import ConfigError, RunConfig, with_params
from repro.obs.telemetry import TelemetrySummary, merge_summaries

__all__ = [
    "RobustnessCell",
    "RobustnessReport",
    "robustness_matrix",
    "MatrixCell",
    "RobustnessComparison",
    "robustness_comparison",
    "MATRIX_PROTOCOLS",
    "MIN_K",
    "MIN_B",
]

#: Theorem 1 preconditions: grid boxes of at least MIN_K members and an
#: effective contact rate of at least MIN_B.
MIN_K = 2
MIN_B = 4.0


@dataclass(frozen=True)
class RobustnessCell:
    """Aggregated measurements for one (campaign, N, K, fanout) point."""

    campaign: str
    n: int
    k: int
    fanout_m: int
    #: Effective contact rate b = M * (1 - ucastl) * (1 - pf).
    b: float
    runs: int
    mean_completeness: float
    min_completeness: float
    mean_coverage: float
    mean_crashes: float
    mean_recoveries: float
    #: Theorem 1's completeness floor, 1 - 1/N.
    bound: float
    #: True when this cell satisfies the theorem's preconditions (a
    #: paper-assumption campaign with K >= MIN_K and b >= MIN_B).
    bound_applies: bool
    #: Merged phase/bump-up/timeout telemetry over the cell's runs,
    #: collected inside the ``ParallelRunner`` workers (see
    #: ``RunConfig.collect_telemetry``).
    telemetry: TelemetrySummary | None = None

    @property
    def bound_holds(self) -> bool | None:
        """Bound verdict; ``None`` when the preconditions don't apply."""
        if not self.bound_applies:
            return None
        return self.mean_completeness >= self.bound

    @property
    def degradation(self) -> float:
        """Shortfall below the Theorem 1 floor (0.0 when at or above)."""
        return max(0.0, self.bound - self.mean_completeness)


@dataclass(frozen=True)
class RobustnessReport:
    """The full campaign × parameter sweep, with bound verdicts."""

    cells: tuple[RobustnessCell, ...]
    seed: int
    runs_per_cell: int

    @property
    def violations(self) -> tuple[RobustnessCell, ...]:
        """Cells where the preconditions hold but the bound does not."""
        return tuple(c for c in self.cells if c.bound_holds is False)

    def assert_bound(self) -> None:
        """Raise ``AssertionError`` if any applicable cell misses 1-1/N."""
        if self.violations:
            lines = [
                f"  {c.campaign} N={c.n} K={c.k} M={c.fanout_m}: "
                f"completeness {c.mean_completeness:.6f} < bound "
                f"{c.bound:.6f}"
                for c in self.violations
            ]
            raise AssertionError(
                "Theorem 1 completeness bound violated where its "
                "assumptions hold:\n" + "\n".join(lines)
            )

    def to_json(self) -> str:
        """Deterministic JSON document (no timestamps)."""
        document = {
            "schema": "repro-robustness/1",
            "seed": self.seed,
            "runs_per_cell": self.runs_per_cell,
            "min_k": MIN_K,
            "min_b": MIN_B,
            "violations": len(self.violations),
            "cells": [
                {
                    **asdict(cell),
                    "bound_holds": cell.bound_holds,
                    "degradation": cell.degradation,
                    # The repro-trace/1 summary shape, not asdict's
                    # tuple-pair encoding (shared with JSONL exports).
                    "telemetry": (
                        cell.telemetry.to_record()
                        if cell.telemetry is not None else None
                    ),
                }
                for cell in self.cells
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        header = (
            "campaign,n,k,fanout_m,b,runs,mean_completeness,"
            "min_completeness,mean_coverage,mean_crashes,mean_recoveries,"
            "bound,bound_applies,bound_holds,degradation,"
            "bump_up_early,bump_up_timeout,incomplete_finalizes"
        )
        rows = [header]
        for c in self.cells:
            holds = "" if c.bound_holds is None else str(c.bound_holds)
            t = c.telemetry
            rows.append(
                f"{c.campaign},{c.n},{c.k},{c.fanout_m},{c.b:.6f},{c.runs},"
                f"{c.mean_completeness:.6f},{c.min_completeness:.6f},"
                f"{c.mean_coverage:.6f},{c.mean_crashes:.3f},"
                f"{c.mean_recoveries:.3f},{c.bound:.6f},"
                f"{c.bound_applies},{holds},{c.degradation:.6f},"
                + (f"{t.bump_up_early},{t.bump_up_timeout},"
                   f"{t.incomplete_finalizes}" if t is not None else ",,")
            )
        return "\n".join(rows) + "\n"

    def render(self) -> str:
        """Human-readable table, still byte-deterministic under a seed."""
        lines = [
            f"robustness sweep: {len(self.cells)} cells x "
            f"{self.runs_per_cell} runs (seed {self.seed})",
            f"{'campaign':<16} {'N':>5} {'K':>2} {'M':>2} {'b':>6} "
            f"{'complete':>9} {'coverage':>9} {'crash':>6} {'bound':>8} "
            f"{'verdict':>9}",
        ]
        for c in self.cells:
            if c.bound_holds is None:
                verdict = f"-{c.degradation:.4f}" if c.degradation else "n/a"
            else:
                verdict = "HOLDS" if c.bound_holds else "VIOLATED"
            lines.append(
                f"{c.campaign:<16} {c.n:>5} {c.k:>2} {c.fanout_m:>2} "
                f"{c.b:>6.3f} {c.mean_completeness:>9.6f} "
                f"{c.mean_coverage:>9.6f} {c.mean_crashes:>6.1f} "
                f"{c.bound:>8.6f} {verdict:>9}"
            )
        applicable = [c for c in self.cells if c.bound_applies]
        lines.append(
            f"bound applies to {len(applicable)}/{len(self.cells)} cells; "
            f"{len(self.violations)} violation(s)"
        )
        totals = merge_summaries(
            [c.telemetry for c in self.cells if c.telemetry is not None]
        )
        if totals.runs:
            lines.append(
                f"phase telemetry ({totals.runs} runs): "
                f"{totals.bump_up_early} early bump-up(s), "
                f"{totals.bump_up_timeout} timeout(s), "
                f"{totals.incomplete_finalizes}/{totals.finalize} "
                f"finalize(s) incomplete"
            )
        return "\n".join(lines)


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else float("nan")


def robustness_matrix(
    campaigns: tuple[str, ...] | None = None,
    ns: tuple[int, ...] = (64, 256),
    ks: tuple[int, ...] = (4,),
    fanouts: tuple[int, ...] = (6,),
    runs: int = 3,
    seed: int = 0,
    ucastl: float = 0.25,
    pf: float = 0.001,
    adaptive_deadlines: bool = False,
    final_retransmit: int = 0,
    jobs: int | str | None = None,
) -> RobustnessReport:
    """Sweep campaigns × (N, K, fanout), averaging ``runs`` seeds per cell.

    All runs across all cells are fanned out in one
    :func:`~repro.experiments.parallel.run_many` call, so the harness
    parallelizes across the whole matrix, not just within a cell, while
    staying bit-identical to serial execution.
    """
    if campaigns is None:
        campaigns = campaign_names()
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    grid: list[tuple[str, int, int, int]] = [
        (name, n, k, fanout)
        for name in campaigns
        for n in ns
        for k in ks
        for fanout in fanouts
    ]
    configs: list[RunConfig] = []
    for name, n, k, fanout in grid:
        for run_index in range(runs):
            configs.append(with_params(
                n=n, k=k, fanout_m=fanout, campaign=name,
                ucastl=ucastl, pf=pf,
                adaptive_deadlines=adaptive_deadlines,
                final_retransmit=final_retransmit,
                seed=seed + run_index,
                # Compact counters collected in the workers; merged per
                # cell below so the report can attribute degradation to
                # phase timeouts, not just final completeness.
                collect_telemetry=True,
            ))
    results = run_many(configs, jobs=jobs)
    cells = []
    for index, (name, n, k, fanout) in enumerate(grid):
        cell_results = results[index * runs:(index + 1) * runs]
        b = effective_contact_rate(fanout, ucastl=ucastl, pf=pf)
        campaign = get_campaign(name)
        cells.append(RobustnessCell(
            campaign=name,
            n=n,
            k=k,
            fanout_m=fanout,
            b=b,
            runs=runs,
            mean_completeness=_mean(
                [r.completeness for r in cell_results]
            ),
            min_completeness=min(
                r.report.min_completeness for r in cell_results
            ),
            mean_coverage=_mean([r.mean_coverage for r in cell_results]),
            mean_crashes=_mean([float(r.crashes) for r in cell_results]),
            mean_recoveries=_mean(
                [float(r.recoveries) for r in cell_results]
            ),
            bound=1.0 - 1.0 / n,
            bound_applies=(
                campaign.paper_assumptions and k >= MIN_K and b >= MIN_B
            ),
            telemetry=merge_summaries(
                [r.telemetry for r in cell_results
                 if r.telemetry is not None]
            ),
        ))
    return RobustnessReport(
        cells=tuple(cells), seed=seed, runs_per_cell=runs
    )

# -- cross-baseline robustness matrix -----------------------------------

#: The protocols the ``repro chaos --matrix`` mode compares: the paper's
#: hierarchical gossip plus every baseline a campaign can stress the
#: same way (flat_gossip is excluded — it shares the gossip code path
#: and adds no architectural contrast).
MATRIX_PROTOCOLS = (
    "hierarchical_gossip", "flood", "centralized", "leader_election",
)


@dataclass(frozen=True)
class MatrixCell:
    """One (campaign, protocol) point of the robustness comparison."""

    campaign: str
    protocol: str
    #: True when the campaign injects Byzantine traffic (the detection
    #: oracle was armed for these runs).
    adversarial: bool
    runs: int
    mean_completeness: float
    min_completeness: float
    mean_coverage: float
    #: Messages sent per member per run (the overhead axis).
    messages_per_member: float
    mean_crashes: float
    #: Merged adversary accounting; ``None`` on benign campaigns.
    adversary: AdversarialSummary | None = None

    @property
    def detection_rate(self) -> float | None:
        """Merged detection rate, or ``None`` on benign campaigns."""
        if self.adversary is None:
            return None
        return self.adversary.detection_rate


@dataclass(frozen=True)
class RobustnessComparison:
    """The campaign × protocol matrix ``repro chaos --matrix`` prints."""

    cells: tuple[MatrixCell, ...]
    n: int
    k: int
    fanout_m: int
    seed: int
    runs_per_cell: int

    def to_json(self) -> str:
        """Deterministic JSON document (no timestamps)."""
        document = {
            "schema": "repro-robustness-matrix/1",
            "n": self.n,
            "k": self.k,
            "fanout_m": self.fanout_m,
            "seed": self.seed,
            "runs_per_cell": self.runs_per_cell,
            "protocols": list(MATRIX_PROTOCOLS),
            "cells": [
                {
                    "campaign": cell.campaign,
                    "protocol": cell.protocol,
                    "adversarial": cell.adversarial,
                    "runs": cell.runs,
                    "mean_completeness": round(cell.mean_completeness, 6),
                    "min_completeness": round(cell.min_completeness, 6),
                    "mean_coverage": round(cell.mean_coverage, 6),
                    "messages_per_member": round(
                        cell.messages_per_member, 3
                    ),
                    "mean_crashes": round(cell.mean_crashes, 3),
                    "detection_rate": (
                        None if cell.detection_rate is None
                        else round(cell.detection_rate, 6)
                    ),
                    "adversary": (
                        cell.adversary.to_record()
                        if cell.adversary is not None else None
                    ),
                }
                for cell in self.cells
            ],
        }
        return json.dumps(document, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        header = (
            "campaign,protocol,adversarial,runs,mean_completeness,"
            "min_completeness,mean_coverage,messages_per_member,"
            "mean_crashes,detection_rate,injected,reached,detected,"
            "false_positives"
        )
        rows = [header]
        for c in self.cells:
            a = c.adversary
            adversary_cols = (
                f"{c.detection_rate:.6f},{a.injected_total},{a.reached},"
                f"{a.detected},{a.false_positives}"
                if a is not None else ",,,,"
            )
            rows.append(
                f"{c.campaign},{c.protocol},{c.adversarial},{c.runs},"
                f"{c.mean_completeness:.6f},{c.min_completeness:.6f},"
                f"{c.mean_coverage:.6f},{c.messages_per_member:.3f},"
                f"{c.mean_crashes:.3f},{adversary_cols}"
            )
        return "\n".join(rows) + "\n"

    def render(self) -> str:
        """Human-readable matrix, byte-deterministic under a seed."""
        lines = [
            f"robustness matrix: N={self.n} K={self.k} M={self.fanout_m}, "
            f"{self.runs_per_cell} runs/cell (seed {self.seed})",
            f"{'campaign':<16} {'protocol':<20} {'complete':>9} "
            f"{'coverage':>9} {'msgs/mbr':>9} {'detect':>7} {'fp':>3}",
        ]
        for c in self.cells:
            # "-" both for benign campaigns and for adversarial cells
            # where no planted contribution reached a screen (nothing to
            # detect) — a numeric 0.000 would read as missed detections.
            detect = (
                f"{c.detection_rate:.3f}"
                if c.adversary is not None and c.adversary.reached > 0
                else "-"
            )
            fp = (
                str(c.adversary.false_positives)
                if c.adversary is not None else "-"
            )
            lines.append(
                f"{c.campaign:<16} {c.protocol:<20} "
                f"{c.mean_completeness:>9.6f} {c.mean_coverage:>9.6f} "
                f"{c.messages_per_member:>9.3f} {detect:>7} {fp:>3}"
            )
        adversarial = [c for c in self.cells if c.adversary is not None]
        if adversarial:
            total = merge_adversarial([c.adversary for c in adversarial])
            lines.append(
                f"adversary totals: {total.injected_total} injected, "
                f"{total.reached} reached a screen, {total.detected} "
                f"detected ({total.detection_rate:.3f}), "
                f"{total.false_positives} false positive(s)"
            )
        return "\n".join(lines)


def robustness_comparison(
    campaigns: tuple[str, ...] | None = None,
    protocols: tuple[str, ...] = MATRIX_PROTOCOLS,
    n: int = 64,
    k: int = 4,
    fanout: int = 6,
    runs: int = 2,
    seed: int = 0,
    ucastl: float = 0.25,
    pf: float = 0.001,
    jobs: int | str | None = None,
) -> RobustnessComparison:
    """Every campaign (benign and adversarial) × every protocol.

    The cross-baseline counterpart of :func:`robustness_matrix`: one
    (N, K, fanout) point, but the full protocol axis — hierarchical
    gossip against the flood / centralized / leader-election baselines —
    under the full campaign library, reporting completeness, message
    overhead and (for adversarial campaigns) the detection-oracle score.
    All runs fan out in a single :func:`run_many` call and the rendered
    table, CSV and JSON are byte-identical for any ``jobs`` value.
    """
    if campaigns is None:
        campaigns = campaign_names()
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    grid: list[tuple[str, str]] = [
        (name, protocol)
        for name in campaigns
        for protocol in protocols
    ]
    configs: list[RunConfig] = []
    for name, protocol in grid:
        for run_index in range(runs):
            configs.append(with_params(
                n=n, k=k, fanout_m=fanout, campaign=name,
                protocol=protocol, ucastl=ucastl, pf=pf,
                seed=seed + run_index,
            ))
    results = run_many(configs, jobs=jobs)
    cells = []
    for index, (name, protocol) in enumerate(grid):
        cell_results = results[index * runs:(index + 1) * runs]
        cells.append(MatrixCell(
            campaign=name,
            protocol=protocol,
            adversarial=get_campaign(name).adversarial,
            runs=runs,
            mean_completeness=_mean(
                [r.completeness for r in cell_results]
            ),
            min_completeness=min(
                r.report.min_completeness for r in cell_results
            ),
            mean_coverage=_mean([r.mean_coverage for r in cell_results]),
            messages_per_member=_mean(
                [r.messages_sent / n for r in cell_results]
            ),
            mean_crashes=_mean([float(r.crashes) for r in cell_results]),
            adversary=merge_adversarial(
                [r.adversarial for r in cell_results]
            ),
        ))
    return RobustnessComparison(
        cells=tuple(cells), n=n, k=k, fanout_m=fanout, seed=seed,
        runs_per_cell=runs,
    )
