"""Generic parameter sweeps over :class:`RunConfig`.

The figure functions hard-code the paper's sweeps; this module is the
open-ended version for users exploring their own parameter spaces::

    from repro.experiments.sweep import Sweep

    sweep = Sweep(base=with_params(n=400), runs=10, jobs=4)
    grid = sweep.grid(ucastl=[0.1, 0.3], k=[2, 4, 8])
    table = sweep.run(grid)         # TableResult: one row per cell
    print(table.render())

Each grid cell averages ``runs`` seeded executions and reports the mean
incompleteness, its confidence half-width, message count and rounds.

Cells are independent seeded runs, so a sweep parallelizes perfectly:
``jobs`` (or the ``REPRO_JOBS`` environment variable) fans the full
``cells x runs`` run list across worker processes via
:func:`~repro.experiments.parallel.run_seeds` while keeping the table
bit-identical to a serial sweep.
"""

from __future__ import annotations

import dataclasses
import itertools
from collections.abc import Iterable, Mapping, Sequence

from repro.analysis.stats import summarize
from repro.experiments.params import RunConfig
from repro.experiments.parallel import run_seeds
from repro.experiments.reporting import TableResult
from repro.experiments.runner import RunResult
from repro.obs.telemetry import merge_summaries

__all__ = ["Sweep"]


class Sweep:
    """Run a cartesian grid of config variations and tabulate results."""

    def __init__(self, base: RunConfig, runs: int = 10,
                 jobs: int | str | None = None) -> None:
        if runs < 1:
            raise ValueError("runs must be >= 1")
        self.base = base
        self.runs = runs
        self.jobs = jobs

    def grid(self, **axes: Sequence) -> list[dict]:
        """Cartesian product of the given config-field value lists.

        Axis names must be RunConfig fields; raises early otherwise so a
        typo doesn't silently sweep nothing.
        """
        valid = {f.name for f in dataclasses.fields(RunConfig)}
        unknown = set(axes) - valid
        if unknown:
            raise ValueError(
                f"unknown RunConfig fields: {sorted(unknown)}; "
                f"valid fields: {sorted(valid)}"
            )
        names = list(axes)
        return [
            dict(zip(names, values))
            for values in itertools.product(*(axes[name] for name in names))
        ]

    def _run_cells(
        self, cells: Sequence[Mapping], jobs: int | str | None
    ) -> list[list[RunResult]]:
        """``runs`` seeded executions of each cell, grouped per cell."""
        configs = [dataclasses.replace(self.base, **cell) for cell in cells]
        return run_seeds(configs, self.runs, jobs=jobs)

    def _summarize_cell(
        self, overrides: Mapping, results: Sequence[RunResult]
    ) -> dict:
        incompleteness = summarize([r.incompleteness for r in results])
        row = {
            **overrides,
            "incompleteness": incompleteness.mean,
            "ci_half_width": incompleteness.mean - incompleteness.low,
            "messages": summarize(
                [float(r.messages_sent) for r in results]
            ).mean,
            "rounds": summarize([float(r.rounds) for r in results]).mean,
        }
        if self._telemetered():
            merged = merge_summaries(
                [r.telemetry for r in results if r.telemetry is not None]
            )
            row["early_bumps"] = merged.bump_up_early
            row["timeout_bumps"] = merged.bump_up_timeout
        return row

    def _telemetered(self) -> bool:
        """Whether cells carry worker telemetry (extra table columns)."""
        return self.base.collect_telemetry

    def run_cell(self, overrides: Mapping) -> dict:
        """Average ``runs`` seeded executions of one configuration."""
        [results] = self._run_cells([overrides], self.jobs)
        return self._summarize_cell(overrides, results)

    def run(self, cells: Iterable[Mapping], title: str = "sweep",
            jobs: int | str | None = None) -> TableResult:
        """Run every cell and return one table row per cell.

        All cells must share the same axis keys — heterogeneous cell
        dicts would silently emit rows whose values land under the wrong
        headers, so they are rejected up front.  The whole
        ``cells x runs`` run list is executed through one parallel map
        (``jobs`` overrides the sweep-level setting), so large grids
        scale with cores even when ``runs`` per cell is small.
        """
        cells = list(cells)
        if not cells:
            raise ValueError("no cells to sweep")
        axis_names = list(cells[0])
        expected = set(axis_names)
        for index, cell in enumerate(cells):
            if set(cell) != expected:
                raise ValueError(
                    f"sweep cell {index} has axes {sorted(map(str, cell))} "
                    f"but cell 0 has {sorted(map(str, expected))}; all "
                    f"cells must share the same axis keys for the table "
                    f"columns to align"
                )
        per_cell = self._run_cells(cells, self.jobs if jobs is None else jobs)
        metric_names = ["incompleteness", "ci_half_width", "messages",
                        "rounds"]
        if self._telemetered():
            metric_names += ["early_bumps", "timeout_bumps"]
        table = TableResult(
            title=title,
            headers=axis_names + metric_names,
        )
        for cell, results in zip(cells, per_cell):
            row = self._summarize_cell(cell, results)
            table.rows.append([row[name] for name in table.headers])
        return table
