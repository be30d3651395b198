"""Experiment harness: paper defaults, run assembly, figures, reporting."""

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.parallel import (
    ParallelRunner,
    close_shared_runners,
    resolve_jobs,
    run_many,
    run_seeds,
    shared_runner,
)
from repro.experiments.params import PAPER_DEFAULTS, RunConfig, with_params
from repro.experiments.reporting import FigureResult, Series, TableResult
from repro.experiments.runner import RunResult, incompleteness_samples, run_once

__all__ = [
    "ALL_FIGURES",
    "ParallelRunner",
    "close_shared_runners",
    "resolve_jobs",
    "run_many",
    "run_seeds",
    "shared_runner",
    "PAPER_DEFAULTS",
    "RunConfig",
    "with_params",
    "FigureResult",
    "Series",
    "TableResult",
    "RunResult",
    "incompleteness_samples",
    "run_once",
]
