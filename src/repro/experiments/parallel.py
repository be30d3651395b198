"""Parallel execution of independent seeded simulation runs.

Every quantitative result in this repository — figure sweeps, the generic
:class:`~repro.experiments.sweep.Sweep`, the baseline comparison — is an
average over many *independently seeded* :func:`~repro.experiments.runner
.run_once` executions.  Those executions share no state (each builds its
own :class:`~repro.sim.rng.RngRegistry` from its config's seed), so they
are embarrassingly parallel: running them across processes produces
bit-identical numbers to running them serially, just faster.
:func:`run_seeds` is the one way a sweep expands its cells into those
seeded runs.

:class:`ParallelRunner` is the single fan-out point.  It preserves the
input order of results (so tables and series are byte-identical however
many workers run), chunks work to amortize inter-process overhead, and
falls back to the plain serial loop whenever parallelism is pointless
(``jobs=1``, a single item) or unavailable (no ``fork``/``spawn``
permitted in the sandbox, broken pool).  The job count resolves as:

1. an explicit ``jobs=`` argument (``0`` means "one per CPU core"),
2. the ``REPRO_JOBS`` environment variable (an integer, or ``auto``),
3. serial execution (the default — small figure calls and unit tests
   should not pay pool startup).

Two transport choices:

* **One pool per process.**  A runner's :class:`~concurrent.futures.
  ProcessPoolExecutor` is created lazily and *reused across map calls*
  (close it with :meth:`ParallelRunner.close` or a ``with`` block).
  :func:`run_many` goes further and draws runners from a process-wide
  registry keyed by job count — a figure sweep's hundreds of cells, or
  one CLI invocation's several figures, all share a single pool instead
  of forking a fresh one per cell.
* **Plain results.**  A worker returns :func:`run_once`'s result as
  is: packing its per-member maps into numpy columns measured neither
  smaller nor faster to pickle at N = 8192 and 65536.

The determinism regression tests
(``tests/integration/test_parallel_determinism.py``) pin the
serial == parallel guarantee.
"""

from __future__ import annotations

import atexit
import os
from collections.abc import Callable, Iterable, Sequence
from itertools import islice
from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

from repro import shutdown
from repro.experiments.params import ConfigError, RunConfig
from repro.experiments.runner import RunResult, run_once

__all__ = [
    "JOBS_ENV",
    "ParallelRunner",
    "close_shared_runners",
    "resolve_jobs",
    "run_many",
    "run_seeds",
    "shared_runner",
]

#: Environment variable consulted when no explicit job count is given.
JOBS_ENV = "REPRO_JOBS"

_ItemT = TypeVar("_ItemT")
_ResultT = TypeVar("_ResultT")


def resolve_jobs(jobs: int | str | None = None) -> int:
    """Resolve a worker count from an argument or :data:`JOBS_ENV`.

    ``None`` consults the environment and defaults to ``1`` (serial);
    ``0`` or ``"auto"`` means one worker per available CPU core; negative
    counts are rejected.  Always returns an int >= 1.
    """
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        jobs = raw
    if isinstance(jobs, str):
        text = jobs.strip().lower()
        if text == "auto":
            jobs = 0
        else:
            try:
                jobs = int(text)
            except ValueError:
                raise ConfigError(
                    f"invalid job count {jobs!r}: expected an integer or "
                    f"'auto'"
                ) from None
    if jobs < 0:
        raise ConfigError(f"job count must be >= 0, got {jobs}")
    if jobs == 0:
        try:
            cores = len(os.sched_getaffinity(0))
        except AttributeError:  # non-Linux
            cores = os.cpu_count() or 1
        return max(1, cores)
    return int(jobs)


class ParallelRunner:
    """Order-preserving process-pool map with a serial fallback.

    >>> runner = ParallelRunner(jobs=4)
    >>> results = runner.map(run_once, configs)   # results[i] <-> configs[i]

    The mapped callable and its items must be picklable (module-level
    functions over dataclass configs — exactly what :func:`run_once`
    takes).  Exceptions raised by the callable propagate unchanged; pool
    *infrastructure* failures (fork refused, workers killed) degrade to
    the serial loop instead of failing the experiment.

    The worker pool is created lazily on the first parallel map and
    **kept alive for the runner's lifetime**, so consecutive maps (a
    sweep's cells, a figure's points) reuse warm workers instead of
    paying pool startup each time.  Release it with :meth:`close` or by
    using the runner as a context manager; an unclosed pool is reaped at
    interpreter exit.
    """

    def __init__(self, jobs: int | str | None = None) -> None:
        self.jobs = resolve_jobs(jobs)
        self._pool: ProcessPoolExecutor | None = None
        self._pool_unavailable = False

    def _acquire_pool(self) -> ProcessPoolExecutor | None:
        """The persistent pool, created on first use (None = no pool)."""
        if self._pool is None and not self._pool_unavailable:
            from concurrent.futures import ProcessPoolExecutor

            try:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (OSError, PermissionError, ImportError):
                # Sandboxed fork / missing multiprocessing primitives:
                # remember, so later maps skip straight to serial.
                self._pool_unavailable = True
        return self._pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def map(
        self,
        fn: Callable[[_ItemT], _ResultT],
        items: Iterable[_ItemT],
    ) -> list[_ResultT]:
        """Apply ``fn`` to every item; results keep the input order."""
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures.process import BrokenProcessPool

        pool = self._acquire_pool()
        if pool is None:
            return [fn(item) for item in items]
        # Aim for a few chunks per worker so stragglers rebalance, while
        # keeping per-chunk IPC overhead amortized over several runs.
        workers = min(self.jobs, len(items))
        per_chunk = max(1, len(items) // (workers * 4))
        try:
            return list(pool.map(fn, items, chunksize=per_chunk))
        except (BrokenProcessPool, OSError, PermissionError, ImportError):
            # Pool infrastructure died (killed workers, fork refused
            # mid-run): the work itself is still fine — drop the pool
            # and run serially.
            self._discard_pool()
            return [fn(item) for item in items]

    def close(self) -> None:
        """Shut down the persistent pool (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ParallelRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "live" if self._pool is not None else "idle"
        return f"ParallelRunner(jobs={self.jobs}, pool={state})"


# -- process-wide shared runners ----------------------------------------

#: One persistent runner per resolved job count; every :func:`run_many`
#: call in a process (sweep cells, figure points, benchmark legs) shares
#: these instead of forking a fresh pool per call.
_SHARED_RUNNERS: dict[int, ParallelRunner] = {}


def shared_runner(jobs: int | str | None = None) -> ParallelRunner:
    """The process-wide :class:`ParallelRunner` for this job count."""
    count = resolve_jobs(jobs)
    runner = _SHARED_RUNNERS.get(count)
    if runner is None:
        runner = _SHARED_RUNNERS[count] = ParallelRunner(count)
    return runner


def close_shared_runners() -> None:
    """Shut down every shared runner's pool (idempotent).

    CLI entry points call this on exit; library users only need it to
    reap workers eagerly (interpreter exit reaps them anyway).
    """
    while _SHARED_RUNNERS:
        __, runner = _SHARED_RUNNERS.popitem()
        runner.close()


atexit.register(close_shared_runners)
# atexit never fires on a signal death; the shutdown registry covers
# SIGTERM so a killed CLI run does not leak its worker pool.
shutdown.on_shutdown(close_shared_runners)


def run_many(
    configs: Sequence[RunConfig],
    jobs: int | str | None = None,
    runner: ParallelRunner | None = None,
) -> list[RunResult]:
    """Execute :func:`run_once` for every config, possibly in parallel.

    ``results[i]`` corresponds to ``configs[i]``; output is bit-identical
    to ``[run_once(c) for c in configs]`` for any job count, because each
    run derives all randomness from its own config's seed.  Parallel
    calls draw their runner from the :func:`shared_runner` registry (one
    persistent pool per job count and process).
    """
    if runner is None:
        runner = shared_runner(jobs)
    return runner.map(run_once, configs)


def run_seeds(
    cells: Sequence[RunConfig],
    runs: int | Sequence[int],
    jobs: int | str | None = None,
) -> list[list[RunResult]]:
    """Run cell ``i`` at seeds ``cells[i].seed`` .. ``+ runs_i - 1``.

    ``runs`` is one count for every cell or one count per cell (a sweep
    may taper repetitions where a point costs more wall time).  The
    seeded runs of *all* cells go through one :func:`run_many` map, so a
    sweep scales with cores even when each cell repeats only a few
    times; the results come back grouped per cell, in order.
    """
    counts = [runs] * len(cells) if isinstance(runs, int) else list(runs)
    seeded = [
        cell.with_seed(cell.seed + offset)
        for cell, count in zip(cells, counts, strict=True)
        for offset in range(count)
    ]
    results = iter(run_many(seeded, jobs=jobs))
    return [list(islice(results, count)) for count in counts]
