"""Whole-tool diagnostics reported beside the layer timings, never gated:
source size per package, ``repro lint`` cold and warm, and the parallel
executor's speed-up on the sweep."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGES = ("core", "sim", "net", "obs", "lint", "chaos", "experiments",
            "baselines")


def _source_lines(directory: pathlib.Path) -> int:
    return sum(
        1
        for path in directory.rglob("*.py")
        for line in path.read_text().splitlines()
        if line.strip()
    )


def loc() -> dict[str, int]:
    """Non-blank source lines under ``src/repro`` (ROADMAP aim 2)."""
    package_root = ROOT / "src" / "repro"
    out = {f"loc.{name}": _source_lines(package_root / name)
           for name in PACKAGES}
    out["loc.total"] = _source_lines(package_root)
    return out


def lint(cache_path: pathlib.Path, target: str = "src") -> dict[str, float]:
    """``repro lint`` over ``target`` with an empty, then a full cache."""
    cache_path.unlink(missing_ok=True)
    command = [sys.executable, "-m", "repro", "lint",
               "--cache", str(cache_path), target]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    seconds = []
    for __ in ("cold", "warm"):
        start = time.perf_counter()
        done = subprocess.run(command, env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        seconds.append(time.perf_counter() - start)
        # 1 = violations found: still a full, timed lint.  The lint gate
        # itself belongs to CI, not to a timing.
        if done.returncode not in (0, 1):
            raise RuntimeError(
                f"repro lint exited {done.returncode}: {done.stderr[-400:]}"
            )
    cache_path.unlink(missing_ok=True)
    return {"lint.cold_s": seconds[0], "lint.warm_s": seconds[1]}


def parallel(configs) -> dict[str, float]:
    """The sweep's configs through ``run_many`` on one and two workers
    (two capped at the cores this process may use)."""
    from repro.experiments.parallel import ParallelRunner, run_many

    import workloads as wl

    start = time.perf_counter()
    serial = run_many(configs, jobs=1)
    serial_s = time.perf_counter() - start
    jobs = min(2, len(os.sched_getaffinity(0)))
    with ParallelRunner(jobs) as runner:
        start = time.perf_counter()
        pooled = run_many(configs, runner=runner)
        pooled_s = time.perf_counter() - start
    return {
        "experiments.parallel.sweep_j1_s": serial_s,
        "experiments.parallel.sweep_j2_s": pooled_s,
        "experiments.parallel.speedup_j2": serial_s / pooled_s,
        "experiments.parallel.bit_identical":
            int(wl.checksum(serial) == wl.checksum(pooled)),
    }
