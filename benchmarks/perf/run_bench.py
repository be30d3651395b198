#!/usr/bin/env python
"""Wall-clock benchmark harness: time canonical workloads, track them.

Times a small set of canonical simulation workloads and *appends* a
per-revision record to ``BENCH_core.json`` at the repository root, so
every future PR has a perf trajectory to compare against.  Each entry
records the workload's config, wall-clock seconds, and the git revision
that produced it; parallel workloads additionally record the
serial/parallel split, the speedup, and a checksum proving the parallel
numbers are bit-identical to serial.

Each new run is compared against the most recent comparable record
(same ``--quick`` flag): any workload more than 20% slower, or whose
``checksum`` / ``frames_sha256`` digest differs, is flagged as a
regression in the output, and ``--fail-on-regression`` turns the flag
into a nonzero exit for CI gating (the wall-clock rule on stable
hardware; a digest is exact anywhere).
Legacy single-document ``BENCH_core.json`` files (schema
``repro-bench/1``) are converted to the first history record in place.

Canonical workloads:

* ``fig6_n_sweep``      — a Figure-6-style scalability sweep (N up to
  4096, 8 seeded runs per point), serial vs parallel.
* ``fig10_crash_sweep`` — the Figure-10 crash-rate sweep at N=200,
  serial vs parallel.
* ``single_n4096``      — one large hierarchical run (N=4096), the pure
  simulator hot path (no parallelism involved).
* ``n8192``             — two seeded runs at N=8192/K=8 executed
  in-process, the large-N regime where `GridAssignment` construction
  and per-round bookkeeping dominate; the two runs share one cached
  assignment, so this workload tracks both the raw hot path and the
  large-N caching.  Same size under ``--quick`` on purpose: shrinking
  it would measure a different regime.  Runs on the array-stepped
  engine (the runner's choice here); the checksum pins bit-identity
  against the object-stepped history.
* ``chaos_n1024``       — the four ``make chaos-smoke`` campaigns at
  N=1024, 2 seeded runs per cell, ``jobs=1`` (full bench only): the
  robustness harness with compact telemetry attached, i.e. the path
  every ``repro chaos`` cell and ``collect_telemetry`` sweep takes.
* ``pushpull_n2048``    — one N=2048/K=4 push-pull run with compact
  telemetry (full bench only): the layered benchmark's ``sim_slowpath``
  config through ``run_once`` — request/reply gossip, whose replies the
  array engine plans as blocks during delivery.
* ``net_loopback_n512`` — 512 real ``NetNode``s, K=8, over the lossless
  in-memory router to termination (``--quick``: 128): the net
  substrate's wall time plus what it put on the wire — frames by kind,
  bytes per member per round, gossip frame sizes, and a sha256 over the
  frames in send order (so a codec change shows as a new digest).
* ``net_loopback_n2048`` — a 2048-node loopback group, K=8, to
  termination (full bench only): every node's address book holds the
  whole group, so memory grows as N².  Records ``peak_rss_kb_per_node``.
* ``n65536``            — one N=65536/K=8 run *to convergence* (full
  bench only): wall time, rounds, completeness and peak RSS of the
  regime the array-stepped engine and the interval masks exist for.
* ``n1m_smoke``         — opt-in (``--n1m``): build a 10^6-member world
  on the array engine, step a few rounds, record peak RSS.  Still
  round-capped: see ``N1M_SMOKE_ROUNDS``.

Usage::

    make bench                                # full run, writes BENCH_core.json
    make bench-n1m                            # the same plus n1m_smoke
    python benchmarks/perf/run_bench.py --quick   # CI smoke (small sizes)
    python benchmarks/perf/run_bench.py --jobs 8  # force a worker count

The net loopback, ``pushpull_n2048`` and ``chaos_n1024`` entries each
run alone in a fresh interpreter (``_fresh``), so their ``peak_rss_mb``
and ``seconds`` are their own, not the high-water mark or the heap an
earlier entry left behind.

Every record also carries ``loc``: non-blank source lines per package
under ``src/repro`` and in total, so the size trajectory sits beside
the timings.

The serial and parallel legs assert checksum equality: a nonzero exit
means the parallel executor changed the numbers, which is a bug.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.experiments.parallel import resolve_jobs, run_many  # noqa: E402
from repro.experiments.params import with_params  # noqa: E402
from repro.experiments.runner import run_once  # noqa: E402


#: A workload is flagged when its wall-clock exceeds the baseline by this
#: factor (the ROADMAP's ">20% regression" check).
REGRESSION_FACTOR = 1.20

#: Exact per-entry digests: one that differs from the baseline's is
#: flagged whatever the wall clock says.
DIGESTS = ("checksum", "frames_sha256")
#: History records kept in BENCH_core.json (oldest dropped first).
HISTORY_LIMIT = 100


def _load_history(path: pathlib.Path) -> list:
    """Existing history records, converting the legacy single-doc schema."""
    try:
        document = json.loads(path.read_text())
    except (OSError, ValueError):
        return []
    schema = document.get("schema") if isinstance(document, dict) else None
    if schema == "repro-bench/1":
        record = {k: v for k, v in document.items() if k != "schema"}
        return [record]
    if schema == "repro-bench/2":
        history = document.get("history", [])
        return list(history) if isinstance(history, list) else []
    return []


def _find_regressions(record: dict, history: list) -> list[str]:
    """Workloads >20% slower than the latest comparable history record,
    or whose ``checksum`` / ``frames_sha256`` differs from its: digests
    are exact, so any change is a change in what a run computes or puts
    on the wire."""
    baseline = next(
        (past for past in reversed(history)
         if past.get("quick") == record["quick"]),
        None,
    )
    if baseline is None:
        return []
    # Same name *and* same config: a workload redefined under its old
    # name (n65536 went from 12 rounds to convergence) is a new series.
    def series(entry: dict) -> tuple[str, str]:
        return (entry["workload"],
                json.dumps(entry.get("config"), sort_keys=True))

    past = {series(entry): entry for entry in baseline.get("entries", [])}
    revision = baseline.get("git_revision", "unknown")[:12]
    flags = []
    for entry in record["entries"]:
        before = past.get(series(entry), {})
        for digest in DIGESTS:
            if before.get(digest) and entry.get(digest) != before[digest]:
                flags.append(
                    f"{entry['workload']}: {digest} {entry.get(digest)} vs "
                    f"{before[digest]} at {revision}"
                )
        old = before.get("seconds")
        if old and entry["seconds"] > old * REGRESSION_FACTOR:
            slowdown = (entry["seconds"] / old - 1.0) * 100.0
            flags.append(
                f"{entry['workload']}: {entry['seconds']}s vs {old}s at "
                f"{revision} (+{slowdown:.0f}%)"
            )
    return flags


def _git_revision() -> str:
    """HEAD's revision, with ``+dirty`` when the tree measured differs
    from it (uncommitted changes), so a row names the tree it measured."""
    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args],
            cwd=REPO_ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    try:
        revision = git("rev-parse", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return revision + "+dirty" if dirty else revision


def _source_loc() -> dict[str, int]:
    """Non-blank source lines per package under ``src/repro`` and in
    all of it (ROADMAP aim 2) — counted as the layered benchmark's
    ``diagnostics.loc`` counts them."""
    def lines(paths) -> int:
        return sum(
            1 for path in paths
            for line in path.read_text().splitlines() if line.strip()
        )

    root = REPO_ROOT / "src" / "repro"
    loc = {
        package.name: lines(package.rglob("*.py"))
        for package in sorted(root.iterdir())
        if package.is_dir() and package.name != "__pycache__"
    }
    loc["total"] = lines(root.rglob("*.py"))
    return loc


def _checksum(results) -> str:
    """Stable digest over every number a sweep produces."""
    payload = json.dumps(
        [
            [r.incompleteness, r.completeness, r.messages_sent,
             r.messages_dropped, r.rounds, r.crashes, r.bytes_sent]
            for r in results
        ],
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def _collections() -> list[int]:
    """Cyclic-collector passes so far, per generation."""
    return [generation["collections"] for generation in gc.get_stats()]


def _peak_rss_kb() -> int:
    """This process's peak resident set, in kB.

    ``VmHWM`` where ``/proc`` has it: the high-water mark of the
    process's own address space.  ``ru_maxrss`` (the fallback) also
    counts the parent's resident set at the fork and exec that started
    the process, so a child of a large bench process reads at least
    its parent's size.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _footprint(collections_before: list[int]) -> dict:
    """Memory fields of an entry, read right after its timed region.

    ``peak_rss_mb`` is the process high-water mark so far (entries run
    in one process, smallest first, so each large workload sets its
    own, unless ``_fresh`` runs it alone); ``gc_collections`` the
    collector passes per generation since ``collections_before``.
    """
    return {
        "peak_rss_mb": round(_peak_rss_kb() / 1024.0, 1),
        "gc_collections": [
            after - before for before, after
            in zip(collections_before, _collections())
        ],
    }


def _footprint_text(entry: dict) -> str:
    return (f"peak RSS {entry['peak_rss_mb']} MB, collections "
            f"{'/'.join(map(str, entry['gc_collections']))}")


def _fresh(name: str, *args) -> dict:
    """The entry ``name(*args)`` returns, ``name`` one of this module's
    ``bench_*`` functions, run alone in a fresh interpreter."""
    code = (f"import json, sys; sys.path.insert(0, {str(HERE)!r}); "
            f"import run_bench; "
            f"print(json.dumps(run_bench.{name}(*{args!r})))")
    completed = subprocess.run([sys.executable, "-c", code], check=True,
                               stdout=subprocess.PIPE, text=True)
    return json.loads(completed.stdout.splitlines()[-1])


def _sweep_configs(kind: str, quick: bool):
    """(config list, human-readable config dict) for a sweep workload."""
    if kind == "fig6_n_sweep":
        n_values = (256, 512) if quick else (512, 1024, 2048, 4096)
        runs = 2 if quick else 8
        configs = [
            with_params(n=n, seed=0).with_seed(offset)
            for n in n_values
            for offset in range(runs)
        ]
        described = {"n_values": list(n_values), "runs_per_point": runs,
                     "ucastl": 0.25, "pf": 0.001, "k": 4, "fanout_m": 2}
    elif kind == "fig10_crash_sweep":
        pf_values = (0.002, 0.008) if quick else (0.002, 0.004, 0.006, 0.008)
        runs = 4 if quick else 16
        configs = [
            with_params(n=200, pf=pf, seed=0).with_seed(offset)
            for pf in pf_values
            for offset in range(runs)
        ]
        described = {"n": 200, "pf_values": list(pf_values),
                     "runs_per_point": runs, "ucastl": 0.25}
    else:
        raise ValueError(f"unknown sweep {kind!r}")
    return configs, described


def bench_sweep(kind: str, jobs: int, quick: bool) -> dict:
    """Time one sweep serially and in parallel; verify bit-identity."""
    configs, described = _sweep_configs(kind, quick)

    start = time.perf_counter()
    serial = run_many(configs, jobs=1)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    parallel = run_many(configs, jobs=jobs)
    parallel_seconds = time.perf_counter() - start

    serial_sum, parallel_sum = _checksum(serial), _checksum(parallel)
    if serial_sum != parallel_sum:
        raise AssertionError(
            f"{kind}: parallel results diverged from serial "
            f"({parallel_sum} != {serial_sum})"
        )
    return {
        "workload": kind,
        "config": {**described, "total_runs": len(configs)},
        "seconds": round(parallel_seconds, 3),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "jobs": jobs,
        "speedup": round(serial_seconds / max(parallel_seconds, 1e-9), 2),
        "checksum": serial_sum,
        "bit_identical": True,
    }


def bench_single(quick: bool, profile: bool = False) -> dict:
    """Time one large hierarchical run: the raw simulator hot path.

    ``--profile`` attaches the opt-in section profiler from
    ``repro.obs`` (build / simulate / measure wall-clock split).  The
    aggregation numbers are identical either way; only ``seconds`` picks
    up the instrumentation overhead, which is why profiling is opt-in.
    """
    n = 1024 if quick else 4096
    config = with_params(n=n, seed=3)
    telemetry = None
    if profile:
        from repro.obs.profiling import SectionProfiler
        from repro.obs.telemetry import RunTelemetry

        telemetry = RunTelemetry.compact()
        telemetry.profiler = SectionProfiler()
    start = time.perf_counter()
    result = run_once(config, telemetry=telemetry)
    seconds = time.perf_counter() - start
    entry = {
        "workload": f"single_n{n}",
        "config": {"n": n, "seed": 3, "ucastl": 0.25, "pf": 0.001, "k": 4},
        "seconds": round(seconds, 3),
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "incompleteness": result.incompleteness,
    }
    if telemetry is not None and telemetry.profiler is not None:
        entry["profile"] = telemetry.profiler.as_records()
        print(telemetry.profiler.report(), flush=True)
    return entry


def bench_large(quick: bool) -> dict:
    """Time the N=8192 regime: two seeded runs, one cached assignment.

    Runs in-process (``jobs=1``) so the second run can reuse the
    memoized ``GridAssignment`` the way ``Sweep``/``ParallelRunner``
    workers do; the checksum pins the numbers against the goldens.
    The runner picks the array-stepped engine for this configuration,
    and the checksum proves it bit-identical to the object-stepped
    history records.
    """
    configs = [with_params(n=8192, k=8, seed=0).with_seed(offset)
               for offset in range(2)]
    collections = _collections()
    start = time.perf_counter()
    results = run_many(configs, jobs=1)
    seconds = time.perf_counter() - start
    return {
        "workload": "n8192",
        "config": {"n": 8192, "k": 8, "seeds": [0, 1], "ucastl": 0.25,
                   "pf": 0.001, "total_runs": len(configs),
                   "engine": "auto"},
        "seconds": round(seconds, 3),
        "rounds": [r.rounds for r in results],
        "messages_sent": sum(r.messages_sent for r in results),
        "incompleteness": max(r.incompleteness for r in results),
        **_footprint(collections),
        "checksum": _checksum(results),
    }


#: The registry guard's overhead budget: registry-enabled n8192 must
#: finish within this factor of the back-to-back disabled run (plus a
#: small absolute grace so sub-second timer noise cannot flake CI).
REGISTRY_GUARD_FACTOR = 1.03
REGISTRY_GUARD_GRACE_SECONDS = 0.5


def registry_guard() -> int:
    """Back-to-back n8192 with and without a metrics registry.

    Two invariants, both ISSUE-pinned: the registry-enabled run is
    bit-identical to the disabled one (the metrics-only telemetry
    shape never touches simulation state), and it stays within 3% of
    the disabled wall-clock (same process, same machine, so the
    comparison is fair where a committed-baseline comparison across
    CI hosts would not be).
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.telemetry import RunTelemetry

    configs = [with_params(n=8192, k=8, seed=0).with_seed(offset)
               for offset in range(2)]
    registry = MetricsRegistry()

    def leg(telemetry_factory):
        start = time.perf_counter()
        results = [
            run_once(config, telemetry=telemetry_factory())
            for config in configs
        ]
        return time.perf_counter() - start, results

    # Alternate the legs and keep each one's best of two: host noise
    # (CI neighbours, thermal throttling) dwarfs a 3% budget on a
    # single back-to-back pair.
    plain_seconds, plain = leg(lambda: None)
    metered_seconds, metered = leg(
        lambda: RunTelemetry.metrics_only(registry)
    )
    plain_seconds = min(plain_seconds, leg(lambda: None)[0])
    metered_seconds = min(
        metered_seconds,
        leg(lambda: RunTelemetry.metrics_only(registry))[0],
    )

    plain_sum, metered_sum = _checksum(plain), _checksum(metered)
    print(f"[bench] registry guard: disabled {plain_seconds:.3f}s, "
          f"enabled {metered_seconds:.3f}s, checksums "
          f"{plain_sum} / {metered_sum}", flush=True)
    if plain_sum != metered_sum:
        print("[bench] REGISTRY GUARD FAILED: registry-enabled results "
              f"diverged ({metered_sum} != {plain_sum})", flush=True)
        return 1
    budget = (plain_seconds * REGISTRY_GUARD_FACTOR
              + REGISTRY_GUARD_GRACE_SECONDS)
    if metered_seconds > budget:
        print(f"[bench] REGISTRY GUARD FAILED: {metered_seconds:.3f}s "
              f"exceeds the {budget:.3f}s budget "
              f"({REGISTRY_GUARD_FACTOR:.0%} of the disabled run "
              f"+ {REGISTRY_GUARD_GRACE_SECONDS}s grace)", flush=True)
        return 1
    if not registry.families():
        print("[bench] REGISTRY GUARD FAILED: registry stayed empty — "
              "the runs never fed it", flush=True)
        return 1
    print("[bench] registry guard ok: bit-identical, within budget, "
          f"{len(registry.families())} metric families fed", flush=True)
    return 0


def bench_n65536() -> dict:
    """One N=65536 run to termination — the regime the array engine and
    the interval coverage masks target.

    Full-bench only (skipped under ``--quick``): minutes of wall-clock.
    ``peak_rss_mb`` is the process high-water mark, which this workload
    sets (the earlier ones peak far lower).
    """
    config = with_params(n=65536, k=8, seed=0)
    collections = _collections()
    start = time.perf_counter()
    result = run_once(config)
    seconds = time.perf_counter() - start
    return {
        "workload": "n65536",
        "config": {"n": 65536, "k": 8, "seed": 0, "ucastl": 0.25,
                   "pf": 0.001, "engine": "auto"},
        "seconds": round(seconds, 3),
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "completeness": result.completeness,
        "unfinished": result.report.unfinished,
        **_footprint(collections),
        "checksum": _checksum([result]),
    }


def bench_net_loopback(quick: bool) -> dict:
    """One lossless loopback group to termination: the net substrate.

    The layered benchmark's ``net_loopback`` config through
    ``run_loopback_group``, with every datagram handed to the router
    kept in send order.  Only the run is timed; the frames are decoded
    afterwards (through the public ``decode``, so the entry reads any
    wire version) to count them by kind.
    """
    from unittest import mock

    from repro.net import codec, loopback

    n = 128 if quick else 512
    # The quick group runs for ~0.2 s, too short to gate at 20% on one
    # sample: time it three times and keep the best (the frames are
    # the same every time; the last run's are kept).
    repeats = 3 if quick else 1
    frames: list[bytes] = []

    class RecordingRouter(loopback.LoopbackRouter):
        def sender_for(self, address):
            send = super().sender_for(address)

            def transport_send(data, dest):
                frames.append(data)
                send(data, dest)
            return transport_send

    seconds = float("inf")
    with mock.patch.object(loopback, "LoopbackRouter", RecordingRouter):
        for __ in range(repeats):
            frames.clear()
            collections = _collections()
            start = time.perf_counter()
            report = loopback.run_loopback_group(n, k=8, seed=0)
            seconds = min(seconds, time.perf_counter() - start)
            footprint = _footprint(collections)  # the last run's
    by_kind: dict[str, int] = {}
    gossip_sizes = []
    digest = hashlib.sha256()
    for frame in frames:
        kind = type(codec.decode(frame)).__name__.lower()
        by_kind[kind] = by_kind.get(kind, 0) + 1
        if kind == "gossip":
            gossip_sizes.append(len(frame))
        digest.update(len(frame).to_bytes(4, "big") + frame)
    if report.bytes_sent != sum(map(len, frames)):
        raise AssertionError("the run record's bytes_sent is not the "
                             "sum of the frames the router carried")
    return {
        "workload": f"net_loopback_n{n}",
        "config": {"n": n, "k": 8, "seed": 0, "fanout_m": 2,
                   "ucastl": 0.0, "pf": 0.0, "router": "loopback"},
        "seconds": round(seconds, 3),
        "timed_runs": repeats,
        "wire_version": codec.WIRE_VERSION,
        "rounds": report.rounds,
        "completeness": report.completeness,
        "frames": dict(sorted(by_kind.items())),
        "bytes_per_member_round": round(
            report.bytes_sent / n / report.rounds, 2),
        "gossip_frame_bytes_mean": round(
            sum(gossip_sizes) / len(gossip_sizes), 1),
        "gossip_frame_bytes_max": max(gossip_sizes),
        **footprint,
        "frames_sha256": digest.hexdigest()[:16],
    }


def bench_net_loopback_n2048() -> dict:
    """A 2048-node lossless loopback group to termination (full bench
    only): run alone, its peak RSS is the N² address-book cost of a
    large in-process group.
    """
    from repro.net.loopback import run_loopback_group

    collections = _collections()
    start = time.perf_counter()
    report = run_loopback_group(2048, k=8, seed=0)
    seconds = time.perf_counter() - start
    peak_kb = _peak_rss_kb()
    return {
        "workload": "net_loopback_n2048",
        "config": {"n": 2048, "k": 8, "seed": 0, "fanout_m": 2,
                   "ucastl": 0.0, "pf": 0.0, "router": "loopback"},
        "seconds": round(seconds, 3),
        "rounds": report.rounds,
        "completeness": report.completeness,
        **_footprint(collections),
        "peak_rss_kb_per_node": round(peak_kb / 2048, 1),
    }


def bench_pushpull_n2048() -> dict:
    """The layered benchmark's ``sim_slowpath`` config, through ``run_once``.

    Full-bench only.  Push-pull doubles the traffic (every same-phase
    batch is answered) and compact telemetry rides along, as in every
    ``repro chaos`` cell; the checksum is engine-independent.
    """
    config = with_params(
        n=2048, k=4, push_pull=True, collect_telemetry=True, seed=0
    )
    collections = _collections()
    start = time.perf_counter()
    result = run_once(config)
    seconds = time.perf_counter() - start
    return {
        "workload": "pushpull_n2048",
        "config": {"n": 2048, "k": 4, "seed": 0, "ucastl": 0.25,
                   "pf": 0.001, "push_pull": True,
                   "collect_telemetry": True, "engine": "auto"},
        "seconds": round(seconds, 3),
        "rounds": result.rounds,
        "messages_sent": result.messages_sent,
        "incompleteness": result.incompleteness,
        **_footprint(collections),
        "checksum": _checksum([result]),
    }


#: The ``make chaos-smoke`` campaign set.
CHAOS_SMOKE_CAMPAIGNS = (
    "paper-iid", "crash-storm", "rack-failure", "partition-heal",
)


def bench_chaos_n1024() -> dict:
    """The chaos-smoke robustness matrix at N=1024, serial.

    Full-bench only.  Every run carries compact telemetry (the harness
    sets ``collect_telemetry``); the checksum is over the rendered
    report, which is byte-deterministic per seed.
    """
    from repro.experiments.robustness import robustness_matrix

    collections = _collections()
    start = time.perf_counter()
    report = robustness_matrix(
        campaigns=CHAOS_SMOKE_CAMPAIGNS, ns=(1024,), runs=2, seed=0,
        jobs=1,
    )
    seconds = time.perf_counter() - start
    return {
        "workload": "chaos_n1024",
        "config": {"campaigns": list(CHAOS_SMOKE_CAMPAIGNS), "n": 1024,
                   "k": 4, "fanout_m": 6, "runs_per_cell": 2, "seed": 0,
                   "ucastl": 0.25, "pf": 0.001, "jobs": 1,
                   "collect_telemetry": True},
        "seconds": round(seconds, 3),
        "bound_violations": len(report.violations),
        **_footprint(collections),
        "checksum": hashlib.sha256(
            report.render().encode()
        ).hexdigest()[:16],
    }


#: Rounds executed by the million-member smoke (enough to exercise the
#: full send/deliver/advance block path — deliveries land from round 2
#: — without running the whole protocol horizon).  The cap is no longer
#: about coverage masks (they are a few integers per state) nor about
#: per-member objects (the array engine builds none: members are the
#: group's columns, and the smoke builds in ~3 s at ~2.2 kB RSS per
#: member on a 2-core box, was 13.7 s and 3.4 kB with one process per
#: member); it stays because the full horizon is 70 rounds at a minute
#: or more each, untried since members became columns.
N1M_SMOKE_ROUNDS = 3


def bench_n1m_smoke() -> dict:
    """Memory-layout smoke at 10**6 members: build + a few array rounds.

    Proves the array engine's record layout holds a million-member
    group in laptop-class memory (``peak_rss_mb``) and steps it; it is
    not a full protocol run (``--n1m`` opt-in, minutes of wall-clock).
    """
    from repro.experiments import runner as runner_mod
    from repro.sim.rng import RngRegistry

    config = with_params(n=1_000_000, k=16, seed=0)
    start = time.perf_counter()
    rngs = RngRegistry(seed=config.seed)
    votes = runner_mod._make_votes(config, rngs)
    processes, max_rounds = runner_mod._build_processes(config, votes, rngs)
    network = runner_mod._make_network(config)
    failure_model = runner_mod._make_failures(config)
    engine = runner_mod._make_engine(
        config, None, network, failure_model, rngs, max_rounds
    )
    engine.add_processes(processes)
    build_seconds = time.perf_counter() - start
    collections = _collections()
    start = time.perf_counter()
    stats = engine.run(until=lambda: engine.round >= N1M_SMOKE_ROUNDS)
    step_seconds = time.perf_counter() - start
    return {
        "workload": "n1m_smoke",
        "config": {"n": 1_000_000, "k": 16, "seed": 0, "ucastl": 0.25,
                   "pf": 0.001, "engine": "auto",
                   "rounds_limit": N1M_SMOKE_ROUNDS},
        "seconds": round(build_seconds + step_seconds, 3),
        "build_seconds": round(build_seconds, 3),
        "step_seconds": round(step_seconds, 3),
        "rounds": stats.rounds_executed,
        "messages_sent": engine.network.stats.sent,
        **_footprint(collections),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", default=None,
        help="worker processes for the parallel legs "
             "(default: $REPRO_JOBS, else one per core)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="small sizes for CI smoke runs (~tens of seconds)",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_core.json"),
        help="output path (default: BENCH_core.json at the repo root)",
    )
    parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit nonzero when any workload changes a digest, or "
             "regresses >20%% (use on stable hardware), against the latest "
             "comparable history record",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="attach the repro.obs section profiler to the single large "
             "run and print its build/simulate/measure wall-clock split",
    )
    parser.add_argument(
        "--n1m", action="store_true",
        help="also run the million-member memory-layout smoke (builds a "
             "10^6-member world on the array engine and steps a few "
             "rounds; records peak RSS)",
    )
    parser.add_argument(
        "--registry-guard", action="store_true",
        help="only run the metrics-registry overhead guard (n8192 with "
             "vs without a registry: bit-identical and within 3%%) and "
             "exit — no BENCH_core.json update",
    )
    args = parser.parse_args(argv)
    if args.registry_guard:
        return registry_guard()
    # The harness default is one worker per core ("auto"), not the library
    # default of serial — a benchmark run wants the machine saturated.
    jobs = resolve_jobs(args.jobs if args.jobs is not None else "auto")

    entries = []
    for kind in ("fig6_n_sweep", "fig10_crash_sweep"):
        print(f"[bench] {kind} (jobs={jobs}"
              f"{', quick' if args.quick else ''}) ...", flush=True)
        entry = bench_sweep(kind, jobs, args.quick)
        print(f"[bench]   serial {entry['serial_seconds']}s, parallel "
              f"{entry['parallel_seconds']}s, speedup {entry['speedup']}x, "
              f"bit-identical ok", flush=True)
        entries.append(entry)
    print("[bench] single large run ...", flush=True)
    entry = bench_single(args.quick, profile=args.profile)
    print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
          f"({entry['messages_sent']} messages)", flush=True)
    entries.append(entry)
    print("[bench] n8192 large-N workload ...", flush=True)
    entry = bench_large(args.quick)
    print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
          f"({entry['messages_sent']} messages, "
          f"checksum {entry['checksum']}), {_footprint_text(entry)}",
          flush=True)
    entries.append(entry)
    print("[bench] net loopback group, fresh process ...", flush=True)
    entry = _fresh("bench_net_loopback", args.quick)
    print(f"[bench]   {entry['workload']}: {entry['seconds']}s, "
          f"{entry['rounds']} rounds, "
          f"{entry['bytes_per_member_round']} B/member/round, gossip "
          f"frames mean {entry['gossip_frame_bytes_mean']} / max "
          f"{entry['gossip_frame_bytes_max']} B "
          f"(frames {entry['frames_sha256']}), {_footprint_text(entry)}",
          flush=True)
    entries.append(entry)
    if not args.quick:
        print("[bench] net loopback group of 2048, fresh process ...",
              flush=True)
        entry = _fresh("bench_net_loopback_n2048")
        print(f"[bench]   {entry['workload']}: {entry['seconds']}s, "
              f"{entry['rounds']} rounds to completeness "
              f"{entry['completeness']}, peak RSS {entry['peak_rss_mb']} MB "
              f"({entry['peak_rss_kb_per_node']} kB/node)", flush=True)
        entries.append(entry)
        print("[bench] pushpull_n2048 request/reply run, fresh process "
              "...", flush=True)
        entry = _fresh("bench_pushpull_n2048")
        print(f"[bench]   {entry['workload']}: {entry['seconds']}s "
              f"({entry['messages_sent']} messages, "
              f"checksum {entry['checksum']}), {_footprint_text(entry)}",
              flush=True)
        entries.append(entry)
        print("[bench] chaos_n1024 robustness matrix, fresh process ...",
              flush=True)
        entry = _fresh("bench_chaos_n1024")
        print(f"[bench]   {entry['workload']}: {entry['seconds']}s, "
              f"{entry['bound_violations']} bound violation(s) "
              f"(checksum {entry['checksum']}), {_footprint_text(entry)}",
              flush=True)
        entries.append(entry)
        print("[bench] n65536 to convergence ...", flush=True)
        entry = bench_n65536()
        print(f"[bench]   {entry['workload']}: {entry['seconds']}s, "
              f"{entry['rounds']} rounds to completeness "
              f"{entry['completeness']}, {_footprint_text(entry)} "
              f"(checksum {entry['checksum']})", flush=True)
        entries.append(entry)
    if args.n1m:
        print("[bench] million-member memory smoke ...", flush=True)
        entry = bench_n1m_smoke()
        print(f"[bench]   {entry['workload']}: build {entry['build_seconds']}s"
              f" + {entry['rounds']} rounds {entry['step_seconds']}s, "
              f"peak RSS {entry['peak_rss_mb']} MB", flush=True)
        entries.append(entry)

    record = {
        "git_revision": _git_revision(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "available_cores": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "quick": args.quick,
        "loc": _source_loc(),
        "entries": entries,
    }
    output = pathlib.Path(args.output)
    history = _load_history(output)
    regressions = _find_regressions(record, history)
    for flag in regressions:
        print(f"[bench] REGRESSION {flag}", flush=True)
    if not regressions and history:
        print("[bench] no >20% wall-clock regressions or changed "
              "digests vs latest comparable record", flush=True)
    history.append(record)
    document = {
        "schema": "repro-bench/2",
        "history": history[-HISTORY_LIMIT:],
    }
    output.write_text(json.dumps(document, indent=2) + "\n")
    print(f"[bench] wrote {output} ({len(document['history'])} record(s))")
    if regressions and args.fail_on_regression:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
