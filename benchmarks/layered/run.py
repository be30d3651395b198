#!/usr/bin/env python3
"""Benchmark entry point: one workload, one process, one JSON line.

    python3 benchmarks/layered/run.py --workload sim_large --seed 0 \
        --seconds 20 --trace 0

``--trace 0`` repeats the workload (seeds ``S, S+1, ...``) for
``--seconds`` with nothing attached and prints the end-to-end metrics;
``--trace 1`` makes one untraced and one traced repetition of seed
``S``, checks they agree count for count, and prints the per-layer
metrics.  The last line of standard output is the result object
described in BENCHMARK.json's contract; everything else goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_program() -> None:
    """Put the program under test (``src/repro``) on the path."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import repro.experiments.runner  # noqa: F401
    except ImportError as error:
        print(f"cannot import the program from {ROOT / 'src'}: {error}",
              file=sys.stderr)
        raise SystemExit(2)


def end_to_end(workload, seed: int, seconds: float) -> dict:
    import workloads as wl

    reps = wl.repeat_for(workload, seed, seconds)
    metrics = wl.median_metrics(reps)
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    faults = [f"seed {rep.seed}: {run.fault}"
              for rep in reps for run in rep.runs if run.fault]
    history = wl.check_history(workload, reps)
    if history:
        faults.append(history)
    attempted = sum(rep.members for rep in reps)
    failed = attempted if history else sum(rep.failed for rep in reps)
    for fault in faults:
        print(f"[{workload.name}] FAULT {fault}", file=sys.stderr)
    print(f"[{workload.name}] {len(reps)} repetition(s), seeds "
          f"{reps[0].seed}..{reps[-1].seed}", file=sys.stderr)
    return {"correct": not faults, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--small", action="store_true",
        help="reduced sizes (bench.py --check); a smoke, not a measurement",
    )
    args = parser.parse_args(argv)
    definition = load_definition()
    _import_program()
    import workloads as wl

    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: "
                     f"{', '.join(wl.WORKLOADS)}")
    workload = wl.resolve(args.workload, args.small)
    started = time.perf_counter()
    if args.trace:
        import layers

        declared = definition["per_layer"]
        result = layers.traced_pass(
            workload, args.seed, [entry["name"] for entry in declared],
            OUT, args.small,
        )
    else:
        result = end_to_end(workload, args.seed, args.seconds)
        declared = definition["end_to_end"]
    # Exactly the declared metrics, each with its declared unit.  An
    # end-to-end metric the run did not produce is a KeyError here; the
    # traced pass starts from a zero per declared name on purpose.
    result["metrics"] = {
        entry["name"]: {"value": result["metrics"][entry["name"]],
                        "unit": entry["unit"]}
        for entry in declared
    }
    print(f"[{workload.name}] done in "
          f"{time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
