#!/usr/bin/env python3
"""One command for the whole layered benchmark.

    python3 benchmarks/layered/bench.py --seed 0

runs every workload of BENCHMARK.json in its own process — first with
nothing attached (end-to-end metrics), then traced (per-layer metrics) —
prints every metric by name with its unit, and exits nonzero when any
output check failed.  Two more modes:

    bench.py --check            # < 20 s: BENCHMARK.json against the
                                # contract + every workload at reduced size
    bench.py --repeat-sets 2    # untraced pass N times; every metric x
                                # workload difference beside its bound
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import re
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}\Z")


def definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- contract ---------------------------------------------------------------

def contract_violations(doc: dict) -> list[str]:
    """Every way ``doc`` breaks the BENCHMARK.json contract."""
    bad: list[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(doc) != keys:
        bad.append(f"keys {sorted(doc)} != {sorted(keys)}")
        return bad
    if not 1 <= len(doc["paths"]) <= 16:
        bad.append("paths: 1 to 16 directories")
    for path in doc["paths"]:
        if not PATH.match(path) or path.startswith("/") or ".." in path:
            bad.append(f"path {path!r}")
    command = doc["command"]
    if not 1 <= len(command) <= 32 or any(len(c) > 200 for c in command):
        bad.append("command: at most 32 strings of at most 200 characters")
    for word in command:
        if word.startswith("/") or ".." in word.split("/"):
            bad.append(f"command word {word!r} leaves the checkout")
    seconds = doc["run_seconds"]
    if not (isinstance(seconds, int) and 1 <= seconds <= 60):
        bad.append("run_seconds: a whole number from 1 to 60")
    for key, low, high in (("workloads", 2, 8), ("end_to_end", 1, 16),
                           ("per_layer", 1, 128)):
        if not low <= len(doc[key]) <= high:
            bad.append(f"{key}: {low} to {high} entries")
    names: list[str] = []
    for entry in doc["workloads"]:
        if set(entry) != {"name", "why"}:
            bad.append(f"workload keys {sorted(entry)}")
            continue
        names.append(entry["name"])
        if len(entry["why"]) > 200 or "\n" in entry["why"]:
            bad.append(f"why of {entry['name']}: one line of <= 200 chars")
    for key, wanted in (("end_to_end", {"name", "unit", "better", "bound"}),
                        ("per_layer", {"name", "unit", "better"})):
        for entry in doc[key]:
            if set(entry) != wanted:
                bad.append(f"{key} keys {sorted(entry)}")
                continue
            names.append(entry["name"])
            if not UNIT.match(entry["unit"]):
                bad.append(f"unit {entry['unit']!r} of {entry['name']}")
            if entry["better"] not in ("lower", "higher"):
                bad.append(f"better of {entry['name']}")
            bound = entry.get("bound", 0.1)
            if not (isinstance(bound, (int, float)) and 0 < bound <= 0.25):
                bad.append(f"bound of {entry['name']}: in (0, 0.25]")
    for name in names:
        if not NAME.match(name):
            bad.append(f"name {name!r}")
    if len(set(names)) != len(names):
        bad.append("a name is used twice")
    setup = [e for e in doc["end_to_end"] if e["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        bad.append("setup_s (unit s, better lower) is missing")
    if len(json.dumps(doc)) > 64 * 1024:
        bad.append("file larger than 64 KiB")
    return bad


# -- running ----------------------------------------------------------------

def run_workload(doc: dict, workload: str, seed: int, seconds: float,
                 trace: int, small: bool = False) -> dict:
    """One ``run.py`` process; its result object."""
    command = [sys.executable if word == "python3" else word
               for word in doc["command"]]
    command += ["--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
    if small:
        command.append("--small")
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} (trace {trace}) exited {done.returncode}"
        )
    return json.loads(done.stdout.strip().splitlines()[-1])


def print_metrics(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:13s} {name:42s} {metric['value']:16.6f} "
              f"{metric['unit']}")


def verdict(workload: str, trace: int, result: dict) -> bool:
    state = "ok" if result["correct"] and not result["failed"] else "FAILED"
    print(f"{workload:13s} trace={trace} checks {state}: "
          f"{result['failed']} of {result['attempted']} operations failed")
    return state == "ok"


def machine_record() -> dict:
    import numpy

    try:
        revision = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        revision = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_revision": revision,
        "load_average": os.getloadavg(),
    }


def full_run(doc: dict, args) -> int:
    ok = True
    record = {"seed": args.seed, "seconds": args.seconds,
              "machine": machine_record(), "workloads": {}}
    for workload in args.workloads:
        entry = record["workloads"][workload] = {}
        for trace in (0, 1):
            result = run_workload(doc, workload, args.seed, args.seconds,
                                  trace)
            print_metrics(workload, result)
            ok &= verdict(workload, trace, result)
            entry["end_to_end" if trace == 0 else "per_layer"] = result
    record["machine"]["load_average_after"] = os.getloadavg()
    if args.record:
        pathlib.Path(args.record).write_text(
            json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


def repeat_sets(doc: dict, args) -> int:
    """The untraced pass ``--repeat-sets`` times; spread against bounds."""
    bounds = {e["name"]: e["bound"] for e in doc["end_to_end"]}
    ok = True
    for workload in args.workloads:
        sets = []
        for __ in range(args.repeat_sets):
            result = run_workload(doc, workload, args.seed, args.seconds, 0)
            ok &= verdict(workload, 0, result)
            sets.append(result["metrics"])
        for name, bound in bounds.items():
            values = [metrics[name]["value"] for metrics in sets]
            spread = (max(values) - min(values)) / abs(values[0])
            flag = "" if spread <= bound else "  EXCEEDS"
            ok &= not flag
            print(f"{workload:13s} {name:24s} "
                  + " ".join(f"{v:14.6f}" for v in values)
                  + f"  diff {spread:8.4%}  bound {bound:7.2%}{flag}")
    return 0 if ok else 1


def check(doc: dict) -> int:
    """Contract validation plus every workload at reduced size."""
    from concurrent.futures import ThreadPoolExecutor

    problems = contract_violations(doc)
    declared = [w["name"] for w in doc["workloads"]]
    jobs = [(workload, trace) for workload in declared for trace in (0, 1)]
    # A smoke, not a measurement: the runs may share the cores.
    with ThreadPoolExecutor(len(os.sched_getaffinity(0))) as pool:
        results = list(pool.map(
            lambda job: run_workload(doc, job[0], 0, 0.0, job[1], small=True),
            jobs,
        ))
    for (workload, trace), result in zip(jobs, results):
        if not result["correct"] or result["failed"]:
            problems.append(f"{workload} trace={trace}: checks failed")
        for entry in doc["per_layer" if trace else "end_to_end"]:
            metric = result["metrics"].get(entry["name"])
            if metric is None or metric["unit"] != entry["unit"]:
                problems.append(
                    f"{workload}: {entry['name']} missing or wrong unit")
        if trace == 0 and any(
            not m["value"] > 0 for m in result["metrics"].values()
        ):
            problems.append(f"{workload}: an end-to-end metric is <= 0")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    if not problems:
        print(f"check ok: BENCHMARK.json meets the contract; "
              f"{len(declared)} workloads report {len(doc['end_to_end'])} "
              f"end-to-end and {len(doc['per_layer'])} per-layer metrics")
    return 1 if problems else 0


def main(argv=None) -> int:
    doc = definition()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=doc["run_seconds"])
    parser.add_argument(
        "--workloads", default=",".join(w["name"] for w in doc["workloads"]),
        help="comma-separated subset (default: all)",
    )
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--repeat-sets", type=int, default=0, metavar="N")
    parser.add_argument("--record", metavar="FILE",
                        help="also write every result and the machine "
                             "record to FILE (JSON)")
    args = parser.parse_args(argv)
    args.workloads = args.workloads.split(",")
    if args.check:
        return check(doc)
    if args.repeat_sets:
        return repeat_sets(doc, args)
    return full_run(doc, args)


if __name__ == "__main__":
    sys.exit(main())
