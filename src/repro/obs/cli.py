"""The ``repro trace`` verb: run once with tracing on, report, explain.

Four modes:

* **run** (default) — execute one configured aggregation with a full
  :class:`~repro.obs.telemetry.RunTelemetry` attached, print the
  phase-by-phase report, optionally write the ``repro-trace/1`` JSONL
  (``--out``) and a causal ``--explain`` account for a member.
* **query** (``--input FILE``) — load an existing trace and answer
  ``--explain`` / re-print its summary without re-running anything.
* **validate** (``--validate FILE``) — structural schema check; exit 0
  when conformant, 1 otherwise (the ``make trace-smoke`` gate).
* **diff** (``--diff A B``) — regression triage between two traces:
  first divergent phase event per member, first divergent round
  sample, result drift (see :mod:`repro.obs.diff`); exit 0 when the
  traces agree, 1 otherwise.

Kept out of :mod:`repro.cli` so the observability layer owns its whole
surface; :mod:`repro.cli` only registers the subparser.  ``repro.obs``
never imports the experiment stack (REP007 layering): the run-once
entry point is injected by the composition root, exactly like the
config factory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from repro.obs.export import (
    load_trace,
    run_result_record,
    validate_trace_lines,
    write_trace,
)
from repro.obs.report import explain, render_phase_report
from repro.obs.telemetry import RunTelemetry

__all__ = ["add_trace_arguments", "run_trace"]


def add_trace_arguments(parser: argparse.ArgumentParser) -> None:
    """Register ``repro trace``'s own options (run options are shared)."""
    parser.add_argument(
        "--out", default=None, metavar="FILE",
        help="write the full repro-trace/1 JSONL trace to this file",
    )
    parser.add_argument(
        "--explain", type=int, default=None, metavar="MEMBER",
        help="print a causal account of why this member's aggregate "
             "was (in)complete",
    )
    parser.add_argument(
        "--input", default=None, metavar="FILE",
        help="query an existing trace file instead of running",
    )
    parser.add_argument(
        "--validate", default=None, metavar="FILE",
        help="validate a trace file against the repro-trace/1 schema "
             "and exit (0 = conformant)",
    )
    parser.add_argument(
        "--diff", nargs=2, default=None,
        metavar=("TRACE_A", "TRACE_B"),
        help="compare two trace files and report the first divergent "
             "phase event/round per member (0 = identical)",
    )
    parser.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="cap on stored phase/engine events (counters stay exact)",
    )
    parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="also write the repro-run/1 result record ('-' = stdout)",
    )
    parser.add_argument(
        "--budgets", action="store_true",
        help="print the per-phase round-budget report (rounds/"
             "messages/bytes shares; works in run and --input modes)",
    )
    parser.add_argument(
        "--budgets-json", default=None, metavar="FILE",
        help="also write the repro-budgets/1 record ('-' = stdout)",
    )


def _usage_error(message: str) -> int:
    """Report a bad argument as the other verbs do: exit status 2."""
    print(f"repro: error: {message}", file=sys.stderr)
    return 2


def _validate(path: str) -> int:
    with open(path) as handle:
        errors = validate_trace_lines(handle)
    if errors:
        for error in errors:
            print(f"INVALID {path}: {error}")
        return 1
    print(f"{path}: valid repro-trace/1")
    return 0


def _budgets(document, args: argparse.Namespace) -> int:
    """Render/emit the per-phase budget report for a loaded trace."""
    from repro.obs.budgets import budget_report

    try:
        report = budget_report(document)
    except ValueError as exc:
        print(f"cannot budget: {exc}")
        return 1
    if args.budgets:
        print(report.render())
    if args.budgets_json:
        text = report.to_json() + "\n"
        if args.budgets_json == "-":
            print(text, end="")
        else:
            with open(args.budgets_json, "w") as handle:
                handle.write(text)
            print(f"wrote {args.budgets_json}")
    return 0


def _query(args: argparse.Namespace) -> int:
    document = load_trace(args.input)
    if args.budgets or args.budgets_json:
        return _budgets(document, args)
    if args.explain is not None:
        print(explain(document, args.explain))
        return 0
    summary = document.summary or {}
    print(f"{args.input}: {len(document.records)} records")
    print(
        f"bump-ups: {summary.get('bump_up_early', 0)} early, "
        f"{summary.get('bump_up_timeout', 0)} timeout; "
        f"{summary.get('finalize', 0)} finalized "
        f"({summary.get('incomplete_finalizes', 0)} incomplete)"
    )
    return 0


def run_trace(args: argparse.Namespace, make_config, run_once) -> int:
    """Execute the trace verb.  ``make_config(args) -> RunConfig``.

    Both the config factory and ``run_once`` (the experiment-runner
    entry point) are injected by :mod:`repro.cli`: the observability
    layer is a pure consumer of the layers below the experiment stack
    and must never import it (REP007).  ``--validate``/``--input``/
    ``--diff`` work without either.
    """
    for path in (args.validate, args.input, *(args.diff or ())):
        if path is not None and not (os.path.isfile(path)
                                     and os.access(path, os.R_OK)):
            return _usage_error(f"cannot read trace file {path!r}")
    if args.max_events is not None and args.max_events < 0:
        return _usage_error(
            f"--max-events must be >= 0, got {args.max_events}"
        )
    if args.validate is not None:
        return _validate(args.validate)
    if args.diff is not None:
        from repro.obs.diff import diff_traces, render_diff

        delta = diff_traces(
            load_trace(args.diff[0]), load_trace(args.diff[1])
        )
        print(render_diff(delta, args.diff[0], args.diff[1]))
        return 0 if delta.identical else 1
    if args.input is not None:
        return _query(args)
    from repro.sim.trace import Tracer
    from repro.obs.phase import PhaseTrace

    if args.max_events is not None:
        telemetry = RunTelemetry(
            tracer=Tracer(max_events=args.max_events),
            phase_trace=PhaseTrace(max_events=args.max_events),
        )
    else:
        telemetry = RunTelemetry()
    config = make_config(args)
    result = run_once(config, telemetry=telemetry)
    print(render_phase_report(telemetry))
    if args.out:
        lines = write_trace(telemetry, args.out)
        print(f"wrote {args.out} ({lines} records)")
    if args.json:
        record = run_result_record(result)
        text = json.dumps(record, indent=2, sort_keys=True) + "\n"
        if args.json == "-":
            print(text, end="")
        else:
            with open(args.json, "w") as handle:
                handle.write(text)
            print(f"wrote {args.json}")
    if args.explain is not None or args.budgets or args.budgets_json:
        buffer = io.StringIO()
        write_trace(telemetry, buffer)
        buffer.seek(0)
        document = load_trace(buffer)
        if args.explain is not None:
            print()
            print(explain(document, args.explain))
        if args.budgets or args.budgets_json:
            print()
            status = _budgets(document, args)
            if status:
                return status
    return 0
