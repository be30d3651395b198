"""Command-line interface: reproduce any figure or run a one-off aggregation.

Examples::

    python -m repro list
    python -m repro fig4
    python -m repro fig7 --runs 10 --csv fig7.csv
    python -m repro run --n 400 --protocol hierarchical_gossip --ucastl 0.3
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main"]

#: Subcommand names for the figure registry, pinned statically so that
#: building the parser never imports the numpy/scipy-backed figure
#: implementations (keeps stdlib-only verbs like ``lint`` fast).  A CLI
#: test asserts this stays equal to ``tuple(ALL_FIGURES)``.
FIGURE_IDS = (
    "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
    "baselines", "complexity", "approx-n", "start-spread",
    "partial-views",
)


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=200, help="group size")
    parser.add_argument("--k", type=int, default=4, help="members per box")
    parser.add_argument("--protocol", default="hierarchical_gossip")
    parser.add_argument("--ucastl", type=float, default=0.25,
                        help="unicast loss probability")
    parser.add_argument("--pf", type=float, default=0.001,
                        help="per-round crash probability")
    parser.add_argument("--partl", type=float, default=None,
                        help="cross-partition loss (enables two-half split)")
    parser.add_argument("--fanout", type=int, default=2, help="gossip fanout M")
    parser.add_argument("--c", type=float, default=1.0,
                        help="rounds-per-phase factor C")
    parser.add_argument("--aggregate", default="average")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--push-pull", action="store_true",
                        help="answer gossip with the receiver's state")
    parser.add_argument("--single-value", action="store_true",
                        help="strict one-value-per-message protocol text")
    parser.add_argument("--view-size", type=int, default=None,
                        help="partial views: members known per member")
    parser.add_argument("--start-spread", type=int, default=0,
                        help="multicast-wave start stagger in rounds")
    parser.add_argument("--n-estimate", type=int, default=None,
                        help="build the hierarchy for this N estimate")


def _parse_endpoint(value: str) -> tuple[str, int]:
    """argparse type for HOST:PORT addresses (``repro serve --seed``)."""
    host, __, port = value.rpartition(":")
    if not host:
        raise argparse.ArgumentTypeError(
            f"address {value!r} is not HOST:PORT"
        )
    try:
        return (host, int(port))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"port in {value!r} is not an integer"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Scalable Fault-Tolerant Aggregation in Large "
            "Process Groups' (DSN 2001)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible figures")

    for figure_id in FIGURE_IDS:
        figure_parser = sub.add_parser(
            figure_id, help=f"reproduce {figure_id}"
        )
        figure_parser.add_argument(
            "--runs", type=int, default=None,
            help="simulation runs per point (simulated figures only)",
        )
        figure_parser.add_argument(
            "--seed", type=int, default=None, help="base seed"
        )
        figure_parser.add_argument(
            "--csv", default=None, help="also write the series to this file"
        )
        figure_parser.add_argument(
            "--jobs", default=None, metavar="N",
            help="worker processes for the seeded runs (0 or 'auto' = one "
                 "per core; default: $REPRO_JOBS, else serial); results "
                 "are bit-identical to serial for any value",
        )

    run_parser = sub.add_parser("run", help="run one aggregation")
    _add_run_arguments(run_parser)
    run_parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the result as a repro-run/1 JSON record "
             "('-' = stdout; see docs/OBSERVABILITY.md)",
    )

    trace_parser = sub.add_parser(
        "trace",
        help="run one aggregation with phase tracing and explain it",
        description=(
            "Execute one configured run with full telemetry attached "
            "(protocol phase events, engine events, per-round metrics), "
            "print a phase-by-phase report, optionally export the "
            "repro-trace/1 JSONL (--out), explain a member's "
            "(in)completeness (--explain), query an existing trace "
            "(--input) or validate one (--validate).  Tracing never "
            "changes results: a traced run is byte-identical to an "
            "untraced one."
        ),
    )
    _add_run_arguments(trace_parser)
    from repro.obs.cli import add_trace_arguments

    add_trace_arguments(trace_parser)

    chaos_parser = sub.add_parser(
        "chaos",
        help="sweep chaos campaigns against the Theorem 1 bound",
        description=(
            "Run named fault-injection campaigns (repro.chaos) against a "
            "grid of (N, K, fanout) points and report whether measured "
            "completeness meets Theorem 1's 1 - 1/N floor where the "
            "theorem's assumptions hold.  Output is byte-deterministic "
            "under a fixed seed for any --jobs value."
        ),
    )
    chaos_parser.add_argument(
        "--list", action="store_true", dest="list_campaigns",
        help="list available campaigns and exit",
    )
    chaos_parser.add_argument(
        "--matrix", action="store_true",
        help="cross-baseline mode: run every campaign (benign and "
             "adversarial) against hierarchical gossip and the flood / "
             "centralized / leader-election baselines at one (N, K, "
             "fanout) point, reporting completeness, message overhead "
             "and the adversarial detection rate per cell",
    )
    chaos_parser.add_argument(
        "--protocol", action="append", default=None, metavar="P",
        help="protocol for --matrix (repeatable; default: hierarchical_"
             "gossip flood centralized leader_election)",
    )
    chaos_parser.add_argument(
        "--campaign", action="append", default=None, metavar="NAME",
        help="campaign to run (repeatable; default: all campaigns)",
    )
    chaos_parser.add_argument(
        "--n", action="append", type=int, default=None, metavar="N",
        help="group size to sweep (repeatable; default: 64 256)",
    )
    chaos_parser.add_argument(
        "--k", action="append", type=int, default=None, metavar="K",
        help="members per box to sweep (repeatable; default: 4)",
    )
    chaos_parser.add_argument(
        "--fanout", action="append", type=int, default=None, metavar="M",
        help="gossip fanout to sweep (repeatable; default: 6, which "
             "gives b >= 4 at the paper's loss/crash rates)",
    )
    chaos_parser.add_argument("--runs", type=int, default=3,
                              help="seeded runs per cell")
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument("--ucastl", type=float, default=0.25)
    chaos_parser.add_argument("--pf", type=float, default=0.001)
    chaos_parser.add_argument(
        "--adaptive", action="store_true",
        help="enable adaptive phase deadlines (protocol hardening)",
    )
    chaos_parser.add_argument(
        "--retransmit", type=int, default=0, metavar="R",
        help="final-phase representative retransmission budget",
    )
    chaos_parser.add_argument(
        "--jobs", default=None, metavar="N",
        help="worker processes (0 or 'auto' = one per core; results are "
             "bit-identical to serial for any value)",
    )
    chaos_parser.add_argument(
        "--assert-bound", action="store_true",
        help="exit non-zero if any applicable cell misses 1 - 1/N",
    )
    chaos_parser.add_argument(
        "--json", default=None, metavar="FILE",
        help="write the full repro-robustness/1 report as JSON "
             "('-' = stdout)",
    )
    chaos_parser.add_argument("--csv", default=None, metavar="FILE",
                              help="write the report as CSV")

    lint_parser = sub.add_parser(
        "lint",
        help="run the determinism/invariant static-analysis rules",
        description=(
            "Repo-specific static analysis.  Per-file AST rules "
            "(REP001-REP006): raw RNG outside RngRegistry, "
            "wall-clock calls in any unit a simulated run executes, "
            "unordered set iteration, truthiness-vs-is-None on "
            "containers, mutable shared state, and float sort keys "
            "without a stable tie-break.  One rule over the import "
            "graph (REP007): "
            "a unit imports only what the layering spec allows, which "
            "is also what bounds the wall-clock rule's scope.  Exit "
            "0 = clean, 1 = violations, 2 = usage error.  See "
            "docs/STATIC_ANALYSIS.md."
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)

    serve_parser = sub.add_parser(
        "serve",
        help="run live UDP nodes computing an aggregate (see docs/NET.md)",
        description=(
            "Host aggregation-protocol members on localhost UDP.  By "
            "default all --members nodes run in this process on ports "
            "--port .. --port+N-1 with node 0 as the bootstrap seed; "
            "--node ID hosts a single member that joins via --seed "
            "HOST:PORT.  Exits 0 on convergence or SIGTERM, 1 if "
            "--deadline elapses first."
        ),
    )
    serve_parser.add_argument(
        "--port", type=int, default=9300,
        help="base UDP port (group mode) or this node's port",
    )
    serve_parser.add_argument(
        "--members", type=int, default=8, help="group size N",
    )
    serve_parser.add_argument(
        "--seed", type=_parse_endpoint, default=None, metavar="HOST:PORT",
        help="bootstrap seed address (single-node mode)",
    )
    serve_parser.add_argument(
        "--node", type=int, default=None, metavar="ID",
        help="host only this member id (default: whole group)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1")
    serve_parser.add_argument(
        "--run-seed", type=int, default=0,
        help="the deterministic experiment seed (votes and gossip draws)",
    )
    serve_parser.add_argument("--k", type=int, default=4)
    serve_parser.add_argument("--aggregate", default="average")
    serve_parser.add_argument("--fanout", type=int, default=2)
    serve_parser.add_argument(
        "--rounds-factor-c", type=float, default=1.0,
    )
    serve_parser.add_argument(
        "--tick", type=float, default=0.05, metavar="SECONDS",
        help="wall-clock length of one gossip round",
    )
    serve_parser.add_argument(
        "--deadline", type=float, default=30.0, metavar="SECONDS",
        help="give up (exit 1) if not converged in time; 0 = no deadline",
    )
    serve_parser.add_argument(
        "--json", action="store_true",
        help="print the final repro-run/1 record (group mode)",
    )
    serve_parser.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help=(
            "expose each node's metrics over HTTP (Prometheus text at "
            "/metrics, repro-metrics/1 JSON at /metrics.json); group "
            "mode uses PORT .. PORT+N-1"
        ),
    )
    serve_parser.add_argument(
        "--linger", type=float, default=0.0, metavar="SECONDS",
        help=(
            "keep serving (and exposing metrics) this long after "
            "convergence; SIGTERM ends the linger early and still "
            "exits 0"
        ),
    )

    top_parser = sub.add_parser(
        "top",
        help="live terminal view over node metrics endpoints",
        description=(
            "Poll one or many repro serve --metrics-port endpoints "
            "and render a per-node table (round, state, datagram "
            "rates, rejections, suspicion).  --once --json emits a "
            "single repro-top/1 snapshot for scripting."
        ),
    )
    from repro.net.top import add_top_arguments

    add_top_arguments(top_parser)
    return parser


def _run_figure(figure_id: str, args: argparse.Namespace) -> int:
    import inspect

    from repro.experiments.figures import ALL_FIGURES
    from repro.experiments.params import ConfigError

    figure_fn = ALL_FIGURES[figure_id]
    if args.runs is not None and args.runs < 1:
        raise ConfigError(f"runs must be >= 1, got {args.runs}")
    # Analytic figures take no runs/seed/jobs: pass what the figure takes.
    accepted = inspect.signature(figure_fn).parameters
    given = {"runs": args.runs, "seed": args.seed, "jobs": args.jobs}
    result = figure_fn(**{
        name: value for name, value in given.items()
        if value is not None and name in accepted
    })
    print(result.render())
    if args.csv:
        _write_output(args.csv, result.to_csv())
    return 0


def _write_output(target: str, text: str) -> None:
    """Write ``text`` to stdout (``-``) or to the file ``target``."""
    if target == "-":
        print(text, end="")
        return
    with open(target, "w") as handle:
        handle.write(text)
    print(f"wrote {target}")


def _config_from_args(args: argparse.Namespace):
    """Build the :class:`RunConfig` shared by ``run`` and ``trace``."""
    from repro.experiments.params import with_params

    return with_params(
        n=args.n,
        k=args.k,
        protocol=args.protocol,
        ucastl=args.ucastl,
        pf=args.pf,
        partl=args.partl,
        fanout_m=args.fanout,
        rounds_factor_c=args.c,
        aggregate=args.aggregate,
        seed=args.seed,
        push_pull=args.push_pull,
        batch_values=not args.single_value,
        view_size=args.view_size,
        start_spread=args.start_spread,
        n_estimate=args.n_estimate,
    )


def _run_single(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_once

    config = _config_from_args(args)
    result = run_once(config)
    print(f"protocol            : {config.protocol}")
    print(f"group size N        : {config.n}")
    print(f"true {config.aggregate:<15}: {result.true_value:.6f}")
    print(f"mean completeness   : {result.completeness:.6f}")
    print(f"mean incompleteness : {result.incompleteness:.3e}")
    print(f"mean estimate error : {result.mean_estimate_error:.6f}")
    print(f"rounds              : {result.rounds}")
    print(f"messages sent       : {result.messages_sent}")
    print(f"messages dropped    : {result.messages_dropped}")
    print(f"crashes             : {result.crashes}")
    if args.json:
        import json

        from repro.obs.export import run_result_record

        _write_output(args.json, json.dumps(
            run_result_record(result), indent=2, sort_keys=True
        ) + "\n")
    return 0


def _run_chaos(args: argparse.Namespace) -> int:
    from repro.chaos import CAMPAIGNS, campaign_names
    from repro.experiments.params import ConfigError
    from repro.experiments.robustness import robustness_matrix

    if args.list_campaigns:
        for name in campaign_names():
            print(f"{name:<16} {CAMPAIGNS[name].description}")
        return 0
    campaigns = tuple(args.campaign) if args.campaign else None
    if args.matrix:
        return _run_chaos_matrix(args, campaigns)
    if args.protocol:
        raise ConfigError(
            "--protocol needs --matrix; the campaign sweep runs "
            "hierarchical_gossip"
        )
    report = robustness_matrix(
        campaigns=campaigns,
        ns=tuple(args.n) if args.n else (64, 256),
        ks=tuple(args.k) if args.k else (4,),
        fanouts=tuple(args.fanout) if args.fanout else (6,),
        runs=args.runs,
        seed=args.seed,
        ucastl=args.ucastl,
        pf=args.pf,
        adaptive_deadlines=args.adaptive,
        final_retransmit=args.retransmit,
        jobs=args.jobs,
    )
    print(report.render())
    if args.json:
        _write_output(args.json, report.to_json())
    if args.csv:
        _write_output(args.csv, report.to_csv())
    if args.assert_bound and report.violations:
        print(f"BOUND VIOLATED in {len(report.violations)} cell(s)")
        return 1
    return 0


def _run_chaos_matrix(
    args: argparse.Namespace, campaigns: tuple[str, ...] | None
) -> int:
    from repro.experiments.params import ConfigError
    from repro.experiments.robustness import (
        MATRIX_PROTOCOLS,
        robustness_comparison,
    )

    # The matrix runs one (N, K, fanout) point with the paper protocol.
    for flag, values in (("--n", args.n), ("--k", args.k),
                         ("--fanout", args.fanout)):
        if values and len(values) > 1:
            raise ConfigError(f"--matrix runs one point; got {flag} "
                              f"{len(values)} times")
    for flag, given in (("--adaptive", args.adaptive),
                        ("--retransmit", args.retransmit),
                        ("--assert-bound", args.assert_bound)):
        if given:
            raise ConfigError(f"{flag} does not apply to --matrix")
    matrix = robustness_comparison(
        campaigns=campaigns,
        protocols=(
            tuple(args.protocol) if args.protocol else MATRIX_PROTOCOLS
        ),
        n=args.n[0] if args.n else 64,
        k=args.k[0] if args.k else 4,
        fanout=args.fanout[0] if args.fanout else 6,
        runs=args.runs,
        seed=args.seed,
        ucastl=args.ucastl,
        pf=args.pf,
        jobs=args.jobs,
    )
    print(matrix.render())
    if args.json:
        _write_output(args.json, matrix.to_json())
    if args.csv:
        _write_output(args.csv, matrix.to_csv())
    return 0


def main(argv: list[str] | None = None) -> int:
    # SIGTERM runs registered cleanups, then exits 143; atexit alone
    # never fires on a signal death, so pools used to leak (see
    # repro.shutdown).  SIGINT keeps KeyboardInterrupt semantics.
    from repro import shutdown

    shutdown.install()
    try:
        return _dispatch(build_parser().parse_args(argv))
    finally:
        # Reap the invocation's shared worker pools.  Pools can only
        # exist if the parallel module was imported, so going through
        # sys.modules keeps stdlib-only verbs from paying the import.
        parallel = sys.modules.get("repro.experiments.parallel")
        if parallel is not None:
            parallel.close_shared_runners()


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "lint":
        from repro.lint.cli import run_lint

        return run_lint(args)
    if args.command == "serve":
        from repro.net.serve import run_serve

        return run_serve(args)
    if args.command == "top":
        from repro.net.top import run_top

        return run_top(args)
    # The remaining verbs build RunConfigs; parameters no world can be
    # built from are a usage error (argparse's exit 2), not a traceback.
    from repro.experiments.params import ConfigError

    try:
        return _dispatch_runs(args)
    except ConfigError as error:
        print(f"repro: error: {error}", file=sys.stderr)
        return 2


def _dispatch_runs(args: argparse.Namespace) -> int:
    if args.command == "list":
        from repro.experiments.figures import ALL_FIGURES

        for figure_id, figure_fn in ALL_FIGURES.items():
            doc = (figure_fn.__doc__ or "").strip().splitlines()[0]
            print(f"{figure_id:<14} {doc}")
        return 0
    if args.command == "run":
        return _run_single(args)
    if args.command == "trace":
        from repro.experiments.runner import run_once
        from repro.obs.cli import run_trace

        return run_trace(args, _config_from_args, run_once)
    if args.command == "chaos":
        return _run_chaos(args)
    return _run_figure(args.command, args)


if __name__ == "__main__":
    sys.exit(main())
