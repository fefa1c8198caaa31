"""Command-line interface: explore the RRFD model zoo from a shell.

Subcommands::

    python -m repro models                      # the predicate catalog
    python -m repro run kset --n 8 --k 3        # run a protocol in a model
    python -m repro run consensus --n 5
    python -m repro run floodmin --n 6 --f 2 --k 2
    python -m repro lattice --n 3 --f 1 --k 2   # the submodel matrix
    python -m repro complex --n 3               # one-round protocol complexes
    python -m repro certify --n 3 --f 1 --rounds 1   # lower-bound search
    python -m repro chaos --n 6 --f 2 --drop 0.2     # overlay under fault injection
    python -m repro bench E1 E5 --workers 8 --json out/   # experiment sweeps
    python -m repro serve --n 4 --instances 5 --plan drop  # live asyncio service
    python -m repro load --instances 100 --plan ci --metrics  # live load run
    python -m repro check --spec kset --exhaustive   # conformance certification
    python -m repro check --spec floodset --fuzz 500 --n 6
    python -m repro ho --list                        # the HO predicate catalog
    python -m repro ho --derive ci --n 3             # FaultPlan -> HO predicate
    python -m repro ho --certify --n 3 --save out/   # equivalence/separation

All commands are deterministic given ``--seed``; ``bench`` results are
deterministic for every worker count by construction.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.complexes import consensus_disconnection
from repro.analysis.enumeration import enumerate_executions
from repro.analysis.lattice import compute_lattice, standard_catalog
from repro.analysis.solvability import kset_solvable
from repro.core.audit import ExecutionAuditor
from repro.core.detector import RoundByRoundFaultDetector
from repro.core.predicates import (
    AsyncMessagePassing,
    AtomicSnapshot,
    CrashSync,
    KSetDetector,
    SemiSyncEquality,
    SharedMemorySWMR,
)
from repro.protocols.floodset import floodmin_protocol, rounds_needed
from repro.protocols.kset import kset_protocol
from repro.util.render import render_trace

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Round-by-Round Fault Detectors (Gafni, PODC 1998) — "
        "unified models of distributed computing, executable.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the predicate catalog")

    run = sub.add_parser("run", help="run a protocol under a model")
    run.add_argument("protocol", choices=["kset", "consensus", "floodmin"])
    run.add_argument("--n", type=int, default=6, help="number of processes")
    run.add_argument("--k", type=int, default=2, help="agreement parameter k")
    run.add_argument("--f", type=int, default=1, help="fault budget (floodmin)")
    run.add_argument("--seed", type=int, default=0)

    lattice = sub.add_parser("lattice", help="print the submodel matrix")
    lattice.add_argument("--n", type=int, default=3)
    lattice.add_argument("--f", type=int, default=1)
    lattice.add_argument("--k", type=int, default=2)
    lattice.add_argument("--t", type=int, default=1)
    lattice.add_argument("--rounds", type=int, default=2)

    complex_ = sub.add_parser(
        "complex", help="one-round protocol complexes of the catalog"
    )
    complex_.add_argument("--n", type=int, default=3)
    complex_.add_argument("--f", type=int, default=1)

    certify = sub.add_parser(
        "certify", help="exhaustive k-set solvability search (tiny n!)"
    )
    certify.add_argument("--n", type=int, default=3)
    certify.add_argument("--f", type=int, default=1)
    certify.add_argument("--k", type=int, default=1)
    certify.add_argument("--rounds", type=int, default=1)
    certify.add_argument(
        "--domain", type=int, default=None,
        help="input domain size (default k+1)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the reliable round overlay under message-level fault injection",
    )
    chaos.add_argument("--n", type=int, default=6)
    chaos.add_argument("--f", type=int, default=2)
    chaos.add_argument("--rounds", type=int, default=5)
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--drop", type=float, default=0.2,
                       help="per-message drop probability")
    chaos.add_argument("--dup", type=float, default=0.05,
                       help="per-message duplication probability")
    chaos.add_argument("--jitter", type=float, default=5.0,
                       help="extra uniform latency (reorders messages)")
    chaos.add_argument("--crashes", type=int, default=0,
                       help="crash this many processes at staggered times")
    chaos.add_argument("--recover-after", type=float, default=None,
                       help="crashed processes come back after this long")
    chaos.add_argument("--unreliable", action="store_true",
                       help="plain overlay (no ack/retransmit) — expect a stall")
    chaos.add_argument("--metrics", action="store_true", dest="show_metrics",
                       help="collect and print the unified metrics registry")
    chaos.add_argument("--trace-out", metavar="PATH", default=None,
                       help="stream structured events (rrfd-events-v1 JSONL) "
                       "to PATH")

    bench = sub.add_parser(
        "bench",
        help="run declarative experiment sweeps; emit BENCH_*.json artifacts",
    )
    bench.add_argument(
        "ids", nargs="*", metavar="ID",
        help="experiment ids (E1, E5, ...); a base id selects its variants "
        "(E6 -> E6, E6b); none selects all",
    )
    bench.add_argument("--list", action="store_true", dest="list_experiments",
                       help="list registered experiments and exit")
    bench.add_argument("--workers", type=int, default=None,
                       help="worker processes (default: RRFD_BENCH_WORKERS or 1)")
    bench.add_argument("--samples", type=int, default=None,
                       help="override each experiment's per-cell sample count")
    bench.add_argument("--json", dest="json_dir", default=None, metavar="DIR",
                       help="write BENCH_<id>.json per experiment plus a "
                       "merged BENCH_SUMMARY.json to DIR")
    bench.add_argument("--speedup", action="store_true",
                       help="also run serially, verify identical results, and "
                       "record the parallel speedup in the artifacts")
    bench.add_argument("--quiet", action="store_true",
                       help="suppress the report tables (artifacts only)")
    bench.add_argument("--id", action="append", dest="id_flags", metavar="ID",
                       default=None,
                       help="experiment id (repeatable; merged with the "
                       "positional ids)")
    bench.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write structured events (rrfd-events-v1 JSONL) "
                       "to PATH; the deterministic payload is bit-identical "
                       "across worker counts")
    bench.add_argument("--metrics", action="store_true", dest="show_metrics",
                       help="collect the unified metrics registry per "
                       "experiment, print it, and embed it in the BENCH "
                       "artifacts")

    serve = sub.add_parser(
        "serve",
        help="run live protocol instances on the asyncio service runtime "
        "(real localhost sockets) and audit the projected traces",
    )
    serve.add_argument("--n", type=int, default=4, help="live processes")
    serve.add_argument("--f", type=int, default=1, help="fault budget")
    serve.add_argument("--protocol", default="consensus",
                       choices=("consensus", "kset", "adopt-commit", "mix"))
    serve.add_argument("--instances", type=int, default=1,
                       help="concurrent protocol instances")
    serve.add_argument("--k", type=int, default=1, help="k for kset")
    serve.add_argument("--plan", default="none",
                       help="named fault plan: none|drop|partition|ci|chaos")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--deadline", type=float, default=2.0,
                       help="per-round deadline in seconds before the round "
                       "degrades (advance with suspected set, or park)")
    serve.add_argument("--metrics", action="store_true", dest="show_metrics",
                       help="collect and print the unified metrics registry "
                       "(service.* counters + queue high-water gauge)")
    serve.add_argument("--trace-out", metavar="PATH", default=None,
                       help="stream structured events (rrfd-events-v1 JSONL) "
                       "to PATH")

    load = sub.add_parser(
        "load",
        help="load-generate many live instances under a named chaos plan; "
        "report throughput/latency/robustness",
    )
    load.add_argument("--n", type=int, default=4)
    load.add_argument("--f", type=int, default=1)
    load.add_argument("--instances", type=int, default=100)
    load.add_argument("--protocol", default="mix",
                      choices=("consensus", "kset", "adopt-commit", "mix"))
    load.add_argument("--plan", default="none",
                      help="named fault plan: none|drop|partition|ci|chaos")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--deadline", type=float, default=2.0,
                      help="per-round deadline in seconds")
    load.add_argument("--json", dest="json_path", metavar="PATH", default=None,
                      help="write the run summary as JSON to PATH")
    load.add_argument("--metrics", action="store_true", dest="show_metrics",
                      help="collect and print the unified metrics registry")
    load.add_argument("--trace-out", metavar="PATH", default=None,
                      help="stream structured events (rrfd-events-v1 JSONL) "
                      "to PATH")

    check = sub.add_parser(
        "check",
        help="conformance-check protocols against their model predicates",
    )
    check.add_argument("--spec", action="append", dest="specs", metavar="NAME",
                       help="spec to check (repeatable; default: all)")
    check.add_argument("--list", action="store_true", dest="list_specs",
                       help="list registered conformance specs and exit")
    mode = check.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="enumerate EVERY admissible D-history (small n)")
    mode.add_argument("--fuzz", type=int, default=None, metavar="N",
                      help="run N randomized conformance samples instead")
    check.add_argument("--n", type=int, default=None,
                       help="system size (default: per-spec)")
    check.add_argument("--rounds", type=int, default=None,
                       help="history depth (default: per-spec)")
    check.add_argument("--workers", type=int, default=1,
                       help="drain the exhaustive search's task list with "
                       "this many processes (replay always runs in-process)")
    check.add_argument("--progress", action="store_true",
                       help="emit a periodic check.progress heartbeat "
                       "(obs event + stderr line) during exhaustive runs")
    check.add_argument("--bfs", action="store_true",
                       help="disk-backed breadth-first certification: "
                       "frontier segments spill to --checkpoint and the "
                       "run can be resumed")
    check.add_argument("--checkpoint", metavar="DIR", default=None,
                       help="checkpoint directory for --bfs (default: a "
                       "temporary directory, discarded at exit)")
    check.add_argument("--resume", action="store_true",
                       help="resume an interrupted --bfs certification "
                       "from --checkpoint")
    check.add_argument("--segment-size", type=int, default=4096,
                       metavar="N",
                       help="--bfs frontier prefixes per on-disk segment")
    check.add_argument("--max-tasks", type=int, default=None, metavar="N",
                       help="stop a --bfs run after N tasks this "
                       "invocation (checkpointed partial run; resume "
                       "later with --resume; a partial sitting exits "
                       "with code 3, never 0)")
    check.add_argument("--prune-decided", action="store_true",
                       help="stop extending histories once everyone decided")
    check.add_argument("--engine", choices=("incremental", "replay"),
                       default="incremental",
                       help="exhaustive engine: fork executors along the DFS "
                       "(incremental, default) or replay each history from "
                       "round 1")
    check.add_argument("--no-symmetry", action="store_true",
                       help="disable symmetry reduction (on by default for "
                       "specs that declare a symmetry grade; disable for "
                       "full-strength per-history certification)")
    check.add_argument("--no-bitset", action="store_true",
                       help="force the set-based reference path instead of "
                       "the packed integer-bitmask kernel (same verdicts; "
                       "used for differential certification)")
    check.add_argument("--seed", type=int, default=0, help="fuzz seed")
    check.add_argument("--shrink", action="store_true",
                       help="delta-debug each violation to a minimal "
                       "counterexample")
    check.add_argument("--save", metavar="DIR", default=None,
                       help="write shrunk counterexamples as "
                       "rrfd-counterexample-v1 JSON under DIR")
    check.add_argument("--trace-out", metavar="PATH", default=None,
                       help="write structured events (rrfd-events-v1 JSONL) "
                       "to PATH")
    check.add_argument("--metrics", action="store_true", dest="show_metrics",
                       help="collect and print the unified metrics registry")

    ho = sub.add_parser(
        "ho",
        help="Heard-Of model: derive predicates from fault plans, certify "
             "equivalence/separation between predicates",
    )
    ho.add_argument("--list", action="store_true", dest="list_predicates",
                    help="list the HO predicate catalog and HO specs")
    ho.add_argument("--derive", metavar="PLAN", default=None,
                    help="derive the HO predicate a named chaos plan "
                    "guarantees (none/drop/partition/ci/chaos), then check "
                    "it against projected executions")
    ho.add_argument("--certify", action="store_true",
                    help="run the standard certificate suite: exhaustive "
                    "equivalence + containments + a shrunk, replay-verified "
                    "separation witness")
    ho.add_argument("--n", type=int, default=3, help="system size")
    ho.add_argument("--rounds", type=int, default=2,
                    help="certification depth (rounds per history)")
    ho.add_argument("--seeds", type=int, default=20,
                    help="projected executions per --derive soundness check")
    ho.add_argument("--no-bitset", action="store_true",
                    help="use the set-based reference path instead of the "
                    "packed kernels (same verdicts)")
    ho.add_argument("--save", metavar="DIR", default=None,
                    help="write certificates/witnesses as JSON under DIR")

    cc = sub.add_parser(
        "cc",
        help="communication-closure compiler: compile async protocols onto "
             "rounds, certify recorded async traces, project them to round "
             "traces",
    )
    ccsub = cc.add_subparsers(dest="cc_command", required=True)

    cc_compile = ccsub.add_parser(
        "compile",
        help="compile a cc catalog protocol and smoke-run it on the "
             "reliable overlay",
    )
    cc_compile.add_argument("protocol", nargs="?", default=None,
                            help="cc catalog name (cc-consensus | cc-kset | "
                            "cc-adopt-commit | cc-echo-min)")
    cc_compile.add_argument("--list", action="store_true", dest="list_catalog",
                            help="list the cc catalog and cc-* specs, then exit")
    cc_compile.add_argument("--n", type=int, default=4)
    cc_compile.add_argument("--f", type=int, default=1)
    cc_compile.add_argument("--k", type=int, default=1)
    cc_compile.add_argument("--seed", type=int, default=0)
    cc_compile.add_argument("--plan", choices=("none", "drop", "ci"),
                            default="none",
                            help="simulated fault plan for the smoke run")

    cc_certify = ccsub.add_parser(
        "certify",
        help="record an async execution (simulated or live) and certify it "
             "communication-closed; exit 1 on a violation",
    )
    cc_certify.add_argument("protocol", nargs="?", default=None,
                            help="cc catalog name to run and certify "
                            "(omit with --trace)")
    cc_certify.add_argument("--trace", metavar="PATH", default=None,
                            help="certify a saved repro.cc.trace/1 JSON "
                            "document instead of running")
    cc_certify.add_argument("--live", action="store_true",
                            help="record on the live asyncio service instead "
                            "of the simulated overlay")
    cc_certify.add_argument("--n", type=int, default=4)
    cc_certify.add_argument("--f", type=int, default=1)
    cc_certify.add_argument("--k", type=int, default=1)
    cc_certify.add_argument("--seed", type=int, default=0)
    cc_certify.add_argument("--plan", choices=("none", "drop", "ci"),
                            default="none",
                            help="fault plan (sim-scaled, or the service "
                            "preset under --live)")
    cc_certify.add_argument("--strict", action="store_true",
                            help="also report discarded late crossings as "
                            "violations (crossing-free runs only)")
    cc_certify.add_argument("--save", metavar="DIR", default=None,
                            help="write the recorded trace as JSON under DIR")

    cc_project = ccsub.add_parser(
        "project",
        help="certify a recorded trace and project it onto a round "
             "ExecutionTrace; optionally re-check a spec's invariants on it",
    )
    cc_project.add_argument("--trace", metavar="PATH", required=True,
                            help="saved repro.cc.trace/1 JSON document")
    cc_project.add_argument("--spec", metavar="NAME", default=None,
                            help="run this conformance spec's invariants "
                            "against the projected trace")
    return parser


def _cmd_models(args: argparse.Namespace) -> int:
    print("The RRFD predicate catalog (Sections 2, 3, 5):\n")
    for name, predicate in standard_catalog(5, 2, 3, 3):
        print(f"  {name:<12} {predicate.describe()}")
    print("\nA model is a predicate over the suspicion sets D(i, r); the")
    print("detector is the adversary.  See `repro lattice` for how they nest.")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    n, seed = args.n, args.seed
    if args.protocol == "kset":
        model = KSetDetector(n, args.k)
        protocol, max_rounds = kset_protocol(), 1
    elif args.protocol == "consensus":
        model = SemiSyncEquality(n)
        protocol, max_rounds = kset_protocol(), 1
    else:
        model = CrashSync(n, args.f)
        protocol = floodmin_protocol(args.f, args.k)
        max_rounds = rounds_needed(args.f, args.k)
    rrfd = RoundByRoundFaultDetector(model, seed=seed)
    trace = rrfd.run(protocol, inputs=list(range(n)), max_rounds=max_rounds)
    print(f"model:     {model.describe()}")
    print(f"protocol:  {args.protocol}  (inputs 0..{n - 1}, seed {seed})")
    print(render_trace(trace))
    return 0


def _cmd_lattice(args: argparse.Namespace) -> int:
    report = compute_lattice(
        args.n, f=args.f, k=args.k, t=args.t, rounds=args.rounds
    )
    print(report.format())
    print("\nY at (row, col): row is a submodel of col (P_row ⇒ P_col).")
    return 0


def _cmd_complex(args: argparse.Namespace) -> int:
    n, f = args.n, args.f
    catalog = [
        ("async-mp", AsyncMessagePassing(n, f)),
        ("swmr", SharedMemorySWMR(n, f)),
        ("snapshot", AtomicSnapshot(n, f)),
        ("kset(2)", KSetDetector(n, 2)),
        ("kset(1)", KSetDetector(n, 1)),
    ]
    print(f"{'model':<10} {'facets':>7} {'vertices':>9} {'components':>11} "
          f"{'χ':>4}  one-round consensus")
    for name, predicate in catalog:
        s = consensus_disconnection(predicate)
        verdict = "impossible" if s["connected"] else "solvable"
        print(f"{name:<10} {s['facets']:>7} {s['vertices']:>9} "
              f"{s['components']:>11} {s['euler']:>4}  {verdict}")
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    domain = list(range(args.domain if args.domain else args.k + 1))
    print(
        f"enumerating executions: n={args.n}, f={args.f}, rounds={args.rounds}, "
        f"inputs from {domain} ..."
    )
    executions = enumerate_executions(
        args.n, args.f, args.rounds, input_domain=domain
    )
    result = kset_solvable(executions, args.k)
    print(result)
    if result.solvable:
        print("a decision map exists (the task IS solvable at this round count)")
    else:
        print("no decision map exists — a finite certificate of the lower bound")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.core.algorithm import FullInformationProcess, make_protocol
    from repro.substrates.events import EventSimulator
    from repro.substrates.messaging.chaos import (
        ChaosNetwork, CrashWindow, FaultPlan, LinkFaults,
    )
    from repro.substrates.messaging.reliable import run_reliable_round_overlay
    from repro.substrates.messaging.rounds import RoundOverlayNode

    sink = open(args.trace_out, "w") if args.trace_out else None
    tracer = obs.Tracer(sink=sink) if sink is not None else None
    metrics = obs.Metrics() if args.show_metrics else None
    n, f = args.n, args.f
    faults = LinkFaults(drop_prob=args.drop, dup_prob=args.dup, jitter=args.jitter)
    crashes = {
        pid: [CrashWindow(
            5.0 * (pid + 1),
            None if args.recover_after is None
            else 5.0 * (pid + 1) + args.recover_after,
        )]
        for pid in range(args.crashes)
    }
    plan = FaultPlan(default=faults, crashes=crashes)
    protocol = make_protocol(FullInformationProcess)
    inputs = list(range(n))

    with obs.tracing(tracer), obs.collecting(metrics):
        if args.unreliable:
            # The plain overlay has no retransmission; over a lossy network
            # the expected outcome is a stall, which the watchdog attributes
            # below.
            sim = EventSimulator()
            nodes = [
                RoundOverlayNode(
                    pid, n, f, protocol.spawn(pid, n, inputs[pid]),
                    max_rounds=args.rounds, stop_on_decision=False,
                )
                for pid in range(n)
            ]
            network = ChaosNetwork(nodes, sim, plan=plan, seed=args.seed)
            network.run(max_events=500_000)
            report = ExecutionAuditor(n, f).audit_overlay(nodes, network)
            retransmissions = 0
            if metrics is not None:
                network.stats.publish(metrics, "chaos")
        else:
            result = run_reliable_round_overlay(
                protocol, inputs, f,
                max_rounds=args.rounds, seed=args.seed, plan=plan,
                stop_on_decision=False, enforce_crash_budget=False,
                on_stall="report",
            )
            network, report = result.network, result.audit
            retransmissions = result.total_retransmissions

    stats = network.stats
    overlay = "plain (no retransmit)" if args.unreliable else "reliable (ack+retry)"
    print(f"overlay:   {overlay}")
    print(f"plan:      drop={args.drop} dup={args.dup} jitter={args.jitter} "
          f"crashes={args.crashes}"
          + (f" recover_after={args.recover_after}" if args.recover_after else ""))
    print(f"traffic:   sent={stats.messages_sent} delivered={stats.messages_delivered} "
          f"dropped={stats.messages_dropped_chaos} dup={stats.messages_duplicated} "
          f"reordered={stats.messages_reordered} retransmitted={retransmissions}")
    print(report.summary())
    for violation in report.violations:
        print(f"  {violation}")
    if metrics is not None:
        print("metrics:")
        print(obs.format_metrics(metrics))
    if tracer is not None:
        sink.close()
        print(f"wrote {args.trace_out} ({tracer.emitted} events)")
    if report.stall is not None and report.stall.stalled:
        print(report.stall)
        return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.harness import (
        experiment_tables,
        render_table,
        resolve_workers,
        run_experiment,
        run_with_speedup,
    )
    from repro.harness.artifacts import (
        experiment_to_doc,
        write_experiment,
        write_summary,
    )
    from repro.harness.registry import load_experiments, select

    registry = load_experiments()
    if args.list_experiments:
        for exp in registry.values():
            cells = len(exp.grid.cells)
            print(f"  {exp.id:<5} {cells:>3} cells x {exp.samples:>5} samples  "
                  f"{exp.title}")
        return 0
    ids = list(args.ids) + list(args.id_flags or ())
    experiments = select(registry, ids)
    workers = resolve_workers(args.workers)
    # One tracer spans the whole bench run, streaming to the events file as
    # records are emitted (the sink sees every record; the in-memory ring
    # may drop old ones).  The metrics registry is fresh per experiment so
    # each BENCH artifact embeds only its own counters.
    sink = open(args.trace_out, "w") if args.trace_out else None
    tracer = obs.Tracer(sink=sink) if sink is not None else None
    docs = []
    try:
        with obs.tracing(tracer):
            for exp in experiments:
                metrics = obs.Metrics() if args.show_metrics else None
                with obs.collecting(metrics):
                    if args.speedup:
                        result = run_with_speedup(
                            exp, samples=args.samples, workers=workers
                        )
                    else:
                        result = run_experiment(
                            exp, samples=args.samples, workers=workers
                        )
                if not args.quiet:
                    for title, header, rows in experiment_tables(exp, result):
                        print(render_table(title, header, rows))
                        print()
                line = (f"[{exp.id}] {len(result.cells)} cells x "
                        f"{result.samples} samples "
                        f"in {result.wall_time:.2f}s "
                        f"({result.workers} worker(s))")
                speedup = result.meta.get("speedup")
                if speedup and speedup.get("speedup") is not None:
                    line += (f"; speedup {speedup['speedup']:.2f}x over serial "
                             f"{speedup['serial_wall_time_s']:.2f}s")
                print(line)
                if metrics is not None and not args.quiet:
                    print(f"[{exp.id}] metrics:")
                    print(obs.format_metrics(metrics))
                if args.json_dir:
                    path = write_experiment(result, args.json_dir)
                    docs.append(experiment_to_doc(result))
                    print(f"  wrote {path}")
    finally:
        if sink is not None:
            sink.close()
    if args.json_dir and docs:
        path = write_summary(docs, args.json_dir)
        print(f"  wrote {path}")
    if tracer is not None:
        print(f"  wrote {args.trace_out} ({tracer.emitted} events)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.service import (
        InstanceOutcome,
        ServiceConfig,
        audit_instance,
        named_plan,
        run_service,
    )
    from repro.service.loadgen import make_specs

    sink = open(args.trace_out, "w") if args.trace_out else None
    tracer = obs.Tracer(sink=sink) if sink is not None else None
    metrics = obs.Metrics() if args.show_metrics else None
    config = ServiceConfig(
        n=args.n, f=args.f, plan=named_plan(args.plan, args.n),
        seed=args.seed, round_deadline=args.deadline,
    )
    specs = make_specs(args.instances, args.n, args.protocol, args.k, args.seed)
    with obs.tracing(tracer), obs.collecting(metrics):
        stats, degradations, results = run_service(config, specs)
        if metrics is not None:
            stats.publish(metrics)
    print(f"service:   n={args.n} f={args.f} plan={args.plan} "
          f"deadline={args.deadline}s")
    violations = 0
    for result in results:
        report = audit_instance(result)
        violations += len(report.violations)
        decisions = sorted({repr(d) for d in result.decisions
                            if d is not None})
        print(f"  {result.spec.name:<20} {result.outcome.value:<9} "
              f"latency={result.latency:.3f}s "
              f"decisions={decisions} "
              f"audit={'OK' if report.ok else 'VIOLATIONS'}")
        for violation in report.violations:
            print(f"    {violation}")
    if len(degradations):
        print(f"degraded:  {degradations.summary()}")
    print(f"traffic:   frames={stats.frames_sent} "
          f"retries={stats.retries} retransmits={stats.retransmissions} "
          f"reconnects={stats.reconnects} "
          f"queue_high_water={stats.queue_high_water}")
    if metrics is not None:
        print("metrics:")
        print(obs.format_metrics(metrics))
    if tracer is not None:
        sink.close()
        print(f"wrote {args.trace_out} ({tracer.emitted} events)")
    parked = sum(1 for r in results if r.outcome is InstanceOutcome.PARKED)
    if violations:
        return 1
    return 0 if parked == 0 else 2


def _cmd_load(args: argparse.Namespace) -> int:
    import json

    from repro import obs
    from repro.service import run_load

    sink = open(args.trace_out, "w") if args.trace_out else None
    tracer = obs.Tracer(sink=sink) if sink is not None else None
    metrics = obs.Metrics() if args.show_metrics else None
    with obs.tracing(tracer), obs.collecting(metrics):
        result = run_load(
            n=args.n, f=args.f, instances=args.instances,
            protocol=args.protocol, plan=args.plan, seed=args.seed,
            round_deadline=args.deadline,
        )
        if metrics is not None:
            result.stats.publish(metrics)
    summary = result.summary()
    print(f"load:      n={summary['n']} f={summary['f']} "
          f"plan={summary['plan']} protocol={summary['protocol']}")
    print(f"outcomes:  {summary['instances']} instances — "
          f"{summary['decided']} decided, {summary['degraded']} degraded, "
          f"{summary['parked']} parked ({summary['degradation_events']} "
          f"degradation events)")
    print(f"safety:    {summary['violations']} audit violations")
    print(f"perf:      {summary['throughput']:.1f} instances/s, "
          f"latency p50={summary['latency_p50']:.3f}s "
          f"p95={summary['latency_p95']:.3f}s "
          f"({summary['duration']:.2f}s wall)")
    print(f"transport: retries={summary['retries']} "
          f"retransmits={summary['retransmissions']} "
          f"reconnects={summary['reconnects']} "
          f"queue_high_water={summary['queue_high_water']}")
    if args.json_path:
        with open(args.json_path, "w") as out:
            json.dump(summary, out, indent=2, sort_keys=True)
        print(f"wrote {args.json_path}")
    if metrics is not None:
        print("metrics:")
        print(obs.format_metrics(metrics))
    if tracer is not None:
        sink.close()
        print(f"wrote {args.trace_out} ({tracer.emitted} events)")
    return 1 if summary["violations"] else 0


def _cmd_check(args: argparse.Namespace) -> int:
    from repro import obs
    from repro.check import (
        explore, fuzz, get_spec, save_counterexample, shrink, spec_names,
    )

    if args.list_specs:
        for name in spec_names():
            spec = get_spec(name)
            mode = "exhaustive+fuzz" if spec.supports_exhaustive else "fuzz-only"
            print(f"  {name:<20} [{mode}] {spec.title}")
        return 0

    sink = open(args.trace_out, "w") if args.trace_out else None
    tracer = obs.Tracer(sink=sink) if sink is not None else None
    metrics = obs.Metrics() if args.show_metrics else None
    names = args.specs or spec_names()
    exit_code = 0
    partial_specs: list[str] = []
    for name in names:
        spec = get_spec(name)
        with obs.tracing(tracer), obs.collecting(metrics):
            if args.fuzz is not None or not spec.supports_exhaustive:
                if args.exhaustive and not spec.supports_exhaustive:
                    print(f"{name}: scheduler-driven — falling back to fuzz")
                result = fuzz(
                    spec, args.fuzz if args.fuzz is not None else 200,
                    n=args.n, rounds=args.rounds, seed=args.seed,
                )
            elif args.bfs or args.resume:
                from repro.check import explore_bfs

                result = explore_bfs(
                    spec, n=args.n, rounds=args.rounds,
                    prune_decided=args.prune_decided, workers=args.workers,
                    checkpoint=args.checkpoint, resume=args.resume,
                    segment_size=args.segment_size,
                    max_tasks=args.max_tasks, progress=args.progress,
                )
                if result.partial:
                    # A partial sitting proves nothing about the unexplored
                    # frontier — it must never exit 0 as if certification
                    # completed (exit 3 below, unless violations win with 1).
                    partial_specs.append(name)
                    print(f"{name}: partial — "
                          f"{result.scale['tasks_done']} task(s) done, "
                          f"{result.scale['tasks_pending']} pending; "
                          f"resume with --resume --checkpoint "
                          f"{result.scale['checkpoint']}")
            else:
                # --exhaustive is also the default mode for capable specs.
                result = explore(
                    spec, n=args.n, rounds=args.rounds,
                    prune_decided=args.prune_decided, workers=args.workers,
                    engine=args.engine, symmetry=not args.no_symmetry,
                    bitset=not args.no_bitset, progress=args.progress,
                )
        print(result.summary())
        for violation in result.violations[:10]:
            print(f"  {violation}")
        if len(result.violations) > 10:
            print(f"  ... and {len(result.violations) - 10} more")
        if result.violations:
            exit_code = 1
        if (args.shrink or args.save) and result.violations:
            seen: set[tuple[str, str]] = set()
            for violation in result.violations:
                key = (violation.failures[0].invariant, "")
                if key in seen or not violation.history:
                    continue
                seen.add(key)
                shrunk = shrink(spec, violation.inputs, violation.history)
                print(f"  shrunk: {shrunk.summary()}")
                print(f"    inputs:  {shrunk.inputs!r}")
                print(f"    history: {shrunk.history!r}")
                if args.save:
                    from pathlib import Path

                    out = Path(args.save)
                    out.mkdir(parents=True, exist_ok=True)
                    path = out / f"{spec.name}_{shrunk.invariant}.json"
                    save_counterexample(shrunk, path)
                    print(f"    wrote {path}")
    if metrics is not None:
        print("metrics:")
        print(obs.format_metrics(metrics))
    if tracer is not None:
        sink.close()
        print(f"wrote {args.trace_out} ({tracer.emitted} events)")
    if exit_code == 0 and partial_specs:
        return 3  # partial: certification incomplete, resume to continue
    return exit_code


def _cmd_ho(args: argparse.Namespace) -> int:
    from repro import ho
    from repro.service.loadgen import named_plan

    n = args.n
    bitset = not args.no_bitset
    did_something = False

    if args.list_predicates:
        did_something = True
        print(f"HO predicate catalog (at n={n}):\n")
        for name in ho.ho_predicate_names():
            predicate = ho.get_ho_predicate(name, n)
            fast = "packed" if predicate.suspicion().packed().fast else "set"
            print(f"  {name:<16} [{fast}] {predicate.describe()}")
        print("\nRegistered HO conformance specs:\n")
        from repro.check import get_spec, spec_names

        for name in spec_names():
            if name.startswith("ho-"):
                print(f"  {name:<20} {get_spec(name).title}")

    if args.derive is not None:
        did_something = True
        plan = named_plan(args.derive, n)
        predicate = ho.derive(plan, n)
        print(f"plan {args.derive!r} at n={n} derives: {predicate.describe()}")
        for pid, obliged in enumerate(predicate.must_hear):
            print(f"  HO({pid}, r) ⊇ {set(sorted(obliged))}")
        rounds = max(args.rounds, 1)
        for seed in range(args.seeds):
            collection = ho.project_ho(plan, n, rounds, seed=seed)
            if not predicate.allows(collection):
                print(f"  UNSOUND at seed={seed}: projected {collection!r}")
                return 1
        print(f"  sound on {args.seeds} projected executions "
              f"({rounds} rounds each)")

    if args.certify:
        did_something = True
        report = ho.certify_all(
            n=n, rounds=args.rounds, bitset=bitset, save_dir=args.save,
        )
        for line in report.summaries():
            print(line)
        print(f"all certificates replay-verified "
              f"({'packed' if bitset else 'set'} path)")
        if args.save:
            print(f"wrote artifacts under {args.save}")

    if not did_something:
        print("nothing to do: pass --list, --derive PLAN, and/or --certify")
        return 2
    return 0


def _cc_sim_plan(name: str):
    """Sim-scaled fault plans for the cc commands (sim time, not seconds)."""
    from repro.substrates.messaging.chaos import FaultPlan, LinkFaults

    if name == "none":
        return FaultPlan()
    if name == "drop":
        return FaultPlan(default=LinkFaults(drop_prob=0.2))
    return FaultPlan(  # "ci": loss + duplication + reordering jitter
        default=LinkFaults(drop_prob=0.2, dup_prob=0.1, jitter=4.0)
    )


def _cc_inputs(n: int, seed: int) -> tuple[int, ...]:
    import random as _random

    rng = _random.Random(seed)
    return tuple(rng.randrange(n) for _ in range(n))


def _cc_record(args: argparse.Namespace):
    """Run the named cc protocol per the CLI flags; (result, trace)."""
    from repro.cc import record_reliable_run, resolve_cc_protocol

    protocol, rounds = resolve_cc_protocol(args.protocol, f=args.f, k=args.k)
    inputs = _cc_inputs(args.n, args.seed)
    if args.live:
        import asyncio

        from repro.service.loadgen import named_plan
        from repro.service.runtime import (
            InstanceSpec,
            ServiceConfig,
            ServiceRuntime,
        )

        async def _run():
            config = ServiceConfig(
                n=args.n, f=args.f, seed=args.seed,
                plan=named_plan(args.plan, args.n),
            )
            async with ServiceRuntime(config) as runtime:
                return await runtime.run_instance_recorded(InstanceSpec(
                    "cc-cli", args.protocol, inputs=inputs, k=args.k,
                ))

        return asyncio.run(_run())
    return record_reliable_run(
        protocol, inputs, args.f,
        max_rounds=rounds, seed=args.seed, plan=_cc_sim_plan(args.plan),
        stop_on_decision=False,
    )


def _cmd_cc(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.cc import (
        AsyncTrace,
        CC_SERVICE_NAMES,
        certify,
        project,
        resolve_cc_protocol,
    )

    if args.cc_command == "compile":
        if args.list_catalog:
            from repro.check.spec import all_specs

            print("cc catalog (service + CLI protocol names):")
            for name in CC_SERVICE_NAMES:
                protocol, rounds = resolve_cc_protocol(name, f=1)
                print(f"  {name:<16} -> {protocol.name} ({rounds} round(s) at f=1)")
            print("\ncc conformance specs (python -m repro check --spec NAME):")
            for spec in all_specs():
                if spec.name.startswith("cc-"):
                    print(f"  {spec.name:<16} {spec.title}")
            return 0
        if args.protocol is None:
            print("cc compile: a protocol name (or --list) is required")
            return 2
        args.live = False
        result, trace = _cc_record(args)
        protocol, rounds = resolve_cc_protocol(args.protocol, f=args.f, k=args.k)
        print(f"compiled:  {protocol.name} ({rounds} round(s))")
        print(f"inputs:    {list(trace.inputs)}")
        print(f"decisions: {result.decisions}")
        staged = deferred = stale = 0
        for node in result.nodes:
            process = node.process
            staged += getattr(process, "sends_staged", 0)
            deferred += getattr(process, "sends_deferred", 0)
            stale += getattr(process, "stale_discarded", 0)
        print(f"rewriting: {staged} send(s) round-tagged, {deferred} "
              f"buffered early, {stale} stale discarded; "
              f"{result.total_late_discarded} late deliveries dropped at "
              "round boundaries")
        print(result.audit.summary())
        return 0 if result.audit.ok else 1

    if args.cc_command == "certify":
        if args.trace is not None:
            trace = AsyncTrace.from_doc(
                json.loads(Path(args.trace).read_text())
            )
            print(f"loaded:    {args.trace} ({len(trace.events)} events, "
                  f"source={trace.source})")
        elif args.protocol is None:
            print("cc certify: a protocol name or --trace is required")
            return 2
        else:
            _, trace = _cc_record(args)
            print(f"recorded:  {trace.protocol} on "
                  f"{'live service' if args.live else 'simulated overlay'} "
                  f"({len(trace.events)} events, plan={args.plan})")
        certificate = certify(trace, strict=args.strict)
        print(certificate.summary())
        for violation in certificate.violations:
            print(f"  {violation}")
        if args.save:
            directory = Path(args.save)
            directory.mkdir(parents=True, exist_ok=True)
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "_"
                for ch in trace.protocol
            ).strip("_")
            name = f"cc_trace_{slug}_s{args.seed}.json"
            path = directory / name
            path.write_text(json.dumps(trace.to_doc(), indent=2))
            print(f"wrote {path}")
        return 0 if certificate.closed else 1

    # project
    from repro.cc import UncertifiedTraceError
    from repro.core.replay import verify_trace_consistency

    trace = AsyncTrace.from_doc(json.loads(Path(args.trace).read_text()))
    try:
        projected = project(trace)
    except UncertifiedTraceError as exc:
        print(f"projection refused: {exc}")
        return 1
    verify_trace_consistency(projected)
    print(f"projected: {projected.num_rounds} round(s), n={projected.n}, "
          "replay-consistent")
    print(f"decisions: {projected.decisions}")
    if args.spec:
        from repro.check.spec import get_spec

        spec = get_spec(args.spec)
        failures = 0
        for invariant in spec.invariants:
            message = invariant.failure(projected, projected.n)
            if message is None:
                print(f"  {invariant.name}: OK")
            else:
                failures += 1
                print(f"  {invariant.name}: FAIL — {message}")
        if failures:
            return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "models": _cmd_models,
        "run": _cmd_run,
        "lattice": _cmd_lattice,
        "complex": _cmd_complex,
        "certify": _cmd_certify,
        "chaos": _cmd_chaos,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
        "load": _cmd_load,
        "check": _cmd_check,
        "ho": _cmd_ho,
        "cc": _cmd_cc,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
