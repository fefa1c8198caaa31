"""The repository benchmark: certification, live-service and simulated-overlay
workloads, each checked operation by operation, with a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py                                   # all workloads
    python3 perfbench/run.py --workload check-kset-n5 --seed 1 --seconds 15
    python3 perfbench/run.py --workload live-clean --trace 1   # the ledger

The workloads, their parameters, seeds and committed gate counts live in
``perfbench/workloads.json``; the metric names, units and regression bounds
in ``BENCHMARK.json``, which gates four of the five workloads:
``check-kset-n5`` runs by name (and under ``all``) but its two-worker
certification swung by a third between runs on a shared two-vCPU host, so
its layers are gated through ``check-ac-n4`` (whose traced run also
certifies on a two-worker pool).  Every end-to-end metric means the same thing on
every workload, for that workload's operation (a certification, a live
instance, a simulated run):

- ``latency_p50_ms`` / ``latency_p95_ms`` — operation latency; a live
  instance is timed from its open-loop due time (p95, not p99: below ten
  milliseconds the live p99 is set by scheduling noise on a shared host
  and moved by a factor of two between identical runs);
- ``throughput_per_s`` — histories certified per second (``check-*``), the
  completion rate at the highest sustained ladder rung (``live-clean``),
  instances completed per second at the fixed rate (``live-lossy``), runs
  per second (``sim-cc-ci``);
- ``cpu_ms_per_op`` — process CPU per operation, pool workers and live
  heartbeats included;
- ``peak_rss_mb`` — peak resident memory of the process and its workers
  (for ``live-clean``, before the ladder's overloaded rung);
- ``setup_s`` — a fresh interpreter to the first operation ready, the
  median of ``SETUP_REPEATS`` probes taken around the workload's run.

Each workload runs in a fresh interpreter of its own.  The error rate is
``failed / attempted`` of the result line.  ``--trace 1`` re-runs the
workload untraced and then traced on the same inputs, prints the ledger
(its rows plus ``unattributed`` sum to the traced wall time) and reports
the per-layer metrics, including the tracing overhead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics`` (keyed ``<workload>:<metric>``
under ``all``).  Exit status: 0 when every
operation passed its gate, 1 when one failed, 2 when the program's sources
are missing, 3 when the open-loop generator fell behind its schedule (the
run is invalid and reports nothing).
"""

from __future__ import annotations

import argparse
import importlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from common import Report
from ledger import render

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = {"check": "check_bench", "live": "live_bench", "sim": "sim_bench"}
#: Fresh-interpreter probes behind one ``setup_s``, which is their median.
#: Half run just before the workload and half just after it: a shared
#: host can slow down for tens of seconds at a time, and with two windows
#: half a minute apart a slow patch during one of them moves the median
#: only part of the way.
SETUP_REPEATS = 16


def load_config() -> tuple[dict[str, Any], dict[str, Any]]:
    """``(BENCHMARK.json, perfbench/workloads.json)``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    return bench, workloads


def workload_params(workloads: dict[str, Any], name: str) -> dict[str, Any]:
    return {"name": name, **workloads["workloads"][name]["params"]}


def bench_module(workloads: dict[str, Any], name: str) -> Any:
    return importlib.import_module(MODULES[workloads["workloads"][name]["kind"]])


def setup_probe(name: str, seed: int) -> None:
    """Child side of :func:`probe_setup`: get ready, say so, exit."""
    _, workloads = load_config()
    bench_module(workloads, name).setup_ready(
        workload_params(workloads, name), seed
    )
    print("ready", flush=True)


def probe_setup(name: str, seed: int, count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to ``ready``, ``count`` times."""
    times = []
    for _ in range(count):
        started = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        ) as child:
            assert child.stdout is not None
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {code})")
        times.append(elapsed)
    return times


def run_workload(
    bench: dict[str, Any],
    workloads: dict[str, Any],
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
) -> tuple[Report, set[str]]:
    """One workload, untraced (end-to-end metrics but ``setup_s``, which
    the parent process measures) or traced (per layer).

    Returns the report and the per-layer metrics the workload never
    entered, which are reported as 0.
    """
    module = bench_module(workloads, name)
    params = workload_params(workloads, name)
    if trace:
        report = module.run_traced(params, seconds, seed)
        names = [m["name"] for m in bench["per_layer"]]
        idle = {m for m in names if m not in report.metrics}
        for metric in idle:
            report.metrics[metric] = 0.0
    else:
        report = module.run(params, seconds, seed)
        names = [m["name"] for m in bench["end_to_end"] if m["name"] != "setup_s"]
        idle = set()
    if set(report.metrics) != set(names):
        raise RuntimeError(
            f"{name}: metrics {sorted(report.metrics)} do not match "
            f"BENCHMARK.json {sorted(names)}"
        )
    return report, idle


def print_report(
    report: Report, units: dict[str, str], seed: int, idle: set[str]
) -> None:
    rate = report.failed / report.attempted if report.attempted else 0.0
    print(
        f"== {report.workload} (seed {seed}): {report.attempted} operations, "
        f"{report.failed} failed, error_rate {rate:.4f}"
    )
    for line in report.lines:
        print(line)
    if report.invalid:
        print(f"  INVALID, not reported: {report.invalid}")
        return
    if report.ledger:
        print(render(
            f"{report.workload} — {report.ledger_title}",
            report.ledger, report.ledger_wall,
        ))
    for name, value in report.metrics.items():
        if name not in idle:
            print(f"  {name:<32} {value:>16.4f} {units[name]}")
    if idle:
        print(f"  not entered by this workload (reported as 0): "
              f"{', '.join(sorted(idle))}")
    for failure in report.failures[:10]:
        print(f"  FAILED {failure}")
    if report.failed > 10:
        print(f"  ... and {report.failed - 10} more failures")


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    bench, workloads = load_config()
    names = list(workloads["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=workloads["default_seed"])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--in-process", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.in_process:
        return run_in_process(bench, workloads, units, args)
    return run_in_children(
        names if args.workload == "all" else [args.workload], units, args
    )


def run_in_process(
    bench: dict[str, Any],
    workloads: dict[str, Any],
    units: dict[str, str],
    args: argparse.Namespace,
) -> int:
    """Child side of :func:`run_in_children`: run one workload here."""
    report, idle = run_workload(
        bench, workloads, args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print_report(report, units, args.seed, idle)
    if report.invalid:
        return 3
    print(json.dumps({
        "correct": report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in report.metrics.items()
        },
    }))
    return 0 if report.failed == 0 else 1


def run_in_children(
    names: list[str], units: dict[str, str], args: argparse.Namespace
) -> int:
    """Each workload in a fresh interpreter, between two set-up windows.

    A child's peak memory and CPU are its own (in one process, every
    workload after the two-worker ``check-kset-n5`` would report that
    pool's peak as well), and no set-up probe is among the children whose
    peak it reports.  With several workloads the result line holds
    ``<workload>:<metric>`` keys.
    """
    merged: dict[str, Any] = {"attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        if not args.trace:
            setup = probe_setup(name, args.seed, SETUP_REPEATS // 2)
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--in-process",
             "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        if child.returncode not in (0, 1) or not lines or lines[-1][:1] != "{":
            print(child.stdout, end="")  # no result: invalid, or it crashed
            return child.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        metrics = result["metrics"]
        if not args.trace:
            setup += probe_setup(name, args.seed, SETUP_REPEATS - len(setup))
            value = statistics.median(setup)
            metrics["setup_s"] = {"value": value, "unit": units["setup_s"]}
            print(f"  {'setup_s':<32} {value:>16.4f} {units['setup_s']}")
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({
            metric if len(names) == 1 else f"{name}:{metric}": value
            for metric, value in metrics.items()
        })
    print(json.dumps({"correct": merged["failed"] == 0, **merged}))
    return 0 if merged["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
