"""The simulated-overlay workload: ``sim-cc-ci``.

One operation records one run of a compiled ``cc-*`` protocol on the
simulated reliable overlay (:func:`repro.cc.record_reliable_run`, virtual
time, seeded chaos), certifies it communication-closed
(:func:`repro.cc.certify`) and projects it onto rounds
(:func:`repro.cc.project`).  Operation ``i`` runs protocol ``i mod 3`` with
overlay seed ``base + i`` and inputs drawn from that seed, so a workload
seed fixes every event, retransmission and late crossing exactly.

A run fails its gate if it raises, if ``certify`` does not close it, or if
``project`` refuses it.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Any

import repro.cc as cc
from repro.cc import UncertifiedTraceError, resolve_cc_protocol
from repro.core.audit import ExecutionAuditor
from repro.substrates.messaging.chaos import FaultPlan, LinkFaults

from common import Report, peak_rss_mb, quantile
from ledger import Ledger, Target

__all__ = ["ledger_targets", "setup_ready", "run", "run_traced"]

#: Run seeds of workload seed ``s`` are ``s * SEED_STRIDE + i``.
SEED_STRIDE = 1_000_000
#: Each process's input is drawn from ``range(INPUT_VALUES)``.
INPUT_VALUES = 10
#: Share of ``seconds`` that the traced run's untraced pass takes; the
#: traced pass repeats the same runs.
TRACE_SHARE = 0.4


def ledger_targets() -> list[Target]:
    """The overlay/cc path's public entry points, by layer.

    ``record_reliable_run`` covers ``substrates.messaging`` and
    ``substrates.events``; the audit it runs at the end is wrapped
    separately and subtracted from it.
    """
    return [
        Target("substrates.overlay", cc, "record_reliable_run"),
        Target("core.audit", ExecutionAuditor, "audit_overlay"),
        Target("cc", cc, "certify"),
        Target("cc", cc, "project"),
    ]


@dataclass
class SimRun:
    """One recorded, certified and projected run."""

    failure: str | None
    wall: float
    events: int = 0
    retransmissions: int = 0
    late_crossings: int = 0


class Workload:
    """The protocol rotation, plan and seed schedule of one workload run."""

    def __init__(self, params: dict[str, Any], seed: int) -> None:
        self.params = params
        self.base = seed * SEED_STRIDE
        self.protocols = [
            (name, *resolve_cc_protocol(name, f=params["f"]))
            for name in params["protocols"]
        ]
        self.plan = FaultPlan(default=LinkFaults(**params["plan"]))

    def run(self, index: int) -> SimRun:
        name, protocol, rounds = self.protocols[index % len(self.protocols)]
        run_seed = self.base + index
        rng = random.Random(run_seed)
        inputs = tuple(
            rng.randrange(INPUT_VALUES) for _ in range(self.params["n"])
        )
        started = time.perf_counter()
        try:
            result, trace = cc.record_reliable_run(
                protocol, inputs, self.params["f"], max_rounds=rounds,
                seed=run_seed, plan=self.plan, stop_on_decision=False,
            )
            certificate = cc.certify(trace)
            cc.project(trace, certificate=certificate)
        except UncertifiedTraceError as exc:
            return SimRun(f"{name} seed {run_seed}: {exc}",
                          time.perf_counter() - started)
        except Exception as exc:  # a raising run is a failed operation
            return SimRun(
                f"{name} seed {run_seed}: raised {type(exc).__name__}: {exc}",
                time.perf_counter() - started,
            )
        return SimRun(
            None,
            time.perf_counter() - started,
            events=result.network.sim.events_processed,
            retransmissions=result.total_retransmissions,
            late_crossings=certificate.stats["late_crossings"],
        )


def setup_ready(params: dict[str, Any], seed: int) -> None:
    """Set-up a user pays before the first run: imports, compiled protocols."""
    Workload(params, seed)


def _pass(
    workload: Workload,
    report: Report,
    *,
    count: int | None = None,
    seconds: float = 0.0,
) -> tuple[list[SimRun], float, float]:
    """Runs ``0..count-1``, or as many as ``seconds`` allows (at least one).

    Returns the runs, their wall time and the process CPU they used.
    """
    runs: list[SimRun] = []
    cpu0 = time.process_time()
    started = time.perf_counter()
    while (
        len(runs) < count if count is not None
        else not runs or time.perf_counter() - started < seconds
    ):
        one = workload.run(len(runs))
        report.record(one.failure)
        runs.append(one)
    return runs, time.perf_counter() - started, time.process_time() - cpu0


def run(params: dict[str, Any], seconds: float, seed: int) -> Report:
    report = Report(params["name"])
    runs, wall, cpu = _pass(Workload(params, seed), report, seconds=seconds)
    walls = [r.wall for r in runs]
    report.metrics.update({
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "latency_p95_ms": quantile(walls, 0.95) * 1000.0,
        "throughput_per_s": len(runs) / wall,
        "cpu_ms_per_op": cpu / len(runs) * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
    })
    report.lines.append(f"  {len(runs)} runs in {wall:.3f} s")
    return report


def run_traced(params: dict[str, Any], seconds: float, seed: int) -> Report:
    """The same runs untraced, then traced."""
    report = Report(params["name"])
    workload = Workload(params, seed)
    plain, plain_wall, _ = _pass(workload, report, seconds=seconds * TRACE_SHARE)
    ledger = Ledger(ledger_targets())
    with ledger:
        runs, wall, _ = _pass(workload, report, count=len(plain))
    done = len(runs)
    rows = ledger.rows(wall)
    self_s = ledger.self_s
    per_run_ms = 1000.0 / done
    report.metrics.update({
        "trace.overhead_s": wall - plain_wall,
        "overlay.run_ms": self_s["repro.cc.record_reliable_run"] * per_run_ms,
        "overlay.events_per_run": sum(r.events for r in runs) / done,
        "overlay.retransmits_per_run":
            sum(r.retransmissions for r in runs) / done,
        "audit.overlay_ms":
            self_s["ExecutionAuditor.audit_overlay"] * per_run_ms,
        "cc.certify_ms": self_s["repro.cc.certify"] * per_run_ms,
        "cc.project_ms": self_s["repro.cc.project"] * per_run_ms,
        "cc.late_crossings_per_run":
            sum(r.late_crossings for r in runs) / done,
    })
    report.ledger, report.ledger_wall = rows, wall
    report.ledger_title = (
        f"{done} runs; untraced {plain_wall:.3f} s, traced {wall:.3f} s"
    )
    return report
