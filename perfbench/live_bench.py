"""The live-service workloads: ``live-clean`` and ``live-lossy``.

Both run ``n`` endpoints of :class:`repro.service.runtime.ServiceRuntime`
over localhost TCP in this process, cycling consensus / k-set /
adopt-commit instances from :func:`repro.service.loadgen.make_specs`, and
offer them open loop (:mod:`openloop`).  Every timed phase runs on a fresh
runtime after a short warm-up, so connection set-up, and any timeout bumps
a previous phase left in the suspicion monitors, never leak into it.

``live-clean`` runs one fixed rate and then a ladder of rising rates; its
throughput is the completion rate at the highest rung that keeps p99
latency under the limit with every instance decided and no backlog
growing.  ``live-lossy`` runs one light fixed rate under the ``drop``
plan, where retransmission timers, not the codec, set latency; its
throughput is the completion rate of that phase.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from typing import Any

import repro.service.runtime as service_runtime
import repro.service.transport as transport
from repro.service.loadgen import make_specs, named_plan
from repro.service.runtime import InstanceSpec, ServiceConfig, ServiceRuntime
from repro.service.suspicion import SuspicionMonitor
from repro.service.transport import ServiceStats

from common import Report, peak_rss_mb, quantile
from ledger import Ledger, Target
from openloop import SAFETY, Phase, offer

__all__ = ["ledger_targets", "setup_ready", "run", "run_traced"]

#: Instances run on every fresh runtime before its timed phase.
WARMUP = 12
WARMUP_RATE = 100.0
#: Share of an untraced run that the rate ladder takes, when there is one.
LADDER_SHARE = 0.4
#: Share of ``seconds`` that each of the traced run's two sessions takes.
TRACE_SHARE = 0.4
#: A run whose generator started its instances later than this (p99) did
#: not offer the rate it names, and is marked invalid.
LAG_LIMIT_MS = 250.0


def ledger_targets() -> list[Target]:
    """The live path's public entry points, by layer."""
    return [
        Target("service.transport", service_runtime, "encode_payload"),
        Target("service.transport", service_runtime, "decode_payload"),
        Target("service.transport", service_runtime, "read_frame",
               coroutine=True),
        Target("service.transport", transport, "encode_frame",
               counter="transport.bytes", count=len),
        Target("service.suspicion", SuspicionMonitor, "check"),
        Target("service.runtime", ServiceRuntime, "run_instance",
               coroutine=True),
        Target("core.audit", service_runtime, "audit_instance"),
    ]


class _Instances:
    """The run's instance specs, handed out in consecutive slices."""

    def __init__(self, params: dict[str, Any], seed: int, total: int) -> None:
        self.specs = make_specs(
            total, params["n"], params["protocol"], params["k"], seed
        )
        self.next = 0

    def take(self, count: int) -> list[InstanceSpec]:
        taken = self.specs[self.next:self.next + count]
        if len(taken) != count:
            raise RuntimeError("instance budget exhausted")
        self.next += count
        return taken


def _stats_delta(before: ServiceStats, after: ServiceStats) -> ServiceStats:
    start, end = before.snapshot(), after.snapshot()
    delta = ServiceStats()
    delta.merge({k: end[k] - start[k] for k in end if k != "queue_high_water"})
    delta.queue_high_water = after.queue_high_water
    return delta


async def _session(
    params: dict[str, Any],
    seed: int,
    warm: list[InstanceSpec],
    specs: list[InstanceSpec],
    rate: float,
    report: Report,
    *,
    max_in_flight: float | None = None,
    drain_timeout: float | None = None,
    ledger: Ledger | None = None,
) -> tuple[Phase, float, ServiceStats]:
    """Fresh runtime, warm-up, one timed phase: ``(phase, cpu_s, stats)``."""
    config = ServiceConfig(
        n=params["n"], f=params["f"],
        plan=named_plan(params["plan"], params["n"]), seed=seed,
    )
    runtime = ServiceRuntime(config)
    await runtime.start()
    try:
        _gate_phase(report, await offer(runtime, warm, WARMUP_RATE), None)
        before = runtime.stats
        cpu0 = time.process_time()
        with ledger if ledger is not None else contextlib.nullcontext():
            phase = await offer(
                runtime, specs, rate,
                max_in_flight=max_in_flight, drain_timeout=drain_timeout,
            )
        cpu = time.process_time() - cpu0
        stats = _stats_delta(before, runtime.stats)
    finally:
        await _stop(runtime)
    return phase, cpu, stats


async def _stop(runtime: ServiceRuntime, timeout: float = 10.0) -> None:
    """Stop ``runtime`` and wait until none of its tasks is left.

    A phase cut short by its drain timeout leaves participants and
    connection handlers blocked on the full send queues of links that
    ``stop`` closed.  Emptying those queues lets each of them run on to
    its exit (the endpoint is killed, the peer's stream ends), so nothing
    is left pending on the loop.
    """
    await runtime.stop()
    loop = asyncio.get_running_loop()
    current = asyncio.current_task()
    deadline = loop.time() + timeout
    while True:
        pending = [t for t in asyncio.all_tasks() if t is not current]
        if not pending:
            return
        if loop.time() > deadline:
            raise RuntimeError(f"{len(pending)} service task(s) never ended")
        for endpoint in runtime.endpoints:
            for link in endpoint.links.values():
                while not link.queue.empty():
                    link.queue.get_nowait()
        await asyncio.wait(pending, timeout=0.05)


def _gate_phase(report: Report, phase: Phase, kinds: frozenset[str] | None) -> None:
    """Count a phase's instances; only failures of ``kinds`` fail them."""
    failures = phase.failures(kinds)
    for failure in failures:
        report.record(failure)
    report.attempted += len(phase.outcomes) - len(failures)


def _lag_ms(phase: Phase) -> float:
    return quantile(phase.lateness, 0.99) * 1000.0


def _check_lag(report: Report, lag_ms: float) -> None:
    if lag_ms > LAG_LIMIT_MS:
        report.invalid = (
            f"generator lateness p99 {lag_ms:.1f} ms exceeds the "
            f"{LAG_LIMIT_MS:.0f} ms limit: the offered rate was not met"
        )


async def _ladder(
    params: dict[str, Any],
    seed: int,
    instances: _Instances,
    step_s: float,
    report: Report,
) -> float:
    """Completion rate at the highest ladder rung that meets the limit.

    A rung passes when every instance decides, p99 latency stays under the
    limit and the number of running instances never exceeds what Little's
    law allows at that latency (``rate × limit``).  The ladder stops at
    the first rung that fails; 0 if none passes.
    """
    limit = params["latency_limit_ms"] / 1000.0
    best = 0.0
    for rate in params["ladder"]:
        phase, _, _ = await _session(
            params, seed, instances.take(WARMUP),
            instances.take(max(1, round(rate * step_s))), rate, report,
            max_in_flight=rate * limit, drain_timeout=limit,
        )
        # Above capacity, parks and undecided instances are the expected
        # price of overload and only fail the step; safety failures count.
        _gate_phase(report, phase, SAFETY)
        p99 = quantile(phase.latencies, 0.99) if phase.outcomes else float("inf")
        reasons = []
        if phase.unfinished:
            reasons.append(f"{phase.unfinished} unfinished after the drain")
        if phase.failures():
            reasons.append(f"{len(phase.failures())} instance(s) failed")
        if p99 > limit:
            reasons.append(f"p99 {p99 * 1000:.1f} ms over the limit")
        if phase.backlogged:
            reasons.append(f"backlog passed {rate * limit:.0f} running")
        report.lines.append(
            f"  ladder {rate:>6.0f}/s: p99 {p99 * 1000:8.1f} ms, "
            f"{len(phase.outcomes)} done — "
            + ("; ".join(reasons) if reasons else "sustained")
        )
        if reasons:
            break
        best = len(phase.outcomes) / phase.wall
    return best


def _budget(ladder: list[float], seconds: float) -> tuple[float, float]:
    """``(fixed_s, step_s)``: the fixed-rate phase and each ladder rung."""
    if not ladder:
        return seconds, 0.0
    return seconds * (1.0 - LADDER_SHARE), seconds * LADDER_SHARE / len(ladder)


def setup_ready(params: dict[str, Any], seed: int) -> None:
    """Set-up a user pays before the first instance: start, one instance.

    The warm-up instance runs on a clean network even for a lossy
    workload: it is there to open the links, and a retransmission timer
    it happened to hit would be luck, not set-up work.
    """

    async def main() -> None:
        config = ServiceConfig(n=params["n"], f=params["f"], seed=seed)
        runtime = ServiceRuntime(config)
        await runtime.start()
        try:
            (spec,) = make_specs(
                1, params["n"], params["protocol"], params["k"], seed
            )
            await runtime.run_instance(spec)
        finally:
            await _stop(runtime)

    asyncio.run(main())


def run(params: dict[str, Any], seconds: float, seed: int) -> Report:
    """The untraced run: fixed-rate phase, then the ladder if configured."""
    report = Report(params["name"])
    ladder = params["ladder"]
    fixed_s, step_s = _budget(ladder, seconds)
    rate = float(params["fixed_rate"])
    fixed_count = max(1, round(rate * fixed_s))
    total = (
        WARMUP * (1 + len(ladder)) + fixed_count
        + sum(max(1, round(r * step_s)) for r in ladder)
    )
    instances = _Instances(params, seed, total)

    async def main() -> float:
        phase, cpu, stats = await _session(
            params, seed, instances.take(WARMUP),
            instances.take(fixed_count), rate, report,
        )
        _gate_phase(report, phase, None)
        latencies = phase.latencies
        lag_ms = _lag_ms(phase)
        _check_lag(report, lag_ms)
        report.metrics.update({
            "latency_p50_ms": quantile(latencies, 0.50) * 1000.0,
            "latency_p95_ms": quantile(latencies, 0.95) * 1000.0,
            "cpu_ms_per_op": cpu / len(phase.outcomes) * 1000.0,
            # Before the ladder: its overloaded rung is a probe, not a load.
            "peak_rss_mb": peak_rss_mb(),
        })
        report.lines.append(
            f"  fixed {rate:.0f}/s: {len(phase.outcomes)} instances, "
            f"generator lateness p99 {lag_ms:.2f} ms, "
            f"{stats.retransmissions} retransmissions"
        )
        if ladder:
            return await _ladder(params, seed, instances, step_s, report)
        return len(phase.outcomes) / phase.wall

    report.metrics["throughput_per_s"] = asyncio.run(main())
    return report


def run_traced(params: dict[str, Any], seconds: float, seed: int) -> Report:
    """The same instances at the fixed rate, untraced then traced."""
    report = Report(params["name"])
    rate = float(params["fixed_rate"])
    count = max(1, round(rate * seconds * TRACE_SHARE))
    instances = _Instances(params, seed, 2 * WARMUP + count)
    warm = [instances.take(WARMUP), instances.take(WARMUP)]
    specs = instances.take(count)
    ledger = Ledger(ledger_targets())

    async def main() -> None:
        plain, plain_cpu, _ = await _session(
            params, seed, warm[0], specs, rate, report,
        )
        traced, cpu, stats = await _session(
            params, seed, warm[1], specs, rate, report, ledger=ledger,
        )
        for phase in (plain, traced):
            _gate_phase(report, phase, None)
        done = len(traced.outcomes)
        wall = traced.wall
        rows = ledger.rows(wall)
        self_s = {layer: s for layer, _, s in rows}
        lag_ms = _lag_ms(plain)
        _check_lag(report, lag_ms)
        frames = max(1, stats.frames_sent)
        report.metrics.update({
            "gen.lag_ms": lag_ms,
            "trace.overhead_s": cpu - plain_cpu,
            "transport.codec_ms": self_s["service.transport"] / done * 1000.0,
            "transport.frames_per_instance": stats.frames_sent / done,
            "transport.msgs_per_frame": stats.messages_sent / frames,
            "transport.bytes_per_instance":
                ledger.counters["transport.bytes"] / done,
            "runtime.round_ms": sum(
                o.latency / o.rounds for o in traced.outcomes if o.rounds
            ) / done * 1000.0,
            "runtime.retransmits_per_instance": stats.retransmissions / done,
            "runtime.degraded_rounds": float(stats.degraded_rounds),
            "runtime.queue_high_water": float(stats.queue_high_water),
            "runtime.heartbeats_per_s": stats.heartbeats_sent / wall,
            "suspicion.raised": float(stats.suspicions_raised),
            "suspicion.cleared": float(stats.suspicions_cleared),
            "suspicion.check_ms": self_s["service.suspicion"] / done * 1000.0,
        })
        report.ledger, report.ledger_wall = rows, wall
        report.ledger_title = (
            f"{done} instances at {rate:.0f}/s; process CPU {cpu:.3f} s "
            f"traced vs {plain_cpu:.3f} s untraced (wall minus CPU is the "
            "idle loop, inside unattributed)"
        )

    asyncio.run(main())
    return report
