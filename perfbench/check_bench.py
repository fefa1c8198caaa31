"""The certification workloads: ``check-kset-n5`` and ``check-ac-n4``.

One operation is one :func:`repro.check.explore` call to its verdict, timed
around the call, pool start-up included, exactly as ``repro check`` makes
it.  The inputs are the spec's exhaustive input space, so the workload seed
changes nothing here: a certification has no random inputs.

An operation passes its gate only if it returns, reports no violation, and
certifies exactly the committed number of histories for the reduction that
``result.symmetry`` reports (orbit representatives with symmetry on, raw
histories with it off).  A checker that stopped checking, or stopped
enumerating, therefore cannot look fast.
"""

from __future__ import annotations

import importlib
import pkgutil
import statistics
import time
from dataclasses import dataclass
from typing import Any

import repro.protocols
from repro import obs
from repro.check import ExploreResult, explore, get_spec
from repro.check.spec import ConformanceSpec
from repro.core.algorithm import RoundProcess
from repro.core.executor import RoundExecutor
from repro.core.predicate import FastPackedPredicate

from common import Report, cpu_seconds, peak_rss_mb, quantile
from ledger import Ledger, Target

__all__ = [
    "Certification",
    "certify",
    "gate",
    "ledger_targets",
    "setup_ready",
    "run",
    "run_traced",
]

#: Nominal seconds of one certification.  A run of ``seconds`` makes
#: ``seconds / NOMINAL_S`` of them (rounded, at least one), fixed in advance
#: so that a slow host does not also change how many certifications its
#: median and p95 are taken over.
NOMINAL_S = 8.0


def _protocol_classes() -> list[type]:
    """The protocol catalog's round processes (``repro.protocols``)."""
    classes = []
    for info in pkgutil.iter_modules(repro.protocols.__path__):
        module = importlib.import_module(f"repro.protocols.{info.name}")
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and issubclass(obj, RoundProcess)
                and obj.__module__ == module.__name__
            ):
                classes.append(obj)
    return classes


def ledger_targets() -> list[Target]:
    """The certification path's public entry points, by layer."""
    targets = [
        Target("check.spec", ConformanceSpec, "failures"),
        Target("core.executor", RoundExecutor, "step"),
        Target("core.executor", RoundExecutor, "fork"),
        Target("core.predicate", FastPackedPredicate, "admissible_round_ints",
               counter="predicate.candidates", count=len),
    ]
    for cls in _protocol_classes():
        for name in ("emit", "absorb", "copy"):
            if name in vars(cls):
                targets.append(Target("protocols", cls, name))
    return targets


@dataclass
class Certification:
    """One timed :func:`explore` call."""

    result: ExploreResult | None
    error: str | None
    wall: float
    cpu: float  # this process plus the pool workers it reaped


def certify(
    spec: ConformanceSpec,
    params: dict[str, Any],
    *,
    workers: int,
    scheduler: str | None = None,
) -> Certification:
    cpu0 = cpu_seconds()
    started = time.perf_counter()
    try:
        result: ExploreResult | None = explore(
            spec, n=params["n"], rounds=params["rounds"],
            prune_decided=params["prune_decided"],
            symmetry=params["symmetry"], workers=workers, scheduler=scheduler,
        )
        error = None
    except Exception as exc:  # a raising certification is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - started
    return Certification(result, error, wall, cpu_seconds() - cpu0)


def gate(
    spec: ConformanceSpec, params: dict[str, Any], op: Certification
) -> str | None:
    """Why a certification fails its gate, or ``None`` if it passes."""
    if op.result is None:
        return f"{spec.name}: raised {op.error}"
    result = op.result
    if result.violations:
        return (
            f"{spec.name}: {len(result.violations)} violation(s), first "
            f"{result.violations[0]}"
        )
    reduction = spec.symmetry if result.symmetry else "none"
    expected = params["histories"].get(reduction)
    if result.histories != expected:
        return (
            f"{spec.name}: {result.histories} histories certified under "
            f"reduction {reduction!r}, committed count is {expected}"
        )
    return None


def setup_ready(params: dict[str, Any], seed: int) -> None:
    """Set-up a user pays before certifying: imports and the spec registry."""
    get_spec(params["spec"])


def run(params: dict[str, Any], seconds: float, seed: int) -> Report:
    """Certify back to back, as many times as ``seconds`` nominally allows."""
    spec = get_spec(params["spec"])
    report = Report(params["name"])
    ops: list[Certification] = []
    for index in range(max(1, round(seconds / NOMINAL_S))):
        op = certify(spec, params, workers=params["workers"])
        report.record(gate(spec, params, op))
        if index == 0:
            # One certification's peak: a later pool forks from a parent
            # the earlier ones left larger.
            rss = peak_rss_mb()
        ops.append(op)
    walls = [op.wall for op in ops]
    histories = sum(op.result.histories for op in ops if op.result)
    report.metrics.update({
        "latency_p50_ms": statistics.median(walls) * 1000.0,
        "latency_p95_ms": quantile(walls, 0.95) * 1000.0,
        "throughput_per_s": histories / sum(walls),
        "cpu_ms_per_op": sum(op.cpu for op in ops) / len(ops) * 1000.0,
        "peak_rss_mb": rss,
    })
    report.lines.append(
        "  certifications: " + ", ".join(f"{w:.3f} s" for w in walls)
    )
    return report


def _counter(snapshot: dict[str, Any], name: str) -> float:
    return float(snapshot.get(name, {}).get("value", 0))


def run_traced(params: dict[str, Any], seconds: float, seed: int) -> Report:
    """Pool run for the scheduler counters, then untraced vs traced in-process.

    The pooled certification runs at ``params["scale_workers"]``.  The
    traced certification runs in this process (at one worker, through
    ``params["traced_scheduler"]``) so every wrapped call lands in one
    ledger; the untraced in-process run on the same path is the baseline
    for the tracing overhead.
    """
    spec = get_spec(params["spec"])
    report = Report(params["name"])
    scale = {"scale.tasks": 0.0, "scale.shared_hits": 0.0, "scale.cpu_util": 0.0}
    pooled = certify(spec, params, workers=params["scale_workers"])
    report.record(gate(spec, params, pooled))
    if pooled.result is not None:
        scale = {
            "scale.tasks": float(pooled.result.scale["tasks"]),
            "scale.shared_hits": float(pooled.result.scale["shared_hits"]),
            "scale.cpu_util":
                pooled.cpu / (pooled.wall * pooled.result.workers),
        }
    scheduler = params["traced_scheduler"]
    plain = certify(spec, params, workers=1, scheduler=scheduler)
    report.record(gate(spec, params, plain))
    ledger = Ledger(ledger_targets())
    registry = obs.Metrics()
    with ledger, obs.collecting(registry):
        traced = certify(spec, params, workers=1, scheduler=scheduler)
    report.record(gate(spec, params, traced))

    wall = traced.wall
    rows = ledger.rows(wall)
    calls, self_s = ledger.calls, ledger.self_s
    snapshot = registry.snapshot()
    visited = _counter(snapshot, "engine.visited")
    skipped = _counter(snapshot, "engine.skipped_symmetric")
    layer = {name: (count, seconds) for name, count, seconds in rows}
    report.metrics.update(scale)
    report.metrics.update({
        "trace.overhead_s": traced.wall - plain.wall,
        "spec.checks": float(calls["ConformanceSpec.failures"]),
        "spec.check_s": self_s["ConformanceSpec.failures"],
        "executor.steps": float(calls["RoundExecutor.step"]),
        "executor.step_s": self_s["RoundExecutor.step"],
        "executor.forks": float(calls["RoundExecutor.fork"]),
        "executor.fork_s": self_s["RoundExecutor.fork"],
        "protocol.calls": float(layer["protocols"][0]),
        "protocol.s": layer["protocols"][1],
        "predicate.enum_calls":
            float(calls["FastPackedPredicate.admissible_round_ints"]),
        "predicate.enum_s": self_s["FastPackedPredicate.admissible_round_ints"],
        "predicate.candidates": ledger.counters["predicate.candidates"],
        "engine.visited": visited,
        "engine.memo_hits_packed": _counter(snapshot, "engine.memo_hits_packed"),
        "engine.memo_misses_packed":
            _counter(snapshot, "engine.memo_misses_packed"),
        "engine.skipped_symmetric": skipped,
        "engine.symmetry_cut":
            skipped / (skipped + visited) if skipped + visited else 0.0,
        "check.unattributed_s": layer["unattributed"][1],
    })
    report.ledger, report.ledger_wall = rows, wall
    report.ledger_title = (
        f"one certification in-process "
        f"(scheduler {traced.result.scheduler if traced.result else '?'}); "
        f"untraced {plain.wall:.3f} s, traced {traced.wall:.3f} s"
    )
    return report
