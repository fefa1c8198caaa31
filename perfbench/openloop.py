"""Open-loop instance generator for the live-service workloads.

One process and one asyncio loop host both the service
(:class:`repro.service.runtime.ServiceRuntime`) and this generator.
Instance ``i`` of a phase is *due* at ``t0 + i / rate`` whatever happened to
the instances before it, so a slow service faces a growing queue instead of
a politely slowed client.  Latency is timed from the due time, which
charges a stall to every instance queued behind it; how late the generator
itself started each instance is kept separately as its *lateness*.

Each instance is gated as soon as it completes and only its timings and
verdict are kept, so the generator's memory stays flat over a long phase.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Sequence

import repro.service.runtime as service_runtime
from repro.service.runtime import InstanceOutcome, InstanceResult, InstanceSpec

__all__ = ["Outcome", "Phase", "offer", "gate_instance", "SAFETY"]

#: Failure kinds that are bugs at any load.  The others (a park or an
#: undecided participant) are the liveness price of overload: they fail a
#: ladder step above capacity but are failed operations only at the fixed
#: rate.
SAFETY = frozenset({"raised", "audit"})


@dataclass(frozen=True)
class Outcome:
    """One completed instance: timings, rounds run and gate verdict."""

    name: str
    lateness: float
    latency: float
    rounds: int
    failure: tuple[str, str] | None  # (kind, message) or None


@dataclass
class Phase:
    """Every instance one :func:`offer` call put on the service."""

    rate: float
    outcomes: list[Outcome]
    unfinished: int  # still running when the drain timeout expired
    backlogged: bool  # offering stopped early: too many instances running
    wall: float  # first due time to the last completion (or drain timeout)

    @property
    def latencies(self) -> list[float]:
        return [o.latency for o in self.outcomes]

    @property
    def lateness(self) -> list[float]:
        return [o.lateness for o in self.outcomes]

    def failures(self, kinds: frozenset[str] | None = None) -> list[str]:
        return [
            f"{o.name}: {o.failure[0]}: {o.failure[1]}"
            for o in self.outcomes
            if o.failure is not None and (kinds is None or o.failure[0] in kinds)
        ]


def gate_instance(result: InstanceResult) -> tuple[str, str] | None:
    """Why a completed instance fails its gate, or ``None`` if it passes.

    An instance fails if it parked, left a live participant undecided, or
    if the live-trace audit (:func:`repro.service.runtime.audit_instance`)
    reports a violation.
    """
    if result.outcome is InstanceOutcome.PARKED:
        return ("parked", "a participant parked")
    undecided = [
        r.pid for r in result.records if not r.crashed and not r.process.decided
    ]
    if undecided:
        return ("undecided", f"live participants {undecided} never decided")
    report = service_runtime.audit_instance(result)
    if report.violations:
        return ("audit", str(report.violations[0]))
    return None


async def _run_one(
    runtime: service_runtime.ServiceRuntime,
    spec: InstanceSpec,
    due: float,
    lateness: float,
    finished: list[int],
) -> Outcome:
    loop = asyncio.get_running_loop()
    try:
        result = await runtime.run_instance(spec)
    except Exception as exc:  # a raising instance is a failed operation
        failure: tuple[str, str] | None = ("raised", f"{type(exc).__name__}: {exc}")
        rounds = 0
    else:
        failure = gate_instance(result)
        rounds = max(len(r.views) for r in result.records)
    finally:
        finished[0] += 1
    return Outcome(spec.name, lateness, loop.time() - due, rounds, failure)


async def offer(
    runtime: service_runtime.ServiceRuntime,
    specs: Sequence[InstanceSpec],
    rate: float,
    *,
    max_in_flight: float | None = None,
    drain_timeout: float | None = None,
) -> Phase:
    """Start ``specs[i]`` at its due time ``i / rate`` and collect them.

    Instances already overdue when the generator wakes start at once, in
    order; the generator never waits for a completion before offering the
    next one.  With ``max_in_flight``, offering stops once more instances
    than that are running (``backlogged``).  With ``drain_timeout``,
    instances still running that long after the last one was offered are
    cancelled and counted in ``unfinished`` (stop the runtime afterwards:
    their participants are left behind).
    """
    if rate <= 0 or not specs:
        raise ValueError(f"need rate > 0 and instances, got {rate}, {len(specs)}")
    loop = asyncio.get_running_loop()
    finished = [0]
    tasks: list[asyncio.Task[Outcome]] = []
    t0 = loop.time()
    for index, spec in enumerate(specs):
        due = t0 + index / rate
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        if max_in_flight is not None and len(tasks) - finished[0] > max_in_flight:
            break
        tasks.append(loop.create_task(
            _run_one(runtime, spec, due, loop.time() - due, finished)
        ))
    done, pending = await asyncio.wait(tasks, timeout=drain_timeout)
    wall = loop.time() - t0
    for task in pending:
        task.cancel()
    if pending:
        await asyncio.wait(pending)
    return Phase(
        rate=rate,
        outcomes=[task.result() for task in tasks if task in done],
        unfinished=len(pending),
        backlogged=len(tasks) < len(specs),
        wall=wall,
    )
