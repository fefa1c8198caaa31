"""Bounded model checking and fuzzing over a conformance spec.

:func:`explore` discharges the paper's universal quantifier *exactly* for
small systems: it streams every admissible suspicion history of the given
depth (depth-first with prefix pruning) for every input assignment in the
spec's exhaustive input space, runs the protocol on each, and checks every
invariant.  Zero violations over the whole product is a proof of the spec's
claims for that ``(n, rounds)`` — not a sample.

One scheduler and one oracle produce identical verdicts:

- ``engine="incremental"`` (default) — the fixed task decomposition of
  :mod:`repro.check.scale`, run in-process at ``workers=1`` and by a
  process pool above that.  Each task drives the stateful DFS of
  :mod:`repro.check.engine`: executors are *forked* at branch points, so
  each tree edge costs one protocol round instead of replaying every
  history from round 1, candidate generation is memoized per
  ``Predicate.extension_state``, and (opt-in) permutation-equivalent
  subtrees are cut by a transposition table.  The task list never depends
  on the worker count, so every counter, the violation list and the
  absorbed event stream are the same at any ``workers``.
- ``engine="replay"`` — the original enumerate-and-re-run loop
  (:func:`_explore_serial`, via
  :func:`repro.analysis.adversary_search.admissible_rounds`), always
  in-process.  It shares no scheduling, memo or merge code with the
  engine path; it is the oracle that path is differentially tested
  against, and it runs automatically when the engine cannot apply
  (``rounds == 0``).

Throughput levers for ``n = 4`` (where e.g. ``KSetDetector`` admits
4 235 first-round families):

- ``prune_decided=True`` stops extending a history once every process has
  decided — sound for invariants that are insensitive to post-decision
  rounds (all registered task invariants; termination bounds are checked at
  decision time), and it collapses the depth-``r`` tree to near the
  depth-of-decision tree.
- ``workers > 1`` drains the task list with a process pool; a pool run
  requires a registered spec (workers re-resolve it by name — specs close
  over lambdas and do not pickle).
- ``symmetry=True`` checks one representative per process-permutation
  orbit, for specs that declare a symmetry grade (see
  :class:`~repro.check.spec.ConformanceSpec`).  Off by default in the
  library API because it changes the *counts* (``histories``/``executions``
  cover orbit representatives only); the CLI enables it by default.

:func:`fuzz` covers what exhaustion cannot: larger ``n`` via the
predicate's constructive sampler, and scheduler-driven specs
(``supports_exhaustive=False``) via their custom ``sample_run``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from repro import obs
from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    admissible_rounds,
)
from repro.check.engine import MAX_SYMMETRY_N, EngineStats
from repro.check.spec import ConformanceSpec, InvariantFailure, get_spec
from repro.core.types import DHistory, ExecutionTrace
from repro.harness.runner import resolve_workers
from repro.util.rng import derive_seed, make_rng

__all__ = ["Violation", "ExploreResult", "explore", "fuzz"]


@dataclass(frozen=True)
class Violation:
    """One execution that broke one or more invariants — fully replayable."""

    spec: str
    inputs: tuple[Any, ...]
    history: DHistory
    failures: tuple[InvariantFailure, ...]

    def __str__(self) -> str:
        probs = "; ".join(str(f) for f in self.failures)
        return (
            f"[{self.spec}] inputs={self.inputs!r} "
            f"rounds={len(self.history)}: {probs}"
        )


@dataclass
class ExploreResult:
    """Outcome of one :func:`explore` or :func:`fuzz` run."""

    spec: str
    n: int
    rounds: int
    mode: str  # "exhaustive" | "fuzz"
    executions: int = 0
    histories: int = 0
    pruned: int = 0
    inputs_checked: int = 0
    workers: int = 1
    elapsed: float = 0.0
    engine: str = "replay"  # "incremental" | "replay" (fuzz is replay-like)
    symmetry: bool = False  # was symmetry reduction in effect?
    bitset: bool = False  # did the packed (integer-bitmask) hot path run?
    visited: int = 0  # DFS nodes expanded (incremental engine only)
    skipped_symmetric: int = 0  # subtree roots cut by the transposition table
    rounds_executed: int = 0  # protocol rounds stepped (incremental only)
    scheduler: str = "serial"  # "serial" (replay) | "steal" | "bfs"
    partial: bool = False  # a budget/cap stopped the search before exhaustion
    scale: dict[str, Any] = field(default_factory=dict)  # scheduler bookkeeping
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        verdict = (
            "OK" if self.ok else f"{len(self.violations)} VIOLATION(S)"
        )
        pruned = f", {self.pruned} pruned early" if self.pruned else ""
        skipped = (
            f", {self.skipped_symmetric} orbits skipped"
            if self.symmetry
            else ""
        )
        engine = (
            self.engine
            + ("+symmetry" if self.symmetry else "")
            + ("+bitset" if self.bitset else "")
        )
        return (
            f"{self.spec}: {verdict} — {self.mode} [{engine}] n={self.n} "
            f"rounds={self.rounds}, {self.executions} executions over "
            f"{self.histories} histories × {self.inputs_checked} input "
            f"assignment(s){pruned}{skipped} in {self.elapsed:.2f}s"
            + (f" ({self.workers} workers)" if self.workers > 1 else "")
            + (" [PARTIAL — resume to finish]" if self.partial else "")
        )


# ---------------------------------------------------------------------------
# exhaustive exploration


def _check_history(
    spec: ConformanceSpec,
    inputs: tuple[Any, ...],
    history: DHistory,
    result: ExploreResult,
    trace: ExecutionTrace | None = None,
) -> ExecutionTrace:
    """Judge one history; ``trace`` skips the re-run when already executed."""
    if trace is None:
        trace = spec.run(inputs, history)
    result.executions += 1
    failures = spec.failures(trace, len(inputs))
    if failures:
        result.violations.append(
            Violation(spec.name, inputs, history, tuple(failures))
        )
    return trace


def _explore_serial(
    spec: ConformanceSpec,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    result: ExploreResult,
    prefix: DHistory = (),
    max_violations: int | None = None,
) -> None:
    """Replay-engine DFS: re-run the protocol from round 1 on every node.

    With ``prune_decided`` the protocol is run on interior prefixes and a
    branch is cut as soon as every process has decided: the executions are
    deterministic, so the shallower trace *is* every deeper one up to
    post-decision rounds, and it is checked in the leaves' stead (reusing
    the prune-probe trace — the probe is not executed twice).  Interior
    prefixes where some process is still undecided are *not* checked —
    termination invariants legitimately fail mid-run.
    """
    predicate = spec.predicate(n)
    stack: list[DHistory] = [prefix]
    while stack:
        node = stack.pop()
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        if len(node) == rounds:
            result.histories += 1
            _check_history(spec, inputs, node, result)
            continue
        if prune_decided and len(node) > 0:
            trace = spec.run(inputs, node)
            if trace.all_decided:
                result.histories += 1
                result.pruned += 1
                _check_history(spec, inputs, node, result, trace=trace)
                continue
        children = list(
            admissible_rounds(predicate, node, max_d_size=max_d_size)
        )
        if not children:
            raise NoAdmissibleExtension(predicate, node)
        # Reverse-pushed so pops visit siblings in candidate order, matching
        # iter_admissible_histories and the incremental engine exactly.
        for d_round in reversed(children):
            stack.append(node + (d_round,))


def _effective_symmetry(
    spec: ConformanceSpec, n: int, rounds: int, requested: bool
) -> str | None:
    """The symmetry mode actually applied, or ``None``.

    Requires every gate: the caller asked, the spec declares a grade, the
    model predicate is permutation-invariant, and ``n`` is small enough
    that canonicalizing over ``n!`` permutations pays for itself.
    """
    if not requested or rounds < 1 or n > MAX_SYMMETRY_N:
        return None
    if spec.symmetry == "none":
        return None
    if not spec.predicate(n).is_symmetric:
        return None
    return spec.symmetry


def explore(
    spec: ConformanceSpec | str,
    *,
    n: int | None = None,
    rounds: int | None = None,
    prune_decided: bool = False,
    max_d_size: int | None = None,
    workers: int = 1,
    max_violations: int | None = None,
    engine: str = "incremental",
    symmetry: bool = False,
    bitset: bool = True,
    scheduler: str | None = None,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> ExploreResult:
    """Exhaustively check ``spec`` over every admissible history and input.

    Args:
        spec: a :class:`ConformanceSpec` or its registry name.
        n: system size (default ``spec.exhaustive_n``).
        rounds: history depth (default ``spec.rounds(n)``).
        prune_decided: stop extending once all processes decided (interior
            prefixes are still checked, so no violation is lost for the
            registered invariants).
        max_d_size: cap per-process suspicion-set size (passed through to
            the enumerator; dead ends raise rather than vanish).
        workers: drain the task list with this many processes (``1``:
            in-process, no pool); above one the spec must be registered by
            name.  The replay engine always runs in-process.
        max_violations: stop early after this many violations.  Pool runs
            cancel outstanding tasks once the cap is reached; the merged
            list is truncated to the cap.
        engine: ``"incremental"`` (fork executors — see
            :mod:`repro.check.engine` — over the task decomposition of
            :mod:`repro.check.scale`) or ``"replay"`` (re-run each history
            from round 1, the oracle).  Verdicts are identical;
            ``rounds == 0`` always uses replay.
        symmetry: check one representative per process-permutation orbit.
            Applied only when every gate passes (incremental engine, spec
            declares a symmetry grade, predicate ``is_symmetric``,
            ``n ≤ MAX_SYMMETRY_N``); ``result.symmetry`` records whether it
            was in effect.  When on, ``histories``/``executions`` count
            orbit representatives, not raw histories.
        bitset: allow the engine's packed (integer-bitmask) hot path when
            the predicate provides a fast packed kernel; ``bitset=False``
            forces the set-based reference path.  Verdicts, histories and
            violations are identical either way — ``result.bitset`` records
            whether the packed path actually ran.
        scheduler: ``None`` or ``"steal"``; both name the one task
            scheduler.  ``"static"`` (the removed round-robin frontier
            split) raises.  ``result.scheduler`` records what ran:
            ``"steal"`` for the engine, ``"serial"`` for the replay loop.
        progress: emit periodic ``check.progress`` heartbeat events (obs
            tracer + stderr) during long certifications.  Heartbeats are
            environmental — timing-dependent — so they only appear when
            explicitly requested; default streams stay bit-identical.
        progress_interval: seconds between heartbeats.

    Returns:
        An :class:`ExploreResult`; ``result.ok`` is the verdict.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if engine not in ("incremental", "replay"):
        raise ValueError(
            f"engine must be 'incremental' or 'replay', got {engine!r}"
        )
    if scheduler == "static":
        raise ValueError(
            "scheduler='static' was removed: the static frontier split is "
            "gone and explore() always runs the task scheduler (pass None "
            "or 'steal')"
        )
    if scheduler not in (None, "steal"):
        raise ValueError(
            f"scheduler must be None or 'steal', got {scheduler!r}"
        )
    if not spec.supports_exhaustive:
        raise ValueError(
            f"spec {spec.name!r} is not a pure function of (inputs, "
            "D-history); use fuzz() instead"
        )
    n = spec.exhaustive_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    workers = resolve_workers(workers)
    engine_used = engine if rounds > 0 else "replay"
    symmetry_mode = (
        _effective_symmetry(spec, n, rounds, symmetry)
        if engine_used == "incremental"
        else None
    )
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive",
        workers=1, engine=engine_used,
        symmetry=symmetry_mode is not None,
    )
    started = time.perf_counter()
    engine_totals = EngineStats()
    tracer = obs.current_tracer()
    if tracer.enabled:
        tracer.begin(
            "check.explore",
            spec=spec.name, n=n, rounds=rounds, engine=engine_used,
            symmetry=result.symmetry,
        )
    try:
        input_space = [tuple(i) for i in spec.exhaustive_inputs(n)]
        result.inputs_checked = len(input_space)

        if engine_used == "replay":
            for inputs in input_space:
                _explore_serial(
                    spec, inputs, n, rounds,
                    prune_decided=prune_decided, max_d_size=max_d_size,
                    result=result, max_violations=max_violations,
                )
                if (
                    max_violations is not None
                    and len(result.violations) >= max_violations
                ):
                    break
        else:
            from repro.check.scale import run_steal

            result.scheduler = "steal"
            run_steal(
                spec, input_space, n, rounds,
                prune_decided=prune_decided, max_d_size=max_d_size,
                workers=workers, result=result,
                symmetry_mode=symmetry_mode, max_violations=max_violations,
                engine_totals=engine_totals, bitset=bitset,
                progress=progress, progress_interval=progress_interval,
            )
    finally:
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.end(
                "check.explore",
                executions=result.executions,
                histories=result.histories,
                violations=len(result.violations),
            )
    result.elapsed = time.perf_counter() - started
    metrics = obs.current_metrics()
    if metrics.enabled:
        obs.publish_fields(
            metrics, "check", result,
            fields=("executions", "histories", "pruned", "inputs_checked"),
        )
        if engine_used == "incremental":
            engine_totals.publish(metrics)
        metrics.gauge("check.workers", env=True).set(result.workers)
        metrics.histogram("check.elapsed_s", env=True).observe(result.elapsed)
    return result


# ---------------------------------------------------------------------------
# fuzzing


def fuzz(
    spec: ConformanceSpec | str,
    samples: int = 200,
    *,
    n: int | None = None,
    rounds: int | None = None,
    seed: int = 0,
) -> ExploreResult:
    """Randomized conformance runs: sampled inputs × sampled histories.

    Histories come from the predicate's constructive sampler
    (``predicate.sample_round``), so every sample is admissible by
    construction; specs with a custom ``sample_run`` (scheduler-driven
    protocols) draw whole traces instead.  Deterministic in ``seed``.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    n = spec.fuzz_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    result = ExploreResult(spec=spec.name, n=n, rounds=rounds, mode="fuzz")
    started = time.perf_counter()
    predicate = spec.predicate(n) if spec.sample_run is None else None
    seen_inputs: set[tuple[Any, ...]] = set()
    for i in range(samples):
        rng = make_rng(derive_seed("rrfd-check", spec.name, n, seed, i))
        if spec.sample_run is not None:
            trace = spec.sample_run(n, rng)
            inputs = trace.inputs
            history = trace.d_history
        else:
            inputs = spec.sample_inputs(n, rng)
            history = ()
            for _ in range(rounds):
                history = history + (predicate.sample_round(rng, history),)
            trace = spec.run(inputs, history)
        seen_inputs.add(tuple(inputs))
        result.executions += 1
        result.histories += 1
        failures = spec.failures(trace, n)
        if failures:
            result.violations.append(
                Violation(spec.name, tuple(inputs), history, tuple(failures))
            )
    result.inputs_checked = len(seen_inputs)
    result.elapsed = time.perf_counter() - started
    return result
