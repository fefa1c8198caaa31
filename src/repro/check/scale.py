"""The one exploration scheduler: a fixed task decomposition, and disk BFS.

:func:`repro.check.explore.explore` runs every engine certification
through :func:`run_steal`, in-process at ``workers=1`` and through a
process pool above that.  The replay engine is the only other exhaustive
path: a plain in-process loop in :mod:`repro.check.explore`, kept as the
oracle this scheduler is tested against, which shares none of its
scheduling, memo or merge code.  The scheduler keeps the repo's determinism
contract — byte-identical counters, violation lists and absorbed event
streams for every worker count — by construction:

- **A fixed task decomposition** (:func:`_build_tasks`).  The frontier is
  cut into a worker-count-*independent* list of about
  :data:`TARGET_TASKS` tasks, spread over the whole input space.  When an
  input's round-1 frontier is smaller than its share of tasks, the
  builder expands its undecided children *deeper* until there is enough
  parallelism, and bundles decided ones (:func:`_expand_tasks`).  Every
  task runs on a fresh explorer, and parts are merged in task-index
  order, never completion order, so the in-process run and any pool run
  produce the same result.

- **A per-process memo** (:class:`~repro.check.engine._WorkerMemo`).
  Explorers of one process share candidate lists and symmetry-table
  images, which are pure functions of their keys; the builder's
  candidate lists seed each pool worker's memo through the pool
  initializer, so the kset ``n=5`` root list (1.3 s to enumerate) is
  computed once, not once per task.  Orbit (symmetry) claims stay
  task-local: orbits are deduped globally at depth 1 by the builder, and
  a cross-task *skip* could change which representative is counted.

- **A disk-backed BFS mode** (:func:`explore_bfs`) with spill-to-disk
  frontier segments and checkpoint/resume (``repro check --bfs
  --checkpoint DIR`` / ``--resume``), for certifications whose frontier
  outgrows memory or whose wall-clock outgrows a single sitting.  The
  checkpoint format is ``rrfd-checkpoint-v2``: a JSON manifest (rewritten
  atomically after every completed task), flat text segments of packed
  round ints, and JSON task results.  Every file is read through one
  validator, so a truncated, tampered or foreign checkpoint is refused
  with :class:`CheckpointError` instead of being trusted; interrupted
  runs return ``result.partial`` and resume exactly where they stopped,
  converging to the same counts and violation set as an uninterrupted
  run.

The per-leaf hot path is :class:`_LeafStepper`: at a fixed parent
executor, a child's post-round view and decision depend only on
``(pid, D(i) mask)`` — payloads are emitted before suspicion and views
absorb after all are built — so sibling leaves share per-mask view and
decision memos instead of paying a fork + full executor step each.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import shutil
import sys
import tempfile
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from pathlib import Path
from typing import Any, Callable

from repro import obs
from repro.analysis.adversary_search import NoAdmissibleExtension
from repro.check.engine import (
    EngineStats,
    IncrementalExplorer,
    _PackedSymmetryTable,
    _SymmetryTable,
    _WorkerMemo,
)
from repro.check.explore import ExploreResult, Violation
from repro.check.spec import ConformanceSpec, InvariantFailure, get_spec
from repro.core.types import (
    DHistory,
    ExecutionRound,
    ExecutionTrace,
    RoundView,
)
from repro.harness.runner import init_worker, resolve_workers
from repro.util.bitset import domain as bitset_domain

__all__ = [
    "TARGET_TASKS",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "run_steal",
    "explore_bfs",
]

#: Tasks built per call, spread evenly over the input assignments.  Fixed —
#: never a function of the worker count — so the task list, and therefore
#: every merged counter and event stream, is identical whether 1, 2 or 16
#: workers drain it.
TARGET_TASKS = 64

CHECKPOINT_VERSION = "rrfd-checkpoint-v2"


class CheckpointError(ValueError):
    """A checkpoint file is malformed, tampered with, or of another format."""


# ---------------------------------------------------------------------------
# engine walks


def _explore_incremental(
    spec: ConformanceSpec,
    explorer: IncrementalExplorer,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    *,
    result: ExploreResult,
    prefix: DHistory = (),
    restrict: tuple[int, int] | None = None,
    max_violations: int | None = None,
) -> None:
    """Consume the engine's runs below ``prefix``, mirroring the replay loop.

    Decided subtrees share one trace *object*, so invariant checks are
    memoized by trace identity — safe because shared-trace runs are yielded
    contiguously by the DFS (no ``id()`` reuse hazard: the previous trace is
    still referenced while compared).

    On the packed path a whole decided subtree may arrive as one aggregated
    run (``count`` leaves, ``expand`` for their histories): counts roll
    straight into the totals, and only a failing shared trace pays for the
    leaf enumeration — one violation per leaf, byte-identical to the
    replay loop's list.
    """
    last_trace: ExecutionTrace | None = None
    last_failures: list[InvariantFailure] = []
    for run in explorer.runs(rounds, prefix=prefix, restrict=restrict):
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        result.histories += run.count
        if run.pruned:
            result.pruned += 1
        result.executions += run.count
        if run.trace is last_trace:
            failures = last_failures
        else:
            failures = spec.failures(run.trace, n)
            last_trace, last_failures = run.trace, failures
        if failures:
            problems = tuple(failures)
            if run.expand is None:
                result.violations.append(
                    Violation(spec.name, inputs, run.history, problems)
                )
            else:
                for history in run.expand():
                    result.violations.append(
                        Violation(spec.name, inputs, history, problems)
                    )
                    if (
                        max_violations is not None
                        and len(result.violations) >= max_violations
                    ):
                        return


# ---------------------------------------------------------------------------
# factorized leaf stepping

class _LeafStepper:
    """Shared-parent leaf evaluation: one executor, per-mask memos.

    At a fixed parent executor the emitted payloads are the same for every
    child round, and views absorb only after all views are built — so a
    child's round-``r`` view depends only on its delivery mask and a
    process's post-round decision only on ``(pid, D(pid) mask)``.  Sibling
    leaves therefore share per-mask view/decision memos instead of paying
    an executor fork + step each (~3x on decided-leaf-heavy frontiers).
    Traces are assembled field-by-field exactly as ``RoundExecutor.step``
    builds them, so ``spec.failures`` sees byte-equivalent records.
    """

    __slots__ = (
        "root", "root_decided", "prefix", "n", "r", "dom", "payloads",
        "_crashed", "_root_decisions", "_messages", "_full",
        "_viewmaps", "_decmaps", "_undecided",
        "_prefix_rounds", "_base_decisions", "_base_decided_at",
    )

    def __init__(self, explorer: IncrementalExplorer, prefix: DHistory) -> None:
        root = explorer._root_executor(prefix)
        self.root = root
        self.root_decided = root.trace.all_decided
        self.prefix = tuple(prefix)
        self.n = explorer.n
        self.r = root.trace.num_rounds + 1
        self.dom = bitset_domain(explorer.n)
        if self.root_decided:
            return  # caller must fall back to the engine walk
        if explorer.crashed_stop_emitting:
            self._crashed = frozenset(root._ever_suspected)
        else:
            self._crashed = frozenset()
        self.payloads = tuple(
            None
            if pid in self._crashed
            else root.processes[pid].copy().emit(self.r)
            for pid in range(self.n)
        )
        self._root_decisions = tuple(p.decision for p in root.processes)
        self._full = self.dom.full
        self._messages: dict[int, dict[int, Any]] = {}
        # Per-pid memos keyed by the raw D(pid) mask: the hot loops below
        # probe these once per (pid, leaf), so flat int keys beat tuple keys.
        self._viewmaps: list[dict[int, RoundView]] = [
            {} for _ in range(self.n)
        ]
        self._decmaps: list[dict[int, Any]] = [{} for _ in range(self.n)]
        self._undecided = tuple(
            pid
            for pid, decision in enumerate(self._root_decisions)
            if decision is None
        )
        root_trace = root.trace
        self._prefix_rounds = list(root_trace.rounds)
        self._base_decisions = tuple(root_trace.decisions)
        self._base_decided_at = tuple(root_trace.decided_at)

    def _view(self, pid: int, dmask: int) -> RoundView:
        viewmap = self._viewmaps[pid]
        view = viewmap.get(dmask)
        if view is None:
            dom = self.dom
            delivered = self._full & ~dmask
            messages = self._messages.get(delivered)
            if messages is None:
                payloads = self.payloads
                messages = self._messages[delivered] = {
                    sender: payloads[sender]
                    for sender in dom.set_bits(delivered)
                }
            view = RoundView.trusted(
                pid, self.r, messages, dom.to_set(dmask), self.n
            )
            viewmap[dmask] = view
        return view

    def _decision(self, pid: int, dmask: int) -> Any:
        proc = self.root.processes[pid].copy()
        if pid not in self._crashed:
            proc.emit(self.r)  # mutation parity with the live executor step
        proc.absorb(self._view(pid, dmask))
        decision = proc.decision
        self._decmaps[pid][dmask] = decision
        return decision

    def decided(self, rint: int) -> bool:
        """Would all processes be decided after child round ``rint``?"""
        n = self.n
        full = self._full
        decmaps = self._decmaps
        for pid in self._undecided:
            dmask = (rint >> (pid * n)) & full
            decmap = decmaps[pid]
            if dmask in decmap:
                decision = decmap[dmask]
            else:
                decision = self._decision(pid, dmask)
            if decision is None:
                return False
        return True

    def run(self, rint: int) -> tuple[ExecutionTrace, DHistory]:
        """Trace + history for leaf child ``prefix + (round,)``."""
        n = self.n
        full = self._full
        to_set = self.dom.to_set
        masks = [(rint >> (pid * n)) & full for pid in range(n)]
        # to_set interns, so suspicions[pid] is the *same* object the view
        # was built with — identity checks downstream stay on the fast path.
        d_round = tuple(map(to_set, masks))
        viewmaps = self._viewmaps
        views = []
        for pid in range(n):
            dmask = masks[pid]
            view = viewmaps[pid].get(dmask)
            if view is None:
                view = self._view(pid, dmask)
            views.append(view)
        record = object.__new__(ExecutionRound)
        fields = record.__dict__
        fields["round"] = self.r
        fields["payloads"] = self.payloads
        fields["views"] = tuple(views)
        fields["suspicions"] = d_round
        decisions = list(self._base_decisions)
        decided_at = list(self._base_decided_at)
        decmaps = self._decmaps
        r = self.r
        for pid in self._undecided:
            dmask = masks[pid]
            decmap = decmaps[pid]
            if dmask in decmap:
                value = decmap[dmask]
            else:
                value = self._decision(pid, dmask)
            if value is not None:
                decisions[pid] = value
                decided_at[pid] = r
        trace = object.__new__(ExecutionTrace)
        fields = trace.__dict__
        fields["n"] = n
        fields["inputs"] = self.root.inputs
        fields["rounds"] = self._prefix_rounds + [record]
        fields["decisions"] = decisions
        fields["decided_at"] = decided_at
        return trace, self.prefix + (d_round,)


# ---------------------------------------------------------------------------
# task decomposition (parent side)

def _even_ranges(total: int, parts: int) -> list[tuple[int, int]]:
    """Contiguous near-even ``[lo, hi)`` split of ``range(total)``."""
    parts = max(1, min(parts, total))
    base, extra = divmod(total, parts)
    bounds = []
    lo = 0
    for i in range(parts):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds

def _contiguous_chunks(items: list[Any], parts: int) -> list[list[Any]]:
    if not items:
        return []
    return [items[lo:hi] for lo, hi in _even_ranges(len(items), parts)]

def _expand_tasks(
    explorer: IncrementalExplorer,
    rounds: int,
    prefix: DHistory,
    budget: int,
    emit: Callable[[DHistory, int, int], None],
    depth_seen: list[int],
) -> None:
    """Recursively shard a small subtree into about ``budget`` tasks.

    A level with at least ``budget`` children is cut into ``budget`` even
    ranges.  A smaller level is probed with a :class:`_LeafStepper` (one
    protocol step per distinct ``(pid, D(pid))``, not a fork and a step per
    child): its undecided interior children are recursed into with a split
    budget, and each run of decided or full-depth children between them
    becomes one range, all emitted in DFS child order.  A level with no
    interior child is therefore one task: its children cost a step each,
    and splitting them would cost more in task set-up than it spreads.
    Deterministic — it never looks at the worker count — and the explorer
    is a builder scratchpad whose stats are discarded.
    """
    tracer = obs.current_tracer()
    packed = explorer._packed
    depth = len(prefix)
    depth_seen[0] = max(depth_seen[0], depth + 1)
    if packed is not None:
        state = packed.extension_state(packed.domain.pack_history(prefix))
        children: list[Any] = explorer._admissible_packed(
            state, depth, tracer
        )
    else:
        children = explorer._admissible(prefix)
    count = len(children)
    if count == 0:
        raise NoAdmissibleExtension(explorer.predicate, prefix)
    if count >= budget:
        for lo, hi in _even_ranges(count, budget):
            emit(prefix, lo, hi)
        return
    interior: dict[int, Any] = {}  # child index -> its (unpacked) round
    if depth + 1 < rounds:
        stepper = _LeafStepper(explorer, prefix)
        if not stepper.root_decided:
            dom = stepper.dom
            for i, child in enumerate(children):
                if packed is not None:
                    if not stepper.decided(child):
                        interior[i] = dom.unpack_round(child)
                elif not stepper.decided(dom.pack_round(child)):
                    interior[i] = child
    sub_budget = -(-budget // max(1, len(interior)))
    start = 0
    for i, d_round in interior.items():
        if start < i:
            emit(prefix, start, i)
        _expand_tasks(
            explorer, rounds, prefix + (d_round,), sub_budget, emit,
            depth_seen,
        )
        start = i + 1
    if start < count:
        emit(prefix, start, count)

def _build_tasks(
    spec: ConformanceSpec,
    input_space: list[tuple[Any, ...]],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    symmetry_mode: str | None,
    bitset: bool,
    max_violations: int | None,
    observe: bool,
) -> tuple[list[dict[str, Any]], _WorkerMemo, int, int]:
    """The fixed task decomposition: payloads, builder memo, depth, skips.

    Each input assignment gets an even share of :data:`TARGET_TASKS`.
    Task kinds: ``("list", [prefix, ...])`` — resume the DFS below each
    prefix (symmetry shards); ``("range", parent, lo, hi)`` — the slice
    ``[lo:hi)`` of ``parent``'s candidate list.  With symmetry on, the
    depth-1 frontier is orbit-deduped *globally* here, before sharding —
    tasks then only need task-local tables for deeper levels; the orbits
    cut here are returned as the fourth element so ``skipped_symmetric``
    counts them.  Candidate lists and symmetry images computed while
    building land in ``builder_memo``, which serves the in-process run and
    seeds every pool worker's memo.
    """
    payloads: list[dict[str, Any]] = []
    builder_memo = _WorkerMemo()
    depth_seen = [1]
    builder_skipped = 0
    share = -(-TARGET_TASKS // max(1, len(input_space)))  # ceil, >= 1
    for inputs in input_space:
        base = {
            "spec": spec.name, "inputs": inputs, "n": n, "rounds": rounds,
            "prune_decided": prune_decided, "max_d_size": max_d_size,
            "symmetry": symmetry_mode, "max_violations": max_violations,
            "observe": observe, "bitset": bitset,
        }

        def add(task: tuple[Any, ...], base: dict[str, Any] = base) -> None:
            payloads.append({**base, "task": task, "index": len(payloads)})

        explorer = IncrementalExplorer(
            spec.protocol(n),
            spec.predicate(n),
            inputs,
            crashed_stop_emitting=spec.crashed_stop_emitting,
            prune_decided=prune_decided,
            max_d_size=max_d_size,
            symmetry=None,
            bitset=bitset,
            memo=builder_memo,
        )
        tracer = obs.current_tracer()
        if explorer.bitset:
            packed = explorer._packed
            state0 = packed.extension_state(())
            candidates: list[Any] = explorer._admissible_packed(
                state0, 0, tracer
            )
        else:
            candidates = explorer._admissible(())
        if not candidates:
            raise NoAdmissibleExtension(explorer.predicate, ())
        if symmetry_mode is not None:
            images = builder_memo.images
            if explorer.bitset:
                try:
                    table = _PackedSymmetryTable(
                        inputs, symmetry_mode, explorer._packed.domain, images
                    )
                    frontier: list[Any] = [
                        (rint,) for rint in candidates if table.claim((rint,))
                    ]
                except TypeError:  # uncomparable inputs: no dedupe, sound
                    frontier = [(rint,) for rint in candidates]
            else:
                table = _SymmetryTable(inputs, symmetry_mode, images)
                frontier = [
                    (d_round,)
                    for d_round in candidates
                    if table.claim((d_round,))
                ]
            builder_skipped += len(candidates) - len(frontier)
            for chunk in _contiguous_chunks(frontier, share):
                add(("list", chunk))
            continue

        def emit(
            prefix: DHistory, lo: int, hi: int,
            explorer: IncrementalExplorer = explorer,
            add: Callable[..., None] = add,
        ) -> None:
            if explorer.bitset:
                parent: tuple[Any, ...] = (
                    explorer._packed.domain.pack_history(prefix)
                )
            else:
                parent = tuple(prefix)
            add(("range", parent, lo, hi))

        _expand_tasks(explorer, rounds, (), share, emit, depth_seen)
    return payloads, builder_memo, depth_seen[0], builder_skipped


# ---------------------------------------------------------------------------
# worker side

#: The pool worker's memo, set by :func:`_init_scale_worker`.
_WORKER: dict[str, _WorkerMemo] = {}

def _init_scale_worker(
    parent_path: list[str], front: dict[Any, list[int]] | None
) -> None:
    """Pool initializer: ``sys.path``, then a memo seeded with ``front``."""
    init_worker(parent_path)
    _WORKER["memo"] = _WorkerMemo(front)

def _scale_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool entry: resolve the spec by name, run one task."""
    return _scale_task_impl(get_spec(payload["spec"]), payload, _WORKER["memo"])

def _run_range(
    spec: ConformanceSpec,
    explorer: IncrementalExplorer,
    inputs: tuple[Any, ...],
    n: int,
    rounds: int,
    parent: tuple[Any, ...],
    lo: int,
    hi: int,
    result: ExploreResult,
    max_violations: int | None,
) -> None:
    """Check slice ``[lo:hi)`` of ``parent``'s candidate list.

    Fast path (packed kernel; range tasks never carry symmetry): leaf
    children — depth-``rounds`` or decided-under-prune — go through the
    :class:`_LeafStepper`; maximal runs of interior children are batched
    into single engine ``restrict`` walks.  Violations appear in exactly
    the DFS order, and histories / executions / pruned match the engine
    walk one for one.
    """
    packed = explorer._packed
    depth = len(parent)
    depth_leaf = depth + 1 == rounds
    if packed is None or not (depth_leaf or explorer.prune_decided):
        # The set path, or every in-range child is interior (or an
        # aggregated decided subtree): the engine's restricted walk is
        # already the right tool.
        _explore_incremental(
            spec, explorer, inputs, n, rounds, result=result,
            prefix=parent, restrict=(lo, hi), max_violations=max_violations,
        )
        return
    # On the packed path the builder ships parents as packed round ints.
    prefix = packed.domain.unpack_history(parent)
    tracer = obs.current_tracer()
    state = packed.extension_state(tuple(parent))
    all_children = explorer._admissible_packed(state, depth, tracer)
    if not all_children:
        raise NoAdmissibleExtension(explorer.predicate, prefix)
    children = all_children[lo:hi]
    if not children:
        return
    stepper = _LeafStepper(explorer, prefix)
    if stepper.root_decided:
        # Builder invariant says range parents are undecided; stay sound if
        # a protocol breaks it (e.g. truncated replay) via the engine walk.
        _explore_incremental(
            spec, explorer, inputs, n, rounds, result=result,
            prefix=prefix, restrict=(lo, hi), max_violations=max_violations,
        )
        return
    stats = explorer.stats
    spec_failures = spec.failures
    i = 0
    total = len(children)
    while i < total:
        if (
            max_violations is not None
            and len(result.violations) >= max_violations
        ):
            return
        rint = children[i]
        if depth_leaf or stepper.decided(rint):
            trace, history = stepper.run(rint)
            stats.visited += 1
            stats.rounds_executed += 1
            result.histories += 1
            result.executions += 1
            if not depth_leaf:
                result.pruned += 1
            failures = spec_failures(trace, n)
            if failures:
                result.violations.append(
                    Violation(spec.name, inputs, history, tuple(failures))
                )
            i += 1
        else:
            j = i + 1
            while j < total and not stepper.decided(children[j]):
                j += 1
            _explore_incremental(
                spec, explorer, inputs, n, rounds, result=result,
                prefix=prefix, restrict=(lo + i, lo + j),
                max_violations=max_violations,
            )
            i = j

def _scale_task_impl(
    spec: ConformanceSpec, payload: dict[str, Any], memo: _WorkerMemo
) -> dict[str, Any]:
    """Run one task; return its part dict for :func:`_merge_parts`.

    A fresh explorer per task keeps every deterministic counter and event
    a function of the task alone (a warm explorer carried across tasks
    would make them depend on which tasks shared a worker); the process
    memo is what makes the rebuild cheap.
    """
    inputs = tuple(payload["inputs"])
    n = payload["n"]
    rounds = payload["rounds"]
    max_violations = payload.get("max_violations")
    task = payload["task"]
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive"
    )
    engine_stats: dict[str, int] = {}

    def work() -> None:
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.begin(
                "check.task", index=payload.get("index", 0), kind=task[0],
            )
        try:
            explorer = IncrementalExplorer(
                spec.protocol(n),
                spec.predicate(n),
                inputs,
                crashed_stop_emitting=spec.crashed_stop_emitting,
                prune_decided=payload["prune_decided"],
                max_d_size=payload["max_d_size"],
                symmetry=payload["symmetry"],
                bitset=payload["bitset"],
                memo=memo,
            )
            result.bitset = explorer.bitset
            if task[0] == "list":
                for prefix in task[1]:
                    _explore_incremental(
                        spec, explorer, inputs, n, rounds,
                        result=result, prefix=prefix,
                        max_violations=max_violations,
                    )
                    if (
                        max_violations is not None
                        and len(result.violations) >= max_violations
                    ):
                        break
            else:
                _, parent, lo, hi = task
                _run_range(
                    spec, explorer, inputs, n, rounds, parent, lo, hi,
                    result, max_violations,
                )
            engine_stats.update(explorer.stats.snapshot())
        finally:
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.end(
                    "check.task",
                    histories=result.histories,
                    violations=len(result.violations),
                )

    part: dict[str, Any]
    if payload.get("observe"):
        local_tracer = obs.Tracer()
        local_metrics = obs.Metrics()
        with obs.tracing(local_tracer), obs.collecting(local_metrics):
            work()
        part = {
            "records": list(local_tracer.records),
            "dropped": local_tracer.dropped,
            "metrics": local_metrics.snapshot(),
        }
    else:
        work()
        part = {}
    part.update({
        "executions": result.executions,
        "histories": result.histories,
        "pruned": result.pruned,
        "bitset": result.bitset,
        "engine_stats": engine_stats,
        "violations": [
            (v.inputs, v.history, [(f.invariant, f.message) for f in v.failures])
            for v in result.violations
        ],
    })
    return part


# ---------------------------------------------------------------------------
# the task scheduler

def run_steal(
    spec: ConformanceSpec,
    input_space: list[tuple[Any, ...]],
    n: int,
    rounds: int,
    *,
    prune_decided: bool,
    max_d_size: int | None,
    workers: int,
    result: ExploreResult,
    symmetry_mode: str | None,
    max_violations: int | None,
    engine_totals: EngineStats,
    bitset: bool = True,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> None:
    """Run the fixed task list in-process, or drain it with a process pool.

    Called from :func:`repro.check.explore.explore`; fills ``result`` in
    place.  One worker runs the tasks in this process, sharing the
    builder's memo; more start a pool whose workers' memos are seeded from
    it.  Pool submission is bounded (about two tasks in flight per
    worker) so early violations can cancel cheaply.  Either way parts are
    merged in task-index order, so the output does not depend on the
    worker count.
    """
    observe = obs.current_tracer().enabled or obs.current_metrics().enabled
    payloads, builder_memo, frontier_depth, builder_skipped = _build_tasks(
        spec, input_space, n, rounds,
        prune_decided=prune_decided, max_d_size=max_d_size,
        symmetry_mode=symmetry_mode, bitset=bitset,
        max_violations=max_violations, observe=observe,
    )
    result.skipped_symmetric += builder_skipped
    used = max(1, min(workers, len(payloads)))
    result.workers = used
    result.scale = {
        "tasks": len(payloads),
        "tasks_done": 0,
        "frontier_depth": frontier_depth,
    }
    parts: dict[int, dict[str, Any]] = {}
    started = time.monotonic()
    last_beat = started

    def heartbeat(force: bool = False) -> None:
        nonlocal last_beat
        if not progress:
            return
        now = time.monotonic()
        if not force and now - last_beat < progress_interval:
            return
        last_beat = now
        done = len(parts)
        histories = sum(p["histories"] for p in parts.values())
        violations = sum(len(p["violations"]) for p in parts.values())
        tracer = obs.current_tracer()
        if tracer.enabled:
            tracer.event(
                "check.progress",
                {"ts": time.time(), "elapsed_s": round(now - started, 3)},
                spec=spec.name, tasks_done=done,
                tasks_total=len(payloads), histories=histories,
                violations=violations, workers=used,
                frontier_depth=frontier_depth,
            )
        print(
            f"[check] {spec.name}: {done}/{len(payloads)} tasks, "
            f"{histories} histories, {violations} violation(s), "
            f"{now - started:.0f}s elapsed ({used} workers)",
            file=sys.stderr, flush=True,
        )

    violations_so_far = 0
    if used == 1:
        # In-process: no pool and no registry requirement; the builder memo
        # serves every task.
        for index, payload in enumerate(payloads):
            parts[index] = _scale_task_impl(spec, payload, builder_memo)
            violations_so_far += len(parts[index]["violations"])
            heartbeat()
            if (
                max_violations is not None
                and violations_so_far >= max_violations
            ):
                break
    else:
        _require_registered(spec)
        with ProcessPoolExecutor(
            max_workers=used, initializer=_init_scale_worker,
            initargs=(list(sys.path), builder_memo.packed),
        ) as pool:
            pending: dict[Any, int] = {}
            next_index = 0
            in_flight = used * 2
            stop = False
            while pending or (next_index < len(payloads) and not stop):
                while (
                    not stop
                    and next_index < len(payloads)
                    and len(pending) < in_flight
                ):
                    future = pool.submit(_scale_task, payloads[next_index])
                    pending[future] = next_index
                    next_index += 1
                done, _ = wait(
                    set(pending),
                    timeout=(progress_interval if progress else None),
                    return_when=FIRST_COMPLETED,
                )
                for future in done:
                    index = pending.pop(future)
                    parts[index] = future.result()
                    violations_so_far += len(parts[index]["violations"])
                if (
                    max_violations is not None
                    and violations_so_far >= max_violations
                ):
                    stop = True
                    for future in pending:
                        future.cancel()
                    pending = {}
                heartbeat()
    heartbeat(force=True)
    _merge_parts(spec, result, parts, engine_totals, max_violations)
    result.scale.update({
        "tasks_done": len(parts),
        "shared_hits": engine_totals.shared_hits,
        "shared_misses": engine_totals.shared_misses,
    })


def _require_registered(spec: ConformanceSpec) -> None:
    """Pool workers re-resolve the spec by name; refuse a stand-in."""
    try:
        registered = get_spec(spec.name)
    except KeyError:
        registered = None
    if registered is not spec:
        raise ValueError(
            f"workers>1 needs a registered spec; {spec.name!r} is not the "
            "registered instance (register it, or run with workers=1)"
        )


def _merge_parts(
    spec: ConformanceSpec,
    result: ExploreResult,
    parts: dict[int, dict[str, Any]],
    engine_totals: EngineStats,
    max_violations: int | None,
) -> None:
    """Fold task part dicts into ``result`` in task-index order.

    Merging in index order — never completion order — is what keeps
    counters, violation lists and absorbed event streams reproducible for
    any worker count.
    """
    tracer = obs.current_tracer()
    metrics = obs.current_metrics()
    for index in sorted(parts):
        part = parts[index]
        stats = part["engine_stats"]
        result.executions += part["executions"]
        result.histories += part["histories"]
        result.pruned += part["pruned"]
        result.bitset = result.bitset or part["bitset"]
        result.visited += stats["visited"]
        result.skipped_symmetric += stats["skipped_symmetric"]
        result.rounds_executed += stats["rounds_executed"]
        engine_totals.merge(stats)
        if tracer.enabled and part.get("records"):
            tracer.absorb(part["records"])
            tracer.dropped += part.get("dropped", 0)
        if metrics.enabled and part.get("metrics"):
            metrics.merge(part["metrics"])
        for inputs, history, failures in part["violations"]:
            result.violations.append(Violation(
                spec.name, tuple(inputs), history,
                tuple(InvariantFailure(i, m) for i, m in failures),
            ))
    if max_violations is not None:
        del result.violations[max_violations:]


# ---------------------------------------------------------------------------
# disk-backed BFS with checkpoint/resume

# Files: ``manifest.json``; frontier segments ``*.seg`` — one prefix per
# line, its packed round ints in decimal, space-separated; task results
# ``res_*.json``.  Nothing on disk is unpickled or otherwise executed.

_BARE_NAME = re.compile(r"[A-Za-z0-9_]+(\.[A-Za-z0-9_]+)*")

_MANIFEST_KEYS = frozenset(
    {"version", "fingerprint", "next_task_id", "pending", "done"}
)
_PENDING_KEYS = frozenset({"id", "input", "level", "seg", "count"})
_DONE_KEYS = frozenset({"id", "res", "violations"})
_RESULT_COUNTS = (
    "histories", "executions", "pruned", "visited", "rounds_executed",
)
_RESULT_KEYS = frozenset(
    {"task_id", "input", "level", "violations", *_RESULT_COUNTS}
)


def _atomic_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="ascii")
    os.replace(tmp, path)

def _atomic_json(path: Path, doc: dict[str, Any]) -> None:
    _atomic_text(path, json.dumps(doc, indent=1, sort_keys=True))

def _write_segment(path: Path, prefixes: list[tuple[int, ...]]) -> None:
    _atomic_text(
        path, "".join(" ".join(map(str, p)) + "\n" for p in prefixes)
    )

def _nat(value: Any, what: str, top: int | None = None, low: int = 0) -> int:
    """``value`` as an int in ``[low, top]``, else ``ValueError``."""
    if type(value) is not int or value < low or (
        top is not None and value > top
    ):
        bound = f">= {low}" if top is None else f"in [{low}, {top}]"
        raise ValueError(f"{what} must be an int {bound}, got {value!r:.40}")
    return value

def _bare(name: Any, what: str) -> str:
    if not isinstance(name, str) or not _BARE_NAME.fullmatch(name):
        raise ValueError(
            f"{what} {name!r} is not a bare file name inside the directory"
        )
    return name

def _entries(
    items: Any, keys: frozenset[str], what: str
) -> list[dict[str, Any]]:
    if not isinstance(items, list) or not all(
        isinstance(item, dict) and set(item) == keys for item in items
    ):
        raise ValueError(f"{what} must be a list of {sorted(keys)} records")
    return items

def _check_manifest(
    doc: Any, *, fingerprint: str, inputs: int, rounds: int
) -> dict[str, Any]:
    if not isinstance(doc, dict):
        raise ValueError("the manifest is not a JSON object")
    version = doc.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint version {version!r} is not {CHECKPOINT_VERSION!r}"
        )
    if doc.get("fingerprint") != fingerprint:
        raise ValueError(
            "checkpoint was written for different parameters "
            "(spec/n/rounds/prune/max_d_size/segment_size/inputs must all "
            "match to resume)"
        )
    if set(doc) != _MANIFEST_KEYS:
        raise ValueError(f"manifest keys must be {sorted(_MANIFEST_KEYS)}")
    next_id = _nat(doc["next_task_id"], "next_task_id")
    for task in _entries(doc["pending"], _PENDING_KEYS, "pending"):
        _nat(task["id"], "pending id", next_id - 1)
        _nat(task["input"], "pending input", inputs - 1)
        _nat(task["level"], "pending level", rounds, low=1)
        _bare(task["seg"], "pending seg")
        _nat(task["count"], "pending count")
    for entry in _entries(doc["done"], _DONE_KEYS, "done"):
        _nat(entry["id"], "done id", next_id - 1)
        _bare(entry["res"], "done res")
        _nat(entry["violations"], "done violations")
    return doc

def _parse_segment(
    text: str, *, level: int, count: int, top: int
) -> list[tuple[int, ...]]:
    if text and not text.endswith("\n"):
        raise ValueError("truncated: the last prefix is incomplete")
    rows = text.split("\n")[:-1]
    if len(rows) != count:
        raise ValueError(f"{len(rows)} prefixes, the manifest says {count}")
    prefixes = []
    for row in rows:
        fields = row.split(" ")
        if len(fields) != level or not all(f.isdigit() for f in fields):
            raise ValueError(
                f"prefix {row[:80]!r} is not {level} decimal round ints"
            )
        prefix = tuple(map(int, fields))
        if max(prefix) > top:
            raise ValueError(f"round int out of range in {row[:80]!r}")
        prefixes.append(prefix)
    return prefixes

def _violation(
    item: Any, rounds: int, top: int
) -> tuple[tuple[int, ...], list[tuple[str, str]]]:
    """One ``[[packed history], [[invariant, message], ...]]`` pair."""
    history, failures = (
        item if type(item) is list and len(item) == 2 else (None, None)
    )
    if not (
        type(history) is list and 1 <= len(history) <= rounds
        and type(failures) is list
        and all(
            type(f) is list and len(f) == 2
            and all(type(x) is str for x in f)
            for f in failures
        )
    ):
        raise ValueError(f"malformed violation {item!r:.80}")
    phist = tuple(_nat(r, "violation round int", top) for r in history)
    return phist, [(f[0], f[1]) for f in failures]

def _check_result(
    doc: Any, *, task_id: int, inputs: int, rounds: int, top: int
) -> dict[str, Any]:
    if not isinstance(doc, dict) or set(doc) != _RESULT_KEYS:
        raise ValueError(f"a result must hold exactly {sorted(_RESULT_KEYS)}")
    if _nat(doc["task_id"], "task_id") != task_id:
        raise ValueError(f"result of task {doc['task_id']}, not {task_id}")
    _nat(doc["input"], "input", inputs - 1)
    _nat(doc["level"], "level", rounds, low=1)
    for key in _RESULT_COUNTS:
        _nat(doc[key], key)
    if type(doc["violations"]) is not list:
        raise ValueError("violations must be a list")
    violations = [_violation(item, rounds, top) for item in doc["violations"]]
    return {**doc, "violations": violations}

def _load_checkpoint(
    directory: Path, name: Any, kind: str, **expect: Any
) -> Any:
    """Read and validate one checkpoint file — the only checkpoint reader.

    ``kind`` is ``"manifest"``, ``"segment"`` or ``"result"``; ``expect``
    carries what the file must agree with (fingerprint, counts, bounds).
    Any defect — a name that is not a bare file name inside ``directory``,
    a missing or unreadable file, truncation, a wrong type or an
    out-of-range value — raises :class:`CheckpointError` naming the file.
    """
    shown = directory / name if isinstance(name, str) else directory
    try:
        text = (directory / _bare(name, "file")).read_text(encoding="ascii")
        if kind == "segment":
            return _parse_segment(text, **expect)
        doc = json.loads(text)
        if kind == "manifest":
            return _check_manifest(doc, **expect)
        return _check_result(doc, **expect)
    except (OSError, ValueError, TypeError, KeyError, RecursionError) as exc:
        raise CheckpointError(f"checkpoint file {shown}: {exc}") from None

def _bfs_fingerprint(
    spec: ConformanceSpec,
    n: int,
    rounds: int,
    prune_decided: bool,
    max_d_size: int | None,
    segment_size: int,
    input_space: list[tuple[Any, ...]],
) -> str:
    doc = {
        "version": CHECKPOINT_VERSION, "spec": spec.name, "n": n,
        "rounds": rounds, "prune_decided": prune_decided,
        "max_d_size": max_d_size, "segment_size": segment_size,
        "inputs": repr(input_space),
    }
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()
    ).hexdigest()

def _bfs_task(payload: dict[str, Any]) -> dict[str, Any]:
    """Pool entry for one BFS frontier segment."""
    return _bfs_task_impl(get_spec(payload["spec"]), payload, _WORKER["memo"])

def _bfs_task_impl(
    spec: ConformanceSpec, payload: dict[str, Any], memo: _WorkerMemo
) -> dict[str, Any]:
    """Expand/judge one frontier segment; spill children, write results.

    Prefixes arrive grouped by parent (segments are built parent-major),
    so one parent executor — and one :class:`_LeafStepper` when the parent
    is undecided — serves a whole run of siblings.  Leaves (full depth, or
    decided under prune) are judged in place; interior children are packed
    and spilled as next-level segments.  All files are written atomically
    with deterministic names, so re-running a task after a crash or a
    budget stop simply overwrites identical content.
    """
    inputs = tuple(payload["inputs"])
    n = payload["n"]
    rounds = payload["rounds"]
    level = payload["level"]
    segment_size = payload["segment_size"]
    directory = Path(payload["dir"])
    task_id = payload["task_id"]
    prefixes = _load_checkpoint(
        directory, payload["seg"], "segment",
        level=level, count=payload["count"], top=(1 << n * n) - 1,
    )
    explorer = IncrementalExplorer(
        spec.protocol(n),
        spec.predicate(n),
        inputs,
        crashed_stop_emitting=spec.crashed_stop_emitting,
        prune_decided=payload["prune_decided"],
        max_d_size=payload["max_d_size"],
        symmetry=None,
        bitset=True,
        memo=memo,
    )
    packed = explorer._packed
    if packed is None:
        raise RuntimeError(
            "BFS worker needs the packed kernel (validated by explore_bfs)"
        )
    dom = packed.domain
    tracer = obs.current_tracer()
    prune = explorer.prune_decided
    res: dict[str, Any] = {
        "task_id": task_id, "input": payload["input_index"], "level": level,
        "histories": 0, "executions": 0, "pruned": 0, "visited": 0,
        "violations": [],  # (packed history, [(invariant, message), ...])
    }
    children: list[dict[str, Any]] = []  # next-level {"seg", "count"}
    out: list[tuple[int, ...]] = []

    def spill() -> None:
        name = f"seg_{task_id:06d}_{len(children):04d}.seg"
        _write_segment(directory / name, out[:segment_size])
        children.append({"seg": name, "count": len(out[:segment_size])})
        del out[:segment_size]

    def expand(prefix: tuple[int, ...], parent_state: object) -> None:
        state = packed.advance(parent_state, prefix[-1])
        kids = explorer._admissible_packed(state, level, tracer)
        if not kids:
            raise NoAdmissibleExtension(
                explorer.predicate, dom.unpack_history(prefix)
            )
        out.extend(prefix + (kid,) for kid in kids)
        while len(out) >= segment_size:
            spill()

    index = 0
    total = len(prefixes)
    while index < total:
        parent = prefixes[index][:-1]
        j = index
        while j < total and prefixes[j][:-1] == parent:
            j += 1
        group = prefixes[index:j]
        parent_hist = dom.unpack_history(parent)
        parent_state = packed.extension_state(tuple(parent))
        root = explorer._root_executor(parent_hist)
        if root.trace.all_decided:
            # Decided parent (reachable only without prune): every leaf in
            # the subtree shares the truncated trace — judge it once.
            shared_failures: tuple[Any, ...] | None = None
            for prefix in group:
                res["visited"] += 1
                if level == rounds:
                    res["histories"] += 1
                    res["executions"] += 1
                    if shared_failures is None:
                        shared_failures = tuple(
                            (f.invariant, f.message)
                            for f in spec.failures(root.trace, n)
                        )
                    if shared_failures:
                        res["violations"].append(
                            (prefix, list(shared_failures))
                        )
                else:
                    expand(prefix, parent_state)
        else:
            stepper = _LeafStepper(explorer, parent_hist)
            for prefix in group:
                res["visited"] += 1
                rint = prefix[-1]
                if level == rounds or (prune and stepper.decided(rint)):
                    trace, _history = stepper.run(rint)
                    res["histories"] += 1
                    res["executions"] += 1
                    if level < rounds:
                        res["pruned"] += 1
                    failures = spec.failures(trace, n)
                    if failures:
                        res["violations"].append((
                            prefix,
                            [(f.invariant, f.message) for f in failures],
                        ))
                else:
                    expand(prefix, parent_state)
        index = j
    while out:
        spill()
    res["rounds_executed"] = explorer.stats.rounds_executed
    res_name = f"res_{task_id:06d}.json"
    _atomic_json(directory / res_name, res)
    return {
        "res": res_name,
        "children": children,
        "histories": res["histories"],
        "violations": len(res["violations"]),
    }

def explore_bfs(
    spec: ConformanceSpec | str,
    *,
    n: int | None = None,
    rounds: int | None = None,
    prune_decided: bool = False,
    max_d_size: int | None = None,
    workers: int = 1,
    max_violations: int | None = None,
    checkpoint: str | Path | None = None,
    resume: bool = False,
    segment_size: int = 4096,
    max_tasks: int | None = None,
    progress: bool = False,
    progress_interval: float = 5.0,
) -> ExploreResult:
    """Breadth-first exhaustive certification with a disk-backed frontier.

    The frontier lives on disk as flat segments of packed round ints; a
    JSON manifest (format ``rrfd-checkpoint-v2``) tracks pending and
    completed tasks and is rewritten atomically after every completion, so
    the search survives a kill at any point.  Every file is read back
    through one validator: a truncated, tampered or foreign checkpoint
    raises :class:`CheckpointError` naming the file.  Pass ``checkpoint=DIR`` to persist — then
    ``resume=True`` (CLI: ``repro check --bfs --checkpoint DIR --resume``)
    re-runs only the pending tasks and produces the same counts and
    violation set as an uninterrupted run.  ``max_tasks`` bounds one
    sitting: the result comes back with ``partial=True`` and merged
    counters for the completed portion.

    Requires the packed bitset kernel and ``rounds >= 1``; symmetry
    reduction is not applied (counts match the default ``explore()``).
    Counters and the violation *set* are deterministic for every worker
    count; violations are ordered canonically (by input index, then packed
    history) rather than in DFS order.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    if not spec.supports_exhaustive:
        raise ValueError(
            f"spec {spec.name!r} is not a pure function of (inputs, "
            "D-history); use fuzz() instead"
        )
    n = spec.exhaustive_n if n is None else n
    rounds = spec.rounds(n) if rounds is None else rounds
    if rounds < 1:
        raise ValueError("explore_bfs needs rounds >= 1")
    if segment_size < 1:
        raise ValueError("segment_size must be >= 1")
    predicate = spec.predicate(n)
    packed = predicate.packed()
    if packed is None or not packed.fast:
        raise ValueError(
            "disk-backed BFS needs the predicate's packed (bitset) kernel; "
            f"{spec.name!r} at n={n} has none"
        )
    workers = resolve_workers(workers)
    dom = bitset_domain(n)
    result = ExploreResult(
        spec=spec.name, n=n, rounds=rounds, mode="exhaustive",
        engine="incremental", bitset=True, scheduler="bfs",
    )
    started = time.perf_counter()
    input_space = [tuple(i) for i in spec.exhaustive_inputs(n)]
    result.inputs_checked = len(input_space)
    fingerprint = _bfs_fingerprint(
        spec, n, rounds, prune_decided, max_d_size, segment_size, input_space
    )
    cleanup = checkpoint is None
    if checkpoint is None:
        if resume:
            raise ValueError("resume=True needs an explicit checkpoint dir")
        directory = Path(tempfile.mkdtemp(prefix="rrfd-bfs-"))
    else:
        directory = Path(checkpoint)
        directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    try:
        if resume:
            if not manifest_path.exists():
                raise ValueError(
                    f"no checkpoint manifest at {manifest_path}"
                )
            manifest = _load_checkpoint(
                directory, manifest_path.name, "manifest",
                fingerprint=fingerprint, inputs=len(input_space),
                rounds=rounds,
            )
        else:
            if manifest_path.exists():
                raise ValueError(
                    f"{manifest_path} already exists; pass resume=True to "
                    "continue it, or point --checkpoint at a fresh directory"
                )
            pending: list[dict[str, Any]] = []
            next_id = 0
            roots = packed.admissible_round_ints((), max_d_size=max_d_size)
            if not roots:
                raise NoAdmissibleExtension(predicate, ())
            chunks = _contiguous_chunks(
                [(rint,) for rint in roots], -(-len(roots) // segment_size)
            )
            for input_index in range(len(input_space)):
                for chunk in chunks:
                    name = f"seg_root_{input_index:03d}_{next_id:06d}.seg"
                    _write_segment(directory / name, chunk)
                    pending.append({
                        "id": next_id, "input": input_index, "level": 1,
                        "seg": name, "count": len(chunk),
                    })
                    next_id += 1
            manifest = {
                "version": CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "next_task_id": next_id,
                "pending": pending,
                "done": [],
            }
            _atomic_json(manifest_path, manifest)

        pending = list(manifest["pending"])
        done: list[dict[str, Any]] = list(manifest["done"])
        next_id = manifest["next_task_id"]
        # Tasks stay in ``pending`` until their result is durably recorded —
        # dispatch marks them, completion removes them — so a kill while a
        # task is in flight leaves it pending in the manifest for resume.
        dispatched: set[int] = set()

        def next_task() -> dict[str, Any] | None:
            for task in pending:
                if task["id"] not in dispatched:
                    return task
            return None

        completed_this_run = 0
        violations_seen = sum(e.get("violations", 0) for e in done)
        stop = False
        last_beat = time.monotonic()

        def make_payload(task: dict[str, Any]) -> dict[str, Any]:
            return {
                "spec": spec.name,
                "inputs": input_space[task["input"]],
                "input_index": task["input"],
                "n": n, "rounds": rounds,
                "prune_decided": prune_decided, "max_d_size": max_d_size,
                "dir": str(directory), "task_id": task["id"],
                "level": task["level"], "seg": task["seg"],
                "count": task["count"], "segment_size": segment_size,
            }

        def on_done(task: dict[str, Any], summary: dict[str, Any]) -> None:
            nonlocal next_id, completed_this_run, violations_seen
            pending.remove(task)
            dispatched.discard(task["id"])
            done.append({
                "id": task["id"], "res": summary["res"],
                "violations": summary["violations"],
            })
            for child in summary["children"]:
                pending.append({
                    "id": next_id, "input": task["input"],
                    "level": task["level"] + 1, "seg": child["seg"],
                    "count": child["count"],
                })
                next_id += 1
            completed_this_run += 1
            violations_seen += summary["violations"]
            manifest.update(
                next_task_id=next_id, pending=pending, done=done
            )
            _atomic_json(manifest_path, manifest)

        def heartbeat(force: bool = False) -> None:
            nonlocal last_beat
            if not progress:
                return
            now = time.monotonic()
            if not force and now - last_beat < progress_interval:
                return
            last_beat = now
            tracer = obs.current_tracer()
            if tracer.enabled:
                tracer.event(
                    "check.progress", spec=spec.name, scheduler="bfs",
                    tasks_done=len(done), tasks_pending=len(pending),
                    violations=violations_seen, workers=result.workers,
                )
            print(
                f"[check] {spec.name} bfs: {len(done)} tasks done, "
                f"{len(pending)} pending, {violations_seen} violation(s)",
                file=sys.stderr, flush=True,
            )

        def budget_spent() -> bool:
            if max_tasks is not None and completed_this_run >= max_tasks:
                return True
            return (
                max_violations is not None
                and violations_seen >= max_violations
            )

        if workers > 1 and pending:
            _require_registered(spec)
            result.workers = workers
            with ProcessPoolExecutor(
                max_workers=workers, initializer=_init_scale_worker,
                initargs=(list(sys.path), None),
            ) as pool:
                in_flight: dict[Any, dict[str, Any]] = {}
                while (pending or in_flight) and not stop:
                    while len(in_flight) < workers and not budget_spent():
                        task = next_task()
                        if task is None:
                            break
                        dispatched.add(task["id"])
                        in_flight[pool.submit(_bfs_task, make_payload(task))] = task
                    if not in_flight:
                        break
                    finished, _ = wait(
                        set(in_flight),
                        timeout=(progress_interval if progress else None),
                        return_when=FIRST_COMPLETED,
                    )
                    for future in finished:
                        task = in_flight.pop(future)
                        on_done(task, future.result())
                    heartbeat()
                    if budget_spent() and not in_flight:
                        stop = True
        else:
            result.workers = 1
            memo = _WorkerMemo()
            while pending and not budget_spent():
                task = pending[0]
                on_done(
                    task, _bfs_task_impl(spec, make_payload(task), memo)
                )
                heartbeat()
        heartbeat(force=True)
        result.partial = bool(pending)

        # Merge: counters in task-id order; violations canonically ordered
        # (input index, then packed history) — BFS completion order is
        # scheduling noise, the sort makes the output worker-count-proof.
        collected: list[tuple[int, tuple[int, ...], list[Any]]] = []
        levels = 1
        top = (1 << n * n) - 1
        for entry in sorted(done, key=lambda e: e["id"]):
            res = _load_checkpoint(
                directory, entry["res"], "result", task_id=entry["id"],
                inputs=len(input_space), rounds=rounds, top=top,
            )
            result.histories += res["histories"]
            result.executions += res["executions"]
            result.pruned += res["pruned"]
            result.visited += res["visited"]
            result.rounds_executed += res["rounds_executed"]
            levels = max(levels, res["level"])
            for phist, failures in res["violations"]:
                collected.append((res["input"], phist, failures))
        collected.sort(key=lambda item: (item[0], item[1]))
        for input_index, phist, failures in collected:
            result.violations.append(Violation(
                spec.name, input_space[input_index],
                dom.unpack_history(phist),
                tuple(InvariantFailure(i, m) for i, m in failures),
            ))
        if max_violations is not None:
            del result.violations[max_violations:]
        result.scale = {
            "tasks_done": len(done),
            "tasks_pending": len(pending),
            "levels": levels,
            "segment_size": segment_size,
            "checkpoint": None if cleanup else str(directory),
            "resumed": resume,
        }
    finally:
        if cleanup:
            shutil.rmtree(directory, ignore_errors=True)
    result.elapsed = time.perf_counter() - started
    return result
