"""Incremental exploration engine: fork executors instead of replaying.

The replay-based checker (:mod:`repro.check.explore`'s legacy path) pays
``O(len(h))`` protocol rounds per history ``h``: every leaf of the
admissible-history tree re-executes the protocol from round 1.  Over a tree
with ``E`` edges that is ``O(E · depth)`` rounds.  This engine instead keeps
one live :class:`~repro.core.executor.RoundExecutor` per DFS path and
**forks** it at branch points (:meth:`RoundExecutor.fork` — process states
copied via :meth:`~repro.core.algorithm.RoundProcess.copy`, per-round trace
records shared), so each tree edge costs exactly one protocol round:
``O(E)`` total, with three further reductions layered on top:

- **move semantics** — the child explored last consumes its parent's
  executor outright, saving one fork per interior node;
- **decided-subtree sharing** — once every process has decided, the
  executor stops stepping (matching the legacy ``stop_when_all_decided``
  truncation), so an entire decided subtree shares one executor and one
  trace *object*, which lets callers memoize invariant checks by trace
  identity;
- **candidate memoization** — ``admissible_rounds`` enumeration is cached
  per :meth:`~repro.core.predicate.Predicate.extension_state` summary, so
  e.g. a per-round predicate (``extension_state() == ()``) enumerates its
  ``(2^n)^n`` candidate families exactly once per run.

Symmetry reduction (optional).  A permutation ``π`` of process ids acts on
a node ``(inputs, h)`` by ``(π·inputs)(π(i)) = inputs(i)`` and
``(π·h)(π(i), r) = π(h(i, r))``.  When the predicate is
:attr:`~repro.core.predicate.Predicate.is_symmetric`, the admissible
extensions of ``π·h`` are exactly the ``π``-images of those of ``h``; when
additionally the *spec* declares symmetry (see
:class:`~repro.check.spec.ConformanceSpec`), exploring one representative
per orbit suffices.  The engine canonicalizes each node to
``min over π of serialize(π·(inputs, h))`` and consults a transposition
table: a node whose canonical form was already claimed by a *visited* node
is skipped together with its whole subtree.  Because the table only ever
skips in favour of an explored orbit-equivalent, coverage of one node per
orbit holds by induction on depth — for any input space, serial or
per-worker.  Two soundness grades exist (``"exact"`` vs ``"labels"``);
see ``docs/API.md`` for the argument and the ``kset`` caveat.

Anything the engine cannot handle identically to replay (``rounds == 0``,
specs that are not pure functions of ``(inputs, D-history)``) stays on the
replay path — :func:`repro.check.explore.explore` routes automatically.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Iterator, NamedTuple, Sequence

from repro import obs
from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    admissible_rounds,
)
from repro.core.adversary import Adversary
from repro.core.algorithm import Protocol
from repro.core.executor import RoundExecutor
from repro.core.predicate import Predicate
from repro.core.types import DHistory, DRound, ExecutionTrace, PackedDHistory
from repro.util.bitset import BitsetDomain, domain as bitset_domain

__all__ = [
    "MAX_SYMMETRY_N",
    "EngineStats",
    "EngineRun",
    "IncrementalExplorer",
]

#: Beyond this system size the n! canonicalization outweighs the pruning.
MAX_SYMMETRY_N = 6


#: :class:`EngineStats` fields that depend on task placement (environmental).
_ENV_FIELDS = ("shared_hits", "shared_misses")


@dataclass
class EngineStats:
    """Work counters for one :class:`IncrementalExplorer` (accumulating).

    Fields stay plain ints so the DFS inner loop pays one integer add per
    count; the observability contract (snapshot / merge / publish) is the
    shared one from :mod:`repro.obs.metrics`.
    """

    visited: int = 0  # nodes expanded or checked (skipped nodes excluded)
    skipped_symmetric: int = 0  # subtree roots cut by the transposition table
    rounds_executed: int = 0  # protocol rounds stepped = tree edges paid for
    forks: int = 0  # executor forks (edges minus moves minus shared)
    memo_hits: int = 0  # set-keyed candidate lists served from the memo
    memo_misses: int = 0  # set-keyed candidate lists enumerated from scratch
    # Packed-path twins: keys are int-tuple extension states, never
    # frozensets.  Kept separate from the set-keyed counters so the
    # obs-smoke job can confirm *which* representation a run actually used
    # (a packed E22 run must show packed traffic and zero set traffic).
    memo_hits_packed: int = 0  # packed-keyed candidate lists served from memo
    memo_misses_packed: int = 0  # packed-keyed candidate lists enumerated
    aggregated_subtrees: int = 0  # decided subtrees counted without expansion
    # Per-process memo traffic (:class:`_WorkerMemo`).  These two are
    # *environmental*: which tasks share a process, and so which of them
    # finds a candidate list already computed, depends on scheduling, so
    # they vary run to run and across worker counts.  Every other field
    # stays deterministic — a load from the process memo is counted as a
    # memo miss too (the list was not in the explorer's own memo), keeping
    # the deterministic counters identical however tasks are placed.
    shared_hits: int = 0  # candidate lists loaded from the process memo
    shared_misses: int = 0  # probes that found no entry there

    def snapshot(self) -> dict[str, int]:
        """Plain picklable counter snapshot (the shared obs contract)."""
        return obs.field_snapshot(self, _STAT_FIELDS)

    def merge(self, other: "EngineStats | dict[str, int]") -> None:
        """Add another explorer's counters (or their snapshot) into this one."""
        snapshot = other.snapshot() if isinstance(other, EngineStats) else other
        obs.merge_field_snapshots(self, snapshot, _STAT_FIELDS)

    def publish(self, metrics: "obs.Metrics", prefix: str = "engine") -> None:
        """Export the counters as ``{prefix}.{field}`` metrics.

        The process-memo traffic goes to the environmental half, so the
        deterministic half is the same at every worker count.
        """
        snapshot = self.snapshot()
        for name in _ENV_FIELDS:
            value = snapshot.pop(name)
            if metrics.enabled:
                metrics.counter(f"{prefix}.{name}", env=True).inc(value)
        obs.publish_fields(metrics, prefix, self, fields=snapshot)


#: Every task snapshots and merges its stats, so resolve the fields once.
_STAT_FIELDS = tuple(f.name for f in dataclasses.fields(EngineStats))


class EngineRun(NamedTuple):
    """One checked node: a full-depth history or a decided interior prefix.

    ``trace`` is byte-identical to what ``spec.run(inputs, history)`` would
    produce (the executor truncates at all-decided exactly like the legacy
    runner) but may be *shared* between consecutive runs under a decided
    subtree — callers can memoize invariant checks via ``trace is last``.

    On the packed path (symmetry off), an entire decided subtree whose
    leaves all share this trace may arrive as a *single* run with
    ``count`` set to the number of full-depth histories it stands for and
    ``history`` the decided prefix; ``expand()`` lazily enumerates the
    individual leaf histories in DFS order (callers only need them when
    the shared trace fails an invariant).  Plain runs have ``count == 1``
    and ``expand is None``.  (A NamedTuple rather than a dataclass: the
    engine creates one per visited node, and tuple construction is ~3×
    cheaper than a frozen dataclass — measurable at E22 node counts.)
    """

    history: DHistory
    trace: ExecutionTrace
    pruned: bool = False
    count: int = 1
    expand: Callable[[], Iterator[DHistory]] | None = None


class _WorkerMemo:
    """Pure-function caches shared by the explorers of one process and call.

    A certification builds a fresh :class:`IncrementalExplorer` per task,
    so that every deterministic counter is a function of the task alone.
    What the explorers share through this memo is work whose result
    depends only on its key, so sharing it can skip recomputation but never
    change a verdict or a count:

    - ``packed`` — packed candidate lists per folded predicate state (the
      task builder's lists seed it, and with it each pool worker);
    - ``set`` — the set path's candidate lists per ``(inputs, extension
      state)``.  The lists do not depend on the inputs: the inputs are in
      the key only to keep the set kernel's sharing within one input
      assignment, because E22 measures the packed kernel against this
      reference kernel (shared across floodset n=3's eight inputs, the
      set runs get ~4x faster and E22's packed-vs-set ratio check fails);
    - ``images`` — symmetry-table permutation images per round, for both
      table kinds (they depend only on ``n``).
    """

    __slots__ = ("packed", "set", "images")

    def __init__(self, packed: dict[Any, list[int]] | None = None) -> None:
        self.packed: dict[Any, list[int]] = {} if packed is None else packed
        self.set: dict[Any, list[DRound]] = {}
        self.images: dict[Any, tuple[Any, ...]] = {}


class _CursorAdversary(Adversary):
    """Feeds the executor exactly one staged suspicion round at a time.

    Unlike :class:`~repro.core.adversary.ScriptedAdversary` it holds no
    global script — the DFS decides the next round at each edge, stages it,
    and steps once.
    """

    needs_history = False  # the staged round is the whole strategy

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._staged: DRound | None = None

    def stage(self, d_round: DRound) -> None:
        self._staged = d_round

    def suspicions(self, round_number: int, history: DHistory, payloads: Any) -> DRound:
        if self._staged is None:
            raise RuntimeError("no suspicion round staged for this step")
        d_round, self._staged = self._staged, None
        return d_round


class _SymmetryTable:
    """Transposition table over permutation orbits of ``(inputs, history)``.

    ``mode="exact"``: the inputs participate literally, so two nodes collide
    iff some permutation *in the stabilizer of the inputs* maps one history
    to the other.  ``mode="labels"``: the permuted inputs are first
    relabelled by first occurrence, treating input values as interchangeable
    labels (the ``kset`` distinct-inputs case, where the literal stabilizer
    is trivial and exact mode would prune nothing).

    Per-``DRound`` permutation images are cached in ``images`` (pass one
    dict to share it between tables of the same ``n``): the DFS
    re-encounters the same few thousand families at every level, so image
    computation amortizes to one pass per distinct family.
    """

    def __init__(
        self,
        inputs: tuple[Any, ...],
        mode: str,
        images: dict[Any, Any] | None = None,
    ) -> None:
        if mode not in ("exact", "labels"):
            raise ValueError(f"unknown symmetry mode {mode!r}")
        n = len(inputs)
        self.perms: list[tuple[int, ...]] = list(
            itertools.permutations(range(n))
        )
        self._round_images: dict[Any, Any] = {} if images is None else images
        input_pieces: list[tuple[Any, ...]] = []
        for perm in self.perms:
            image: list[Any] = [None] * n
            for i, value in enumerate(inputs):
                image[perm[i]] = value
            if mode == "labels":
                relabel: dict[Any, int] = {}
                for value in image:
                    if value not in relabel:
                        relabel[value] = len(relabel)
                input_pieces.append(tuple(relabel[v] for v in image))
            else:
                input_pieces.append(tuple(image))
        self._input_pieces = input_pieces
        self._seen: set[tuple[Any, ...]] = set()

    def _images(self, d_round: DRound) -> tuple[tuple[Any, ...], ...]:
        cached = self._round_images.get(d_round)
        if cached is None:
            n = len(d_round)
            images = []
            for perm in self.perms:
                image: list[Any] = [None] * n
                for i, suspected in enumerate(d_round):
                    image[perm[i]] = tuple(sorted(perm[x] for x in suspected))
                images.append(tuple(image))
            cached = tuple(images)
            self._round_images[d_round] = cached
        return cached

    def canonical(self, history: DHistory) -> tuple[Any, ...]:
        """The orbit-minimal serialization of ``(inputs, history)``."""
        per_round = [self._images(d_round) for d_round in history]
        best: tuple[Any, ...] | None = None
        for idx in range(len(self.perms)):
            piece = (self._input_pieces[idx],) + tuple(
                images[idx] for images in per_round
            )
            if best is None or piece < best:
                best = piece
        assert best is not None
        return best

    def claim(self, history: DHistory) -> bool:
        """True iff this node's orbit is fresh (caller must explore it)."""
        key = self.canonical(history)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


class _PackedSymmetryTable:
    """The transposition table of :class:`_SymmetryTable` over packed rounds.

    Claim decisions depend only on the orbit partition, not on how a
    canonical representative is serialized, so this table makes *exactly*
    the same claim/skip decisions as the set-based one for the same claim
    sequence — the differential tests compare skip counts across the two.
    What changes is the cost: per-round permutation images are ints
    (computed once per distinct round through the domain's per-permutation
    ``2^n`` mask maps), and canonicalization narrows the candidate
    permutations level by level — first to those minimizing the input
    piece (precomputed), then per round — instead of building all ``n!``
    serializations.  ``images`` shares the per-round image cache between
    tables over the same domain.
    """

    def __init__(
        self,
        inputs: tuple[Any, ...],
        mode: str,
        dom: BitsetDomain,
        images: dict[Any, Any] | None = None,
    ) -> None:
        if mode not in ("exact", "labels"):
            raise ValueError(f"unknown symmetry mode {mode!r}")
        self.dom = dom
        n = len(inputs)
        self.perms: list[tuple[int, ...]] = list(
            itertools.permutations(range(n))
        )
        self._round_images: dict[Any, Any] = {} if images is None else images
        input_pieces: list[tuple[Any, ...]] = []
        for perm in self.perms:
            image: list[Any] = [None] * n
            for i, value in enumerate(inputs):
                image[perm[i]] = value
            if mode == "labels":
                relabel: dict[Any, int] = {}
                for value in image:
                    if value not in relabel:
                        relabel[value] = len(relabel)
                input_pieces.append(tuple(relabel[v] for v in image))
            else:
                input_pieces.append(tuple(image))
        min_piece = min(input_pieces)
        self._min_piece = min_piece
        self._min_idx: tuple[int, ...] = tuple(
            idx for idx, piece in enumerate(input_pieces) if piece == min_piece
        )
        self._seen: set[tuple[Any, ...]] = set()

    def _images(self, rint: int) -> tuple[int, ...]:
        cached = self._round_images.get(rint)
        if cached is None:
            dom = self.dom
            cached = tuple(dom.permute_round(rint, perm) for perm in self.perms)
            self._round_images[rint] = cached
        return cached

    def canonical(self, history: PackedDHistory) -> tuple[Any, ...]:
        """Orbit-minimal serialization of ``(inputs, packed history)``.

        Only permutations minimizing the input piece can produce the
        lexicographic minimum; each round then narrows the survivors to
        those minimizing its image, so most claims touch a handful of
        permutations instead of all ``n!``.
        """
        survivors = self._min_idx
        key: list[Any] = [self._min_piece]
        depth = len(history)
        for level, rint in enumerate(history):
            images = self._images(rint)
            if len(survivors) == 1:
                idx = survivors[0]
                key.extend(self._images(r)[idx] for r in history[level:])
                break
            best = min(images[idx] for idx in survivors)
            key.append(best)
            if level + 1 < depth:
                survivors = tuple(
                    idx for idx in survivors if images[idx] == best
                )
        return tuple(key)

    def claim(self, history: PackedDHistory) -> bool:
        """True iff this node's orbit is fresh (caller must explore it)."""
        key = self.canonical(history)
        if key in self._seen:
            return False
        self._seen.add(key)
        return True


# Stack-entry tags: how the popped node obtains its executor.
_READY = 0  # executor already attached (root / resumed prefix)
_EDGE = 1  # fork (or consume) the parent and step one staged round
_SHARED = 2  # parent is all-decided: share its executor, step nothing


class IncrementalExplorer:
    """Stateful DFS over admissible histories, one protocol round per edge.

    One instance is bound to a single ``(protocol, predicate, inputs)``
    triple; :meth:`runs` may be called repeatedly (e.g. once per prefix of
    a task) and shares the candidate memo, the symmetry table and the
    :class:`EngineStats` across calls.

    Args:
        protocol: protocol factory output for this ``n``.
        predicate: the model predicate (drives admissible extension).
        inputs: the fixed input assignment explored by this instance.
        crashed_stop_emitting: executor crash semantics (from the spec).
        prune_decided: emit decided interior prefixes as (pruned) leaves
            instead of descending below them.
        max_d_size: per-process suspicion-set size cap for the enumerator.
        symmetry: ``None`` (off), ``"exact"`` or ``"labels"`` — see
            :class:`_SymmetryTable`.  Silently disabled for the rest of the
            run if canonicalization hits uncomparable/unhashable inputs.
        bitset: route onto the packed (integer-bitmask) hot path when the
            predicate provides a fast packed kernel
            (``predicate.packed().fast``); otherwise — and always with
            ``bitset=False`` — the set-based reference path runs.  Both
            paths yield identical histories, violations and orbit skips;
            the packed path may additionally aggregate decided subtrees
            (symmetry off), which only changes ``visited`` accounting.
        memo: a :class:`_WorkerMemo` shared with the other explorers this
            process runs for the same call (candidate lists, symmetry
            images).  It only saves recomputation: results and every
            deterministic counter are the same with or without it.
    """

    def __init__(
        self,
        protocol: Protocol,
        predicate: Predicate,
        inputs: Sequence[Any],
        *,
        crashed_stop_emitting: bool = False,
        prune_decided: bool = False,
        max_d_size: int | None = None,
        symmetry: str | None = None,
        bitset: bool = True,
        memo: _WorkerMemo | None = None,
    ) -> None:
        self.protocol = protocol
        self.predicate = predicate
        self.inputs = tuple(inputs)
        self.n = len(self.inputs)
        if predicate.n != self.n:
            raise ValueError(
                f"predicate is for n={predicate.n}, inputs give n={self.n}"
            )
        self.crashed_stop_emitting = crashed_stop_emitting
        self.prune_decided = prune_decided
        self.max_d_size = max_d_size
        self.stats = EngineStats()
        # One cursor serves every executor this explorer forks: stage() is
        # always consumed by the very next step() before control returns to
        # the DFS, so the staged slot never holds two rounds at once.
        self._cursor = _CursorAdversary(self.n)
        self._candidates: dict[Any, list[DRound]] = {}
        packed = predicate.packed() if bitset else None
        self._packed = packed if packed is not None and packed.fast else None
        self.bitset = self._packed is not None
        self._packed_candidates: dict[Any, list[int]] = {}
        self._agg_counts: dict[Any, int] = {}
        self.memo = memo
        images = memo.images if memo is not None else None
        self._table: _SymmetryTable | None = None
        self._packed_table: _PackedSymmetryTable | None = None
        if symmetry:
            if self._packed is not None:
                try:
                    self._packed_table = _PackedSymmetryTable(
                        self.inputs, symmetry, self._packed.domain, images
                    )
                except TypeError:
                    # Uncomparable input values: the set-based table would
                    # disable itself on first claim — match that (sound:
                    # everything is explored).
                    self._packed_table = None
            else:
                self._table = _SymmetryTable(self.inputs, symmetry, images)

    # ------------------------------------------------------------- internals

    def _admissible(self, history: DHistory) -> list[DRound]:
        """Candidate next rounds, memoized per extension-state summary."""
        tracer = obs.current_tracer()
        try:
            key = self.predicate.extension_state(history)
            cached = self._candidates.get(key)
        except TypeError:  # unhashable summary: sound, just unmemoized
            self.stats.memo_misses += 1
            if tracer.enabled:
                tracer.event("engine.memo_miss", depth=len(history))
            return list(
                admissible_rounds(
                    self.predicate, history, max_d_size=self.max_d_size
                )
            )
        if cached is None:
            memo = self.memo
            if memo is not None:
                cached = memo.set.get((self.inputs, key))
                if cached is None:
                    self.stats.shared_misses += 1
                else:
                    self.stats.shared_hits += 1
            if cached is None:
                cached = list(
                    admissible_rounds(
                        self.predicate, history, max_d_size=self.max_d_size
                    )
                )
                if memo is not None:
                    memo.set[(self.inputs, key)] = cached
            self._candidates[key] = cached
            # A load from the process memo still counts as a miss, as on
            # the packed path below.
            self.stats.memo_misses += 1
            if tracer.enabled:
                tracer.event(
                    "engine.memo_miss", depth=len(history),
                    candidates=len(cached),
                )
        else:
            self.stats.memo_hits += 1
            if tracer.enabled:
                tracer.event("engine.memo_hit", depth=len(history))
        return cached

    def _claim(self, history: DHistory) -> bool:
        """Transposition-table probe; disables itself on type errors."""
        if self._table is None:
            return True
        try:
            return self._table.claim(history)
        except TypeError:  # uncomparable input values: fall back, stay sound
            self._table = None
            return True

    def _claim_packed(self, phistory: PackedDHistory) -> bool:
        """Packed transposition-table probe; disables itself on type errors."""
        table = self._packed_table
        if table is None:
            return True
        try:
            return table.claim(phistory)
        except TypeError:  # unhashable input values: fall back, stay sound
            self._packed_table = None
            return True

    def _admissible_packed(
        self, state: object, depth: int, tracer: "obs.Tracer"
    ) -> list[int]:
        """Packed candidate rounds, memoized per folded predicate state.

        Unlike the set path there is no ``extension_state`` recomputation
        per node — the DFS threads ``state`` through ``advance`` — and the
        memo key is the state itself (ints/int tuples by construction, so
        no unhashable escape hatch is needed).
        """
        cached = self._packed_candidates.get(state)
        if cached is None:
            memo = self.memo
            if memo is not None:
                # Candidate lists are read-only everywhere, so a list from
                # the process memo is shared as-is — copying a
                # million-entry frontier per task is real money.
                cached = memo.packed.get(state)
                if cached is None:
                    self.stats.shared_misses += 1
                else:
                    self.stats.shared_hits += 1
            if cached is None:
                cached = self._packed.admissible_round_ints(
                    (), max_d_size=self.max_d_size, state=state
                )
                if memo is not None:
                    memo.packed[state] = cached
            self._packed_candidates[state] = cached
            # A process-memo load still counts (and traces) as a packed
            # memo miss: the list was absent locally, and keeping the
            # accounting identical either way is what makes the
            # deterministic counters and the event stream invariant across
            # worker counts.
            self.stats.memo_misses_packed += 1
            if tracer.enabled:
                tracer.event(
                    "engine.memo_miss", depth=depth, candidates=len(cached)
                )
        else:
            self.stats.memo_hits_packed += 1
            if tracer.enabled:
                tracer.event("engine.memo_hit", depth=depth)
        return cached

    def _subtree_count(
        self, state: object, depth: int, depth_left: int, tracer: "obs.Tracer"
    ) -> int | None:
        """Leaves below a (decided) node, by DP over ``(state, depth_left)``.

        Returns ``None`` if any completion dead-ends: the caller then walks
        the subtree explicitly so :class:`NoAdmissibleExtension` is raised
        at the DFS-first dead end, exactly like the set-based path.  Cache
        hits count as packed memo hits — one aggregated subtree costs the
        same memo traffic as one explicit ``_admissible`` probe.
        """
        if depth_left == 0:
            return 1
        key = (state, depth_left)
        cached = self._agg_counts.get(key)
        if cached is not None:
            self.stats.memo_hits_packed += 1
            if tracer.enabled:
                tracer.event("engine.memo_hit", depth=depth)
            return cached
        children = self._admissible_packed(state, depth, tracer)
        if not children:
            return None
        if depth_left == 1:
            total = len(children)  # every child is a leaf
        else:
            advance = self._packed.advance
            total = 0
            for rint in children:
                sub = self._subtree_count(
                    advance(state, rint), depth + 1, depth_left - 1, tracer
                )
                if sub is None:
                    return None
                total += sub
        self._agg_counts[key] = total
        return total

    def _make_expand(
        self, history: DHistory, state: object, depth_left: int
    ) -> Callable[[], Iterator[DHistory]]:
        """Lazy DFS-order leaf enumeration below an aggregated subtree.

        Runs outside the engine loop (only when a shared trace fails an
        invariant), so it must not touch ``stats`` or the tracer; candidate
        lists are read from — or quietly added to — the packed memo.
        """
        packed = self._packed
        dom = packed.domain
        candidates = self._packed_candidates
        max_d_size = self.max_d_size

        def walk(h: DHistory, s: object, left: int) -> Iterator[DHistory]:
            if left == 0:
                yield h
                return
            cached = candidates.get(s)
            if cached is None:
                cached = packed.admissible_round_ints(
                    (), max_d_size=max_d_size, state=s
                )
                candidates[s] = cached
            for rint in cached:
                yield from walk(
                    h + (dom.unpack_round(rint),),
                    packed.advance(s, rint),
                    left - 1,
                )

        return lambda: walk(history, state, depth_left)

    def _root_executor(self, prefix: DHistory) -> RoundExecutor:
        executor = RoundExecutor(
            self.protocol,
            self.inputs,
            self._cursor,
            stop_when_all_decided=True,
            crashed_stop_emitting=self.crashed_stop_emitting,
        )
        for d_round in prefix:
            if executor.trace.all_decided:
                break  # legacy truncation: decided runs ignore later rounds
            executor.adversary.stage(d_round)
            executor.step()
            self.stats.rounds_executed += 1
        return executor

    # ------------------------------------------------------------------- API

    def runs(
        self,
        rounds: int,
        *,
        prefix: DHistory = (),
        restrict: tuple[int, int] | None = None,
    ) -> Iterator[EngineRun]:
        """DFS below ``prefix``, yielding every node the checker must judge.

        Yields, in exactly the legacy replay DFS order, an :class:`EngineRun`
        for every full-depth admissible history (and, with
        ``prune_decided``, for every decided interior prefix, flagged
        ``pruned=True``).  Raises :class:`NoAdmissibleExtension` when a
        reachable prefix dead-ends, like the replay enumerator.

        ``prefix`` may be given packed (a tuple of round ints) — the task
        builder ships its orbit-deduped round-1 frontier that way to keep
        task payloads small at large ``n``.

        ``restrict=(lo, hi)`` limits the walk to the children of ``prefix``
        at candidate indices ``lo:hi`` (in the enumerator's canonical
        order): the yield sequence is exactly the concatenation of
        ``runs(rounds, prefix=prefix + (child,))`` over that slice, but the
        replayed root executor is built once and shared.  This is the
        scale-out scheduler's task shape — a task names a slice of its
        parent's candidate list by index, so task payloads carry no round
        ints at all.  The shared root node itself is *not* yielded, claimed
        or counted (its accounting belongs to whoever owns the full
        frontier); ``prefix`` must therefore sit strictly above ``rounds``
        and must not itself be a prunable (all-decided) interior node.
        """
        if rounds < 1:
            raise ValueError(
                f"the incremental engine needs rounds ≥ 1, got {rounds} "
                "(use the replay path for empty histories)"
            )
        if len(prefix) > rounds:
            raise ValueError(
                f"prefix has {len(prefix)} rounds, beyond rounds={rounds}"
            )
        if restrict is not None:
            lo, hi = restrict
            if lo < 0 or hi < lo:
                raise ValueError(f"restrict must be 0 <= lo <= hi, got {restrict}")
            if len(prefix) >= rounds:
                raise ValueError(
                    "restrict needs room below the prefix: "
                    f"prefix depth {len(prefix)} at rounds={rounds}"
                )
        if prefix and type(prefix[0]) is int:
            prefix = bitset_domain(self.n).unpack_history(prefix)
        else:
            prefix = tuple(prefix)
        if self._packed is not None:
            yield from self._runs_packed(rounds, prefix, restrict)
            return
        root = self._root_executor(prefix)
        # Entries: (_READY, history, executor)
        #        | (_EDGE, history, parent_executor, d_round, consume_parent)
        #        | (_SHARED, history, executor)
        stack: list[tuple[Any, ...]] = []
        if restrict is None:
            stack.append((_READY, prefix, root))
        else:
            lo, hi = restrict
            trace = root.trace
            if trace.all_decided and self.prune_decided and prefix:
                raise ValueError(
                    "restrict below an all-decided prefix with prune_decided: "
                    "the prefix is a pruned leaf and has no task slices"
                )
            children = self._admissible(prefix)[lo:hi]
            if trace.all_decided:
                for index in range(len(children) - 1, -1, -1):
                    stack.append((_SHARED, prefix + (children[index],), root))
            else:
                last = len(children) - 1
                for index in range(last, -1, -1):
                    d_round = children[index]
                    stack.append(
                        (_EDGE, prefix + (d_round,), root, d_round,
                         index == last)
                    )
        tracer = obs.current_tracer()
        while stack:
            entry = stack.pop()
            tag, history = entry[0], entry[1]
            if tag == _EDGE:
                if not self._claim(history):
                    self.stats.skipped_symmetric += 1
                    if tracer.enabled:
                        tracer.event(
                            "engine.symmetry_skip", depth=len(history)
                        )
                    continue
                parent, d_round, consume = entry[2], entry[3], entry[4]
                if consume:
                    executor = parent  # last-popped child: move, don't copy
                else:
                    executor = parent.fork()
                    self.stats.forks += 1
                    if tracer.enabled:
                        tracer.event("engine.fork", depth=len(history))
                executor.adversary.stage(d_round)
                executor.step()
                self.stats.rounds_executed += 1
            else:
                executor = entry[2]
                if tag == _SHARED and not self._claim(history):
                    self.stats.skipped_symmetric += 1
                    if tracer.enabled:
                        tracer.event(
                            "engine.symmetry_skip", depth=len(history)
                        )
                    continue
            self.stats.visited += 1

            trace = executor.trace
            if len(history) == rounds:
                yield EngineRun(history, trace, pruned=False)
                continue
            all_decided = trace.all_decided
            if self.prune_decided and history and all_decided:
                yield EngineRun(history, trace, pruned=True)
                continue
            children = self._admissible(history)
            if not children:
                raise NoAdmissibleExtension(self.predicate, history)
            # Pushed in reverse so the LIFO pop yields siblings in candidate
            # order — the same order as iter_admissible_histories, which
            # keeps the two engines' violation lists byte-identical.
            if all_decided:
                # No process will absorb another view: the whole subtree
                # shares this executor (and thus this trace object).
                for index in range(len(children) - 1, -1, -1):
                    stack.append(
                        (_SHARED, history + (children[index],), executor)
                    )
            else:
                last = len(children) - 1
                for index in range(last, -1, -1):
                    d_round = children[index]
                    # The last candidate is pushed first, hence popped last:
                    # it may consume the parent executor instead of forking.
                    stack.append(
                        (_EDGE, history + (d_round,), executor, d_round,
                         index == last)
                    )

    # ------------------------------------------------------------ packed path

    def _runs_packed(
        self,
        rounds: int,
        prefix: DHistory,
        restrict: tuple[int, int] | None = None,
    ) -> Iterator[EngineRun]:
        """The packed twin of the set-based DFS (identical yield order).

        Differences are cost-only: candidate memoization is keyed on the
        folded packed state (no per-node ``extension_state`` recomputation),
        symmetry claims go through :class:`_PackedSymmetryTable`, and —
        symmetry off, ``prune_decided`` off — a decided subtree is counted
        by DP and yielded as one aggregated run instead of being walked.
        """
        packed = self._packed
        root = self._root_executor(prefix)
        phistory = packed.domain.pack_history(prefix)
        state = packed.extension_state(phistory)
        tracer = obs.current_tracer()
        if restrict is None:
            # The root is never claimed, matching the set path's _READY
            # entries (a task's prefixes were claimed by the task builder).
            yield from self._packed_visit(
                rounds, prefix, phistory, state, root, tracer
            )
            return
        # Restrict mode: the child loop of _packed_visit over one slice of
        # the root's candidates, without the root's own visit/aggregation —
        # the root is shared by every task slice and accounted for by none.
        lo, hi = restrict
        if root.trace.all_decided and self.prune_decided and prefix:
            raise ValueError(
                "restrict below an all-decided prefix with prune_decided: "
                "the prefix is a pruned leaf and has no task slices"
            )
        children = self._admissible_packed(state, len(prefix), tracer)[lo:hi]
        yield from self._packed_children(
            rounds, prefix, phistory, state, root, children, tracer
        )

    def _packed_visit(
        self,
        rounds: int,
        history: DHistory,
        phistory: PackedDHistory,
        state: object,
        executor: RoundExecutor,
        tracer: "obs.Tracer",
    ) -> Iterator[EngineRun]:
        """Visit one claimed node and its subtree (recursion depth ≤ rounds).

        The frame owns ``executor``: children fork it, except the last,
        which consumes it (the move semantics of the stack-based walk).
        """
        self.stats.visited += 1
        trace = executor.trace
        depth = len(history)
        if depth == rounds:
            yield EngineRun(history, trace)
            return
        if trace.all_decided:
            if self.prune_decided:
                if history:
                    yield EngineRun(history, trace, pruned=True)
                    return
            elif self._packed_table is None:
                count = self._subtree_count(
                    state, depth, rounds - depth, tracer
                )
                if count is not None:
                    self.stats.aggregated_subtrees += 1
                    yield EngineRun(
                        history, trace, False, count,
                        self._make_expand(history, state, rounds - depth),
                    )
                    return
                # A completion dead-ends somewhere below: walk explicitly so
                # NoAdmissibleExtension fires at the DFS-first dead end.
        children = self._admissible_packed(state, depth, tracer)
        if not children:
            raise NoAdmissibleExtension(self.predicate, history)
        yield from self._packed_children(
            rounds, history, phistory, state, executor, children, tracer
        )

    def _packed_children(
        self,
        rounds: int,
        history: DHistory,
        phistory: PackedDHistory,
        state: object,
        executor: RoundExecutor,
        children: list[int],
        tracer: "obs.Tracer",
    ) -> Iterator[EngineRun]:
        """Claim, step and visit ``children`` of one node, in order.

        The node's own visit and a task slice's restricted walk share this
        loop.  Children fork ``executor``, except the last, which consumes
        it; below an all-decided node they share it and step nothing.
        """
        packed = self._packed
        dom = packed.domain
        visit = self._packed_visit
        depth = len(history)
        all_decided = executor.trace.all_decided
        last = len(children) - 1
        for index, rint in enumerate(children):
            child_ph = phistory + (rint,)
            if self._packed_table is not None and not self._claim_packed(
                child_ph
            ):
                self.stats.skipped_symmetric += 1
                if tracer.enabled:
                    tracer.event("engine.symmetry_skip", depth=depth + 1)
                continue
            d_round = dom.unpack_round(rint)
            if all_decided:
                # No process will absorb another view: the whole subtree
                # shares this executor (and thus this trace object).
                child_exec = executor
            else:
                if index == last:
                    child_exec = executor  # last sibling: move, don't copy
                else:
                    child_exec = executor.fork()
                    self.stats.forks += 1
                    if tracer.enabled:
                        tracer.event("engine.fork", depth=depth + 1)
                child_exec.adversary.stage(d_round)
                child_exec.step()
                self.stats.rounds_executed += 1
            yield from visit(
                rounds, history + (d_round,), child_ph,
                packed.advance(state, rint), child_exec, tracer,
            )
