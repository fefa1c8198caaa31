"""The one exploration scheduler: task decomposition, worker counts, BFS/resume.

The determinism contract under test, in four layers:

- **scheduler vs oracle** (the task scheduler vs the serial replay loop):
  identical histories / executions / pruned / skipped_symmetric and the
  violation list in exact DFS order.  ``visited`` / ``rounds_executed``
  are *work* counters the replay loop does not keep.
- **cross-worker-count** (workers 1/2/4): *every* deterministic counter,
  the violation list and the absorbed obs event stream are bit-identical
  — the task decomposition is fixed and worker-count-independent, and
  the in-process run executes the very same tasks as a pool.
- **resume** (BFS): a budget-interrupted checkpointed run continued with
  ``resume=True`` converges to exactly the uninterrupted result.
- **checkpoint validation**: every file a resume reads is validated, and
  a truncated, mistyped, escaping or foreign file is refused with
  :class:`CheckpointError`.
"""

import functools
import json

import pytest

from repro import obs
from repro.analysis.adversary_search import iter_admissible_histories
from repro.check.engine import _SymmetryTable
from repro.check.explore import explore
from repro.check.scale import (
    CHECKPOINT_VERSION,
    TARGET_TASKS,
    CheckpointError,
    explore_bfs,
)
from repro.check.spec import _REGISTRY, all_specs, get_spec, register
from repro.core.predicates import CrashSync
from repro.util.bitset import BitsetDomain

EXHAUSTIVE = [spec for spec in all_specs() if spec.supports_exhaustive]


def _search_sig(result):
    """What the scheduler and the replay oracle must agree on, in order."""
    return (
        result.histories,
        result.executions,
        result.pruned,
        result.skipped_symmetric,
        [
            (
                v.inputs,
                v.history,
                tuple((f.invariant, f.message) for f in v.failures),
            )
            for v in result.violations
        ],
    )


def _full_sig(result):
    """Every deterministic counter — the cross-worker-count signature."""
    return _search_sig(result) + (result.visited, result.rounds_executed)


def _violation_keys(result):
    # BFS orders violations canonically rather than in DFS order, so
    # compare it as a set of hashable keys.
    return frozenset(_search_sig(result)[4])


@functools.cache
def _replay(name, prune=False):
    """The replay oracle at n<=3 (results are only read, so share them)."""
    spec = get_spec(name)
    return explore(
        spec, n=min(spec.exhaustive_n, 3), prune_decided=prune,
        engine="replay",
    )


def _event_stream(tracer):
    return tuple(
        (rec.kind, rec.name, rec.depth, tuple(sorted(rec.attrs.items())))
        for rec in tracer.records
    )


@pytest.fixture
def weak_kset():
    weak = get_spec("kset").weakened(
        lambda n: CrashSync(n, n - 1), suffix="scale-test"
    )
    register(weak)
    try:
        yield weak
    finally:
        del _REGISTRY[weak.name]


class TestStealDifferential:
    """The task scheduler against the serial replay loop, the oracle."""

    def test_every_spec_matches_serial_both_prune_modes(self):
        """The acceptance gate: byte-identical outcomes at n<=3, on both
        the packed and the set kernel."""
        for spec in EXHAUSTIVE:
            n = min(spec.exhaustive_n, 3)
            for prune in (False, True):
                replay = _replay(spec.name, prune)
                assert replay.scheduler == "serial"
                for bitset in (True, False):
                    fast = explore(
                        spec, n=n, prune_decided=prune, bitset=bitset
                    )
                    assert fast.scheduler == "steal"
                    assert _search_sig(fast) == _search_sig(replay), (
                        spec.name, prune, bitset,
                    )

    def test_matches_replay_at_n4(self):
        """An oracle independent of the scheduler at n=4: 4 235 histories,
        on both kernels in a pool."""
        replay = explore("kset", n=4, prune_decided=True, engine="replay")
        for bitset in (True, False):
            pooled = explore(
                "kset", n=4, prune_decided=True, workers=2, bitset=bitset
            )
            assert pooled.workers == 2 and pooled.bitset == bitset
            assert _search_sig(pooled) == _search_sig(replay), bitset
            assert pooled.histories == 4235

    def test_violations_in_exact_serial_dfs_order(self, weak_kset):
        # At n=3 the weakened kset is one task (no undecided round-1
        # child); at n=4 pruned it is 64 tasks merged from a pool.
        for n, prune in ((3, False), (3, True), (4, True)):
            replay = explore(
                weak_kset, n=n, prune_decided=prune, engine="replay"
            )
            assert replay.violations  # the weakening must actually bite
            for bitset in (True, False):
                fast = explore(
                    weak_kset.name, n=n, prune_decided=prune,
                    bitset=bitset, workers=2,
                )
                assert fast.workers == (2 if n == 4 else 1)
                assert _search_sig(fast) == _search_sig(replay), (
                    n, prune, bitset,
                )

    def test_symmetry_route_matches_serial(self):
        """With symmetry on, the scheduler checks one history per orbit: for
        an exact-grade spec that is the number of distinct canonical forms
        among the replay oracle's histories, on both kernels and at any
        worker count."""
        for name in ("adopt-commit", "floodset"):
            spec = get_spec(name)
            predicate = spec.predicate(3)
            histories = list(
                iter_admissible_histories(predicate, spec.rounds(3))
            )
            orbits = 0
            for inputs in spec.exhaustive_inputs(3):
                table = _SymmetryTable(tuple(inputs), "exact")
                orbits += len({table.canonical(h) for h in histories})
            packed = explore(name, n=3, symmetry=True)
            reference = explore(name, n=3, symmetry=True, bitset=False)
            pooled = explore(name, n=3, symmetry=True, workers=2)
            assert packed.symmetry and packed.bitset and not reference.bitset
            assert packed.histories == orbits < _replay(name).histories
            assert _search_sig(reference) == _search_sig(packed)
            assert _full_sig(pooled) == _full_sig(packed)

    def test_set_path_and_replay_route_match_serial(self):
        replay = _replay("kset")
        assert _search_sig(
            explore("kset", n=3, bitset=False, workers=2)
        ) == _search_sig(replay)
        # Replay is the oracle: it always runs in-process, whatever the
        # requested worker count.
        again = explore("kset", n=3, engine="replay", workers=2)
        assert again.workers == 1 and again.scheduler == "serial"
        assert _search_sig(again) == _search_sig(replay)

    def test_max_violations_truncates_like_serial(self, weak_kset):
        # n=4 pruned runs in a pool, which cancels outstanding tasks.
        for n, prune in ((3, False), (4, True)):
            replay = explore(
                weak_kset, n=n, prune_decided=prune, max_violations=3,
                engine="replay",
            )
            pooled = explore(
                weak_kset.name, n=n, prune_decided=prune, max_violations=3,
                workers=2,
            )
            assert len(pooled.violations) == len(replay.violations) == 3
            assert _search_sig(pooled)[4] == _search_sig(replay)[4], n


class TestWorkerCountInvariance:
    @pytest.mark.parametrize("spec", EXHAUSTIVE, ids=lambda s: s.name)
    def test_default_explore_identical_at_1_and_2_workers(self, spec):
        n = min(spec.exhaustive_n, 3)
        signatures, streams = [], []
        for workers in (1, 2):
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                result = explore(spec.name, n=n, workers=workers)
            signatures.append(_full_sig(result))
            streams.append(_event_stream(tracer))
        assert signatures[1] == signatures[0]
        assert streams[1] == streams[0]

    def test_counters_and_events_bit_identical_at_1_2_4(self):
        signatures, streams = [], []
        for workers in (1, 2, 4):
            tracer = obs.Tracer()
            with obs.tracing(tracer):
                result = explore(
                    "kset", n=4, prune_decided=True, workers=workers,
                )
            signatures.append(_full_sig(result))
            streams.append(_event_stream(tracer))
        assert signatures[1] == signatures[0]
        assert signatures[2] == signatures[0]
        assert streams[1] == streams[0]
        assert streams[2] == streams[0]

    def test_deterministic_metrics_identical_at_1_and_2_workers(self):
        docs = []
        for workers in (1, 2):
            metrics = obs.Metrics()
            with obs.collecting(metrics):
                explore("kset", n=4, prune_decided=True, workers=workers)
            docs.append(metrics.to_doc())
        assert docs[1]["values"] == docs[0]["values"]
        # Process-memo traffic depends on task placement: environmental.
        assert "engine.shared_hits" in docs[0]["env"]

    def test_scale_bookkeeping_reported(self):
        result = explore("kset", n=4, prune_decided=True, workers=2)
        assert result.scheduler == "steal"
        assert result.scale["tasks"] == result.scale["tasks_done"] > 1
        assert result.scale["frontier_depth"] >= 1
        # The builder's root candidate list seeds every worker's memo, so
        # each task's first probe is a hit.
        assert result.scale["shared_hits"] >= result.scale["tasks"]


class TestOneScheduler:
    def test_static_scheduler_removed(self):
        with pytest.raises(ValueError, match="static frontier split"):
            explore("kset", n=3, scheduler="static")
        with pytest.raises(ValueError, match="scheduler"):
            explore("kset", n=3, scheduler="serial")

    def test_steal_keyword_names_the_default_scheduler(self):
        default = explore("kset", n=3, prune_decided=True)
        steal = explore("kset", n=3, prune_decided=True, scheduler="steal")
        assert default.scheduler == steal.scheduler == "steal"
        assert _full_sig(steal) == _full_sig(default)

    def test_symmetry_images_computed_once_per_call(self, monkeypatch):
        """Structural guard: in-process, orbit images cost at most one
        ``permute_round`` per (distinct candidate round, permutation) — not
        one table's worth per task."""
        spec = get_spec("adopt-commit")
        packed = spec.predicate(3).packed()
        kernel = type(packed).admissible_round_ints
        rounds_seen: set[int] = set()
        calls = [0]
        permute = BitsetDomain.permute_round

        def enumerate_rounds(self, *args, **kwargs):
            found = kernel(self, *args, **kwargs)
            rounds_seen.update(found)
            return found

        def counted(self, rint, perm):
            calls[0] += 1
            return permute(self, rint, perm)

        monkeypatch.setattr(
            type(packed), "admissible_round_ints", enumerate_rounds
        )
        monkeypatch.setattr(BitsetDomain, "permute_round", counted)
        result = explore("adopt-commit", n=3, symmetry=True)
        assert result.symmetry and result.bitset
        assert result.scale["tasks"] > 1
        assert 0 < calls[0] <= len(rounds_seen) * 6  # 3! permutations


class TestSmallFrontierUtilization:
    def test_small_frontier_expands_past_round_one(self):
        """ho-uniform-voting n=3 has one input assignment and a 4-round
        round-1 frontier, far below that input's share of tasks, so the
        builder deepens the expansion until there is work to spread."""
        replay = _replay("ho-uniform-voting")
        pooled = explore("ho-uniform-voting", n=3, workers=2)
        assert pooled.inputs_checked == 1
        assert pooled.scale["tasks"] > 4
        assert pooled.scale["frontier_depth"] >= 2
        assert _search_sig(pooled) == _search_sig(replay)

    def test_unregistered_single_task_runs_in_process(self):
        solo = get_spec("kset").weakened(
            lambda n: CrashSync(n, 0), suffix="scale-solo"
        )
        # One admissible round-1 family -> one task -> no pool, so the
        # unregistered spec is fine and reports the single worker used.
        result = explore(solo, n=3, workers=4)
        assert result.workers == 1
        assert result.histories == 1

    def test_unregistered_multi_task_spec_rejected(self):
        # n=4 with two crashes has a round-1 frontier past its task share,
        # so it is cut into TARGET_TASKS ranges and needs the pool.
        weak = get_spec("kset").weakened(
            lambda n: CrashSync(n, 2), suffix="scale-unregistered"
        )
        with pytest.raises(ValueError, match="registered"):
            explore(weak, n=4, workers=2)


class TestProgressHeartbeat:
    def test_progress_emits_check_progress_events(self, capsys):
        tracer = obs.Tracer()
        with obs.tracing(tracer):
            explore(
                "kset", n=3, prune_decided=True,
                progress=True, progress_interval=0.0,
            )
        beats = [rec for rec in tracer.records if rec.name == "check.progress"]
        assert beats
        attrs = beats[-1].attrs
        assert attrs["tasks_done"] == attrs["tasks_total"]
        assert attrs["histories"] == 61  # kset n=3 pruned frontier
        assert "elapsed_s" not in attrs  # wall clock is environmental
        assert "[check]" in capsys.readouterr().err


class TestTaskDecomposition:
    def test_target_task_count_reached_on_large_frontiers(self):
        result = explore("kset", n=4, prune_decided=True, workers=2)
        assert result.scale["tasks"] == TARGET_TASKS

    def test_task_target_spread_over_the_input_space(self):
        """floodset n=3 has 8 input assignments: 8 tasks each, not 64."""
        result = explore("floodset", n=3)
        assert result.inputs_checked == 8
        assert result.scale["tasks"] == TARGET_TASKS


class TestBfs:
    def test_bfs_matches_serial_both_prune_modes(self):
        for prune in (False, True):
            replay = _replay("kset", prune)
            bfs = explore_bfs(
                get_spec("kset"), n=3, prune_decided=prune, segment_size=64
            )
            assert _search_sig(bfs)[:4] == _search_sig(replay)[:4], prune
            assert _violation_keys(bfs) == _violation_keys(replay), prune

    def test_bfs_every_spec_matches_serial(self):
        for spec in EXHAUSTIVE:
            n = min(spec.exhaustive_n, 3)
            replay = _replay(spec.name, True)
            bfs = explore_bfs(spec, n=n, prune_decided=True)
            assert _search_sig(bfs)[:4] == _search_sig(replay)[:4], spec.name
            assert _violation_keys(bfs) == _violation_keys(replay), spec.name

    def test_bfs_finds_the_same_violations(self, weak_kset):
        replay = explore(weak_kset, n=3, engine="replay")
        bfs = explore_bfs(weak_kset, n=3, segment_size=32)
        assert replay.violations
        assert _violation_keys(bfs) == _violation_keys(replay)

    def test_interrupt_and_resume_converges(self, tmp_path, weak_kset):
        """The kill-and-resume acceptance test: a budget-stopped
        checkpointed run, resumed, equals the uninterrupted result, and
        both equal the replay oracle."""
        replay = explore(weak_kset, n=3, engine="replay")
        full = explore_bfs(weak_kset, n=3, segment_size=32)
        assert replay.violations
        assert _search_sig(full)[:4] == _search_sig(replay)[:4]
        assert _violation_keys(full) == _violation_keys(replay)
        ckpt = tmp_path / "ckpt"
        partial = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=2,
        )
        assert partial.partial
        assert partial.histories < replay.histories
        resumed = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            resume=True, segment_size=32,
        )
        assert not resumed.partial
        assert _search_sig(resumed)[:4] == _search_sig(replay)[:4]
        assert _violation_keys(resumed) == _violation_keys(replay)
        # BFS orders violations canonically, so a resumed run also matches
        # the uninterrupted run list for list.
        assert _search_sig(resumed) == _search_sig(full)
        # Resuming a finished run is the identity.
        again = explore_bfs(
            weak_kset, n=3, checkpoint=str(ckpt),
            resume=True, segment_size=32,
        )
        assert _search_sig(again) == _search_sig(full)

    def test_resume_rejects_mismatched_parameters(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        with pytest.raises(CheckpointError, match="different parameters"):
            explore_bfs(
                get_spec("kset"), n=3, prune_decided=True,
                checkpoint=str(ckpt), resume=True, segment_size=32,
            )

    def test_fresh_run_refuses_existing_checkpoint(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        with pytest.raises(ValueError, match="resume"):
            explore_bfs(get_spec("kset"), n=3, checkpoint=str(ckpt))

    def test_resume_requires_a_checkpoint_directory(self):
        with pytest.raises(ValueError, match="checkpoint"):
            explore_bfs(get_spec("kset"), n=3, resume=True)

    def test_checkpoint_version_recorded(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(ckpt),
            segment_size=32, max_tasks=1,
        )
        manifest = json.loads((ckpt / "manifest.json").read_text())
        assert manifest["version"] == CHECKPOINT_VERSION == "rrfd-checkpoint-v2"


class TestCheckpointValidation:
    """Every file a resume reads is refused, by name, when it is damaged."""

    @pytest.fixture
    def ckpt(self, tmp_path):
        """A kset n=3 checkpoint with finished and pending tasks."""
        directory = tmp_path / "ckpt"
        partial = explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(directory),
            segment_size=16, max_tasks=2,
        )
        assert partial.partial
        return directory

    @staticmethod
    def _manifest(directory):
        return json.loads((directory / "manifest.json").read_text())

    @staticmethod
    def _resume(directory):
        return explore_bfs(
            get_spec("kset"), n=3, checkpoint=str(directory),
            resume=True, segment_size=16,
        )

    def _pending_segment(self, directory):
        return directory / self._manifest(directory)["pending"][0]["seg"]

    def test_untouched_checkpoint_resumes(self, ckpt):
        resumed = self._resume(ckpt)
        assert not resumed.partial and resumed.histories == 3721

    def test_truncated_segment_refused(self, ckpt):
        segment = self._pending_segment(ckpt)
        data = segment.read_bytes()
        segment.write_bytes(data[: len(data) - 3])
        with pytest.raises(CheckpointError, match=segment.name):
            self._resume(ckpt)

    def test_segment_with_fewer_prefixes_refused(self, ckpt):
        segment = self._pending_segment(ckpt)
        lines = segment.read_text().splitlines(keepends=True)
        segment.write_text("".join(lines[:-1]))
        with pytest.raises(CheckpointError, match="manifest says"):
            self._resume(ckpt)

    @pytest.mark.parametrize("value", ["x", "-1", str(1 << 9), "1.5"])
    def test_non_int_or_out_of_range_segment_value_refused(
        self, ckpt, value
    ):
        segment = self._pending_segment(ckpt)
        lines = segment.read_text().splitlines(keepends=True)
        lines[0] = value + "\n"
        segment.write_text("".join(lines))
        with pytest.raises(CheckpointError, match=segment.name):
            self._resume(ckpt)

    def test_wrong_type_in_result_refused(self, ckpt):
        name = self._manifest(ckpt)["done"][0]["res"]
        doc = json.loads((ckpt / name).read_text())
        doc["histories"] = str(doc["histories"])
        (ckpt / name).write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=name):
            self._resume(ckpt)

    @pytest.mark.parametrize("field", ["pending", "done"])
    def test_name_escaping_the_directory_refused(self, ckpt, field):
        manifest = self._manifest(ckpt)
        key = "seg" if field == "pending" else "res"
        manifest[field][0][key] = "../" + manifest[field][0][key]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="bare file name"):
            self._resume(ckpt)

    def test_v1_manifest_refused(self, ckpt):
        manifest = self._manifest(ckpt)
        manifest["version"] = "rrfd-checkpoint-v1"
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="rrfd-checkpoint-v1"):
            self._resume(ckpt)

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)
