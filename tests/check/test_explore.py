"""The bounded model checker: exhaustive exploration, pruning, parallelism."""

import pytest

from repro.analysis.adversary_search import (
    NoAdmissibleExtension,
    iter_admissible_histories,
)
from repro.check.explore import explore, fuzz
from repro.check.spec import get_spec
from repro.core.predicates import AsyncMessagePassing, CrashSync, KSetDetector


class TestExhaustive:
    def test_kset_n3_visits_every_admissible_history(self):
        """The acceptance criterion: n=3, rounds=2 fully enumerated, OK."""
        result = explore("kset", n=3, rounds=2)
        assert result.ok
        # Independent count via the shared enumerator.
        expected = sum(
            1 for _ in iter_admissible_histories(KSetDetector(3, 2), 2)
        )
        assert result.histories == expected == 3721
        assert result.executions == expected

    def test_every_capable_spec_certifies_at_default_n(self):
        for name in ("kset", "floodset", "consensus", "adopt-commit",
                     "early-stopping"):
            result = explore(name)
            assert result.ok, result.violations[:3]
            assert result.histories > 0

    def test_prune_decided_preserves_verdict_and_shrinks_work(self):
        full = explore("kset", n=3)
        pruned = explore("kset", n=3, prune_decided=True)
        assert full.ok and pruned.ok
        assert pruned.pruned > 0
        assert pruned.executions < full.executions

    def test_weakened_predicate_yields_violations(self):
        """Sanity harness: a too-weak model must break k-agreement."""
        weak = get_spec("kset").weakened(
            lambda n: AsyncMessagePassing(n, n - 1)
        )
        result = explore(weak, n=3, max_violations=1)
        assert not result.ok
        violation = result.violations[0]
        assert violation.failures[0].invariant == "k-agreement"
        assert violation.history  # replayable

    def test_fuzz_only_spec_rejected(self):
        with pytest.raises(ValueError, match="fuzz"):
            explore("detector-consensus")

    def test_rounds_one_counts_the_frontier(self):
        result = explore("kset", n=3, rounds=1)
        assert result.ok
        assert result.histories == 61  # the admissible round-1 families

    def test_dead_end_raises_not_vacuous(self):
        """An over-constrained search errors instead of proving nothing.

        ``max_d_size=0`` only enumerates all-empty rounds; a model that
        *forces* a suspicion therefore dead-ends immediately, and the
        explorer must surface that rather than report 0 histories OK.
        """
        from repro.core.predicate import Predicate

        class ForcedSuspicion(Predicate):
            def _allows(self, history):
                return all(1 in d_round[0] for d_round in history)

            def sample_round(self, rng, history):
                return (frozenset({1}),) + (frozenset(),) * (self.n - 1)

        spec = get_spec("kset").weakened(lambda n: ForcedSuspicion(n))
        with pytest.raises(NoAdmissibleExtension):
            explore(spec, n=3, rounds=2, max_d_size=0)

    def test_max_violations_stops_early(self):
        weak = get_spec("kset").weakened(
            lambda n: AsyncMessagePassing(n, n - 1)
        )
        capped = explore(weak, n=3, max_violations=1)
        assert len(capped.violations) >= 1
        full = explore(weak, n=3)
        assert capped.executions < full.executions


class TestParallel:
    # kset n=3 is a single task (no round-1 child is undecided), so the
    # pool is exercised with floodset n=3 (8 inputs, 64 tasks) and with
    # kset n=4 pruned (a 4 235-child round-1 frontier, 64 tasks).

    def test_workers_match_serial_exactly(self):
        serial = explore("floodset", n=3)
        parallel = explore("floodset", n=3, workers=2)
        assert parallel.workers == 2
        assert parallel.histories == serial.histories
        assert parallel.executions == serial.executions
        assert parallel.ok == serial.ok

    def test_workers_find_the_same_violations(self):
        # Parallel mode needs a registered spec; register the weakened one.
        from repro.check.spec import _REGISTRY, register

        weak = get_spec("kset").weakened(
            lambda n: CrashSync(n, n - 1), suffix="crash-test"
        )
        register(weak)
        try:
            serial = explore(weak, n=4, prune_decided=True)
            parallel = explore(weak, n=4, prune_decided=True, workers=2)
            assert parallel.workers == 2
            assert serial.violations
            assert len(parallel.violations) == len(serial.violations)
            assert {(v.inputs, v.history) for v in parallel.violations} == {
                (v.inputs, v.history) for v in serial.violations
            }
        finally:
            del _REGISTRY[weak.name]

    def test_unregistered_spec_with_workers_rejected(self):
        weak = get_spec("kset").weakened(lambda n: CrashSync(n, 2))
        with pytest.raises(ValueError, match="registered"):
            explore(weak, n=4, workers=2)

    def test_parallel_prune_decided_matches_serial(self):
        serial = explore("kset", n=4, prune_decided=True)
        parallel = explore("kset", n=4, prune_decided=True, workers=2)
        assert parallel.workers == 2
        assert parallel.histories == serial.histories
        assert parallel.pruned == serial.pruned

    def test_workers_records_actual_use_not_the_request(self):
        # f=0 admits exactly one round-1 suspicion assignment (all empty),
        # so the task list collapses to a single task: four requested
        # workers must be reported as the one actually used.
        import dataclasses

        solo = dataclasses.replace(
            get_spec("floodset"),
            name="floodset-solo-frontier",
            predicate=lambda n: CrashSync(n, 0),
            exhaustive_inputs=lambda n: [tuple(range(n))],
        )
        # `solo` is unregistered: reaching a result at all proves the pool
        # (whose registry check would reject it) was skipped for one task
        result = explore(solo, n=3, workers=4)
        assert result.workers == 1
        assert result.histories == 1
        assert result.ok

    def test_single_chunk_run_matches_serial(self):
        serial = explore("kset", n=3)
        # kset n=3 is one task, so 16 requested workers run it in-process.
        parallel = explore("kset", n=3, workers=16)
        assert parallel.executions == serial.executions
        assert parallel.workers == 1


class TestFuzz:
    def test_fuzz_is_deterministic_in_seed(self):
        a = fuzz("floodset", 30, seed=7)
        b = fuzz("floodset", 30, seed=7)
        assert a.executions == b.executions == 30
        assert a.ok == b.ok
        assert a.inputs_checked == b.inputs_checked

    def test_fuzz_different_seeds_draw_different_inputs(self):
        a = fuzz("kset", 30, seed=1)
        b = fuzz("kset", 30, seed=2)
        assert a.ok and b.ok  # and typically different input sets; both pass

    def test_fuzz_scheduler_driven_spec(self):
        result = fuzz("detector-consensus", 25, seed=3)
        assert result.ok, result.violations[:3]
        assert result.executions == 25

    def test_fuzz_histories_admissible_by_construction(self):
        spec = get_spec("consensus")
        result = fuzz(spec, 40, n=5, seed=11)
        assert result.ok

    def test_summary_mentions_mode_and_counts(self):
        result = fuzz("kset", 10)
        text = result.summary()
        assert "fuzz" in text and "10 executions" in text and "OK" in text
