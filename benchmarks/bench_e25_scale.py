"""E25 — scale-out certification: the one task scheduler, and disk BFS.

The scale layer (:mod:`repro.check.scale`) certifies every engine run
through one worker-count-independent task decomposition (about
``TARGET_TASKS`` tasks from a multi-depth frontier, deduped by orbit
before sharding), run in-process at one worker and by a process pool
above that, plus a disk-backed BFS mode whose frontier spills to flat
packed-int segments with checkpoint/resume.  Each pool worker's memo is
seeded with the builder's candidate lists through the pool initializer,
so the kset n=5 root list is enumerated once, not once per task.

Expected shape: ``steal-1w`` and ``steal-4w`` drain the same 64 tasks, so
they agree on every deterministic count; ``kset-n5-pruned`` (1 009 981
histories) is the headline cell.  The original static split certified
that workload in 136 s; the acceptance bar is ≥2×.  The static round-robin split this
experiment used to compare against was removed, together with its cells.
Configurations agree exactly on histories/executions/pruned and the violation
set, and match the replay oracle (``tests/check/test_scale.py``).

``shared_hits`` counts candidate lists served from a process memo; it
depends on how tasks land on workers, so it is volatile in the committed
artifact and CI asserts it from a live run instead.
"""

import time

import pytest

from benchmarks.conftest import report_experiment
from repro.check import explore, explore_bfs
from repro.harness import Experiment, Grid, run_experiment, run_one_cell

WORKLOADS = {
    # name -> explore() keyword arguments (spec resolved by registry name)
    "kset-n4-pruned": dict(spec="kset", n=4, rounds=2, prune_decided=True),
    "kset-n5-pruned": dict(spec="kset", n=5, rounds=2, prune_decided=True),
}

CONFIGS = {
    # The task list in-process (no pool), sharing the builder's memo.
    "steal-1w": dict(workers=1),
    "steal-4w": dict(workers=4),
    # Disk-backed BFS over the same task decomposition (ephemeral
    # checkpoint directory; resume correctness is tested in
    # tests/check/test_scale.py).
    "bfs-4w": dict(workers=4, bfs=True),
}

# kset n=5 is the headline cell; keep its grid row to the one pool run so
# `regen_bench --check` stays affordable.
GRID = [
    (w, c)
    for w in WORKLOADS
    for c in CONFIGS
    if not (w == "kset-n5-pruned" and c in ("steal-1w", "bfs-4w"))
]


def run_cell(ctx) -> dict:
    kwargs = dict(WORKLOADS[ctx["workload"]])
    config = dict(CONFIGS[ctx["config"]])
    bfs = config.pop("bfs", False)
    kwargs.update(config)
    started = time.perf_counter()
    if bfs:
        result = explore_bfs(**kwargs)
    else:
        result = explore(**kwargs)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    assert result.ok, result.summary()
    scale = result.scale or {}
    return {
        "elapsed_ms": elapsed_ms,
        "histories": result.histories,
        "executions": result.executions,
        "pruned": result.pruned,
        "workers": result.workers,
        "tasks": scale.get("tasks", scale.get("tasks_done", 0)),
        # Environmental: depends on which tasks share a process.  Volatile
        # in the committed artifact (scripts/regen_bench.py); CI asserts
        # hits > 0 from a live run.
        "shared_hits": scale.get("shared_hits", 0),
    }


EXPERIMENT = Experiment(
    id="E25",
    title="E25 (extension): scale-out certification — one task scheduler "
    "in-process and in a pool, and disk-backed BFS",
    grid=Grid.explicit("workload,config", GRID),
    run_cell=run_cell,
    samples=1,  # the n=5 cells are wall-clock heavy; counts are exact
    reduce={
        "elapsed_ms": "min",
    },
    table=(
        ("workload", "workload"),
        ("scheduler", "config"),
        ("time (ms)", lambda c: f"{c['elapsed_ms']:.1f}"),
        ("histories", "histories"),
        ("tasks", lambda c: c["tasks"] or "—"),
        ("shared hits", lambda c: c["shared_hits"] or "—"),
    ),
    notes="Configurations agree exactly on histories/executions/pruned and the "
    "violation set; shared_hits is environmental (volatile in the "
    "artifact).  Original static-split time for kset-n5-pruned: 136 s.",
)


@pytest.mark.parametrize("config", ["steal-1w", "steal-4w", "bfs-4w"])
def test_e25_cell_counts(benchmark, config):
    cell = benchmark.pedantic(
        run_one_cell, args=(EXPERIMENT,),
        kwargs={"workload": "kset-n4-pruned", "config": config, "samples": 1},
        rounds=1, iterations=1,
    )
    assert cell["histories"] == 4235
    assert cell["executions"] == 4235
    assert cell["tasks"] > 0


def test_e25_schedulers_agree(benchmark):
    # Fast differential on the n=4 workload only — the full grid (with the
    # n=5 cells) runs via `python -m repro bench E25`, not under pytest.
    def run_small():
        return {
            config: run_one_cell(
                EXPERIMENT, workload="kset-n4-pruned", config=config,
                samples=1,
            )
            for config in CONFIGS
        }

    cells = benchmark.pedantic(run_small, rounds=1, iterations=1)
    base = cells["steal-1w"]
    for config, cell in cells.items():
        assert cell["histories"] == base["histories"], config
        assert cell["executions"] == base["executions"], config
        assert cell["pruned"] == base["pruned"], config
    # The task list is decomposed independently of the worker count.
    assert cells["steal-4w"]["tasks"] == base["tasks"]


def test_e25_report(benchmark):
    # Fast probe over the n=4 row only — the full grid (with the n=5
    # headline cells) runs via `python -m repro bench E25` / regen_bench.
    probe = Experiment(
        id=EXPERIMENT.id, title=EXPERIMENT.title,
        grid=Grid.explicit(
            "workload,config",
            [(w, c) for (w, c) in GRID if w == "kset-n4-pruned"],
        ),
        run_cell=EXPERIMENT.run_cell, samples=1,
        reduce=EXPERIMENT.reduce, table=EXPERIMENT.table,
        notes=EXPERIMENT.notes,
    )
    result = benchmark.pedantic(
        run_experiment, args=(probe,), rounds=1, iterations=1
    )
    result.check(lambda c: c["histories"] > 0, "non-vacuous")
    report_experiment(probe, result)
