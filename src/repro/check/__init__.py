"""Conformance kit: one correctness-tooling layer for every protocol.

The paper's solvability claims quantify over *every* admissible D-family;
this package checks that quantifier uniformly instead of piecemeal:

- :mod:`repro.check.spec` — :class:`ConformanceSpec` binds a protocol
  factory, a model predicate, an input space and trace invariants; the
  registry maps names to the library's specs (:mod:`repro.check.specs`).
- :mod:`repro.check.explore` — bounded model checking (exhaustive for small
  ``n``, with decided-prefix pruning) and seeded fuzzing for larger ``n``.
  Exhaustive runs take one of two paths: the engine path below, or the
  replay loop, a deliberately simple oracle that re-runs every history
  from round 1 and shares no code with the engine path's scheduling.
- :mod:`repro.check.engine` — the incremental exploration engine behind
  ``explore(engine="incremental")``: executor forking (one protocol round
  per tree edge), candidate memoization and orbit-level symmetry reduction.
- :mod:`repro.check.scale` — the one exploration scheduler: a fixed,
  worker-count-independent task decomposition, run in-process at
  ``workers=1`` and by a process pool above that, plus disk-backed BFS
  certification with checkpoint/resume (``explore_bfs``; ``repro check
  --bfs/--resume``).
- :mod:`repro.check.shrink` — delta-debugging of failing histories down to
  minimal replayable counterexamples, serialized as ``tests/golden/``
  artifacts.
- :mod:`repro.check.strategies` — the suite-wide hypothesis strategies
  (imports hypothesis; keep it out of non-test code paths).

CLI: ``python -m repro check --spec kset --exhaustive``.
"""

from repro.check.spec import (
    ConformanceSpec,
    InvariantFailure,
    TraceInvariant,
    all_specs,
    get_spec,
    register,
    spec_names,
)
from repro.check.engine import (
    MAX_SYMMETRY_N,
    EngineRun,
    EngineStats,
    IncrementalExplorer,
)
from repro.check.explore import ExploreResult, Violation, explore, fuzz
from repro.check.scale import (
    CHECKPOINT_VERSION,
    CheckpointError,
    explore_bfs,
)
from repro.check.shrink import (
    ShrinkResult,
    load_counterexample,
    replay_counterexample,
    save_counterexample,
    shrink,
)

__all__ = [
    "ConformanceSpec",
    "TraceInvariant",
    "InvariantFailure",
    "register",
    "get_spec",
    "spec_names",
    "all_specs",
    "ExploreResult",
    "Violation",
    "explore",
    "explore_bfs",
    "fuzz",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "IncrementalExplorer",
    "EngineRun",
    "EngineStats",
    "MAX_SYMMETRY_N",
    "ShrinkResult",
    "shrink",
    "save_counterexample",
    "load_counterexample",
    "replay_counterexample",
]
