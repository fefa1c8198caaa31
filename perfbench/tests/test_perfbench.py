"""Self-tests of the benchmark, at smoke size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
import types
from pathlib import Path
from typing import Any

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check_bench  # noqa: E402
import live_bench  # noqa: E402
import openloop  # noqa: E402
import sim_bench  # noqa: E402
from common import Report  # noqa: E402
from ledger import Ledger, Target, is_wrapped  # noqa: E402
from repro.check import get_spec  # noqa: E402
from repro.core.predicates import AsyncMessagePassing  # noqa: E402

WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
MODULES = {"check": check_bench, "live": live_bench, "sim": sim_bench}
SMOKE_SECONDS = 2.0


def smoke(name: str) -> tuple[Any, dict[str, Any]]:
    entry = WORKLOADS[name]
    params = {"name": name, **entry["params"], **entry["smoke"]}
    return MODULES[entry["kind"]], params


def wrapped_targets(module: Any) -> list[str]:
    return [t.key for t in module.ledger_targets() if is_wrapped(t.current())]


def test_benchmark_json_gates_runnable_workloads() -> None:
    assert {w["name"] for w in BENCH["workloads"]} <= set(WORKLOADS)
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))
    assert "setup_s" in names


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_workload_passes_its_gate_at_smoke_size(name: str) -> None:
    module, params = smoke(name)
    report = module.run(params, SMOKE_SECONDS, 1)
    assert report.attempted >= 1
    assert report.failures == []
    assert report.invalid is None
    expected = {m["name"] for m in BENCH["end_to_end"]} - {"setup_s"}
    assert set(report.metrics) == expected
    assert all(value > 0 for value in report.metrics.values())


def test_command_prints_every_end_to_end_metric_with_its_unit() -> None:
    run = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sim-cc-ci",
         "--seconds", "1", "--seed", "5"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120,
    )
    assert run.returncode == 0
    result = json.loads(run.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCH["end_to_end"]
    }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_weakened_checker_fails_the_gate() -> None:
    """Negative control: a weaker model must produce counted failures."""
    spec = get_spec("kset").weakened(lambda n: AsyncMessagePassing(n, n - 1))
    _, params = smoke("check-kset-n5")
    params = {**params, "n": 3, "histories": {"none": 61}}
    report = Report("negative-control")
    op = check_bench.certify(spec, params, workers=1)
    report.record(check_bench.gate(spec, params, op))
    assert op.result is not None and op.result.violations
    assert report.failed == 1
    assert "violation" in report.failures[0]


def test_gate_rejects_a_wrong_history_count() -> None:
    _, params = smoke("check-ac-n4")
    spec = get_spec(params["spec"])
    op = check_bench.certify(spec, params, workers=1)
    assert check_bench.gate(spec, params, op) is None
    wrong = {**params, "histories": {"exact": 1239, "none": 2888}}
    assert "committed count is 1239" in check_bench.gate(spec, wrong, op)


class _Spy:
    """Wraps one benchmark-side callable and records what it saw."""

    def __init__(self, module: Any, original: Any) -> None:
        self.module = module
        self.original = original
        self.seen: list[list[str]] = []

    def __call__(self, *args: Any, **kwargs: Any) -> Any:
        self.seen.append(wrapped_targets(self.module))
        return self.original(*args, **kwargs)


def _spy_on(name: str, monkeypatch: pytest.MonkeyPatch) -> tuple[_Spy, Any]:
    """Spy on a call the workload makes while its layers run."""
    module, _ = smoke(name)
    if module is check_bench:
        spy = _Spy(module, check_bench.explore)
        monkeypatch.setattr(check_bench, "explore", spy)
    elif module is live_bench:
        spy = _Spy(module, openloop.gate_instance)
        monkeypatch.setattr(openloop, "gate_instance", spy)
    else:
        spy = _Spy(module, sim_bench.Workload.run)
        monkeypatch.setattr(
            sim_bench.Workload, "run",
            lambda self, index: spy(self, index),
        )
    return spy, module


@pytest.mark.parametrize("name", ["check-ac-n4", "live-lossy", "sim-cc-ci"])
def test_untraced_run_sees_no_wrapped_functions(
    name: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    spy, module = _spy_on(name, monkeypatch)
    _, params = smoke(name)
    module.run(params, 1.0, 1)
    assert spy.seen and all(seen == [] for seen in spy.seen)
    # The spy does see wrappers when they are installed.
    spy.seen.clear()
    module.run_traced(params, 1.0, 1)
    assert any(seen for seen in spy.seen)
    assert wrapped_targets(module) == []


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_ledger_rows_sum_to_the_traced_wall(name: str) -> None:
    module, params = smoke(name)
    report = module.run_traced(params, SMOKE_SECONDS, 1)
    assert report.failures == []
    layers = [row[0] for row in report.ledger]
    assert layers[-1] == "unattributed"
    assert sum(row[2] for row in report.ledger) == pytest.approx(
        report.ledger_wall, rel=1e-9
    )
    assert all(row[2] >= 0 for row in report.ledger)
    assert "trace.overhead_s" in report.metrics
    assert wrapped_targets(module) == []


# ---------------------------------------------------------------- the ledger


def _inner(seconds: float) -> float:
    time.sleep(seconds)
    return seconds


def _outer(seconds: float) -> float:
    time.sleep(seconds)
    return _LAYERS.inner(seconds) + _LAYERS.inner(seconds)


async def _waits(seconds: float) -> str:
    await asyncio.sleep(seconds)  # suspended: not charged
    time.sleep(seconds)  # running: charged
    return "done"


#: A stand-in module: ``outer`` calls ``inner`` twice.
_LAYERS = types.ModuleType("layers")
_LAYERS.inner, _LAYERS.outer, _LAYERS.waits = _inner, _outer, _waits


def _targets() -> list[Target]:
    return [
        Target("outer", _LAYERS, "outer"),
        Target("inner", _LAYERS, "inner", counter="inner.s", count=float),
        Target("waits", _LAYERS, "waits", coroutine=True),
    ]


def test_ledger_charges_self_time_and_restores_originals() -> None:
    originals = {name: vars(_LAYERS)[name] for name in ("outer", "inner")}
    ledger = Ledger(_targets())
    started = time.perf_counter()
    with ledger:
        assert is_wrapped(_LAYERS.outer)
        _LAYERS.outer(0.02)
    wall = time.perf_counter() - started
    assert {n: vars(_LAYERS)[n] for n in originals} == originals
    rows = {layer: (calls, s) for layer, calls, s in ledger.rows(wall)}
    assert rows["outer"][0] == 1 and rows["inner"][0] == 2
    assert 0.02 <= rows["outer"][1] < 0.035  # its own sleep only
    assert 0.04 <= rows["inner"][1] < 0.06
    assert ledger.counters["inner.s"] == pytest.approx(0.04)
    assert sum(s for _, s in rows.values()) == pytest.approx(wall)
    assert rows["unattributed"][1] >= 0


def test_ledger_charges_a_coroutine_only_while_it_runs() -> None:
    async def main() -> str:
        return await _LAYERS.waits(0.03)

    ledger = Ledger(_targets())
    with ledger:
        assert asyncio.run(main()) == "done"
    assert ledger.calls["layers.waits"] == 1
    assert 0.03 <= ledger.self_s["layers.waits"] < 0.05


def test_ledger_refuses_to_wrap_twice() -> None:
    with Ledger(_targets()):
        with pytest.raises(RuntimeError, match="already wrapped"):
            with Ledger(_targets()):
                pass
    assert not is_wrapped(_LAYERS.outer)
