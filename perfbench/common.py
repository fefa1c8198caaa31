"""Shared pieces of the benchmark: the run report, quantiles, resource use."""

from __future__ import annotations

import resource
from dataclasses import dataclass, field
from typing import Sequence

__all__ = ["Report", "quantile", "cpu_seconds", "peak_rss_mb"]


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in ``(0, 1]``) of a non-empty sample.

    With fewer than ``1 / (1 - q)`` values this is the maximum, which is
    what a p99 over a handful of certifications should report.
    """
    ordered = sorted(values)
    rank = -(-len(ordered) * q // 1)  # ceil(len * q)
    return ordered[min(len(ordered), max(1, int(rank))) - 1]


def cpu_seconds() -> float:
    """User + system CPU of this process and every child it has reaped."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child.

    Linux reports ``ru_maxrss`` in KiB; the children figure is the peak of
    the largest child, so a pool's workers are represented by its biggest.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


@dataclass
class Report:
    """What one workload run measured and whether its operations passed.

    ``metrics`` maps metric names (those of ``BENCHMARK.json``) to values;
    ``lines`` are human-readable notes; ``invalid`` names a reason the
    measurement must not be reported at all.  A traced run also fills the
    ledger: ``(layer, calls, self seconds)`` rows ending in
    ``unattributed``, which sum to ``ledger_wall``.
    """

    workload: str
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    invalid: str | None = None
    ledger: list[tuple[str, int, float]] = field(default_factory=list)
    ledger_title: str = ""
    ledger_wall: float = 0.0

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, failure: str | None) -> None:
        """Count one gated operation; ``failure`` is why it failed, if it did."""
        self.attempted += 1
        if failure is not None:
            self.failures.append(failure)
