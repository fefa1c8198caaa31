"""Per-layer timing ledger built from wrappers around public entry points.

A :class:`Ledger` replaces named attributes (module functions, class
methods) with timing wrappers for the duration of a ``with`` block and
restores the originals afterwards, so the program under test is never
edited and an untraced run executes the original objects.  Each wrapped
call is charged to its layer as *self time*: its duration minus the
duration of wrapped calls nested inside it.  The rows therefore never
double count, and ``wall - sum(rows)`` is reported as an explicit
``unattributed`` row.

Coroutine entry points are timed step by step: only the intervals in which
the coroutine actually runs are charged, never the time it spends
suspended on the event loop, so waiting on a socket is not mistaken for
work.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

__all__ = ["Target", "Ledger", "is_wrapped", "render"]

_MARK = "__perfbench_layer__"


def is_wrapped(obj: Any) -> bool:
    """Is ``obj`` one of this module's timing wrappers?"""
    return hasattr(obj, _MARK)


@dataclass(frozen=True)
class Target:
    """One entry point: ``owner.name`` charged to ``layer``.

    ``count`` optionally maps a call's return value to a number added to
    the counter named ``counter`` (e.g. the bytes of an encoded frame).
    ``coroutine`` marks ``async def`` functions.
    """

    layer: str
    owner: Any
    name: str
    coroutine: bool = False
    counter: str | None = None
    count: Callable[[Any], float] | None = None

    @property
    def key(self) -> str:
        return f"{self.owner.__name__}.{self.name}"

    def current(self) -> Any:
        # The owner's own namespace, never an inherited attribute: a method
        # is wrapped on the class that defines it, exactly once.
        return vars(self.owner)[self.name]


class Ledger:
    """Calls and self time per entry point and per layer, plus counters.

    ``calls`` and ``self_s`` are keyed by :attr:`Target.key`;
    :meth:`rows` sums them per layer.
    """

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.calls: dict[str, int] = {t.key: 0 for t in targets}
        self.self_s: dict[str, float] = {t.key: 0.0 for t in targets}
        self.counters: dict[str, float] = {
            t.counter: 0.0 for t in targets if t.counter
        }
        # One slot per active wrapped interval: the time its nested wrapped
        # calls took, subtracted from its own duration when it ends.
        self._stack: list[float] = []
        self._saved: list[tuple[Target, Any]] = []

    # ------------------------------------------------------------ install

    def __enter__(self) -> "Ledger":
        try:
            for target in self.targets:
                original = target.current()
                if is_wrapped(original):
                    raise RuntimeError(f"{target.key} is already wrapped")
                self._saved.append((target, original))
                setattr(target.owner, target.name, self._wrap(target, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: Any) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._saved:
            target, original = self._saved.pop()
            setattr(target.owner, target.name, original)

    # ------------------------------------------------------------ wrapping

    def _charge(self, key: str, elapsed: float) -> None:
        child = self._stack.pop()
        self.self_s[key] += elapsed - child
        if self._stack:
            self._stack[-1] += elapsed

    def _wrap(self, target: Target, func: Callable) -> Callable:
        if target.coroutine:
            wrapper = self._wrap_coroutine(target, func)
        else:
            wrapper = self._wrap_function(target, func)
        setattr(wrapper, _MARK, target.key)
        return wrapper

    def _wrap_function(self, target: Target, func: Callable) -> Callable:
        key, counter, count = target.key, target.counter, target.count
        stack, calls, clock = self._stack, self.calls, time.perf_counter
        charge, counters = self._charge, self.counters

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[key] += 1
            stack.append(0.0)
            started = clock()
            try:
                value = func(*args, **kwargs)
            finally:
                charge(key, clock() - started)
            if counter is not None:
                counters[counter] += count(value)
            return value

        return wrapper

    def _wrap_coroutine(self, target: Target, func: Callable) -> Callable:
        ledger, key = self, target.key

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            ledger.calls[key] += 1
            return _TimedAwaitable(ledger, key, func(*args, **kwargs))

        return wrapper

    # ------------------------------------------------------------ reading

    def rows(self, wall: float) -> list[tuple[str, int, float]]:
        """``(layer, calls, self_s)`` per layer, then ``unattributed``."""
        totals: dict[str, list[float]] = {}
        for target in self.targets:
            row = totals.setdefault(target.layer, [0, 0.0])
            row[0] += self.calls[target.key]
            row[1] += self.self_s[target.key]
        rows = [(layer, int(c), s) for layer, (c, s) in totals.items()]
        rows.append(("unattributed", 0, wall - sum(r[2] for r in rows)))
        return rows


class _TimedAwaitable:
    """Drive a coroutine, charging only the steps in which it runs."""

    __slots__ = ("ledger", "key", "coro")

    def __init__(self, ledger: Ledger, key: str, coro: Any) -> None:
        self.ledger = ledger
        self.key = key
        self.coro = coro

    def __await__(self) -> Iterator[Any]:
        coro, ledger, key = self.coro, self.ledger, self.key
        stack, clock = ledger._stack, time.perf_counter
        value: Any = None
        error: BaseException | None = None
        while True:
            stack.append(0.0)
            started = clock()
            try:
                if error is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(error)
            except StopIteration as stop:
                ledger._charge(key, clock() - started)
                return stop.value
            except BaseException:
                ledger._charge(key, clock() - started)
                raise
            ledger._charge(key, clock() - started)
            try:
                value, error = (yield yielded), None
            except GeneratorExit:
                coro.close()
                raise
            except BaseException as exc:  # cancellation: forward it inward
                value, error = None, exc


def render(title: str, rows: list[tuple[str, int, float]], wall: float) -> str:
    """The ledger as a fixed-width table whose time column sums to ``wall``."""
    lines = [
        f"ledger: {title}",
        f"  {'layer':<26} {'calls':>10} {'self s':>10} {'share':>7}",
    ]
    for layer, calls, seconds in rows:
        share = seconds / wall if wall > 0 else 0.0
        shown = "" if layer == "unattributed" else str(calls)
        lines.append(
            f"  {layer:<26} {shown:>10} {seconds:>10.4f} {share:>7.1%}"
        )
    total = sum(r[2] for r in rows)
    lines.append(f"  {'traced wall':<26} {'':>10} {total:>10.4f} {1:>7.1%}")
    return "\n".join(lines)
