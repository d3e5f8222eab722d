"""Deterministic multiprocessing executor for independent experiment tasks.

Sweep points, defended episodes and dataset scenario-runs are embarrassingly
parallel: each task is a pure function of an explicit task descriptor
(including its own seed), so fanning them across worker processes cannot
change any result — only the wall-clock.  :class:`ParallelRunner` preserves
that property by construction:

* every task carries its own seed (for example :attr:`RunTask.seed
  <repro.monitor.dataset.RunTask>`), never one drawn from worker-local
  state;
* results are returned in task order regardless of completion order;
* ``workers <= 1`` short-circuits to a plain in-process loop, so
  ``REPRO_WORKERS=1`` is bit-identical to any other worker count.

The worker count comes from the ``REPRO_WORKERS`` environment variable
(default 1 — serial).  Task functions must be module-level (picklable)
callables taking a single descriptor argument; results come back through
the pool's own pickle pipe.

Worker processes can die, hang, or be killed; a deterministic executor must
survive that without changing a single result.  When a per-task timeout
(``REPRO_TASK_TIMEOUT`` seconds, or the ``task_timeout`` argument) or a
fault hook is configured, dispatch switches to a **resilient** path: each
task is submitted individually, awaited with its own timeout, and failed or
timed-out tasks are retried on a fresh pool with exponential backoff (the
old pool is terminated outright — a hung worker poisons a pool for every
task queued behind it).  Tasks still failing after ``REPRO_TASK_RETRIES``
rounds fall back to plain serial execution in the parent, which is
bit-identical by construction — and re-raises deterministic task errors
instead of masking them as infrastructure failures.

The optional ``fault`` hook (duck-typed: ``before_task(index, attempt)``
and ``after_task(index, attempt) -> bool``) runs inside the worker around
each task and exists for chaos testing — :mod:`repro.faults.runtime`
provides an implementation, but this module deliberately does not import
it.  The serial short-circuit and the fallback never invoke the hook: they
are the reference results the faulted runs must reproduce.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from time import perf_counter
from typing import Any, Callable, Iterable, TypeVar

from repro.obs.metrics import (
    METRICS,
    runner_events_counter,
    runner_task_histogram,
)

__all__ = [
    "ParallelRunner",
    "configured_task_retries",
    "configured_task_timeout",
    "configured_workers",
]

T = TypeVar("T")
R = TypeVar("R")

#: First-retry sleep; round ``k`` waits ``base * 2**k`` seconds.
_RETRY_BACKOFF_BASE = 0.05

# fork shares the already-imported interpreter state, which keeps worker
# start-up cheap; fall back to spawn where fork is absent.
_CONTEXT = multiprocessing.get_context(
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def configured_workers(default: int = 1) -> int:
    """Worker count from ``REPRO_WORKERS`` (default: serial)."""
    raw = os.environ.get("REPRO_WORKERS", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_WORKERS must be an integer, got {raw!r}") from None
    return max(1, value)


def configured_task_timeout(default: float | None = None) -> float | None:
    """Per-task timeout in seconds from ``REPRO_TASK_TIMEOUT`` (default: off)."""
    raw = os.environ.get("REPRO_TASK_TIMEOUT", "").strip()
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"REPRO_TASK_TIMEOUT must be a number, got {raw!r}") from None
    return value if value > 0 else None


def configured_task_retries(default: int = 2) -> int:
    """Retry rounds for failed/timed-out tasks from ``REPRO_TASK_RETRIES``."""
    raw = os.environ.get("REPRO_TASK_RETRIES", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"REPRO_TASK_RETRIES must be an integer, got {raw!r}") from None
    return max(0, value)


class _GuardedCall:
    """Worker-side wrapper of one resilient dispatch: fault hook around the task."""

    def __init__(self, fn: Callable, fault: Any = None) -> None:
        self.fn = fn
        self.fault = fault

    def __call__(self, payload: tuple[int, int, Any]):
        index, attempt, task = payload
        if self.fault is not None:
            before = getattr(self.fault, "before_task", None)
            if before is not None:
                before(index, attempt)
        result = self.fn(task)
        if self.fault is not None:
            after = getattr(self.fault, "after_task", None)
            if after is not None and after(index, attempt):
                raise RuntimeError(
                    f"injected worker crash after task {index} (attempt {attempt})"
                )
        return result


class ParallelRunner:
    """Ordered, deterministic ``map`` over independent tasks."""

    def __init__(
        self,
        workers: int | None = None,
        task_timeout: float | None = None,
        task_retries: int | None = None,
        fault: Any = None,
    ) -> None:
        self.workers = configured_workers() if workers is None else max(1, int(workers))
        if task_timeout is None:
            self.task_timeout = configured_task_timeout()
        else:
            self.task_timeout = float(task_timeout) if task_timeout > 0 else None
        self.task_retries = (
            configured_task_retries()
            if task_retries is None
            else max(0, int(task_retries))
        )
        self.fault = fault

    @property
    def is_serial(self) -> bool:
        return self.workers <= 1

    @property
    def resilient(self) -> bool:
        """Whether parallel dispatch uses the per-task retry/timeout path."""
        return self.fault is not None or self.task_timeout is not None

    def map(self, fn: Callable[[T], R], tasks: Iterable[T]) -> list[R]:
        """Apply ``fn`` to every task; results are in task order.

        Serial (``workers <= 1`` or fewer than two tasks) runs in-process;
        otherwise a process pool executes the tasks with ``chunksize=1`` so
        long tasks do not serialise behind short ones.  With a task timeout
        or a fault hook configured the pool dispatch is resilient: crashed,
        hung or poisoned tasks are retried on fresh pools and ultimately
        recomputed serially in the parent, so the returned list is always
        bit-identical to a serial run.
        """
        task_list = list(tasks)
        if self.is_serial or len(task_list) <= 1:
            return self._run_serial(fn, task_list)
        if self.resilient:
            return self._map_resilient(fn, task_list)
        processes = min(self.workers, len(task_list))
        with _CONTEXT.Pool(processes=processes) as pool:
            if not METRICS.active:
                return pool.map(fn, task_list, chunksize=1)
            start = perf_counter()
            results = pool.map(fn, task_list, chunksize=1)
            runner_task_histogram().observe(perf_counter() - start, mode="pool_map")
            runner_events_counter().inc(len(task_list), event="task", mode="pool")
            return results

    def _run_serial(self, fn: Callable, task_list: list) -> list:
        """The in-process reference path, with per-task timing when metered."""
        if not METRICS.active:
            return [fn(task) for task in task_list]
        hist = runner_task_histogram()
        counter = runner_events_counter()
        results = []
        for task in task_list:
            start = perf_counter()
            results.append(fn(task))
            hist.observe(perf_counter() - start, mode="serial")
            counter.inc(event="task", mode="serial")
        return results

    def _map_resilient(self, fn: Callable, task_list: list) -> list:
        """Per-task dispatch with timeout, retry rounds and serial fallback.

        Every attempt round runs on a *fresh* pool and the previous pool is
        terminated, not closed: a worker hung inside a task would otherwise
        hold its slot (and ``close``/``join``) forever.  Whatever still
        fails after the retry budget is recomputed in the parent with the
        bare ``fn`` (no fault hook), which both restores the bit-identical
        serial result and lets a deterministic task error surface as itself.
        """
        call = _GuardedCall(fn, fault=self.fault)
        results: dict[int, Any] = {}
        pending = list(range(len(task_list)))
        for attempt in range(self.task_retries + 1):
            if not pending:
                break
            processes = min(self.workers, len(pending))
            pool = _CONTEXT.Pool(processes=processes)
            failed: list[int] = []
            try:
                dispatched = [
                    (
                        index,
                        pool.apply_async(
                            call, ((index, attempt, task_list[index]),)
                        ),
                    )
                    for index in pending
                ]
                for index, handle in dispatched:
                    try:
                        results[index] = handle.get(self.task_timeout)
                    except multiprocessing.TimeoutError:
                        failed.append(index)
                        if METRICS.active:
                            runner_events_counter().inc(event="timeout")
                    except Exception:
                        failed.append(index)
                        if METRICS.active:
                            runner_events_counter().inc(event="failure")
                    else:
                        if METRICS.active:
                            runner_events_counter().inc(
                                event="task", mode="resilient"
                            )
            finally:
                pool.terminate()
                pool.join()
            pending = failed
            if pending and attempt < self.task_retries:
                if METRICS.active:
                    runner_events_counter().inc(len(pending), event="retry")
                time.sleep(_RETRY_BACKOFF_BASE * 2**attempt)
        if pending and METRICS.active:
            runner_events_counter().inc(len(pending), event="serial_fallback")
        for index in pending:
            results[index] = fn(task_list[index])
        return [results[index] for index in range(len(task_list))]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParallelRunner(workers={self.workers})"
