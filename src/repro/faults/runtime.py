"""Runtime-plane fault models: breaking the experiment runtime on purpose.

:class:`WorkerChaosFault` injects crashes and hangs into
:class:`~repro.runtime.parallel.ParallelRunner` worker processes — the
runner's retry/timeout/serial-fallback machinery must return results
bit-identical to a fault-free serial run no matter what the fault does.
:class:`CacheCorruptionFault` vandalises on-disk
:class:`~repro.runtime.cache.ArtifactCache` entries the way a torn write or
disk error would — fetches must quarantine the damage (with a warning) and
rebuild, never load garbage or crash.

Both are frozen, seeded and cache-hashable like every other
:class:`~repro.faults.base.FaultModel`.  The runner deliberately treats the
chaos fault as a duck-typed ``before_task``/``after_task`` hook so the
low-level runtime never imports this package.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.faults.base import FaultModel

__all__ = ["InjectedWorkerCrash", "WorkerChaosFault", "CacheCorruptionFault"]


class InjectedWorkerCrash(RuntimeError):
    """A worker failure injected by :class:`WorkerChaosFault`."""


@dataclass(frozen=True)
class WorkerChaosFault(FaultModel):
    """Deterministic crash/hang injection for parallel-runner workers.

    Each ``(task index, attempt)`` pair gets one independent draw ``r``:
    ``r < crash_probability`` crashes the task (at dispatch for
    ``crash_point="enter"``, after the result is computed for ``"exit"``),
    and ``crash_probability <= r < crash_probability + hang_probability``
    hangs it for ``hang_seconds``.  Draws depend only on the seed, index and
    attempt, so a retried task re-rolls while every other task replays —
    and the fault trace is identical under any worker count.
    """

    crash_probability: float = 0.0
    hang_probability: float = 0.0
    hang_seconds: float = 30.0
    crash_point: str = "enter"  # "enter" | "exit"
    seed: int = 0

    name = "worker-chaos"
    plane = "runtime"

    def __post_init__(self) -> None:
        if not 0.0 <= self.crash_probability <= 1.0:
            raise ValueError("crash_probability must be in [0, 1]")
        if not 0.0 <= self.hang_probability <= 1.0:
            raise ValueError("hang_probability must be in [0, 1]")
        if self.crash_probability + self.hang_probability > 1.0:
            raise ValueError("crash + hang probability must not exceed 1")
        if self.hang_seconds < 0.0:
            raise ValueError("hang_seconds must be non-negative")
        if self.crash_point not in ("enter", "exit"):
            raise ValueError("crash_point must be 'enter' or 'exit'")

    def describe(self) -> str:
        return (
            f"worker chaos (crash={self.crash_probability:g}, "
            f"hang={self.hang_probability:g}@{self.hang_seconds:g}s)"
        )

    def _draw(self, index: int, attempt: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence(
                entropy=int(self.seed) & 0xFFFFFFFFFFFFFFFF,
                spawn_key=(int(index), int(attempt)),
            )
        )
        return float(rng.random())

    # -- runner hooks (executed inside worker processes) ---------------------
    def before_task(self, index: int, attempt: int) -> None:
        """Crash or stall a task at dispatch (raises :class:`InjectedWorkerCrash`)."""
        draw = self._draw(index, attempt)
        if self.crash_point == "enter" and draw < self.crash_probability:
            raise InjectedWorkerCrash(
                f"injected crash on task {index} attempt {attempt}"
            )
        if self.crash_probability <= draw < self.crash_probability + self.hang_probability:
            time.sleep(self.hang_seconds)

    def after_task(self, index: int, attempt: int) -> bool:
        """True when the task must crash *after* computing its result."""
        if self.crash_point != "exit":
            return False
        return self._draw(index, attempt) < self.crash_probability


@dataclass(frozen=True)
class CacheCorruptionFault(FaultModel):
    """Deterministic on-disk vandalism against artifact-cache entries.

    ``apply`` walks the cache root and, per complete entry, draws once:
    with ``entry_probability`` the entry is damaged by truncating its
    largest data file (a torn write) or deleting the manifest (an
    interrupted rename), chosen by a second draw.  Returns the damaged
    entry paths so tests can assert every one of them is later quarantined.
    """

    entry_probability: float = 0.5
    seed: int = 0

    name = "cache-corruption"
    plane = "runtime"

    def __post_init__(self) -> None:
        if not 0.0 <= self.entry_probability <= 1.0:
            raise ValueError("entry_probability must be in [0, 1]")

    def describe(self) -> str:
        return f"cache corruption ({self.entry_probability:.0%} of entries)"

    def apply(self, root: Path) -> list[Path]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=int(self.seed) & 0xFFFFFFFFFFFFFFFF)
        )
        damaged: list[Path] = []
        root = Path(root)
        if not root.is_dir():
            return damaged
        for shard in sorted(root.iterdir()):
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in sorted(shard.iterdir()):
                if not entry.is_dir() or entry.name.startswith("."):
                    continue
                if float(rng.random()) >= self.entry_probability:
                    continue
                manifest = entry / "manifest.json"
                data_files = sorted(
                    (path for path in entry.iterdir() if path.is_file() and path != manifest),
                    key=lambda path: path.stat().st_size,
                    reverse=True,
                )
                if float(rng.random()) < 0.5 and data_files:
                    with data_files[0].open("r+b") as handle:
                        handle.truncate(max(0, data_files[0].stat().st_size // 2))
                else:
                    manifest.unlink(missing_ok=True)
                damaged.append(entry)
        return damaged
