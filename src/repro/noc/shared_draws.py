"""Shared draw streams: record a benign workload's draws once, replay them.

A :class:`~repro.traffic.SyntheticTraffic` workload draws only from its
class, parameters and seed, and both its emission paths go through
``_draw_batch``.  Throttle, quarantine, flush and data faults act on the
network, never on the source, so two such workloads with equal keys emit
the same ``(sources, destinations)`` arrays on every call.  A matrix driver
call holds many of them: every episode runs its benign workload at the same
seed.  Attack sources are not shared: a variant's attack stream is held by
at most its comparator and one guarded episode, and recording it cost the
leader as much time as the replay saved the follower, while the attack
records were most of a call's shared-draw memory.

While a scope is open (:func:`enter_scope`, entered by every episode of one
:func:`repro.experiments.robustness.run_episodes` call and closed when the
call ends), :func:`share` attaches such a source to the scope's
:class:`DrawRecord` for its ``_stream_key()``.  The first source attached
leads: its RNG extends the record by one ``_fresh_batch`` whenever any
reader asks for the call past the end.  Every attached source, the leader
included, makes its calls in order through its own :class:`DrawReader`.
The reader that reaches a call first gets the fresh draw; every later one
gets a read-only view of the recorded copy.  So sources that run one after
another, or interleaved lanes of a batched run, see exactly the stream a
fresh source would draw.

The record is compact: one growable buffer each for sources and
destinations, plus per-call cycle and offset arrays (8 bytes a call).  A
replay asked for a different cycle than the one recorded at its position
raises ``ValueError``.  Sources without ``_stream_key`` are never shared:
attack sources, and ``ParsecWorkload``, whose caller-visible ``Packet``
objects must never enter two episodes.
"""

from __future__ import annotations

import itertools
import os
from array import array

import numpy as np

__all__ = [
    "DrawReader",
    "DrawRecord",
    "close_scope",
    "enter_scope",
    "scope_token",
    "share",
]

#: Initial capacity (packets) of a record's source/destination buffers.
_INITIAL_CAPACITY = 256


class _Buffer:
    """A growable int64 buffer: written through ``data``, read through the
    read-only view ``frozen``, so every slice handed out is read-only."""

    __slots__ = ("data", "frozen")

    def __init__(self, capacity: int) -> None:
        self.data = np.empty(capacity, dtype=np.int64)
        self.frozen = self.data.view()
        self.frozen.flags.writeable = False

    def grow(self, capacity: int, size: int) -> None:
        # Views handed out earlier keep the old array alive and unchanged.
        data = np.empty(capacity, dtype=np.int64)
        data[:size] = self.data[:size]
        self.data = data
        self.frozen = data.view()
        self.frozen.flags.writeable = False


class DrawRecord:
    """One source key's draws: per-call cycles and packet offsets.

    Call ``i`` drew ``sources[offsets[i]:offsets[i + 1]]`` (and the same
    slice of ``destinations``) at cycle ``cycles[i]``.  A call that drew
    nothing — ``_fresh_batch`` returned None, as opposed to an empty batch
    — is stored as ``~cycle``.
    """

    __slots__ = ("_leader", "_cycles", "_offsets", "_sources", "_destinations")

    def __init__(self, leader) -> None:
        self._leader = leader
        self._cycles = array("i")
        self._offsets = array("i", [0])
        self._sources = _Buffer(_INITIAL_CAPACITY)
        self._destinations = _Buffer(_INITIAL_CAPACITY)

    def __len__(self) -> int:
        return len(self._cycles)

    def _extend(self, cycle: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Append the leader's next fresh draw, made at ``cycle``; returns it."""
        batch = self._leader._fresh_batch(cycle)
        start = self._offsets[-1]
        if batch is None:
            self._cycles.append(~cycle)
            self._offsets.append(start)
            return None
        sources, destinations = batch
        end = start + sources.size
        capacity = self._sources.data.size
        if end > capacity:
            while capacity < end:
                capacity *= 2
            self._sources.grow(capacity, start)
            self._destinations.grow(capacity, start)
        self._sources.data[start:end] = sources
        self._destinations.data[start:end] = destinations
        self._cycles.append(cycle)
        self._offsets.append(end)
        return batch


class DrawReader:
    """One source's position in a :class:`DrawRecord`."""

    __slots__ = ("_record", "_calls")

    def __init__(self, record: DrawRecord) -> None:
        self._record = record
        self._calls = 0

    def next(self, cycle: int) -> tuple[np.ndarray, np.ndarray] | None:
        """This reader's next ``_draw_batch`` result: drawn fresh (and
        recorded) when no reader has made the call yet, else replayed."""
        record = self._record
        call = self._calls
        self._calls = call + 1
        cycles = record._cycles
        if call == len(cycles):
            return record._extend(cycle)
        recorded = cycles[call]
        if recorded == cycle:
            start = record._offsets[call]
            end = record._offsets[call + 1]
            return (
                record._sources.frozen[start:end],
                record._destinations.frozen[start:end],
            )
        if recorded == ~cycle:
            return None
        raise ValueError(
            f"draw {call} of a shared stream asked for cycle {cycle}, "
            f"recorded at cycle {max(recorded, ~recorded)}"
        )


class _Scope:
    """The records of one driver call, by source key."""

    def __init__(self, token) -> None:
        self.token = token
        self.records: dict = {}


_SCOPE: _Scope | None = None
_CALLS = itertools.count()


def scope_token() -> tuple[int, int]:
    """A token naming a new scope, unique to this process and call."""
    return (os.getpid(), next(_CALLS))


def enter_scope(token) -> None:
    """Make ``token``'s scope the process's open scope.

    The first entry opens it, so each process (a worker, or the parent of a
    serial run) records its own streams; entering it again keeps its
    records.  Entering under a new token drops any earlier scope.
    """
    global _SCOPE
    if _SCOPE is None or _SCOPE.token != token:
        _SCOPE = _Scope(token)


def close_scope(token) -> None:
    """Drop the scope opened under ``token`` and every record it holds."""
    global _SCOPE
    if _SCOPE is not None and _SCOPE.token == token:
        _SCOPE = None


def share(source):
    """Attach ``source`` to the open scope's record of its key; returns it.

    Attach a source before its first draw.  A no-op without an open scope
    and for a source that has no ``_stream_key``.
    """
    scope = _SCOPE
    if scope is None or not hasattr(source, "_stream_key"):
        return source
    key = source._stream_key()
    record = scope.records.get(key)
    if record is None:
        record = scope.records[key] = DrawRecord(source)
    source._replay = DrawReader(record)
    return source
