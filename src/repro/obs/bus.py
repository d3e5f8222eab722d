"""Structured event-trace bus: the flight recorder of the defense loop.

One process-wide :data:`BUS` carries typed, schema-versioned events from the
instrumented decision sites (the guard's window stream, fault activation,
monitor capture) into a pluggable sink.  Emission sites follow one
pattern::

    from repro.obs.bus import BUS
    ...
    if BUS.active:
        BUS.emit("engaged", nodes=nodes, limit=limit)

so a disabled bus costs a single attribute check and allocates nothing —
the zero-cost-when-off property the per-cycle hot paths rely on.

Every event is a flat JSON-able dict carrying the schema version, its kind,
and the (episode, cycle, window) coordinates of the decision it records;
node-scoped events add ``node`` / ``nodes``.  Coordinates come from a small
context the guard refreshes at the top of every sampling window
(:meth:`TraceBus.set_context`), so emitters do not need to thread
coordinates through their APIs.

Events deliberately contain **no wall-clock timestamps and no RNG use**:
they are pure functions of the observed window stream, which is
fingerprint-identical across simulator backends — so the serialized JSONL
stream is byte-identical across backends too (pinned by
``tests/obs/test_trace_determinism.py``).  Timings belong in
:mod:`repro.obs.metrics`.

Environment selection (:func:`configure_tracing_from_environment`, applied
at import):

``REPRO_TRACE``
    ``""`` / ``0`` / ``off`` / ``none`` — disabled (the default);
    ``ring`` — in-memory ring buffer (``BUS.sink.events()``);
    ``jsonl`` — JSONL file(s) under ``REPRO_TRACE_DIR``.
``REPRO_TRACE_DIR``
    Directory for JSONL traces (default ``./repro-trace``).  Files are
    named ``trace-<pid>.jsonl`` so forked sweep workers never interleave
    writes; explicit :class:`JsonlSink` paths (as the determinism tests
    use) are exact.
"""

from __future__ import annotations

import json
import os
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator

__all__ = [
    "BUS",
    "TRACE_SCHEMA_VERSION",
    "JsonlSink",
    "NullSink",
    "RingBufferSink",
    "TraceBus",
    "configure_tracing_from_environment",
    "trace_session",
]

#: Version stamped into every event (bump on any breaking schema change).
TRACE_SCHEMA_VERSION = 1

#: Default ring-buffer capacity (events retained; older ones roll off).
DEFAULT_RING_CAPACITY = 65536


class NullSink:
    """Swallows everything (the disabled-bus sink)."""

    def write(self, event: dict) -> None:  # pragma: no cover - never wired
        pass

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass


class RingBufferSink:
    """Keeps the newest ``capacity`` events in memory.

    The in-process consumer surface: tests and ad-hoc debugging read
    :meth:`events` instead of re-parsing JSONL.
    """

    def __init__(self, capacity: int = DEFAULT_RING_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._events: deque[dict] = deque(maxlen=int(capacity))

    def write(self, event: dict) -> None:
        self._events.append(event)

    def events(self) -> list[dict]:
        """Snapshot of the retained events, oldest first."""
        return list(self._events)

    def clear(self) -> None:
        self._events.clear()

    def flush(self) -> None:
        pass

    def close(self) -> None:
        pass

    def __len__(self) -> int:
        return len(self._events)


def serialize_event(event: dict) -> str:
    """One event as its canonical JSONL line (no trailing newline).

    Sorted keys and compact separators, so two identically-valued events
    serialize to identical bytes — the unit of the byte-identical
    cross-backend trace guarantee.
    """
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


class JsonlSink:
    """Appends one canonical JSON line per event to a file.

    The file opens lazily on the first event.  A sink created without an
    explicit path writes ``trace-<pid>.jsonl`` under ``directory`` and
    re-opens under the *current* pid on write — a forked sweep worker
    inheriting the parent's sink transparently gets its own file instead
    of interleaving writes into the parent's.
    """

    def __init__(
        self, path: str | Path | None = None, directory: str | Path | None = None
    ) -> None:
        if path is None and directory is None:
            raise ValueError("JsonlSink needs a path or a directory")
        self._explicit_path = Path(path) if path is not None else None
        self._directory = Path(directory) if directory is not None else None
        self._stream: IO[str] | None = None
        self._pid: int | None = None

    @property
    def path(self) -> Path:
        """Where this process's events land."""
        if self._explicit_path is not None:
            return self._explicit_path
        assert self._directory is not None
        return self._directory / f"trace-{os.getpid()}.jsonl"

    def _ensure_stream(self) -> IO[str]:
        pid = os.getpid()
        if self._stream is None or (
            self._explicit_path is None and pid != self._pid
        ):
            if self._stream is not None:
                # Forked child: drop the inherited handle without flushing
                # the parent's buffered bytes twice.
                try:
                    self._stream.close()
                except OSError:  # pragma: no cover - exotic fd states
                    pass
            target = self.path
            target.parent.mkdir(parents=True, exist_ok=True)
            self._stream = open(target, "a", encoding="utf-8")
            self._pid = pid
        return self._stream

    def write(self, event: dict) -> None:
        self._ensure_stream().write(serialize_event(event) + "\n")

    def flush(self) -> None:
        if self._stream is not None:
            self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None


class TraceBus:
    """Process-wide event bus with one sink and a coordinate context.

    ``active`` is the *only* thing hot paths read; it is ``True`` exactly
    when a sink is installed.  The (episode, cycle, window) context is
    refreshed by the guard at the top of every sampling window so nested
    emitters inherit correct coordinates for free.
    """

    __slots__ = ("active", "sink", "episode", "cycle", "window")

    def __init__(self) -> None:
        self.active = False
        self.sink: NullSink | RingBufferSink | JsonlSink | None = None
        self.episode = 0
        self.cycle = -1
        self.window = -1

    # -- wiring --------------------------------------------------------------
    def configure(self, sink) -> None:
        """Install ``sink`` (``None`` disables the bus)."""
        if self.sink is not None and self.sink is not sink:
            self.sink.close()
        self.sink = sink
        self.active = sink is not None
        self.episode = 0
        self.cycle = -1
        self.window = -1

    def disable(self) -> None:
        self.configure(None)

    # -- coordinates ---------------------------------------------------------
    def set_context(
        self, episode: int | None = None, cycle: int | None = None,
        window: int | None = None,
    ) -> None:
        """Update the coordinates stamped on subsequent events."""
        if episode is not None:
            self.episode = int(episode)
        if cycle is not None:
            self.cycle = int(cycle)
        if window is not None:
            self.window = int(window)

    # -- emission ------------------------------------------------------------
    def emit(self, kind: str, **fields) -> None:
        """Record one event.  Call only behind an ``if BUS.active`` guard.

        ``fields`` must be JSON-able and deterministic (derived from the
        observed stream — never wall-clock, never RNG).  ``cycle`` /
        ``window`` / ``episode`` override the context for this event;
        ``nodes`` iterables are normalised to sorted lists so set-valued
        emitters serialize canonically.
        """
        if not self.active:
            return
        event = {
            "schema": TRACE_SCHEMA_VERSION,
            "kind": kind,
            "episode": self.episode,
            "cycle": self.cycle,
            "window": self.window,
        }
        for key, value in fields.items():
            if key == "nodes":
                event[key] = sorted(int(node) for node in value)
            elif isinstance(value, (frozenset, set, tuple)):
                event[key] = sorted(value)
            else:
                event[key] = value
        self.sink.write(event)

    def flush(self) -> None:
        if self.sink is not None:
            self.sink.flush()


#: The process-wide bus every instrumented site emits to.
BUS = TraceBus()


def configure_tracing_from_environment(bus: TraceBus | None = None) -> TraceBus:
    """Wire the bus from ``REPRO_TRACE`` / ``REPRO_TRACE_DIR``.

    Called once at import; call again after changing the environment
    (tests use :func:`trace_session` instead).
    """
    bus = BUS if bus is None else bus
    mode = os.environ.get("REPRO_TRACE", "").strip().lower()
    if mode in ("", "0", "off", "none", "false", "no"):
        bus.configure(None)
    elif mode == "ring":
        bus.configure(RingBufferSink())
    elif mode == "jsonl":
        directory = os.environ.get("REPRO_TRACE_DIR", "").strip() or "repro-trace"
        bus.configure(JsonlSink(directory=directory))
    else:
        raise ValueError(
            f"REPRO_TRACE must be one of '', 'off', 'ring', 'jsonl'; got {mode!r}"
        )
    return bus


@contextmanager
def trace_session(sink) -> Iterator:
    """Temporarily install ``sink`` on the global bus (flushes on exit).

    The test/benchmark harness: guarantees the previous sink (usually
    none) is restored even when the traced code raises, so one traced
    episode cannot leak tracing into the rest of a suite.
    """
    previous = BUS.sink
    BUS.sink = sink
    BUS.active = sink is not None
    BUS.episode = 0
    BUS.cycle = -1
    BUS.window = -1
    try:
        yield sink
    finally:
        if sink is not None:
            sink.flush()
        BUS.sink = previous
        BUS.active = previous is not None


configure_tracing_from_environment()
