"""Content-addressed disk cache for expensive experiment artifacts.

The experiment suite spends almost all of its wall-clock in two places:
simulating scenario runs and training the DL2Fence CNNs.  Both are pure
functions of their configuration, so the :class:`ArtifactCache` stores them
on disk keyed by a canonical hash of that configuration
(:mod:`repro.runtime.hashing`) and every re-run — a second table at the same
mesh scale, a figure regenerated after a cosmetic change — loads instead of
recomputing.

Entries are directories.  A writer fills a temporary sibling directory,
writes a ``manifest.json`` (file names + sizes) *last*, then atomically
renames the directory into place; a reader treats a missing manifest, a
missing or size-mismatched file, or a loader exception as a cache miss and
rebuilds.  Interrupted writes therefore can never be loaded.

Corruption is *reported*, not hidden: a broken entry is moved into the
hidden ``.quarantine/`` directory under the cache root (with a
``RuntimeWarning`` naming it) instead of being silently deleted, so a bad
disk, a truncating copy tool, or an adversarial modification stays
inspectable after the rebuild.  The quarantine keeps only the newest few
specimens.  Transient read failures are distinguished from corruption:
manifest reads are retried briefly (a concurrent writer renaming the entry
into place can momentarily race the reader), and an entry that vanished
*entirely* between the existence check and the read is a plain miss — that
is a concurrent eviction, not damage.

Environment variables:

``REPRO_CACHE``
    ``0``/``false`` disables the cache entirely (every fetch misses, every
    store is a no-op).  Default: enabled.
``REPRO_CACHE_DIR``
    Cache root.  Default: ``~/.cache/dl2fence-repro``.
``REPRO_CACHE_MAX_BYTES``
    Size cap for the cache root.  After every store the least recently
    used entries (by manifest mtime; a fetch hit refreshes it) are pruned
    until the total size fits.  Default: unbounded.
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, TypeVar

from repro.obs.metrics import METRICS, cache_events_counter
from repro.runtime.hashing import cache_key

__all__ = ["ArtifactCache", "CacheStats", "default_cache_root"]

T = TypeVar("T")

_MANIFEST = "manifest.json"
#: Hidden directory (under the cache root) holding quarantined entries.
_QUARANTINE = ".quarantine"
#: Newest quarantined specimens kept for inspection; older ones are pruned.
_QUARANTINE_KEEP = 16
#: Manifest-read retries before an unreadable manifest counts as corruption
#: (a concurrent writer's rename can momentarily race the reader).
_MANIFEST_READ_RETRIES = 2
_MANIFEST_RETRY_SLEEP = 0.01


def default_cache_root() -> Path:
    """Cache root from ``REPRO_CACHE_DIR`` (default ``~/.cache/dl2fence-repro``)."""
    raw = os.environ.get("REPRO_CACHE_DIR", "").strip()
    if raw:
        return Path(raw).expanduser()
    return Path.home() / ".cache" / "dl2fence-repro"


def _enabled_from_environment() -> bool:
    raw = os.environ.get("REPRO_CACHE", "").strip().lower()
    return raw not in ("0", "false", "no", "off")


def _max_bytes_from_environment() -> int | None:
    """Size cap from ``REPRO_CACHE_MAX_BYTES`` (None = unbounded)."""
    raw = os.environ.get("REPRO_CACHE_MAX_BYTES", "").strip()
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CACHE_MAX_BYTES must be an integer, got {raw!r}"
        ) from None
    return value if value > 0 else None


@dataclass
class CacheStats:
    """Hit/miss/store counters (reported by the perf harness)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0
    evicted: int = 0
    quarantined: int = 0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "evicted": self.evicted,
            "quarantined": self.quarantined,
        }

    def inc(self, event: str, amount: int = 1) -> None:
        """Bump one counter, mirrored into the metrics registry when metered."""
        if not amount:
            return
        setattr(self, event, getattr(self, event) + amount)
        if METRICS.active:
            cache_events_counter().inc(amount, event=event)


@dataclass
class ArtifactCache:
    """Directory-per-entry disk cache with atomic, manifest-validated writes."""

    root: Path = field(default_factory=default_cache_root)
    enabled: bool = field(default_factory=_enabled_from_environment)
    stats: CacheStats = field(default_factory=CacheStats)
    #: Total-size cap in bytes (None = never evict).  Enforced after every
    #: store by pruning least-recently-used entries (oldest manifest mtime).
    max_bytes: int | None = field(default_factory=_max_bytes_from_environment)

    def __post_init__(self) -> None:
        self.root = Path(self.root)
        # Lazily initialised running size estimate: stores add their entry
        # size, a full walk only happens when the estimate crosses the cap
        # (and corrects the estimate), so stores stay O(entry) not O(cache).
        self._size_estimate: int | None = None

    @classmethod
    def disabled(cls) -> "ArtifactCache":
        """A cache that never hits and never writes."""
        return cls(enabled=False)

    # -- entry layout -------------------------------------------------------
    def entry_dir(self, kind: str, payload: Any) -> Path:
        """Directory an entry for (kind, payload) lives in (existing or not)."""
        key = cache_key(kind, payload)
        return self.root / key[:2] / key

    def _read_manifest_files(self, entry: Path) -> dict | None:
        """The entry's manifest file table, retried over transient races.

        A reader can attach to an entry in the same instant a concurrent
        writer renames it into place (or an LRU prune renames it away); one
        failed read therefore proves nothing.  Only a manifest that stays
        unreadable across the retry budget is reported as corruption.
        """
        manifest_path = entry / _MANIFEST
        for attempt in range(_MANIFEST_READ_RETRIES + 1):
            try:
                manifest = json.loads(manifest_path.read_text())
                files = manifest["files"]
                if isinstance(files, dict):
                    return files
                return None
            except (OSError, ValueError, KeyError):
                if attempt < _MANIFEST_READ_RETRIES:
                    time.sleep(_MANIFEST_RETRY_SLEEP)
        return None

    def _is_complete(self, entry: Path) -> bool:
        files = self._read_manifest_files(entry)
        if files is None:
            return False
        for name, size in files.items():
            data_path = entry / name
            try:
                if data_path.stat().st_size != int(size):
                    return False
            except OSError:
                return False
        return True

    def _purge(self, entry: Path) -> None:
        shutil.rmtree(entry, ignore_errors=True)

    def _quarantine(self, entry: Path, reason: str) -> None:
        """Move a damaged entry aside (with a warning) instead of deleting it.

        The quarantined copy lands under ``<root>/.quarantine/`` with a
        unique suffix; hidden directories are excluded from entry iteration
        and the size accounting, and only the newest ``_QUARANTINE_KEEP``
        specimens are kept.  When the move itself fails the entry is purged
        — an unreadable *and* unmovable entry must not block the rebuild.
        """
        quarantine = self.root / _QUARANTINE
        target = quarantine / f"{entry.name}-{uuid.uuid4().hex[:8]}"
        try:
            quarantine.mkdir(parents=True, exist_ok=True)
            os.replace(entry, target)
        except OSError:
            self._purge(entry)
            return
        self.stats.inc("quarantined")
        warnings.warn(
            f"cache entry {entry.name} is corrupt ({reason}); moved to "
            f"{target} for inspection, the artifact will be rebuilt",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            specimens = sorted(
                (path for path in quarantine.iterdir() if path.is_dir()),
                key=lambda path: path.stat().st_mtime,
                reverse=True,
            )
        except OSError:  # pragma: no cover - concurrent cleanup
            return
        for stale in specimens[_QUARANTINE_KEEP:]:
            self._purge(stale)

    # -- read / write -------------------------------------------------------
    def fetch(
        self, kind: str, payload: Any, load: Callable[[Path], T]
    ) -> T | None:
        """Load a cached artifact; ``None`` on miss, corruption, or disabled.

        A corrupted or partially written entry (missing/invalid manifest,
        truncated file, loader exception) is quarantined with a warning so
        the caller's rebuild can store a fresh copy while the damaged bytes
        stay inspectable.  An entry that vanished entirely between the
        existence check and the read is a concurrent eviction — a plain
        miss, not corruption.
        """
        if not self.enabled:
            self.stats.inc("misses")
            return None
        entry = self.entry_dir(kind, payload)
        if not entry.is_dir():
            self.stats.inc("misses")
            return None
        if not self._is_complete(entry):
            self.stats.inc("misses")
            if not entry.is_dir():
                return None
            self.stats.inc("invalid")
            self._quarantine(entry, "manifest missing, unreadable, or size mismatch")
            return None
        try:
            value = load(entry)
        except Exception as error:
            self.stats.inc("misses")
            if not entry.is_dir():
                return None
            self.stats.inc("invalid")
            self._quarantine(entry, f"loader failed: {type(error).__name__}")
            return None
        self.stats.inc("hits")
        # LRU touch: a hit makes the entry the most recently used one, so
        # size-cap pruning evicts cold entries first.
        try:
            os.utime(entry / _MANIFEST)
        except OSError:  # pragma: no cover - concurrent purge
            pass
        return value

    def store(self, kind: str, payload: Any, save: Callable[[Path], None]) -> Path | None:
        """Persist an artifact atomically; returns the entry dir (None if disabled).

        ``save`` receives an empty staging directory and writes the entry's
        files into it.  The manifest is written after ``save`` returns and the
        staging directory is renamed into place, so readers only ever see
        complete entries.
        """
        if not self.enabled:
            return None
        entry = self.entry_dir(kind, payload)
        entry.parent.mkdir(parents=True, exist_ok=True)
        staging = entry.parent / f".staging-{entry.name}-{uuid.uuid4().hex[:8]}"
        staging.mkdir()
        try:
            save(staging)
            files = {
                path.name: path.stat().st_size
                for path in sorted(staging.iterdir())
                if path.is_file()
            }
            manifest = {
                "kind": str(kind),
                "key": entry.name,
                "files": files,
            }
            manifest_path = staging / _MANIFEST
            manifest_path.write_text(json.dumps(manifest, indent=2))
            manifest_bytes = manifest_path.stat().st_size
            won = False
            if entry.exists():
                # A concurrent writer finished first; keep its entry.
                self._purge(staging)
            else:
                try:
                    os.replace(staging, entry)
                    won = True
                except OSError:
                    # Lost a rename race against a concurrent writer between
                    # the exists() check and the replace; its entry stands.
                    self._purge(staging)
            if won:
                # Only a store that actually placed a new entry counts: a lost
                # race purged its own staging dir, so bumping the counters for
                # it would drift the size estimate above the real on-disk
                # footprint (which total_bytes() — manifest included — is the
                # ground truth for).
                self.stats.inc("stores")
                if self.max_bytes is not None:
                    if self._size_estimate is None:
                        self._size_estimate = self.total_bytes()
                    else:
                        self._size_estimate += sum(files.values()) + manifest_bytes
                    if self._size_estimate > self.max_bytes:
                        self.enforce_size_cap()
            return entry
        except BaseException:
            self._purge(staging)
            raise

    # -- size-capped LRU eviction -------------------------------------------
    def _iter_entries(self) -> list[tuple[float, int, Path]]:
        """(manifest mtime, size, path) of every complete entry directory."""
        entries: list[tuple[float, int, Path]] = []
        if not self.root.is_dir():
            return entries
        for shard in self.root.iterdir():
            # Hidden directories (the quarantine) are not cache entries.
            if not shard.is_dir() or shard.name.startswith("."):
                continue
            for entry in shard.iterdir():
                if not entry.is_dir() or entry.name.startswith(".staging-"):
                    continue
                manifest = entry / _MANIFEST
                try:
                    mtime = manifest.stat().st_mtime
                except OSError:
                    # Incomplete leftovers count as oldest so they go first.
                    mtime = 0.0
                size = 0
                try:
                    size = sum(
                        path.stat().st_size
                        for path in entry.iterdir()
                        if path.is_file()
                    )
                except OSError:  # pragma: no cover - concurrent purge
                    pass
                entries.append((mtime, size, entry))
        return entries

    def total_bytes(self) -> int:
        """Current on-disk size of all complete entries."""
        return sum(size for _, size, _ in self._iter_entries())

    def enforce_size_cap(self, max_bytes: int | None = None) -> int:
        """Prune least-recently-used entries until the cache fits the cap.

        Entries are evicted oldest-manifest-mtime first (fetch hits refresh
        the mtime, so this is LRU rather than FIFO); the most recently used
        entry always survives, even when it alone exceeds the cap.  Returns
        the number of evicted entries.
        """
        cap = self.max_bytes if max_bytes is None else max_bytes
        if cap is None or not self.enabled:
            return 0
        entries = sorted(self._iter_entries())
        total = sum(size for _, size, _ in entries)
        evicted = 0
        while total > cap and len(entries) > 1:
            _, size, path = entries.pop(0)
            self._purge(path)
            total -= size
            evicted += 1
        self.stats.inc("evicted", evicted)
        self._size_estimate = total
        return evicted

    def get_or_build(
        self,
        kind: str,
        payload: Any,
        build: Callable[[], T],
        save: Callable[[T, Path], None],
        load: Callable[[Path], T],
    ) -> T:
        """Fetch, or build + store.  The returned value is never re-loaded,
        so cached and fresh call sites observe identical objects-by-value."""
        cached = self.fetch(kind, payload, load)
        if cached is not None:
            return cached
        value = build()
        self.store(kind, payload, lambda directory: save(value, directory))
        return value
