"""Parallel cache-aware experiment engine.

This package is the shared runtime substrate of the experiment suite: a
content-addressed disk cache for expensive artifacts (simulated scenario
runs, trained DL2Fence models, sweep records), a deterministic
multiprocessing executor for independent tasks (sweep points, defended
episodes, scenario-run chunks) whose results come back through the worker
pool's pickle pipe, and the :class:`~repro.runtime.engine.ExperimentEngine`
facade that the experiment drivers in :mod:`repro.experiments` route
through.

Environment variables (all optional):

``REPRO_CACHE=0``        disable the artifact cache
``REPRO_CACHE_DIR``      cache root (default ``~/.cache/dl2fence-repro``)
``REPRO_WORKERS``        worker processes for sweep fan-out (default 1)
``REPRO_TASK_TIMEOUT``   per-task timeout in seconds (resilient dispatch)
``REPRO_TASK_RETRIES``   pool retry rounds before the serial fallback
"""

from repro.runtime.cache import ArtifactCache, CacheStats, default_cache_root
from repro.runtime.engine import ExperimentEngine, RunTask
from repro.runtime.hashing import CACHE_SCHEMA_VERSION, cache_key, canonical_payload
from repro.runtime.parallel import ParallelRunner, configured_workers

__all__ = [
    "ArtifactCache",
    "CACHE_SCHEMA_VERSION",
    "CacheStats",
    "ExperimentEngine",
    "ParallelRunner",
    "RunTask",
    "cache_key",
    "canonical_payload",
    "configured_workers",
    "default_cache_root",
]
