"""Canonical hashing of experiment configurations for the artifact cache.

Cache keys must be *stable* (the same configuration always hashes to the same
key, across processes and Python versions) and *sensitive* (changing any
field of any nested configuration object produces a different key).  The
canonical form is a JSON document with sorted keys in which dataclasses carry
their type name, enums their value, and NumPy arrays a digest of their raw
bytes; hashing that document with SHA-256 gives the entry key.

``CACHE_SCHEMA_VERSION`` is folded into every key.  Bump it whenever the
meaning of a cached artifact changes (dataset assembly, training semantics,
serialization layout), so stale entries from older code are never loaded.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Any

import numpy as np

__all__ = ["CACHE_SCHEMA_VERSION", "canonical_payload", "cache_key"]

#: Version salt folded into every cache key (see module docstring).
#: v2: the defense guard consults the cross-window evidence accumulator by
#: default, changing every cached mitigation/robustness episode timeline.
#: v3: degraded-mode sanitisation, staggered release probes and the
#: drain-aware window accounting change every cached episode timeline again.
#: v4: every closed-loop experiment shares one episode harness; its episode
#: keys carry the evidence and degraded-mode configs.
#: v5: cached reports carry ``event_counts`` whether or not the run that
#: filled the entry was traced.
CACHE_SCHEMA_VERSION = 5


def canonical_payload(obj: Any) -> Any:
    """Reduce ``obj`` to a deterministic JSON-serialisable structure."""
    if isinstance(obj, Enum):
        # Before the scalar checks: str/int-mixin enums are also str/int.
        return {"__enum__": type(obj).__name__, "value": canonical_payload(obj.value)}
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        # repr round-trips doubles exactly and avoids locale formatting.
        return {"__float__": repr(obj)}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            field.name: canonical_payload(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        return {"__dataclass__": type(obj).__name__, "fields": fields}
    if isinstance(obj, np.dtype):
        return {"__dtype__": obj.name}
    if isinstance(obj, np.generic):
        return canonical_payload(obj.item())
    if isinstance(obj, np.ndarray):
        digest = hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()
        return {"__ndarray__": [list(obj.shape), obj.dtype.name, digest]}
    if isinstance(obj, (list, tuple)):
        return [canonical_payload(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return {"__set__": sorted(json.dumps(canonical_payload(i)) for i in obj)}
    if isinstance(obj, dict):
        items = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                key = json.dumps(canonical_payload(key), sort_keys=True)
            items[key] = canonical_payload(value)
        return {key: items[key] for key in sorted(items)}
    raise TypeError(
        f"cannot canonicalise {type(obj).__name__!r} for cache hashing; "
        "convert it to dataclass/enum/scalar/array structure first"
    )


def cache_key(kind: str, payload: Any) -> str:
    """SHA-256 key of a (kind, payload) pair under the current schema version.

    The active simulator backend is folded into every key: all cached
    artifacts derive from simulation, and although the backends are pinned
    fingerprint-identical, sharing entries across them would make a
    cross-backend comparison run (e.g. the nightly ``REPRO_SIM_BACKEND``
    matrix with a shared cache dir) silently serve one backend's results as
    the other's — hiding exactly the divergence such a run exists to catch.
    """
    from repro.noc.backend import resolve_backend

    document = {
        "schema": CACHE_SCHEMA_VERSION,
        "kind": str(kind),
        "backend": resolve_backend(),
        "payload": canonical_payload(payload),
    }
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()
