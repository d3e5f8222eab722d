"""Simulator backend selection (``REPRO_SIM_BACKEND``).

Two interchangeable mesh-network implementations exist:

* ``soa`` (default) — :class:`repro.noc.soa.SoAMeshNetwork`, the vectorized
  structure-of-arrays backend whose per-cycle kernels run on flat NumPy
  arrays;
* ``object`` — :class:`repro.noc.network.MeshNetwork`, the original
  router/VC/flit object model, kept as the readable reference the SoA
  backend is fingerprint-pinned against.

Both produce bit-identical feature frames, latency statistics and defense
reports for the same seeds (``tests/noc/test_soa_equivalence.py``), so the
choice is purely a performance knob.  Precedence: an explicit
``SimulationConfig(backend=...)`` beats the ``REPRO_SIM_BACKEND``
environment variable, which beats the default.
"""

from __future__ import annotations

import os

from repro.noc.network import MeshNetwork
from repro.noc.soa import SoAMeshNetwork
from repro.noc.topology import MeshTopology

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "DEFAULT_EPISODE_BATCH",
    "resolve_backend",
    "episode_batch_size",
    "build_network",
]

BACKENDS = ("soa", "object")
DEFAULT_BACKEND = "soa"

#: Default episode-batch width of the batched SoA mode (``REPRO_EPISODE_BATCH``).
DEFAULT_EPISODE_BATCH = 16


def episode_batch_size(default: int = DEFAULT_EPISODE_BATCH) -> int:
    """Episode-batch width from ``REPRO_EPISODE_BATCH`` (values <= 1 disable).

    Governs how many independent episodes the batched SoA backend advances
    per kernel dispatch when a consumer (e.g.
    :meth:`repro.monitor.dataset.DatasetBuilder.chunk`) groups episode
    sets.  Purely a performance knob: per-episode results are
    fingerprint-identical at any width (``tests/noc/test_batched_equivalence.py``).
    """
    raw = os.environ.get("REPRO_EPISODE_BATCH", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError as error:
        raise ValueError(
            f"REPRO_EPISODE_BATCH must be an integer, got {raw!r}"
        ) from error
    return max(1, value)


def resolve_backend(explicit: str = "") -> str:
    """Backend name from an explicit override, the environment, or default."""
    name = (explicit or os.environ.get("REPRO_SIM_BACKEND", "")).strip().lower()
    if not name:
        name = DEFAULT_BACKEND
    if name not in BACKENDS:
        raise ValueError(
            f"unknown simulator backend {name!r}; expected one of {BACKENDS}"
        )
    return name


def build_network(
    topology: MeshTopology,
    backend: str = "",
    num_vcs: int = 4,
    vc_depth: int = 4,
    injection_bandwidth: int = 1,
    source_queue_capacity: int = 512,
    episodes: int = 1,
) -> MeshNetwork | SoAMeshNetwork:
    """Instantiate the selected mesh-network backend.

    ``episodes > 1`` selects the episode-batched SoA mode: one
    :class:`repro.noc.soa_batch.BatchedSoAMeshNetwork` advancing that many
    independent mesh copies per kernel dispatch (only the ``soa`` backend
    supports it — the object model has no batch axis).
    """
    name = resolve_backend(backend)
    if episodes > 1:
        if name != "soa":
            raise ValueError(
                f"episode batching requires the 'soa' backend, not {name!r}"
            )
        from repro.noc.soa_batch import BatchedSoAMeshNetwork

        return BatchedSoAMeshNetwork(
            topology,
            episodes,
            num_vcs=num_vcs,
            vc_depth=vc_depth,
            injection_bandwidth=injection_bandwidth,
            source_queue_capacity=source_queue_capacity,
        )
    network_cls = SoAMeshNetwork if name == "soa" else MeshNetwork
    return network_cls(
        topology,
        num_vcs=num_vcs,
        vc_depth=vc_depth,
        injection_bandwidth=injection_bandwidth,
        source_queue_capacity=source_queue_capacity,
    )
