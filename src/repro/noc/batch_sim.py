"""Episode-batched simulation over :class:`BatchedSoAMeshNetwork`.

:class:`BatchedNoCSimulator` advances N independent simulation episodes —
each with its own traffic sources, observers and defense hooks — with one
kernel dispatch per cycle.  It is a :class:`NoCSimulator`: the same driver
runs fault scheduling, ingress, the kernel step and observer dispatch for
both.  The only batched-specific parts are the network it builds and its
``lanes``.

Each episode is a :class:`LaneSimulator` that shares the solo simulator's
per-episode surface (``add_source`` / ``add_observer`` / throttle hooks /
``stats`` / ``latency``) and reads the parent's clock, so the global
performance monitor, the dataset builder and the defense guard attach to a
lane exactly as they would to a solo simulator.

The driver's ingress loops over source *positions*, then lanes: all lanes'
position-0 sources are drained before any position-1 source, so the
within-lane enqueue order (workload before attacker) matches the solo
simulator's source order, and batch emissions of one position are handed
to :meth:`BatchedSoAMeshNetwork.enqueue_group` as one cross-episode sweep.
Every source keeps its own per-episode RNG stream, so the emitted packet
streams are identical per episode to a solo run with the same seeds (pinned
by ``tests/noc/test_batched_equivalence.py``).
"""

from __future__ import annotations

import weakref

from repro.noc.simulator import NoCSimulator, SimulationConfig, _Episode
from repro.noc.soa_batch import BatchedSoAMeshNetwork, _no_direct_surface

__all__ = ["BatchedNoCSimulator", "LaneSimulator"]


class LaneSimulator(_Episode):
    """The ``NoCSimulator``-facing view of one episode of a batched run.

    Holds the episode's traffic sources and observers; the parent
    :class:`BatchedNoCSimulator` drives them.  Observer callbacks receive
    this lane, so samplers written against ``NoCSimulator`` (reading
    ``.network`` / ``.cycle`` / ``.sources``) run unchanged per episode.
    """

    def __init__(self, parent: "BatchedNoCSimulator", index: int) -> None:
        super().__init__(
            parent.config,
            parent.topology,
            parent.backend,
            parent.network.lane(index),
            index,
        )
        # Weak, so a finished batch is no reference cycle: it is freed as
        # soon as it is dropped instead of waiting for the cycle collector.
        self._parent = weakref.ref(parent)

    @property
    def cycle(self) -> int:
        return self._parent().cycle

    def _driver(self) -> "BatchedNoCSimulator":
        return self._parent()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LaneSimulator({self.lane_index}, cycle={self.cycle})"


class BatchedNoCSimulator(NoCSimulator):
    """Drives N independent episodes with one kernel dispatch per cycle.

    Data faults scheduled or injected here apply to every episode.
    """

    def __init__(
        self, config: SimulationConfig | None = None, episodes: int = 1
    ) -> None:
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self.episodes = int(episodes)
        super().__init__(config)
        self._lanes = [LaneSimulator(self, index) for index in range(self.episodes)]

    def _build_network(self, config, topology, backend):
        if backend != "soa":
            raise ValueError(
                "episode batching requires the 'soa' backend "
                f"(configured: {backend!r})"
            )
        # Constructed directly rather than via build_network(): episodes=1
        # must still yield a batched network here (the N=1 equivalence pin),
        # while build_network keeps returning the plain solo backend for it.
        return BatchedSoAMeshNetwork(
            topology,
            self.episodes,
            num_vcs=config.num_vcs,
            vc_depth=config.vc_depth,
            injection_bandwidth=config.injection_bandwidth,
            source_queue_capacity=config.source_queue_capacity,
        )

    @property
    def lanes(self) -> list[LaneSimulator]:
        """The per-episode simulator views, in episode order."""
        return self._lanes

    def lane(self, index: int) -> LaneSimulator:
        """The per-episode simulator view of episode ``index``."""
        return self._lanes[index]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedNoCSimulator({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, cycle={self.cycle})"
        )

    # Per-episode surface: it lives on the lanes.
    add_source = _no_direct_surface("add_source")
    add_observer = _no_direct_surface("add_observer")
    throttle_node = _no_direct_surface("throttle_node")
    quarantine_node = _no_direct_surface("quarantine_node")
    release_node = _no_direct_surface("release_node")
    restricted_nodes = _no_direct_surface("restricted_nodes", is_property=True)
    stats = _no_direct_surface("stats", is_property=True)
    latency = _no_direct_surface("latency")
