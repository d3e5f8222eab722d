"""Episode-batched structure-of-arrays mesh backend: one dispatch, N meshes.

``BENCH_PR4.json`` showed the remaining 16x16 per-cycle cost is numpy
per-call dispatch (~85 kernel ops per cycle), which no amount of
micro-optimization inside one mesh removes.  Every sweep, training-data
build and robustness-matrix cell runs dozens of *independent* episodes, so
the architectural fix is a leading episode axis: advance all N meshes with
a single run of the existing kernels, amortizing the fixed dispatch cost
N-fold.

:class:`BatchedSoAMeshNetwork` realises that axis without a second kernel
implementation.  The :mod:`repro.noc.soa_step` kernels are agnostic to mesh
shape — they only consume the precomputed lookup tables — so N independent
meshes are advanced as one **disjoint union**: the per-node and per-VC id
tables are laid out block-diagonally (ids offset per episode, no links
between blocks), the two large solo tables — the XY route table and the
60-phase arbitration-key table — are shared by every block and read
through episode-local ids, every state array spans ``episodes *
num_nodes`` nodes, and one ``inject`` + ``switch`` dispatch moves every
flit of every episode.  Because blocks share no edges,
no packet, credit or arbitration decision can cross episodes; each episode
block evolves exactly as a solo :class:`~repro.noc.soa.SoAMeshNetwork`
would.

Per-episode observability comes from :class:`SoAMeshLane` views.  A lane is
episode ``i``'s block of the shared arrays and runs the solo network's own
per-episode members (:class:`~repro.noc.soa._EpisodeBlock`: enqueue, stats,
drops, limits, flush, feature frames, LOCAL-port BOC, flit counts, queue
and router views) at its block offset.  Nothing is lane-specific: the
network owns one packet registry, the episode of a row is the block of its
source node, and a lane's :class:`~repro.noc.soa.RegistryStats` is the view
of its rows.  Both ``step`` methods share one metered kernel dispatch
(``SoAMeshNetwork._advance``), and both networks share one scalar row
writer and one array sweep for ingress and one pair of kernel callbacks.
So ``batched(N=1)`` is fingerprint-identical to the solo SoA path, and row
``i`` of ``batched(N=k)`` is fingerprint-identical to a solo run of
episode ``i`` (pinned by ``tests/noc/test_batched_equivalence.py``).
Calling a per-episode member on the batched network itself raises
``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.soa import (
    MeshTables,
    SoAMeshNetwork,
    _EpisodeBlock,
    _vc_tables,
    mesh_tables,
)
from repro.noc.topology import MeshTopology

__all__ = ["BatchedSoAMeshNetwork", "SoAMeshLane", "batched_tables"]


@dataclass(frozen=True)
class _BatchVcTables:
    """Per-VC lookup tables spanning every episode block."""

    q_node: np.ndarray
    q_port: np.ndarray
    q_node5: np.ndarray
    q_node_base: np.ndarray | None
    key_table: np.ndarray
    q_local: np.ndarray
    down_port: np.ndarray
    route_slot: np.ndarray | None
    q_slot_off: np.ndarray | None


def batched_tables(
    topology: MeshTopology, num_vcs: int, episodes: int
) -> tuple[MeshTables, _BatchVcTables]:
    """Block-diagonal lookup tables for ``episodes`` disjoint copies of a mesh.

    Node/port/VC ids of episode ``e`` are the per-episode ids offset by
    ``e * num_nodes`` (respectively ``* 5`` / ``* 5 * num_vcs``); edge and
    downstream-port entries stay ``-1`` at block boundaries, so no kernel
    path can cross episodes.  Each batched network builds its own set (a
    millisecond or so) and frees it with the batch.

    Arbitration reads the solo ``key_table`` itself (``KEY_PERIOD`` rows of
    one mesh's VCs): ``q_local[q]`` is VC ``q``'s episode-local id, and the
    switch kernel gathers ``key_table[phase][q_local[q]]``.  So the table
    costs the same whatever the number of episodes.

    Routing keeps the solo backend's fused single-gather lookup:
    ``route_slot`` is the *unmodified* per-episode-local table — it stays
    ``nodes²`` entries no matter how many episodes are batched, small
    enough to live in cache — and ``q_node_base`` is biased by the VC's
    episode so that ``q_node_base[q] + global_dest`` lands on the local
    ``(node, dest)`` entry.  The gathered slot id is episode-local; the
    switch kernel adds ``q_slot_off[q]`` (the episode's arbitration-slot
    offset, ``e * nodes * 5``) to globalise it.  Whenever the solo table
    itself is disabled (``REPRO_XY_TABLE_MAX_NODES``), ``route_slot`` is
    ``None`` and the switch kernel derives XY directions on the fly from
    the tiled per-episode-local coordinates (exact, because source and
    destination of a packet always live in the same block).
    """
    base = mesh_tables(topology)
    vc = _vc_tables(topology, num_vcs)
    nodes = topology.num_nodes

    node_offsets = (np.arange(episodes, dtype=np.int64) * nodes).repeat(nodes)
    neighbor = np.tile(base.neighbor, (episodes, 1))
    neighbor = np.where(neighbor >= 0, neighbor + node_offsets[:, None], -1)
    tables = MeshTables(
        neighbor=neighbor,
        port_exists=np.tile(base.port_exists, (episodes, 1)),
        port_pos=np.tile(base.port_pos, (episodes, 1)),
        nports=np.tile(base.nports, episodes),
        route=None,
        opposite=base.opposite,
        x=np.tile(base.x, episodes),
        y=np.tile(base.y, episodes),
    )

    num_slots = nodes * 5 * num_vcs
    slot_node_off = (np.arange(episodes, dtype=np.int64) * nodes).repeat(num_slots)
    q_node = np.tile(vc.q_node, episodes) + slot_node_off
    port_off = (np.arange(episodes, dtype=np.int64) * nodes * 5).repeat(nodes * 5)
    down_port = np.tile(vc.down_port, episodes)
    down_port = np.where(down_port >= 0, down_port + port_off, -1)
    route_slot = None
    q_node_base = None
    q_slot_off = None
    if vc.route_slot is not None:
        # Share the solo (node, dest) -> local-slot table and bias the base
        # index so the global destination id cancels its episode offset:
        #   q_node_base[q] + global_dest
        #     = (local_node * nodes - e * nodes) + (e * nodes + local_dest)
        #     = local_node * nodes + local_dest
        route_slot = vc.route_slot
        q_node_base = np.tile(vc.q_node_base, episodes) - slot_node_off
        q_slot_off = (slot_node_off * 5).astype(np.int32)
    batch_vc = _BatchVcTables(
        q_node=q_node,
        q_port=np.tile(vc.q_port, episodes) + slot_node_off * 5,
        q_node5=q_node * 5,
        q_node_base=q_node_base,
        key_table=vc.key_table,
        q_local=np.tile(np.arange(num_slots, dtype=np.int64), episodes),
        down_port=down_port,
        route_slot=route_slot,
        q_slot_off=q_slot_off,
    )
    return tables, batch_vc


def _no_direct_surface(name: str, is_property: bool = False):
    """A member that refuses per-episode access on a whole-batch object."""

    def refuse(self, *args, **kwargs):
        call = "" if is_property else "(...)"
        raise TypeError(
            f"{type(self).__name__}.{name} is per-episode state; "
            f"use .lane(i).{name}{call} instead"
        )

    return property(refuse) if is_property else refuse


class BatchedSoAMeshNetwork(SoAMeshNetwork):
    """N disjoint mesh copies advanced by one kernel dispatch per cycle.

    The episode-facing surface lives on the :class:`SoAMeshLane` views
    returned by :meth:`lane`; calling a per-episode member (enqueue, stats,
    limits, flush, frames, views) on the batched network directly raises
    ``TypeError``.  The flit counts (``in_flight_flits``, ``queued_flits``,
    ``drainable_queued_flits``) stay available as whole-batch aggregates.
    """

    backend_name = "soa-batch"

    def __init__(
        self,
        topology: MeshTopology,
        episodes: int,
        num_vcs: int = 4,
        vc_depth: int = 4,
        injection_bandwidth: int = 1,
        source_queue_capacity: int = 512,
    ) -> None:
        if episodes < 1:
            raise ValueError("episodes must be >= 1")
        self.episodes = int(episodes)
        super().__init__(
            topology,
            num_vcs=num_vcs,
            vc_depth=vc_depth,
            injection_bandwidth=injection_bandwidth,
            source_queue_capacity=source_queue_capacity,
        )

    def _install_tables(self) -> None:
        tables, vc = batched_tables(self.topology, self.num_vcs, self.episodes)
        self._tables = tables
        self._q_node = vc.q_node
        self._q_port = vc.q_port
        self._q_node5 = vc.q_node5
        # The solo key table, read at each VC's episode-local id.
        self._key_table = vc.key_table
        self._q_local = vc.q_local
        self._down_port = vc.down_port
        # Shared episode-local fused-XY table plus per-VC slot offsets (all
        # None when the table is disabled — the switch kernel then routes
        # on the fly from the tiled local coordinates).
        self._q_node_base = vc.q_node_base
        self._route_slot = vc.route_slot
        self._q_slot_off = vc.q_slot_off
        self._nodes = self.topology.num_nodes * self.episodes

    # -- episode views -------------------------------------------------------
    def lane(self, index: int) -> "SoAMeshLane":
        """The ``MeshNetwork``-facing view of episode ``index``.

        Views hold no state of their own, so each call makes a new one and
        the network keeps no reference back to its views.
        """
        return SoAMeshLane(self, range(self.episodes)[index])

    @property
    def lanes(self) -> list["SoAMeshLane"]:
        return [SoAMeshLane(self, index) for index in range(self.episodes)]

    # Every episode advances in the one kernel dispatch.  Bound in this
    # class body too: the span tracer times the batched step on its own.
    step = SoAMeshNetwork.step

    # -- grouped cross-episode ingress ---------------------------------------
    def enqueue_group(
        self,
        lane_ids: np.ndarray,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (lane, source, destination) triple in one sweep.

        ``sources`` / ``destinations`` are episode-local node ids aligned
        with ``lane_ids``.  Semantically identical to calling each lane's
        ``enqueue_batch`` separately (per-lane capacity checks, drop
        counters and registry rows), but the ring writes of every episode
        happen as one array sweep — the grouped ingress of
        :meth:`repro.noc.simulator.NoCSimulator.step` over several lanes.
        """
        offsets = np.asarray(lane_ids, dtype=np.int64) * self.topology.num_nodes
        return self._enqueue_rows(
            np.asarray(sources, dtype=np.int64) + offsets,
            np.asarray(destinations, dtype=np.int64) + offsets,
            size_flits,
            cycle,
            malicious,
        )

    # -- global bookkeeping ---------------------------------------------------
    @property
    def dropped_packets(self) -> int:  # type: ignore[override]
        """Drops across every episode (per-episode counts live on the lanes)."""
        return sum(self._dropped)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedSoAMeshNetwork({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, vcs={self.num_vcs})"
        )

    # Per-episode surface: direct calls would silently mix episode state.
    enqueue_packet = _no_direct_surface("enqueue_packet")
    enqueue_batch = _no_direct_surface("enqueue_batch")
    stats = _no_direct_surface("stats", is_property=True)
    set_injection_limit = _no_direct_surface("set_injection_limit")
    injection_limit = _no_direct_surface("injection_limit")
    injection_limits = _no_direct_surface("injection_limits", is_property=True)
    reset_injection_limits = _no_direct_surface("reset_injection_limits")
    restricted_nodes = _no_direct_surface("restricted_nodes", is_property=True)
    flush_source_queue = _no_direct_surface("flush_source_queue")
    feature_frame = _no_direct_surface("feature_frame")
    feature_frames = _no_direct_surface("feature_frames")
    local_boc = _no_direct_surface("local_boc")
    reset_boc_counters = _no_direct_surface("reset_boc_counters")
    router = _no_direct_surface("router")
    routers = _no_direct_surface("routers", is_property=True)
    source_queues = _no_direct_surface("source_queues", is_property=True)


class SoAMeshLane(_EpisodeBlock):
    """The ``MeshNetwork``-facing surface of one episode of a batched mesh.

    The episode's block of the shared state arrays: every
    :class:`~repro.noc.soa._EpisodeBlock` member (enqueue, stats, drops,
    limits, flush, frames, flit counts, views) is the solo network's own,
    run at the lane offset, so consumers written against
    :class:`~repro.noc.soa.SoAMeshNetwork` — the monitor, the defense
    guard, the dataset builder — run unchanged.
    """

    backend_name = "soa"

    def __init__(self, net: BatchedSoAMeshNetwork, index: int) -> None:
        self._net = net
        self.lane_index = index
        self.topology = net.topology
        self._nodes = net.topology.num_nodes
        self._off = index * self._nodes
        self.num_vcs = net.num_vcs
        self.vc_depth = net.vc_depth
        self.injection_bandwidth = net.injection_bandwidth
        self.source_queue_capacity = net.source_queue_capacity

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshLane({self.lane_index} of {self._net.episodes}, "
            f"{self.topology.rows}x{self.topology.columns})"
        )
