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
meshes are advanced as one **disjoint union**: the per-episode tables are
tiled block-diagonally (node ids offset per episode, no links between
blocks, XY routing on per-episode-local coordinates), every state array
spans ``episodes * num_nodes`` nodes, and one ``inject`` + ``switch``
dispatch moves every flit of every episode.  Because blocks share no edges,
no packet, credit or arbitration decision can cross episodes; each episode
block evolves exactly as a solo :class:`~repro.noc.soa.SoAMeshNetwork`
would.

Per-episode observability comes from :class:`SoAMeshLane` views.  A lane is
episode ``i``'s block of the shared arrays and runs the solo network's own
per-episode members (:class:`~repro.noc.soa._EpisodeBlock`: limits, flush,
feature frames, LOCAL-port BOC, flit counts, queue and router views) at its
block offset.  Only the episode's :class:`~repro.noc.stats.NetworkStats`,
drop counter and enqueue bookkeeping (its rows of the columnar packet
registry) are lane-specific.  Both ``step`` methods share one metered kernel
dispatch (``SoAMeshNetwork._advance``), and both enqueue paths share the
flit templates and source-ring writes.  So ``batched(N=1)`` is
fingerprint-identical to the solo SoA path, and row ``i`` of
``batched(N=k)`` is fingerprint-identical to a solo run of episode ``i``
(pinned by ``tests/noc/test_batched_equivalence.py``).  Calling a
per-episode member on the batched network itself raises ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.noc.packet import Packet
from repro.noc.soa import (
    MeshTables,
    SoAMeshNetwork,
    _EpisodeBlock,
    _GrowableInt,
    _vc_tables,
    mesh_tables,
)
from repro.noc.soa_step import PKT_SHIFT
from repro.noc.stats import NetworkStats
from repro.noc.topology import MeshTopology

__all__ = ["BatchedSoAMeshNetwork", "SoAMeshLane", "batched_tables"]


@dataclass(frozen=True)
class _BatchVcTables:
    """Tiled per-VC lookup tables spanning every episode block."""

    q_node: np.ndarray
    q_port: np.ndarray
    q_node5: np.ndarray
    q_node_base: np.ndarray | None
    key_table: np.ndarray
    down_port: np.ndarray
    route_slot: np.ndarray | None
    q_slot_off: np.ndarray | None


#: Keyed by (rows, columns, num_vcs, episodes, with_route_table).
_BATCH_TABLES_CACHE: dict[
    tuple[int, int, int, int, bool], tuple[MeshTables, _BatchVcTables]
] = {}


def batched_tables(
    topology: MeshTopology, num_vcs: int, episodes: int
) -> tuple[MeshTables, _BatchVcTables]:
    """Block-diagonal lookup tables for ``episodes`` disjoint copies of a mesh.

    Node/port/VC ids of episode ``e`` are the per-episode ids offset by
    ``e * num_nodes`` (respectively ``* 5`` / ``* 5 * num_vcs``); edge and
    downstream-port entries stay ``-1`` at block boundaries, so no kernel
    path can cross episodes.

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
    with_route_table = vc.route_slot is not None
    key = (topology.rows, topology.columns, num_vcs, episodes, with_route_table)
    cached = _BATCH_TABLES_CACHE.get(key)
    if cached is not None:
        return cached

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
    if with_route_table:
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
        key_table=np.ascontiguousarray(np.tile(vc.key_table, (1, episodes))),
        down_port=down_port,
        route_slot=route_slot,
        q_slot_off=q_slot_off,
    )
    built = (tables, batch_vc)
    _BATCH_TABLES_CACHE[key] = built
    return built


class _DeliveryLog:
    """The batched network's columnar packet registry and delivered log.

    ``Packet`` objects are not built on the hot path: ``enqueue_group``
    appends one registry row per packet (episode, episode-local source,
    size, creation cycle, malicious flag) and a ``None`` placeholder in
    the network's packet list; delivered packets are logged as (pid,
    ejection cycle) pairs.  :meth:`flush` materialises the log into the
    per-lane ``delivered`` lists, in recorded order.  The log holds the
    registry columns and lists but never the network, so neither the
    network nor its lane stats form a reference cycle: a finished batch is
    freed as soon as it is dropped, like a solo network.
    """

    def __init__(self, net: "BatchedSoAMeshNetwork") -> None:
        self.packets = net._packets
        self.dest = net._pkt_dest
        self.injected = net._pkt_injected
        self.nodes = net.topology.num_nodes
        self.episode = _GrowableInt()
        self.source = _GrowableInt()
        self.size = _GrowableInt()
        self.created = _GrowableInt()
        self.malicious = _GrowableInt()
        self.pid = _GrowableInt()
        self.cycle = _GrowableInt()
        self.done = 0
        self.delivered: list[list[Packet]] = [[] for _ in range(net.episodes)]

    def flush(self) -> None:
        """Materialise the pending delivered log into the per-lane lists.

        Counters are maintained live by the network's ``_record_ejections``;
        only the per-packet ``Packet`` objects are deferred.  Appending in
        log order preserves each lane's delivery order (the fingerprint the
        equivalence tests pin), and consumers that never read delivered
        packets — training-set generation reads feature frames only — never
        pay for their materialisation.
        """
        done = self.done
        total = len(self.pid)
        if done == total:
            return
        self.done = total
        pids = self.pid.values[done:total]
        episodes = self.episode.values[pids]
        dest_local = (self.dest.values[pids] - episodes * self.nodes).tolist()
        sources = self.source.values[pids].tolist()
        sizes = self.size.values[pids].tolist()
        created = self.created.values[pids].tolist()
        malicious = self.malicious.values[pids].tolist()
        injected = self.injected.values[pids].tolist()
        ejected = self.cycle.values[done:total].tolist()
        lanes = episodes.tolist()
        packets = self.packets
        for row, pid in enumerate(pids.tolist()):
            packet = packets[pid]
            if packet is None:
                packet = Packet(
                    source=sources[row],
                    destination=dest_local[row],
                    size_flits=sizes[row],
                    created_cycle=created[row],
                    is_malicious=bool(malicious[row]),
                )
                packets[pid] = packet
            packet.injected_cycle = injected[row]
            packet.ejected_cycle = ejected[row]
            self.delivered[lanes[row]].append(packet)


class _LaneStats(NetworkStats):
    """Per-lane counters whose ``delivered`` list materialises lazily.

    All counters are maintained live by the batched kernels; only the
    ``Packet`` objects behind ``delivered`` are deferred.  The property
    flushes the pending delivered log on first read, so latency consumers
    (the guard's recovery windows, Figure 1 curves) see the complete list,
    while counter-only consumers — dataset generation, the robustness
    sweeps — never pay for per-packet object construction.
    """

    def __init__(self, log: _DeliveryLog, lane: int) -> None:
        super().__init__()
        self._log = log
        self._delivered = log.delivered[lane]

    @property
    def delivered(self) -> list[Packet]:  # type: ignore[override]
        self._log.flush()
        return self._delivered

    @delivered.setter
    def delivered(self, value: list[Packet]) -> None:
        # Intercepts the dataclass constructor's field assignment.
        self._delivered = value


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
    returned by :meth:`lane`; calling a per-episode member (enqueue,
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
        self._log = log = _DeliveryLog(self)
        self._lane_stats = [_LaneStats(log, lane) for lane in range(self.episodes)]
        self._lane_dropped = [0] * self.episodes
        # The registry columns and delivered log (see _DeliveryLog).
        self._pkt_episode = log.episode
        self._pkt_source = log.source
        self._pkt_size = log.size
        self._pkt_created = log.created
        self._pkt_malicious = log.malicious
        self._dlog_pid = log.pid
        self._dlog_cycle = log.cycle

    def _install_tables(self) -> None:
        tables, vc = batched_tables(self.topology, self.num_vcs, self.episodes)
        self._tables = tables
        self._q_node = vc.q_node
        self._q_port = vc.q_port
        self._q_node5 = vc.q_node5
        # Shared episode-local fused-XY table plus per-VC slot offsets (all
        # None when the table is disabled — the switch kernel then routes
        # on the fly from the tiled local coordinates).
        self._q_node_base = vc.q_node_base
        self._key_table = vc.key_table
        self._down_port = vc.down_port
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

    # -- cycle advance -------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance every episode by one cycle in a single kernel dispatch."""
        self._advance(cycle)
        next_cycle = cycle + 1
        for stats in self._lane_stats:
            stats.cycles = next_cycle

    # -- kernel callbacks (route per-packet events to their episode) ---------
    def _record_injected_ids(self, injected_ids: np.ndarray, cycle: int) -> None:
        # No object is touched: the injection cycle lives in the registry
        # column and lands on the Packet at delivery materialisation.
        self._pkt_injected.values[injected_ids] = cycle
        counts = np.bincount(
            self._pkt_episode.values[injected_ids], minlength=self.episodes
        )
        for lane in np.nonzero(counts)[0].tolist():
            self._lane_stats[lane].packets_injected += int(counts[lane])

    def _record_ejections(
        self, nodes: np.ndarray, tails: np.ndarray, pids: np.ndarray, cycle: int
    ) -> None:
        # A router ejects at most one flit per cycle, so ``nodes`` holds no
        # duplicates and plain fancy-indexed increments are exact.
        self._flits_ejected[nodes] += 1
        tail_idx = np.nonzero(tails)[0]
        if tail_idx.size == 0:
            return
        tail_pids = pids[tail_idx]
        self._packets_ejected[nodes[tail_idx]] += 1
        episodes = self._pkt_episode.values[tail_pids]
        delivered = np.bincount(episodes, minlength=self.episodes)
        flits = np.bincount(
            episodes, weights=self._pkt_size.values[tail_pids], minlength=self.episodes
        )
        malicious = np.bincount(
            episodes,
            weights=self._pkt_malicious.values[tail_pids],
            minlength=self.episodes,
        )
        for lane in np.nonzero(delivered)[0].tolist():
            stats = self._lane_stats[lane]
            stats.packets_delivered += int(delivered[lane])
            stats.flits_delivered += int(flits[lane])
            stats.malicious_packets_delivered += int(malicious[lane])
        self._dlog_pid.extend(tail_pids)
        self._dlog_cycle.extend_fill(cycle, tail_pids.size)

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
        :meth:`SoAMeshLane.enqueue_batch` separately (per-lane capacity
        checks, drop counters and stats), but the ring writes of every
        episode happen as one array sweep — the grouped ingress of
        :meth:`repro.noc.simulator.NoCSimulator.step` over several lanes.
        """
        lane_ids = np.asarray(lane_ids, dtype=np.int64)
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        count = sources.size
        if count == 0:
            return 0
        if self._routable_start is not None:
            routable = self._routable_start[sources, destinations]
            if not routable.all():
                drops = np.bincount(lane_ids[~routable], minlength=self.episodes)
                for lane in np.nonzero(drops)[0].tolist():
                    self._lane_dropped[lane] += int(drops[lane])
                self.unroutable_packets += int(count - routable.sum())
                lane_ids = lane_ids[routable]
                sources = sources[routable]
                destinations = destinations[routable]
                count = sources.size
                if count == 0:
                    return 0
        nodes = self.topology.num_nodes
        gsources = sources + lane_ids * nodes
        if count < 12 or np.unique(gsources).size != count:
            accepted = 0
            for lane, source, destination in zip(
                lane_ids.tolist(), sources.tolist(), destinations.tolist()
            ):
                accepted += self._enqueue_lane_packet(
                    lane,
                    Packet(
                        source=source,
                        destination=destination,
                        size_flits=size_flits,
                        created_cycle=cycle,
                        is_malicious=malicious,
                    ),
                )
            return accepted
        fits = self._sq_count[gsources] + size_flits <= self.source_queue_capacity
        if not fits.all():
            drops = np.bincount(lane_ids[~fits], minlength=self.episodes)
            for lane in np.nonzero(drops)[0].tolist():
                self._lane_dropped[lane] += int(drops[lane])
            lane_ids = lane_ids[fits]
            sources = sources[fits]
            destinations = destinations[fits]
            gsources = gsources[fits]
            count = sources.size
            if count == 0:
                return 0
        created = np.bincount(lane_ids, minlength=self.episodes)
        for lane in np.nonzero(created)[0].tolist():
            stats = self._lane_stats[lane]
            stats.packets_created += int(created[lane])
            if malicious:
                stats.malicious_packets_created += int(created[lane])
        first_pid = len(self._packets)
        # Registry columns only — the Packet objects of the delivered subset
        # are materialised lazily (see _materialize_delivered).
        self._packets.extend([None] * count)
        self._pkt_source.extend(sources)
        self._pkt_dest.extend(destinations + lane_ids * nodes)
        self._pkt_episode.extend(lane_ids)
        self._pkt_injected.extend_fill(-1, count)
        self._pkt_size.extend_fill(size_flits, count)
        self._pkt_created.extend_fill(cycle, count)
        self._pkt_malicious.extend_fill(1 if malicious else 0, count)
        self._queue_packets(gsources, first_pid, size_flits)
        return count

    def _enqueue_lane_packet(self, lane: int, packet: Packet) -> bool:
        """Queue a packet at lane ``lane``'s (episode-local) source node."""
        off = lane * self.topology.num_nodes
        node = off + packet.source
        if self._routable_start is not None and not self._routable_start[
            packet.source, packet.destination
        ]:
            self._credit_unroutable_drops(node, 1)
            return False
        size = packet.size_flits
        count = int(self._sq_count[node])
        if count + size > self.source_queue_capacity:
            self._credit_drops(node, 1)
            return False
        self._lane_stats[lane].record_created(packet)
        pid = len(self._packets)
        self._packets.append(packet)
        self._pkt_dest.append(off + packet.destination)
        self._pkt_episode.append(lane)
        self._pkt_injected.append(
            -1 if packet.injected_cycle is None else packet.injected_cycle
        )
        self._pkt_source.append(packet.source)
        self._pkt_size.append(size)
        self._pkt_created.append(packet.created_cycle)
        self._pkt_malicious.append(1 if packet.is_malicious else 0)
        self._queue_flits(node, count, (pid << PKT_SHIFT) + self._flit_templates[size])
        return True

    def _credit_drops(self, node: int, packets: int) -> None:
        """Drops land on the owning episode's lane counter."""
        self._lane_dropped[node // self.topology.num_nodes] += packets

    # -- global bookkeeping ---------------------------------------------------
    @property
    def dropped_packets(self) -> int:  # type: ignore[override]
        """Drops across every episode (per-episode counts live on the lanes)."""
        return sum(self._lane_dropped)

    @dropped_packets.setter
    def dropped_packets(self, value: int) -> None:
        # Assigned 0 by the base constructor before the lane lists exist.
        if value != 0:
            raise TypeError("per-episode drops are tracked on the lanes")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BatchedSoAMeshNetwork({self.topology.rows}x{self.topology.columns}"
            f" x{self.episodes} episodes, vcs={self.num_vcs})"
        )

    # Per-episode surface: direct calls would silently mix episode state.
    enqueue_packet = _no_direct_surface("enqueue_packet")
    enqueue_batch = _no_direct_surface("enqueue_batch")
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
    :class:`~repro.noc.soa._EpisodeBlock` member (limits, flush, frames,
    flit counts, views) is the solo network's own, run at the lane offset,
    and stats and drops are private to the episode, so consumers written
    against :class:`~repro.noc.soa.SoAMeshNetwork` — the monitor, the
    defense guard, the dataset builder — run unchanged.
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

    @property
    def stats(self) -> NetworkStats:
        # Counters are live; the delivered Packet list flushes itself on
        # first read (see _LaneStats), so counter reads stay O(1).
        return self._net._lane_stats[self.lane_index]

    @property
    def dropped_packets(self) -> int:
        return self._net._lane_dropped[self.lane_index]

    # -- injection interface --------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a packet's flits at its (episode-local) source node."""
        return self._net._enqueue_lane_packet(self.lane_index, packet)

    def enqueue_batch(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (source, destination) pair in one sweep."""
        sources = np.asarray(sources, dtype=np.int64)
        lane_ids = np.full(sources.size, self.lane_index, dtype=np.int64)
        return self._net.enqueue_group(
            lane_ids, sources, destinations, size_flits, cycle, malicious
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshLane({self.lane_index} of {self._net.episodes}, "
            f"{self.topology.rows}x{self.topology.columns})"
        )
