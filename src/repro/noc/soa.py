"""Structure-of-arrays mesh network backend (vectorized hot path).

:class:`SoAMeshNetwork` is a drop-in replacement for
:class:`repro.noc.network.MeshNetwork` whose per-cycle state lives in flat
NumPy arrays — per-VC ring buffers of packed flit words, per-port
free-VC bitmasks and BOC counters, per-node source-queue rings, injection
credits and a precomputed XY next-hop table — updated by the vectorized
kernels of :mod:`repro.noc.soa_step`.  It exposes the same
``MeshNetwork``-facing surface the monitor and defense layers use
(``enqueue_packet``, ``step``, ``set_injection_limit`` /
``flush_source_queue``, stats, frame counters) and is pinned
behavior-fingerprint-identical to the object backend: the same seeds
produce the same feature frames and the same ``DefenseReport.as_dict()``.

Packets are rows of one columnar registry (the network's ``_pkt_*``
columns): a packet is written once at enqueue — its source and
destination nodes, size, creation cycle and malicious flag — and the
kernels stamp its injection cycle and log its delivery as (pid, ejection
cycle).  An episode's :class:`~repro.noc.stats.NetworkStats` is a
read-only view of its rows (:class:`RegistryStats`): counters are derived
when read, latency is one query over the delivered columns, and
``Packet`` objects are only built when a reader asks for
``stats.delivered``.  No per-packet, per-flit or per-router Python object
is touched while the network advances.

The per-episode members (enqueue, stats, limits, flush, frames, flit
counts, views) are written once, in :class:`_EpisodeBlock`, against a
block of nodes: the solo network is the block at offset 0, and each lane
of the episode-batched network (:mod:`repro.noc.soa_batch`) is the block
at its lane offset.

The backend is selected through ``REPRO_SIM_BACKEND`` (``soa``, the
default, or ``object``) or explicitly via
``SimulationConfig(backend=...)``; see :func:`repro.noc.backend.resolve_backend`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.noc import soa_step
from repro.noc.packet import Packet
from repro.noc.soa_step import FIDX_MASK, KEY_PERIOD, PKT_SHIFT, TAIL_BIT
from repro.noc.stats import DeliveredColumns, NetworkStats
from repro.noc.topology import Direction, MeshTopology
from repro.obs.metrics import METRICS, sim_phase_histogram

__all__ = ["SoAMeshNetwork", "RegistryStats", "DIRECTION_INDEX", "mesh_tables"]

#: Fixed direction→axis-index mapping of every per-port array: the LOCAL
#: port first, then the paper's E, N, W, S cardinal order.
DIRECTION_INDEX: dict[Direction, int] = {
    Direction.LOCAL: 0,
    Direction.EAST: 1,
    Direction.NORTH: 2,
    Direction.WEST: 3,
    Direction.SOUTH: 4,
}
_INDEX_DIRECTION = {index: direction for direction, index in DIRECTION_INDEX.items()}


#: Largest node count for which the O(nodes²) XY next-hop table is
#: precomputed; bigger meshes route on the fly from coordinates.  At the
#: default 48x48 cut-over the table already costs ~10 MB of int16 plus
#: ~21 MB of fused int32 route slots; a 64x64 mesh would need 4x that.
#: Override with ``REPRO_XY_TABLE_MAX_NODES`` (0 forces on-the-fly routing
#: everywhere — the equivalence tests use that).
DEFAULT_XY_TABLE_MAX_NODES = 48 * 48


def _xy_table_limit() -> int:
    """Node-count cut-over for the precomputed XY route table."""
    raw = os.environ.get("REPRO_XY_TABLE_MAX_NODES", "")
    return int(raw) if raw else DEFAULT_XY_TABLE_MAX_NODES


def _route_table_enabled(num_nodes: int) -> bool:
    """Whether ``num_nodes`` is small enough for the precomputed route table."""
    return num_nodes <= _xy_table_limit()


@dataclass(frozen=True)
class MeshTables:
    """Static per-topology lookup tables shared by every SoA network.

    ``route[n, d]`` is the XY output direction (as a :data:`DIRECTION_INDEX`
    value) chosen at node ``n`` for destination ``d`` — the precomputed
    next-hop table that replaces per-flit routing calls.  It is ``None``
    past the :data:`DEFAULT_XY_TABLE_MAX_NODES` cut-over, where the switch
    kernel computes directions on the fly from the ``x``/``y`` coordinate
    columns instead (the table is O(nodes²) and stops paying for itself).
    """

    neighbor: np.ndarray  # (N, 5) int64, -1 at the mesh edge
    port_exists: np.ndarray  # (N, 5) bool, input ports present per node
    port_pos: np.ndarray  # (N, 5) int64, position in the router's port list
    nports: np.ndarray  # (N,) int64
    route: np.ndarray | None  # (N, N) int16, XY next-hop direction index
    opposite: np.ndarray  # (5,) int64, direction seen from the other side
    x: np.ndarray  # (N,) int64, node column coordinate
    y: np.ndarray  # (N,) int64, node row coordinate


@dataclass(frozen=True)
class _VcTables:
    """Per-(topology, num_vcs) candidate lookup tables of the switch kernel.

    Indexed by the flat VC id ``q = (node * 5 + port) * num_vcs + vc``:

    * ``q_node`` / ``q_port`` / ``q_node5`` / ``q_node_base`` — the owning
      node, flat port id, ``node * 5`` and ``node * N`` of each VC;
    * ``key_table[phase, q]`` — the rotation-arbitration priority key
      (``rank * num_vcs + vc``) of each VC for every one of the
      :data:`~repro.noc.soa_step.KEY_PERIOD` arbitration phases;
    * ``down_port[node * 5 + out_dir]`` — flat port id of the downstream
      input port reached through ``out_dir`` (-1 at edges / LOCAL);
    * ``route_slot[node * N + dest]`` — the fused XY lookup yielding the
      arbitration slot id ``node * 5 + out_dir`` in a single gather, or
      ``None`` past the route-table cut-over (the switch kernel then
      derives the slot from coordinates on the fly).

    Indexed by a port's free-VC bitmask: ``first_free[mask]`` — the offset
    of its first free VC, or :data:`NO_FREE_VC`; ``alloc_count[mask]`` —
    its allocated-VC count.
    """

    q_node: np.ndarray
    q_port: np.ndarray
    q_node5: np.ndarray
    q_node_base: np.ndarray
    key_table: np.ndarray
    down_port: np.ndarray
    route_slot: np.ndarray | None
    first_free: np.ndarray
    alloc_count: np.ndarray


#: Keyed by (rows, columns, with_route_table) — the route-table cut-over is
#: part of the identity, so flipping REPRO_XY_TABLE_MAX_NODES can never
#: serve stale tables.
_TABLES_CACHE: dict[tuple[int, int, bool], MeshTables] = {}
#: Keyed by (rows, columns, num_vcs, with_route_table).
_VC_TABLES_CACHE: dict[tuple[int, int, int, bool], _VcTables] = {}

#: Most VCs per port (free-VC bitmasks index 2^num_vcs-entry tables).
MAX_VCS = 16
#: ``first_free`` of a full port: ``port * num_vcs + NO_FREE_VC`` < 0.
NO_FREE_VC = -(1 << 40)


def mesh_tables(topology: MeshTopology) -> MeshTables:
    """Build (or reuse) the static lookup tables for ``topology``."""
    with_route_table = _route_table_enabled(topology.num_nodes)
    cache_key = (topology.rows, topology.columns, with_route_table)
    cached = _TABLES_CACHE.get(cache_key)
    if cached is not None:
        return cached

    rows, cols = topology.rows, topology.columns
    num_nodes = rows * cols
    ids = np.arange(num_nodes, dtype=np.int64)
    x = ids % cols
    y = ids // cols

    neighbor = np.full((num_nodes, 5), -1, dtype=np.int64)
    neighbor[:, DIRECTION_INDEX[Direction.LOCAL]] = ids
    neighbor[x < cols - 1, DIRECTION_INDEX[Direction.EAST]] = ids[x < cols - 1] + 1
    neighbor[y < rows - 1, DIRECTION_INDEX[Direction.NORTH]] = ids[y < rows - 1] + cols
    neighbor[x > 0, DIRECTION_INDEX[Direction.WEST]] = ids[x > 0] - 1
    neighbor[y > 0, DIRECTION_INDEX[Direction.SOUTH]] = ids[y > 0] - cols

    port_exists = neighbor >= 0
    port_exists[:, DIRECTION_INDEX[Direction.LOCAL]] = True

    # Port list order of the object backend's Router: LOCAL first, then the
    # existing input directions in cardinal (E, N, W, S) order.
    port_pos = np.full((num_nodes, 5), -1, dtype=np.int64)
    port_pos[:, 0] = 0
    cardinal = port_exists[:, 1:5].astype(np.int64)
    port_pos[:, 1:5] = np.where(port_exists[:, 1:5], np.cumsum(cardinal, axis=1), -1)
    nports = 1 + cardinal.sum(axis=1)

    route = None
    if with_route_table:
        cx, dx = x[:, None], x[None, :]
        cy, dy = y[:, None], y[None, :]
        route = np.where(
            cx < dx,
            DIRECTION_INDEX[Direction.EAST],
            np.where(
                cx > dx,
                DIRECTION_INDEX[Direction.WEST],
                np.where(
                    cy < dy,
                    DIRECTION_INDEX[Direction.NORTH],
                    np.where(cy > dy, DIRECTION_INDEX[Direction.SOUTH], 0),
                ),
            ),
        ).astype(np.int16)

    opposite = np.array([0, 3, 4, 1, 2], dtype=np.int64)  # L, E→W, N→S, W→E, S→N

    tables = MeshTables(
        neighbor=neighbor,
        port_exists=port_exists,
        port_pos=port_pos,
        nports=nports,
        route=route,
        opposite=opposite,
        x=x,
        y=y,
    )
    _TABLES_CACHE[cache_key] = tables
    return tables


def _vc_tables(topology: MeshTopology, num_vcs: int) -> _VcTables:
    """Build (or reuse) the per-VC lookup tables of the switch kernel."""
    cache_key = (
        topology.rows,
        topology.columns,
        num_vcs,
        _route_table_enabled(topology.num_nodes),
    )
    cached = _VC_TABLES_CACHE.get(cache_key)
    if cached is not None:
        return cached

    tables = mesh_tables(topology)
    num_nodes = topology.num_nodes
    num_slots = num_nodes * 5 * num_vcs
    q = np.arange(num_slots, dtype=np.int64)
    q_node = q // (5 * num_vcs)
    port_dir = (q // num_vcs) % 5
    vci = (q % num_vcs).astype(np.int32)

    pos = tables.port_pos[q_node, port_dir]
    nports = tables.nports[q_node]
    key_table = np.empty((KEY_PERIOD, num_slots), dtype=np.int32)
    for phase in range(KEY_PERIOD):
        rank = (pos - phase % nports) % nports
        key_table[phase] = rank.astype(np.int32) * num_vcs + vci

    down_port = np.full(num_nodes * 5, -1, dtype=np.int64)
    for direction in range(1, 5):
        targets = tables.neighbor[:, direction]
        valid = targets >= 0
        down_port[np.nonzero(valid)[0] * 5 + direction] = (
            targets[valid] * 5 + tables.opposite[direction]
        )

    route_slot = None
    if tables.route is not None:
        node_ids = np.arange(num_nodes, dtype=np.int64)
        route_slot = np.ascontiguousarray(
            (node_ids[:, None] * 5 + tables.route).reshape(-1).astype(np.int32)
        )

    masks = np.arange(1 << num_vcs, dtype=np.int64)
    first_free = np.full(masks.size, NO_FREE_VC, dtype=np.int64)
    alloc_count = np.full(masks.size, num_vcs, dtype=np.int64)
    for vc in reversed(range(num_vcs)):
        free = (masks >> vc) & 1 == 1
        first_free[free] = vc
        alloc_count -= free

    built = _VcTables(
        q_node=q_node,
        q_port=q // num_vcs,
        q_node5=q_node * 5,
        q_node_base=q_node * num_nodes,
        key_table=key_table,
        down_port=down_port,
        route_slot=route_slot,
        first_free=first_free,
        alloc_count=alloc_count,
    )
    _VC_TABLES_CACHE[cache_key] = built
    return built


class _FlitTemplates(dict):
    """Packed flit words of one packet by size, minus the packet id.

    ``template[i]`` is flit index ``i`` with the tail bit on the last flit;
    a packet's words are ``(pid << PKT_SHIFT) + template``.  Missing sizes
    are built on first lookup.
    """

    def __missing__(self, size: int) -> np.ndarray:
        template = np.arange(size, dtype=np.int64)
        template[-1] += TAIL_BIT
        self[size] = template
        return template


class _EpisodeBlock:
    """The per-episode network surface, over one block of the state arrays.

    Every member reads or writes nodes ``[_off, _off + _nodes)`` of the
    arrays owned by ``_net``; enqueued packets become rows of ``_net``'s
    registry, and ``stats`` is the view of the rows of episode
    ``lane_index``.  :class:`SoAMeshNetwork` is its own block at
    offset 0; a :class:`~repro.noc.soa_batch.SoAMeshLane` is episode ``i``'s
    block of a batched network.  On a batched network itself the block spans
    every episode, so the flit counts are whole-network aggregates and the
    batched class refuses the members that only make sense per episode.
    """

    topology: MeshTopology
    lane_index: int
    _off: int
    _nodes: int

    @property
    def route_provider(self):
        """The active fault-aware route provider (None on a healthy mesh)."""
        return self._net._route_provider

    # -- injection interface ------------------------------------------------
    def enqueue_packet(self, packet: Packet) -> bool:
        """Queue a caller-built packet's flits at its source (drop when full).

        The packet becomes a registry row like any other; it is also kept
        by pid so the kernels stamp its injection and ejection cycles.
        """
        net = self._net
        pid = net._enqueue_row(
            self._off + packet.source,
            self._off + packet.destination,
            packet.size_flits,
            packet.created_cycle,
            packet.is_malicious,
        )
        if pid < 0:
            return False
        net._packets[pid] = packet
        if packet.injected_cycle is not None:
            net._pkt_injected.values[pid] = packet.injected_cycle
        return True

    def enqueue_batch(
        self,
        sources: np.ndarray,
        destinations: np.ndarray,
        size_flits: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (source, destination) pair in one sweep.

        The vectorized ingress of :meth:`NoCSimulator.step` for sources
        exposing ``packet_batch_for_cycle``; semantically identical to
        calling :meth:`enqueue_packet` per packet.
        """
        sources = np.asarray(sources, dtype=np.int64)
        destinations = np.asarray(destinations, dtype=np.int64)
        if self._off:
            sources = sources + self._off
            destinations = destinations + self._off
        return self._net._enqueue_rows(
            sources, destinations, size_flits, cycle, malicious
        )

    # -- results ---------------------------------------------------------------
    @property
    def stats(self) -> "RegistryStats":
        """The episode's statistics: a read-only view of its registry rows."""
        return RegistryStats(self._net, self.lane_index)

    @property
    def dropped_packets(self) -> int:
        """Packets dropped at this episode's source queues."""
        return self._net._dropped[self.lane_index]

    # -- injection rate limiting (defense hook) -----------------------------
    def set_injection_limit(self, node_id: int, fraction: float) -> None:
        """Restrict ``node_id`` to ``fraction`` of the injection bandwidth."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("injection limit must be in [0, 1]")
        if node_id not in self.topology:
            raise ValueError(f"node {node_id} outside the {self.topology!r} mesh")
        net = self._net
        node = self._off + node_id
        net._limits[node] = float(fraction)
        # Changing the limit restarts the credit accumulator: credit accrued
        # under an older, looser limit must not leak through a quarantine.
        net._allowance[node] = 0.0
        net._index_limited()

    def injection_limit(self, node_id: int) -> float:
        """Current injection limit of ``node_id`` (1.0 = unrestricted)."""
        return float(self._net._limits[self._off + node_id])

    @property
    def injection_limits(self) -> list[float]:
        """Per-node injection limits (list view, like the object backend)."""
        return self._net._limits[self._off : self._off + self._nodes].tolist()

    def reset_injection_limits(self) -> None:
        """Lift every injection restriction (full rollback)."""
        net = self._net
        net._limits[self._off : self._off + self._nodes] = 1.0
        net._allowance[self._off : self._off + self._nodes] = 0.0
        net._index_limited()

    @property
    def restricted_nodes(self) -> list[int]:
        """Nodes currently running under an injection limit below 1.0."""
        block = self._net._limits[self._off : self._off + self._nodes]
        return [int(node) for node in np.nonzero(block < 1.0)[0]]

    def flush_source_queue(self, node_id: int) -> int:
        """Discard not-yet-injected flits queued at ``node_id``'s interface.

        Flits of packets whose head already entered the network are kept so
        no headless worm is stranded inside the routers; fully dropped
        packets count as drops.  Returns the number of flits discarded.
        """
        net = self._net
        node = self._off + node_id
        values = net._queued_words(node)
        if values.size == 0:
            return 0
        pkts = values >> PKT_SHIFT
        keep = net._pkt_injected.values[pkts] >= 0
        net._credit_drops(node, int(np.unique(pkts[~keep]).size))
        return values.size - net._compact_queue(node, values, keep)

    # -- DL2Fence observables ------------------------------------------------
    def feature_frame(self, direction: Direction, kind) -> np.ndarray:
        """One directional feature frame, read straight off the counters."""
        return self.feature_frames(kind)[direction]

    def feature_frames(self, kind) -> dict[Direction, np.ndarray]:
        """All four directional frames of one feature, no router walk.

        The per-port counter arrays are sliced into the natural directional
        geometries (east-most columns lack EAST input ports, etc.), exactly
        matching :func:`repro.monitor.features.extract_feature_frames` on
        the object backend.
        """
        from repro.monitor.features import FeatureKind

        net = self._net
        rows, cols = self.topology.rows, self.topology.columns
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        if kind is FeatureKind.VCO:
            samples = net._occ_samples_for_port(p0)
            if samples == 0:
                values = net._alloc_count[net._port_free[p0:p1]] / float(net.num_vcs)
            elif net._occ_exact:
                values = (net._occ_sum_int[p0:p1] / float(net.num_vcs)) / samples
            else:
                values = net._occ_sum[p0:p1] / samples
        else:
            values = (net._buf_writes[p0:p1] + net._buf_reads[p0:p1]).astype(
                np.float64
            )
        grid = values.reshape(self._nodes, 5)

        def plane(direction: Direction) -> np.ndarray:
            return grid[:, DIRECTION_INDEX[direction]].reshape(rows, cols)

        return {
            Direction.EAST: plane(Direction.EAST)[:, : cols - 1].copy(),
            Direction.NORTH: plane(Direction.NORTH)[: rows - 1, :].copy(),
            Direction.WEST: plane(Direction.WEST)[:, 1:].copy(),
            Direction.SOUTH: plane(Direction.SOUTH)[1:, :].copy(),
        }

    def reset_boc_counters(self) -> None:
        """Reset every port's BOC and VCO accumulators (window boundary)."""
        net = self._net
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        net._buf_writes[p0:p1] = 0
        net._buf_reads[p0:p1] = 0
        net._occ_sum_int[p0:p1] = 0
        net._occ_sum[p0:p1] = 0.0
        net._occ_samples[self._off // self.topology.num_nodes] = 0

    def local_boc(self) -> list[int]:
        """Per-node LOCAL-slot BOC this window (see MeshNetwork.local_boc)."""
        net = self._net
        p0 = self._off * 5
        p1 = p0 + self._nodes * 5
        return (net._buf_writes[p0:p1:5] + net._buf_reads[p0:p1:5]).tolist()

    # -- bookkeeping --------------------------------------------------------
    @property
    def in_flight_flits(self) -> int:
        """Flits buffered anywhere in the network (excluding source queues)."""
        span = 5 * self._net.num_vcs
        q0 = self._off * span
        return int(self._net._vc_count[q0 : q0 + self._nodes * span].sum())

    @property
    def queued_flits(self) -> int:
        """Flits still waiting in source injection queues."""
        return int(self._net._sq_count[self._off : self._off + self._nodes].sum())

    @property
    def drainable_queued_flits(self) -> int:
        """Queued flits that can still legally enter the network.

        Excludes new packets queued at quarantined nodes — by policy that
        backlog can never inject (continuation flits of partially injected
        packets still count, mirroring the injection gate).
        """
        net = self._net
        total = 0
        block = net._sq_count[self._off : self._off + self._nodes]
        for node in (self._off + np.nonzero(block > 0)[0]).tolist():
            if net._limits[node] > 0.0:
                total += int(net._sq_count[node])
                continue
            pkts = net._queued_words(node) >> PKT_SHIFT
            total += int((net._pkt_injected.values[pkts] >= 0).sum())
        return total

    # -- object-backend compatibility views ---------------------------------
    @property
    def source_queues(self) -> "_SourceQueuesView":
        """Length-reporting view of the per-node source queues."""
        return _SourceQueuesView(self._net, self._off, self._nodes)

    def router(self, node_id: int) -> "SoARouterView":
        """Read-only router view (VCO/BOC observables of one node)."""
        self.topology._check_node(node_id)
        return SoARouterView(self._net, self._off + int(node_id))

    @property
    def routers(self) -> list["SoARouterView"]:
        """Read-only router views in node order."""
        return [self.router(node) for node in self.topology.nodes()]


class SoAMeshNetwork(_EpisodeBlock):
    """A 2-D mesh with XY wormhole switching on flat NumPy state arrays."""

    backend_name = "soa"
    #: A solo network is the one-episode case of every per-episode member.
    episodes = 1
    lane_index = 0
    _off = 0

    def __init__(
        self,
        topology: MeshTopology,
        num_vcs: int = 4,
        vc_depth: int = 4,
        injection_bandwidth: int = 1,
        source_queue_capacity: int = 512,
    ) -> None:
        if injection_bandwidth < 1:
            raise ValueError("injection_bandwidth must be >= 1")
        if source_queue_capacity < 1:
            raise ValueError("source_queue_capacity must be >= 1")
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        if num_vcs > MAX_VCS:
            raise ValueError(
                f"num_vcs > {MAX_VCS} is too large for the SoA free-VC bitmask"
            )
        if vc_depth < 1:
            raise ValueError("virtual channel depth must be >= 1")
        if vc_depth >= 1 << 15:
            raise ValueError("vc_depth too large for the SoA VC count dtype")
        self.topology = topology
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.injection_bandwidth = injection_bandwidth
        self.source_queue_capacity = source_queue_capacity
        self._cycles = 0
        # Label-bound metric handles, created on first metered step().
        self._phase_series = None

        self._install_tables()
        # All state arrays are sized by the *array* node count, which equals
        # the topology's node count here but spans every episode block in
        # the batched subclass (repro.noc.soa_batch).
        num_nodes = self._nodes
        num_ports = num_nodes * 5
        num_vc_slots = num_ports * num_vcs
        self._best_key = np.empty(num_ports, dtype=np.int32)
        # The LOCAL-output test: a gather from a cache-resident bool table.
        self._slot_is_local = np.zeros(num_ports, dtype=bool)
        self._slot_is_local[::5] = True
        # Continuation-VC cache per node: the LOCAL VC the most recent head
        # flit was injected into (see soa_step._inject_pass).
        self._node_vc = np.zeros(num_nodes, dtype=np.int64)
        # Free-VC bitmask per port: bit v is set iff VC v is unallocated
        # (hence empty and free for a new head).  A head push clears its
        # VC's bit and a tail release sets it; _vc_tables maps a mask to
        # the first free VC and the allocated-VC count (VCO numerator).
        self._port_free = np.full(num_ports, (1 << num_vcs) - 1, dtype=np.int32)
        self._vc_bit = (1 << (np.arange(num_vc_slots) % num_vcs)).astype(np.int32)
        vc_tables = _vc_tables(topology, num_vcs)
        self._first_free = vc_tables.first_free
        self._alloc_count = vc_tables.alloc_count

        # Virtual channels: fixed-depth ring buffers of packed flit words
        # (packet id << 21 | tail bit << 20 | flit index).  VC q owns slots
        # [q * depth, (q + 1) * depth); its front (next pop) and tail (next
        # push) are absolute slot ids stepped through the successor table
        # ``_slot_next``.  The int16 flit count tells full from empty.
        num_flit_slots = num_vc_slots * vc_depth
        self._vc_slots = np.zeros(num_flit_slots, dtype=np.int64)
        self._slot_next = np.arange(1, num_flit_slots + 1, dtype=np.int64)
        self._slot_next[vc_depth - 1 :: vc_depth] -= vc_depth
        self._vc_front = np.arange(0, num_flit_slots, vc_depth, dtype=np.int64)
        self._vc_tail = self._vc_front.copy()
        self._vc_count = np.zeros(num_vc_slots, dtype=np.int16)
        self._vc_alloc = np.full(num_vc_slots, -1, dtype=np.int32)
        self._vc_down = np.full(num_vc_slots, -1, dtype=np.int32)

        # Per-port observables (VCO/BOC counters of the DL2Fence monitor;
        # the occupied-VC count is read off the free-VC bitmask).
        # When num_vcs is a power of two, every per-cycle ``occupied/V``
        # term — and every partial sum of them — is exactly representable
        # in float64, so windowed occupancy can accumulate as plain integers
        # and divide once at read time, bit-identical to the object
        # backend's per-cycle float accumulation.
        self._buf_writes = np.zeros(num_ports, dtype=np.int64)
        self._buf_reads = np.zeros(num_ports, dtype=np.int64)
        self._occ_exact = num_vcs & (num_vcs - 1) == 0
        self._occ_sum_int = np.zeros(num_ports, dtype=np.int64)
        self._occ_sum = np.zeros(num_ports, dtype=np.float64)
        self._occ_tmp = np.empty(num_ports, dtype=np.float64)
        # Cycles accumulated into the current window, one counter per
        # episode block (episodes reset their windows independently).
        self._occ_samples = np.zeros(
            num_nodes // topology.num_nodes, dtype=np.int64
        )

        # Per-router ejection counters.
        self._flits_ejected = np.zeros(num_nodes, dtype=np.int64)
        self._packets_ejected = np.zeros(num_nodes, dtype=np.int64)

        # Source-queue rings of packed flit words awaiting injection.
        self._sq_vals = np.zeros((num_nodes, source_queue_capacity), dtype=np.int64)
        self._sq_flat = self._sq_vals.reshape(-1)  # shared-memory flat view
        self._sq_head = np.zeros(num_nodes, dtype=np.int64)
        self._sq_count = np.zeros(num_nodes, dtype=np.int64)

        # Injection rate limiting (defense hook) — see MeshNetwork.
        self._limits = np.ones(num_nodes, dtype=np.float64)
        self._allowance = np.zeros(num_nodes, dtype=np.float64)
        self._limited_idx = np.empty(0, dtype=np.int64)
        self._accruing_idx = self._limited_idx

        # The packet registry, one row per accepted packet (pid = row):
        # source and destination (array node ids, so the source names the
        # episode), the injection cycle (-1 until the head enters the
        # network), size, creation cycle and malicious flag.  Deliveries
        # are logged as (pid, ejection cycle) in delivery order.  The
        # per-episode NetworkStats are views of these columns.
        self._pkt_src = _GrowableInt()
        self._pkt_dest = _GrowableInt()
        self._pkt_injected = _GrowableInt()
        self._pkt_size = _GrowableInt()
        self._pkt_created = _GrowableInt()
        self._pkt_malicious = _GrowableInt()
        self._delivered_pid = _GrowableInt()
        self._delivered_cycle = _GrowableInt()
        # Caller-built Packets handed to enqueue_packet, by pid: the kernel
        # callbacks stamp their cycles (empty on array-only ingress).
        self._packets: dict[int, Packet] = {}
        self._dropped = [0] * self.episodes
        self._flit_templates = _FlitTemplates()

        # Data-plane fault state (dead links/routers).  Fault-free networks
        # keep every one of these untouched, so the hot path is unchanged:
        # ``_dynamic_routes`` stays False and the kernels take the exact
        # pre-existing XY table / on-the-fly branches.
        self._dynamic_routes = False
        self._route_provider = None
        self._route3 = None  # (num_nodes * 5 * num_nodes,) int8, flattened
        self._routable_start = None  # (num_nodes, num_nodes) bool
        self._q_state_base = None
        self.killed_packets = 0
        self.unroutable_packets = 0

    def _install_tables(self) -> None:
        """Bind the static lookup tables and the state-array node count.

        The batched subclass overrides this to install block-diagonal
        tables spanning every episode, which read the solo route and key
        tables through episode-local ids (see :mod:`repro.noc.soa_batch`).
        """
        self._tables = mesh_tables(self.topology)
        vc_tables = _vc_tables(self.topology, self.num_vcs)
        self._q_node = vc_tables.q_node
        self._q_port = vc_tables.q_port
        self._q_node5 = vc_tables.q_node5
        self._q_node_base = vc_tables.q_node_base
        self._key_table = vc_tables.key_table
        self._down_port = vc_tables.down_port
        self._route_slot = vc_tables.route_slot
        # Per-VC arbitration-slot offset added after the route-table gather
        # and per-VC episode-local id into the key table; only the batched
        # disjoint-union subclass sets them (its lanes share the solo
        # tables, indexed by episode-local ids).
        self._q_slot_off = None
        self._q_local = None
        self._nodes = self.topology.num_nodes

    @property
    def _net(self) -> "SoAMeshNetwork":
        """The network owning the state arrays (itself; see _EpisodeBlock)."""
        return self

    def _index_limited(self) -> None:
        """Index the nodes under an injection limit, and the throttled ones
        among them that accrue credit.  A quarantined node (limit 0) never
        does: its allowance starts at 0 and only falls, so ``min(allowance
        + 0, bandwidth)`` would leave it unchanged."""
        limited = self._limits < 1.0
        self._limited_idx = limited.nonzero()[0]
        self._accruing_idx = (limited & (self._limits > 0.0)).nonzero()[0]

    # -- data-plane faults (dead links / routers) ----------------------------
    def apply_data_faults(self, provider) -> int:
        """Install a degraded :class:`~repro.noc.route_provider.RouteProvider`.

        Runs atomically between cycles: the state-aware route table replaces
        the XY one, freshly queued packets are gated by start-state
        routability, and every *doomed* in-flight packet is excised wholesale
        — a packet is doomed when any of its VCs sits in a dead router, any
        of its wormhole bindings crosses a dead link, or its head flit's
        ``(node, travel-state)`` can no longer reach the destination under
        the turn model.  After excision the switch kernel never sees an
        unroutable head, so the per-cycle path needs no failure handling.

        Returns the number of in-flight packets killed (also accumulated on
        ``killed_packets``).  The batched subclass applies the same faults
        to every episode block.
        """
        self._route_provider = provider
        self._route3 = np.ascontiguousarray(provider.route_table3.reshape(-1))
        self._routable_start = provider.routable_from_start
        self._install_dynamic_tables()
        self._dynamic_routes = True
        killed = self._excise_doomed(provider)
        self._purge_unroutable_queued(provider, self._doomed_pids)
        self.killed_packets += killed
        return killed

    def _install_dynamic_tables(self) -> None:
        """Per-VC base index into the flattened state-aware route table.

        ``_q_state_base[q] + dest`` lands on ``route3[(node*5 + in_state),
        dest_local]``: the in-state of a VC is the travel direction of the
        hop that filled it (the opposite of its input-port direction; START
        for the LOCAL port).  Written against episode-local node ids so the
        same expression serves the batched disjoint union (the episode bias
        cancels against the global destination id, as for ``q_node_base``).
        """
        n = self.topology.num_nodes
        q = np.arange(self._nodes * 5 * self.num_vcs, dtype=np.int64)
        port_dir = (q // self.num_vcs) % 5
        state = self._tables.opposite[port_dir]
        episode = self._q_node // n
        local_node = self._q_node - episode * n
        self._q_state_base = (local_node * 5 + state) * n - episode * n

    def _excise_doomed(self, provider) -> int:
        """Clear every VC of every doomed in-flight packet (administrative
        purge: no buffer-read/BOC accounting, identical in both backends)."""
        self._doomed_pids = np.empty(0, dtype=np.int64)
        n = self.topology.num_nodes
        num_vcs = self.num_vcs
        alloc = self._vc_alloc
        active = np.nonzero(alloc >= 0)[0]
        if active.size == 0:
            return 0
        q_node = self._q_node[active]
        episode = q_node // n
        local_node = q_node - episode * n
        port_dir = self._q_port[active] % 5
        state = self._tables.opposite[port_dir]
        pid = alloc[active].astype(np.int64)
        dest_local = self._pkt_dest.values[pid] - episode * n

        doomed = np.zeros(active.size, dtype=bool)
        if provider.dead_routers:
            dead_router = np.zeros(n, dtype=bool)
            dead_router[sorted(provider.dead_routers)] = True
            doomed |= dead_router[local_node]
        cached = self._vc_down[active]
        bound = np.nonzero(cached >= 0)[0]
        if bound.size:
            out_dir = self._tables.opposite[(cached[bound] // num_vcs) % 5]
            alive = provider.link_alive_matrix
            doomed[bound[~alive[local_node[bound], out_dir]]] = True
        # Head flit at the front of its VC: stranded when its travel state
        # can no longer reach the destination under the turn model.
        hol = self._vc_slots[self._vc_front[active]]
        head_front = (self._vc_count[active] > 0) & ((hol & FIDX_MASK) == 0)
        route3 = provider.route_table3
        doomed |= head_front & (route3[local_node * 5 + state, dest_local] < 0)

        doomed_pids = np.unique(pid[doomed])
        if doomed_pids.size == 0:
            return 0
        self._doomed_pids = doomed_pids
        # Whole-VC clears are exact: a VC only ever holds flits of its single
        # allocated packet, so no ring surgery is needed.
        victims = active[np.isin(pid, doomed_pids)]
        np.bitwise_or.at(
            self._port_free, self._q_port[victims], self._vc_bit[victims]
        )
        self._vc_count[victims] = 0
        self._vc_front[victims] = self._vc_tail[victims]
        self._vc_alloc[victims] = -1
        self._vc_down[victims] = -1
        return int(doomed_pids.size)

    def _purge_unroutable_queued(self, provider, doomed_pids: np.ndarray) -> None:
        """Drop doomed remnants and START-unroutable packets from the source
        queues (continuation flits of *surviving* partially injected packets
        stay, mirroring ``flush_source_queue``)."""
        n = self.topology.num_nodes
        routable = self._routable_start
        injected = self._pkt_injected.values
        dest = self._pkt_dest.values
        for node in np.nonzero(self._sq_count > 0)[0].tolist():
            values = self._queued_words(node)
            pkts = values >> PKT_SHIFT
            local = node % n
            dest_local = dest[pkts] - (node // n) * n
            fresh = injected[pkts] < 0
            drop = np.isin(pkts, doomed_pids) | (
                fresh & ~routable[local, dest_local]
            )
            if not drop.any():
                continue
            unroutable = int(np.unique(pkts[drop & fresh]).size)
            if unroutable:
                self._credit_drops(node, unroutable, unroutable=True)
            self._compact_queue(node, values, ~drop)

    def _queued_words(self, node: int) -> np.ndarray:
        """The flit words queued at (array) node ``node``, oldest first."""
        count = int(self._sq_count[node])
        slots = (self._sq_head[node] + np.arange(count)) % self.source_queue_capacity
        return self._sq_vals[node, slots]

    def _compact_queue(self, node: int, values: np.ndarray, keep: np.ndarray) -> int:
        """Rewrite ``node``'s queue as the kept ``values``; returns their count."""
        kept = int(keep.sum())
        self._sq_head[node] = 0
        self._sq_count[node] = kept
        if kept:
            self._sq_vals[node, :kept] = values[keep]
        return kept

    def _credit_drops(self, node: int, packets: int, unroutable: bool = False) -> None:
        """Count ``packets`` dropped at (array) node ``node`` against its
        episode; ``unroutable`` ones never had a route from their source."""
        self._dropped[node // self.topology.num_nodes] += packets
        if unroutable:
            self.unroutable_packets += packets

    def _credit_dropped_nodes(self, nodes: np.ndarray, unroutable: bool) -> None:
        """:meth:`_credit_drops` for one dropped packet per entry of ``nodes``."""
        dropped, counts = np.unique(nodes, return_counts=True)
        for node, packets in zip(dropped.tolist(), counts.tolist()):
            self._credit_drops(node, packets, unroutable)

    # -- kernel callbacks (rare per-packet events) ---------------------------
    def _record_injected_ids(self, injected_ids: np.ndarray, cycle: int) -> None:
        """Head flits of new packets entered the network this cycle."""
        self._pkt_injected.values[injected_ids] = cycle
        if self._packets:
            for pid in injected_ids.tolist():
                packet = self._packets.get(pid)
                if packet is not None:
                    packet.injected_cycle = cycle

    def _record_ejections(
        self, nodes: np.ndarray, tails: np.ndarray, pids: np.ndarray, cycle: int
    ) -> None:
        """Flits left the network at their LOCAL output this cycle."""
        if nodes.size < 8:
            # A handful of flits (one mesh): scalar updates beat the fixed
            # cost of the vector ops.
            for node, tail, pid in zip(nodes.tolist(), tails.tolist(), pids.tolist()):
                self._flits_ejected[node] += 1
                if tail:
                    self._packets_ejected[node] += 1
                    self._delivered_pid.append(pid)
                    self._delivered_cycle.append(cycle)
        else:
            # A router ejects at most one flit per cycle, so ``nodes`` holds
            # no duplicates and plain fancy-indexed increments are exact.
            self._flits_ejected[nodes] += 1
            self._packets_ejected[nodes[tails]] += 1
            tail_pids = pids[tails]
            self._delivered_pid.extend(tail_pids)
            self._delivered_cycle.extend_fill(cycle, tail_pids.size)
        if self._packets:
            for pid in pids[tails].tolist():
                packet = self._packets.get(pid)
                if packet is not None:
                    packet.ejected_cycle = cycle

    # -- injection interface ------------------------------------------------
    def _enqueue_row(
        self, node: int, destination: int, size: int, cycle: int, malicious: bool
    ) -> int:
        """Queue one packet from (array) ``node`` to (array) ``destination``.

        The scalar registry writer: returns the new row's pid, or -1 when
        the packet is dropped (unroutable, or its source queue is full).
        """
        routable = self._routable_start
        if routable is not None:
            n = self.topology.num_nodes
            if not routable[node % n, destination % n]:
                self._credit_drops(node, 1, unroutable=True)
                return -1
        count = int(self._sq_count[node])
        if count + size > self.source_queue_capacity:
            self._credit_drops(node, 1)
            return -1
        pid = len(self._pkt_src)
        self._pkt_src.append(node)
        self._pkt_dest.append(destination)
        self._pkt_injected.append(-1)
        self._pkt_size.append(size)
        self._pkt_created.append(cycle)
        self._pkt_malicious.append(malicious)
        self._queue_flits(node, count, (pid << PKT_SHIFT) + self._flit_templates[size])
        return pid

    def _enqueue_rows(
        self,
        nodes: np.ndarray,
        destinations: np.ndarray,
        size: int,
        cycle: int,
        malicious: bool,
    ) -> int:
        """Queue one packet per (array) (``nodes``, ``destinations``) pair.

        The array registry writer, semantically identical to calling
        :meth:`_enqueue_row` per packet: routability and capacity checks,
        drop counters, registry rows and source-ring writes happen as one
        sweep.  Returns the number of packets accepted.
        """
        count = nodes.size
        if count < 12 or not (nodes[1:] > nodes[:-1]).all():
            # Small batches, or sources that are not strictly increasing (so
            # possibly repeated): the per-packet path beats the fixed cost of
            # the array sweep, and the sweep needs distinct sources.
            accepted = 0
            for node, destination in zip(nodes.tolist(), destinations.tolist()):
                pid = self._enqueue_row(node, destination, size, cycle, malicious)
                accepted += pid >= 0
            return accepted
        if self._routable_start is not None:
            n = self.topology.num_nodes
            routable = self._routable_start[nodes % n, destinations % n]
            if not routable.all():
                self._credit_dropped_nodes(nodes[~routable], unroutable=True)
                nodes = nodes[routable]
                destinations = destinations[routable]
        fits = self._sq_count[nodes] + size <= self.source_queue_capacity
        if not fits.all():
            self._credit_dropped_nodes(nodes[~fits], unroutable=False)
            nodes = nodes[fits]
            destinations = destinations[fits]
        count = nodes.size
        if count == 0:
            return 0
        first_pid = len(self._pkt_src)
        self._pkt_src.extend(nodes)
        self._pkt_dest.extend(destinations)
        self._pkt_injected.extend_fill(-1, count)
        self._pkt_size.extend_fill(size, count)
        self._pkt_created.extend_fill(cycle, count)
        self._pkt_malicious.extend_fill(malicious, count)
        self._queue_packets(nodes, first_pid, size)
        return count

    def _queue_flits(self, node: int, count: int, values: np.ndarray) -> None:
        """Append one packet's flit ``values`` to the ring of (array) node
        ``node``, which holds ``count`` flits."""
        capacity = self.source_queue_capacity
        start = (int(self._sq_head[node]) + count) % capacity
        end = start + values.size
        if end <= capacity:
            self._sq_vals[node, start:end] = values
        else:
            split = capacity - start
            self._sq_vals[node, start:] = values[:split]
            self._sq_vals[node, : end - capacity] = values[split:]
        self._sq_count[node] = count + values.size

    def _queue_packets(self, nodes: np.ndarray, first_pid: int, size: int) -> None:
        """Queue packets ``first_pid, first_pid + 1, ...`` of ``size`` flits at
        the distinct (array) ``nodes`` in one sweep of ring writes."""
        capacity = self.source_queue_capacity
        pids = np.arange(first_pid, first_pid + nodes.size, dtype=np.int64)
        values = (pids[:, None] << PKT_SHIFT) + self._flit_templates[size][None, :]
        starts = (self._sq_head[nodes] + self._sq_count[nodes]) % capacity
        if (starts + size <= capacity).all():
            positions = (nodes * capacity + starts)[:, None] + np.arange(size)
            self._sq_flat[positions] = values
            self._sq_count[nodes] += size
            return
        for node, row in zip(nodes.tolist(), values):
            self._queue_flits(node, int(self._sq_count[node]), row)

    # Bound in this class body too: the span tracer patches them here.
    enqueue_packet = _EpisodeBlock.enqueue_packet
    enqueue_batch = _EpisodeBlock.enqueue_batch

    # -- cycle advance ------------------------------------------------------
    def step(self, cycle: int) -> None:
        """Advance the network by one cycle (inject, allocate, traverse)."""
        self._advance(cycle)

    def _advance(self, cycle: int) -> None:
        """One metered kernel dispatch plus the windowed occupancy sample.

        The shared body of both ``step`` methods; the inject/switch phase
        timings are labelled with the network's ``backend_name``.
        """
        if METRICS.active:
            series = self._phase_series
            if series is None:
                hist = sim_phase_histogram()
                series = self._phase_series = (
                    hist.series(backend=self.backend_name, phase="inject"),
                    hist.series(backend=self.backend_name, phase="switch"),
                )
            start = perf_counter()
            soa_step.inject(self, cycle)
            mid = perf_counter()
            soa_step.switch(self, cycle)
            end = perf_counter()
            series[0].observe(mid - start)
            series[1].observe(end - mid)
        else:
            soa_step.inject(self, cycle)
            soa_step.switch(self, cycle)
        # Garnet-style windowed occupancy: accumulate this cycle's occupied
        # fraction per port, exactly as the object backend's per-port sweep.
        occupied = self._alloc_count[self._port_free]
        if self._occ_exact:
            self._occ_sum_int += occupied
        else:
            np.divide(occupied, float(self.num_vcs), out=self._occ_tmp)
            self._occ_sum += self._occ_tmp
        self._occ_samples += 1
        self._cycles = cycle + 1

    def _occ_samples_for_port(self, flat_port: int) -> int:
        """Occupancy sample count governing ``flat_port``'s VCO average."""
        return int(self._occ_samples[flat_port // (self.topology.num_nodes * 5)])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SoAMeshNetwork({self.topology.rows}x{self.topology.columns}, "
            f"vcs={self.num_vcs}, depth={self.vc_depth})"
        )


class _GrowableInt:
    """Amortised-append int64 array (packet registry columns)."""

    def __init__(self, capacity: int = 1024) -> None:
        self._data = np.empty(capacity, dtype=np.int64)
        self._size = 0

    def _grow_to(self, needed: int) -> None:
        capacity = self._data.size
        while capacity < needed:
            capacity *= 2
        if capacity != self._data.size:
            grown = np.empty(capacity, dtype=np.int64)
            grown[: self._size] = self._data[: self._size]
            self._data = grown

    def append(self, value: int) -> None:
        size = self._size
        try:
            self._data[size] = value
        except IndexError:  # full: cheaper than a capacity test per append
            self._grow_to(size + 1)
            self._data[size] = value
        self._size = size + 1

    def extend(self, values: np.ndarray) -> None:
        count = len(values)
        self._grow_to(self._size + count)
        self._data[self._size : self._size + count] = values
        self._size += count

    def extend_fill(self, value: int, count: int) -> None:
        self._grow_to(self._size + count)
        self._data[self._size : self._size + count] = value
        self._size += count

    @property
    def values(self) -> np.ndarray:
        return self._data[: self._size]

    def __len__(self) -> int:
        return self._size


class RegistryStats(NetworkStats):
    """One episode's :class:`~repro.noc.stats.NetworkStats`, read off the
    packet registry of its network.

    A read-only view: every counter is derived from the registry columns
    when read, so the kernels keep no per-episode counters.  The episode's
    rows are those whose source node lies in its block.  ``delivered``
    builds ``Packet`` objects on each read, for the tests and examples that
    still want them; latency readers use :meth:`columns`.
    """

    def __init__(self, net: SoAMeshNetwork, lane: int) -> None:
        # NetworkStats' dataclass __init__ would assign the counters.
        self._net = net
        self._lane = lane

    def _own(self, rows: np.ndarray) -> np.ndarray:
        """The registry ``rows`` (pids) that belong to this episode."""
        net = self._net
        if net.episodes == 1:
            return rows
        episode = net._pkt_src.values[rows] // net.topology.num_nodes
        return rows[episode == self._lane]

    def _created(self) -> np.ndarray:
        return self._own(np.arange(len(self._net._pkt_src)))

    def _delivered(self) -> tuple[np.ndarray, np.ndarray]:
        """(pids, ejection cycles) of this episode's deliveries, in order."""
        net = self._net
        pids = net._delivered_pid.values
        cycles = net._delivered_cycle.values
        if net.episodes == 1:
            return pids, cycles
        own = net._pkt_src.values[pids] // net.topology.num_nodes == self._lane
        return pids[own], cycles[own]

    @property
    def cycles(self) -> int:
        return self._net._cycles

    @property
    def packets_created(self) -> int:
        return int(self._created().size)

    @property
    def malicious_packets_created(self) -> int:
        return int(self._net._pkt_malicious.values[self._created()].sum())

    @property
    def packets_injected(self) -> int:
        injected = self._net._pkt_injected.values[self._created()]
        return int(np.count_nonzero(injected >= 0))

    @property
    def packets_delivered(self) -> int:
        return int(self._delivered()[0].size)

    @property
    def flits_delivered(self) -> int:
        return int(self._net._pkt_size.values[self._delivered()[0]].sum())

    @property
    def malicious_packets_delivered(self) -> int:
        return int(self._net._pkt_malicious.values[self._delivered()[0]].sum())

    def columns(self, start: int = 0) -> DeliveredColumns:
        """Delivered packets from the ``start``-th on, in delivery order."""
        net = self._net
        pids, ejected = self._delivered()
        pids = pids[start:]
        return DeliveredColumns(
            created=net._pkt_created.values[pids],
            injected=net._pkt_injected.values[pids],
            ejected=ejected[start:].copy(),
            size=net._pkt_size.values[pids],
            malicious=net._pkt_malicious.values[pids] != 0,
        )

    @property
    def delivered(self) -> list[Packet]:
        """Delivered packets in delivery order, as ``Packet`` objects.

        A packet handed to ``enqueue_packet`` is returned as itself; every
        other one is built from its registry row on this read.
        """
        net = self._net
        pids, ejected = self._delivered()
        off = self._lane * net.topology.num_nodes
        rows = zip(
            pids.tolist(),
            (net._pkt_src.values[pids] - off).tolist(),
            (net._pkt_dest.values[pids] - off).tolist(),
            net._pkt_size.values[pids].tolist(),
            net._pkt_created.values[pids].tolist(),
            net._pkt_malicious.values[pids].tolist(),
            net._pkt_injected.values[pids].tolist(),
            ejected.tolist(),
        )
        packets = []
        for pid, source, destination, size, created, malicious, injected, eject in rows:
            packet = net._packets.get(pid)
            if packet is None:
                packet = Packet(
                    source=source,
                    destination=destination,
                    size_flits=size,
                    created_cycle=created,
                    is_malicious=bool(malicious),
                    injected_cycle=injected,
                    ejected_cycle=eject,
                )
            packets.append(packet)
        return packets

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"RegistryStats(lane={self._lane}, cycles={self.cycles}, "
            f"delivered={self.packets_delivered}/{self.packets_created})"
        )


class _SourceQueuesView:
    """Sequence view over one block's source-queue rings (lengths only)."""

    def __init__(self, net: SoAMeshNetwork, off: int, nodes: int) -> None:
        self._net = net
        self._off = off
        self._nodes = nodes

    def __len__(self) -> int:
        return self._nodes

    def __getitem__(self, node_id: int) -> "_SourceQueueView":
        return _SourceQueueView(self._net, self._off + node_id)


class _SourceQueueView:
    """Length view of one (array) node's source queue."""

    def __init__(self, net: SoAMeshNetwork, node: int) -> None:
        self._net = net
        self._node = node

    def __len__(self) -> int:
        return int(self._net._sq_count[self._node])

    def __bool__(self) -> bool:
        return len(self) > 0


class SoAPortView:
    """Read-only observables of one input port (VCO/BOC counters)."""

    def __init__(self, net: SoAMeshNetwork, node_id: int, direction: Direction) -> None:
        self.direction = direction
        self._net = net
        self._flat = node_id * 5 + DIRECTION_INDEX[direction]

    @property
    def buffer_writes(self) -> int:
        return int(self._net._buf_writes[self._flat])

    @property
    def buffer_reads(self) -> int:
        return int(self._net._buf_reads[self._flat])

    @property
    def buffer_operation_count(self) -> int:
        return self.buffer_writes + self.buffer_reads

    @property
    def occupied_vcs(self) -> int:
        return int(self._net._alloc_count[self._net._port_free[self._flat]])

    @property
    def occupancy_samples(self) -> int:
        return self._net._occ_samples_for_port(self._flat)

    @property
    def instantaneous_occupancy(self) -> float:
        return self.occupied_vcs / self._net.num_vcs

    @property
    def occupancy_sum(self) -> float:
        if self._net._occ_exact:
            return float(self._net._occ_sum_int[self._flat]) / self._net.num_vcs
        return float(self._net._occ_sum[self._flat])

    @property
    def vc_occupancy(self) -> float:
        samples = self._net._occ_samples_for_port(self._flat)
        if samples == 0:
            return self.instantaneous_occupancy
        return self.occupancy_sum / samples

    @property
    def buffered_flits(self) -> int:
        base = self._flat * self._net.num_vcs
        return int(self._net._vc_count[base : base + self._net.num_vcs].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoAPortView({self.direction.value}, occ={self.vc_occupancy:.2f})"


class SoARouterView:
    """Read-only router facade over the SoA state (tests / generic readers)."""

    def __init__(self, net: SoAMeshNetwork, node_id: int) -> None:
        self._net = net
        self.node_id = node_id

    @property
    def input_ports(self) -> dict[Direction, SoAPortView]:
        exists = self._net._tables.port_exists[self.node_id]
        return {
            _INDEX_DIRECTION[index]: SoAPortView(
                self._net, self.node_id, _INDEX_DIRECTION[index]
            )
            for index in range(5)
            if exists[index]
        }

    def port(self, direction: Direction) -> SoAPortView | None:
        if not self._net._tables.port_exists[self.node_id, DIRECTION_INDEX[direction]]:
            return None
        return SoAPortView(self._net, self.node_id, direction)

    def vco(self, direction: Direction) -> float:
        port = self.port(direction)
        return port.vc_occupancy if port is not None else 0.0

    def boc(self, direction: Direction) -> int:
        port = self.port(direction)
        return port.buffer_operation_count if port is not None else 0

    @property
    def flits_ejected(self) -> int:
        return int(self._net._flits_ejected[self.node_id])

    @property
    def packets_ejected(self) -> int:
        return int(self._net._packets_ejected[self.node_id])

    @property
    def buffered_flits(self) -> int:
        base = self.node_id * 5 * self._net.num_vcs
        span = 5 * self._net.num_vcs
        return int(self._net._vc_count[base : base + span].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SoARouterView(node={self.node_id})"
