"""Input-queued wormhole router model with virtual channels.

The router exposes exactly the two observables DL2Fence monitors:

* **VCO** (virtual channel occupancy): the instantaneous fraction of occupied
  virtual channels of an input port, a float in [0, 1];
* **BOC** (buffer operation counts): the number of buffer writes + reads an
  input port performed since the counter was last reset (once per sampling
  window by the global performance monitor).

The switching model is simplified relative to Garnet (no explicit credit
network, single-cycle switch traversal) but preserves the behaviour that
matters for the paper: wormhole packets hold a virtual channel per hop from
head to tail, congestion back-pressures upstream along the XY route, and a
flooding flow therefore raises VCO/BOC on every router of its route.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.noc.packet import Flit
from repro.noc.topology import Direction, MeshTopology

__all__ = ["VirtualChannel", "InputPort", "Router"]


@dataclass
class VirtualChannel:
    """A FIFO flit buffer allocated to at most one packet at a time."""

    depth: int
    flits: deque = field(default_factory=deque)
    allocated_packet: int | None = None
    output_direction: Direction | None = None
    downstream_vc: "VirtualChannel | None" = None

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ValueError("virtual channel depth must be >= 1")

    @property
    def occupied(self) -> bool:
        """A VC is occupied while it holds flits or is allocated to a packet."""
        return bool(self.flits) or self.allocated_packet is not None

    @property
    def has_space(self) -> bool:
        return len(self.flits) < self.depth

    def can_accept(self, flit: Flit) -> bool:
        """True when ``flit`` may be written into this VC this cycle."""
        if not self.has_space:
            return False
        if flit.is_head:
            return not self.occupied
        return self.allocated_packet == flit.packet.packet_id

    def push(self, flit: Flit) -> None:
        """Write a flit (allocating the VC on a head flit)."""
        if not self.can_accept(flit):
            raise RuntimeError(f"VC cannot accept {flit!r}")
        if flit.is_head:
            self.allocated_packet = flit.packet.packet_id
            self.output_direction = None
            self.downstream_vc = None
        self.flits.append(flit)

    def pop(self) -> Flit:
        """Read the head-of-line flit (releasing the VC on a tail flit)."""
        if not self.flits:
            raise RuntimeError("cannot pop from an empty VC")
        flit = self.flits.popleft()
        if flit.is_tail:
            self.allocated_packet = None
            self.output_direction = None
            self.downstream_vc = None
        return flit

    def peek(self) -> Flit | None:
        """Head-of-line flit without consuming it."""
        return self.flits[0] if self.flits else None


class InputPort:
    """One input port of a router: a bank of virtual channels plus counters."""

    def __init__(self, direction: Direction, num_vcs: int, vc_depth: int) -> None:
        if num_vcs < 1:
            raise ValueError("num_vcs must be >= 1")
        self.direction = direction
        self.vcs = [VirtualChannel(depth=vc_depth) for _ in range(num_vcs)]
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.occupancy_sum = 0.0
        self.occupancy_samples = 0
        # Incrementally maintained counters (updated in write_flit/read_flit)
        # so the per-cycle occupancy accumulation and the switch allocator's
        # empty-port skip are O(1) instead of scanning every VC.
        self.occupied_vcs = 0
        self.buffered_flits = 0
        self.router: "Router | None" = None

    # -- DL2Fence observables ---------------------------------------------
    @property
    def instantaneous_occupancy(self) -> float:
        """Occupied VCs / total VCs right now (float in [0, 1])."""
        return self.occupied_vcs / len(self.vcs)

    @property
    def vc_occupancy(self) -> float:
        """VCO: VC occupancy averaged over the current sampling window.

        Garnet-style statistics accumulate occupancy every cycle and report
        the average over the measurement interval; the DL2Fence monitor
        resets the accumulator once per sampling window.  Before the first
        accumulation (cycle 0) the instantaneous value is returned.
        """
        if self.occupancy_samples == 0:
            return self.instantaneous_occupancy
        return self.occupancy_sum / self.occupancy_samples

    def accumulate_occupancy(self) -> None:
        """Record this cycle's occupancy into the window average."""
        self.occupancy_sum += self.occupied_vcs / len(self.vcs)
        self.occupancy_samples += 1

    @property
    def buffer_operation_count(self) -> int:
        """Accumulated BOC: buffer writes + reads since the last reset."""
        return self.buffer_writes + self.buffer_reads

    def reset_counters(self) -> None:
        """Reset the BOC and VCO accumulators (once per sampling window)."""
        self.buffer_writes = 0
        self.buffer_reads = 0
        self.occupancy_sum = 0.0
        self.occupancy_samples = 0

    # -- buffer operations ---------------------------------------------------
    def free_vc_for(self, flit: Flit) -> VirtualChannel | None:
        """Pick a VC able to accept ``flit``, or None when the port is full."""
        if flit.is_head:
            for vc in self.vcs:
                if not vc.occupied and vc.has_space:
                    return vc
            return None
        for vc in self.vcs:
            if vc.allocated_packet == flit.packet.packet_id and vc.has_space:
                return vc
        return None

    def write_flit(self, flit: Flit, vc: VirtualChannel) -> None:
        """Record the buffer write and store the flit."""
        vc.push(flit)
        self.buffer_writes += 1
        self.buffered_flits += 1
        if flit.is_head:
            self.occupied_vcs += 1
        router = self.router
        if router is not None:
            router.buffered_flits += 1

    def read_flit(self, vc: VirtualChannel) -> Flit:
        """Record the buffer read and return the head-of-line flit."""
        flit = vc.pop()
        self.buffer_reads += 1
        self.buffered_flits -= 1
        if flit.is_tail:
            self.occupied_vcs -= 1
        router = self.router
        if router is not None:
            router.buffered_flits -= 1
        return flit

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"InputPort({self.direction.value}, vcs={len(self.vcs)}, "
            f"occ={self.vc_occupancy:.2f})"
        )


class Router:
    """A mesh router: one input port per attached link plus the local port."""

    def __init__(
        self,
        node_id: int,
        topology: MeshTopology,
        num_vcs: int = 4,
        vc_depth: int = 4,
    ) -> None:
        self.node_id = node_id
        self.topology = topology
        self.num_vcs = num_vcs
        self.vc_depth = vc_depth
        self.input_ports: dict[Direction, InputPort] = {
            Direction.LOCAL: InputPort(Direction.LOCAL, num_vcs, vc_depth)
        }
        for direction in topology.input_directions(node_id):
            self.input_ports[direction] = InputPort(direction, num_vcs, vc_depth)
        for port in self.input_ports.values():
            port.router = self
        self.buffered_flits = 0
        self.packets_ejected = 0
        self.flits_ejected = 0
        # Every priority rotation of the input ports, precomputed so the
        # switch allocator does not rebuild the ordering list each cycle.
        ports = list(self.input_ports.values())
        self.port_rotations: list[list[InputPort]] = [
            ports[offset:] + ports[:offset] for offset in range(len(ports))
        ]
        # Downstream input port per output direction; filled by MeshNetwork
        # once all routers exist, so the allocator needs no per-cycle
        # neighbor lookups.
        self.down_ports: dict[Direction, InputPort] = {}

    # -- observables -------------------------------------------------------
    def port(self, direction: Direction) -> InputPort | None:
        """Input port facing ``direction`` (None when the router has no such link)."""
        return self.input_ports.get(direction)

    def vco(self, direction: Direction) -> float:
        """VCO of one input port; 0.0 for ports the router does not have."""
        port = self.input_ports.get(direction)
        return port.vc_occupancy if port is not None else 0.0

    def boc(self, direction: Direction) -> int:
        """BOC of one input port; 0 for ports the router does not have."""
        port = self.input_ports.get(direction)
        return port.buffer_operation_count if port is not None else 0

    def reset_counters(self) -> None:
        """Reset the BOC/VCO accumulators of every input port."""
        for port in self.input_ports.values():
            port.reset_counters()

    def accumulate_occupancy(self) -> None:
        """Record this cycle's occupancy on every input port."""
        for port in self.input_ports.values():
            port.accumulate_occupancy()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Router(node={self.node_id}, ports={len(self.input_ports)})"
