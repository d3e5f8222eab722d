"""Packets and flits exchanged over the mesh NoC.

Packets are generated by traffic sources (benign workloads or the flooding
attacker) and broken into flits for wormhole switching.  Timestamps recorded
on the packet drive the latency statistics of Figure 1: queueing latency (time
spent in the source queue before entering the network) and network latency
(time from network entry to ejection of the tail flit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum

__all__ = ["FlitType", "Flit", "Packet"]

_packet_counter = itertools.count()


class FlitType(str, Enum):
    """Position of a flit inside its packet."""

    HEAD = "head"
    BODY = "body"
    TAIL = "tail"
    HEAD_TAIL = "head_tail"  # single-flit packet

    @property
    def is_head(self) -> bool:
        return self in (FlitType.HEAD, FlitType.HEAD_TAIL)

    @property
    def is_tail(self) -> bool:
        return self in (FlitType.TAIL, FlitType.HEAD_TAIL)


@dataclass
class Packet:
    """A multi-flit message between two nodes.

    Attributes
    ----------
    source, destination:
        Node ids of the producing and consuming tiles.
    size_flits:
        Number of flits the packet is serialised into (>= 1).
    created_cycle:
        Cycle at which the traffic source produced the packet (enqueued in
        the source injection queue).
    injected_cycle:
        Cycle at which the head flit entered the network (left the source
        queue); ``None`` until injection happens.
    ejected_cycle:
        Cycle at which the tail flit was consumed at the destination.
    is_malicious:
        True for flooding packets generated by the FDoS model; benign
        workload packets leave it False.  The flag is *only* used for ground
        truth labelling — routers never inspect it.
    """

    source: int
    destination: int
    size_flits: int = 4
    created_cycle: int = 0
    is_malicious: bool = False
    packet_id: int = field(default_factory=lambda: next(_packet_counter))
    injected_cycle: int | None = None
    ejected_cycle: int | None = None

    def __post_init__(self) -> None:
        if self.size_flits < 1:
            raise ValueError("packets must contain at least one flit")
        if self.source == self.destination:
            raise ValueError("source and destination must differ")

    # -- flit handling ----------------------------------------------------
    def to_flits(self) -> list["Flit"]:
        """Serialise the packet into an ordered flit list."""
        if self.size_flits == 1:
            return [Flit(packet=self, index=0, flit_type=FlitType.HEAD_TAIL)]
        flits = [Flit(packet=self, index=0, flit_type=FlitType.HEAD)]
        flits.extend(
            Flit(packet=self, index=i, flit_type=FlitType.BODY)
            for i in range(1, self.size_flits - 1)
        )
        flits.append(
            Flit(packet=self, index=self.size_flits - 1, flit_type=FlitType.TAIL)
        )
        return flits

    # -- latency accounting -------------------------------------------------
    @property
    def is_delivered(self) -> bool:
        """True once the tail flit has been ejected at the destination."""
        return self.ejected_cycle is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = "malicious" if self.is_malicious else "benign"
        return (
            f"Packet(id={self.packet_id}, {self.source}->{self.destination}, "
            f"{self.size_flits} flits, {flag})"
        )


@dataclass
class Flit:
    """A single flow-control unit of a packet.

    ``is_head``/``is_tail``/``destination`` are materialised as plain
    attributes at construction: the switch allocator consults them for every
    buffered flit every cycle, and property dispatch dominated its runtime on
    large meshes.
    """

    packet: Packet
    index: int
    flit_type: FlitType

    def __post_init__(self) -> None:
        self.is_head = self.flit_type in (FlitType.HEAD, FlitType.HEAD_TAIL)
        self.is_tail = self.flit_type in (FlitType.TAIL, FlitType.HEAD_TAIL)
        self.destination = self.packet.destination

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Flit(pkt={self.packet.packet_id}, {self.flit_type.value}, idx={self.index})"
