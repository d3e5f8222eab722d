"""Latency and throughput statistics collected during simulation.

These feed the latency-vs-FIR curves of Figure 1: the paper reports packet
latency, flit latency, and their queueing components as the Flooding
Injection Rate increases from 0 (attack disabled) to 1 (system crash).

Every latency number is computed by :meth:`LatencyStats.from_columns` over
delivered packets held as :class:`DeliveredColumns`.  The object backend's
:class:`NetworkStats` derives those columns from its ``Packet`` list; the
SoA backends read them straight off their packet registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.noc.packet import Packet

__all__ = ["DeliveredColumns", "LatencyStats", "NetworkStats"]


@dataclass(frozen=True, eq=False)
class DeliveredColumns:
    """Delivered packets as parallel columns, in delivery order.

    ``created`` / ``injected`` / ``ejected`` are the packets' cycle stamps
    and ``size`` their flit counts (all int64); ``malicious`` is the bool
    ground-truth flag.
    """

    created: np.ndarray
    injected: np.ndarray
    ejected: np.ndarray
    size: np.ndarray
    malicious: np.ndarray

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "DeliveredColumns":
        """Columns of delivered ``packets``, in the given order."""
        packets = list(packets)

        def column(values) -> np.ndarray:
            return np.array(values, dtype=np.int64)

        return cls(
            created=column([p.created_cycle for p in packets]),
            injected=column([p.injected_cycle for p in packets]),
            ejected=column([p.ejected_cycle for p in packets]),
            size=column([p.size_flits for p in packets]),
            malicious=np.array([p.is_malicious for p in packets], dtype=bool),
        )

    def select(self, mask: np.ndarray) -> "DeliveredColumns":
        """The rows picked by the bool ``mask``, order kept."""
        return DeliveredColumns(
            self.created[mask],
            self.injected[mask],
            self.ejected[mask],
            self.size[mask],
            self.malicious[mask],
        )

    def benign(self) -> "DeliveredColumns":
        """The rows of benign (non-flooding) packets."""
        return self.select(~self.malicious)

    def __len__(self) -> int:
        return int(self.created.size)


@dataclass
class LatencyStats:
    """Aggregate latency metrics over a set of delivered packets."""

    packet_latency: float = 0.0
    packet_queue_latency: float = 0.0
    flit_latency: float = 0.0
    flit_queue_latency: float = 0.0
    delivered_packets: int = 0
    delivered_flits: int = 0

    @classmethod
    def from_columns(cls, columns: DeliveredColumns) -> "LatencyStats":
        """Compute averages over every delivered packet in ``columns``.

        Packet latency is creation-to-ejection; queue latency is the portion
        spent waiting in the source queue.  Flit latency follows the Garnet
        convention of normalising the network traversal per flit (a long
        packet's flits each see the serialisation latency of the whole
        packet, so flit latency is latency averaged per flit).
        """
        if len(columns) == 0:
            return cls()
        total = columns.ejected - columns.created
        queue = columns.injected - columns.created
        # Each flit of a packet experiences the same queueing delay but the
        # network portion is spread across the packet's flits.
        per_flit = queue + (columns.ejected - columns.injected) / columns.size
        return cls(
            packet_latency=float(np.mean(total)),
            packet_queue_latency=float(np.mean(queue)),
            flit_latency=float(np.mean(np.repeat(per_flit, columns.size))),
            flit_queue_latency=float(np.mean(np.repeat(queue, columns.size))),
            delivered_packets=len(columns),
            delivered_flits=int(columns.size.sum()),
        )

    @classmethod
    def from_packets(cls, packets: Iterable[Packet]) -> "LatencyStats":
        """:meth:`from_columns` over the delivered ones of ``packets``."""
        return cls.from_columns(
            DeliveredColumns.from_packets(p for p in packets if p.is_delivered)
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for table/figure generation."""
        return {
            "packet_latency": self.packet_latency,
            "packet_queue_latency": self.packet_queue_latency,
            "flit_latency": self.flit_latency,
            "flit_queue_latency": self.flit_queue_latency,
            "delivered_packets": float(self.delivered_packets),
            "delivered_flits": float(self.delivered_flits),
        }


@dataclass
class NetworkStats:
    """Running counters maintained by the object-backend simulator.

    The SoA backends expose the same reading surface as a read-only view
    over their packet registry (:class:`repro.noc.soa.RegistryStats`).
    """

    cycles: int = 0
    packets_created: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    malicious_packets_created: int = 0
    malicious_packets_delivered: int = 0
    delivered: list[Packet] = field(default_factory=list)

    def record_created(self, packet: Packet) -> None:
        self.packets_created += 1
        if packet.is_malicious:
            self.malicious_packets_created += 1

    def record_injected(self, packet: Packet) -> None:
        self.packets_injected += 1

    def record_delivered(self, packet: Packet) -> None:
        self.packets_delivered += 1
        self.flits_delivered += packet.size_flits
        if packet.is_malicious:
            self.malicious_packets_delivered += 1
        self.delivered.append(packet)

    def columns(self, start: int = 0) -> DeliveredColumns:
        """Delivered packets from the ``start``-th on, in delivery order."""
        return DeliveredColumns.from_packets(self.delivered[start:])

    def latency(self, benign_only: bool = False) -> LatencyStats:
        """Latency statistics over delivered packets.

        ``benign_only=True`` excludes flooding packets, matching the paper's
        Figure 1 which measures the impact of the attack on the *workload*.
        """
        columns = self.columns()
        return LatencyStats.from_columns(columns.benign() if benign_only else columns)

    @property
    def delivery_ratio(self) -> float:
        """Delivered / created packets (drops towards 0 as the NoC saturates)."""
        if self.packets_created == 0:
            return 1.0
        return self.packets_delivered / self.packets_created
