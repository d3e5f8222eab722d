"""Synthetic traffic pattern (STP) generators.

The paper's evaluation uses six synthetic benchmarks — Uniform Random,
Tornado, Shuffle, Neighbor, Bit Rotation and Bit Complement — which are the
standard Garnet synthetic patterns.  Each pattern defines a deterministic or
stochastic mapping from a source node to a destination node; the generator
then injects packets following a Bernoulli process with a configurable
injection rate (packets per node per cycle).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.noc.packet import Packet
from repro.noc.topology import MeshTopology

__all__ = [
    "SyntheticTraffic",
    "UniformRandomTraffic",
    "TornadoTraffic",
    "ShuffleTraffic",
    "NeighborTraffic",
    "BitRotationTraffic",
    "BitComplementTraffic",
    "SYNTHETIC_PATTERNS",
    "make_synthetic_traffic",
]


class SyntheticTraffic(ABC):
    """Base class for Bernoulli-injection synthetic traffic generators.

    Parameters
    ----------
    topology:
        The mesh the traffic runs on.
    injection_rate:
        Probability that a node creates a packet in a given cycle.  Typical
        benign operating points are 0.005-0.05 packets/node/cycle; the NoC
        saturates well below 1.0.
    packet_size_flits:
        Number of flits per generated packet.
    seed:
        Seed of the private random generator, so traffic is reproducible.
    """

    name = "synthetic"
    #: Deterministic patterns (no per-packet randomness in the destination
    #: mapping) memoise a source→destination table on first use.
    deterministic = False

    def __init__(
        self,
        topology: MeshTopology,
        injection_rate: float = 0.02,
        packet_size_flits: int = 4,
        seed: int = 0,
    ) -> None:
        if not 0.0 <= injection_rate <= 1.0:
            raise ValueError("injection_rate must be in [0, 1]")
        if packet_size_flits < 1:
            raise ValueError("packet_size_flits must be >= 1")
        self.topology = topology
        self.injection_rate = float(injection_rate)
        self.packet_size_flits = int(packet_size_flits)
        self.seed = int(seed)
        self.rng = np.random.default_rng(seed)
        self._dest_table: np.ndarray | None = None
        # Set by repro.noc.shared_draws.share: this source's position in a
        # recorded stream of equal sources' draws.
        self._replay = None

    # -- pattern ----------------------------------------------------------
    @abstractmethod
    def destination_for(self, source: int) -> int:
        """Destination node for a packet created at ``source``.

        May return ``source`` itself, in which case no packet is generated
        (self-traffic never enters the network).
        """

    def destinations_for(self, sources: np.ndarray) -> np.ndarray:
        """Vectorized destination mapping for the chosen sources.

        The default walks :meth:`destination_for` per source (the exact
        per-packet order randomized patterns rely on); deterministic
        patterns answer from a memoised full-mesh table instead.
        """
        if self.deterministic:
            if self._dest_table is None:
                self._dest_table = np.array(
                    [
                        self.destination_for(source)
                        for source in range(self.topology.num_nodes)
                    ],
                    dtype=np.int64,
                )
            return self._dest_table[sources]
        return np.array(
            [self.destination_for(int(source)) for source in sources],
            dtype=np.int64,
        )

    # -- TrafficSource protocol ------------------------------------------------
    def _stream_key(self) -> tuple:
        """Everything the draws depend on (see :mod:`repro.noc.shared_draws`).

        A subclass that adds a constructor parameter must add it here.
        """
        topology = self.topology
        return (
            type(self),
            topology.rows,
            topology.columns,
            self.injection_rate,
            self.seed,
        )

    def _draw_batch(self, cycle: int) -> tuple[np.ndarray, np.ndarray] | None:
        """One cycle's Bernoulli draw: (sources, destinations) or None.

        Shared by the object-building and the array-batch paths so both
        consume the RNG stream identically.  A shared source replays the
        recorded draws of equal sources instead of drawing again.
        """
        if self._replay is not None:
            return self._replay.next(cycle)
        return self._fresh_batch(cycle)

    def _fresh_batch(self, cycle: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Draw one cycle's batch from this source's own RNG."""
        if self.injection_rate == 0.0:
            return None
        draws = self.rng.random(self.topology.num_nodes) < self.injection_rate
        sources = np.nonzero(draws)[0]
        if sources.size == 0:
            return None
        destinations = self.destinations_for(sources)
        keep = destinations != sources
        if not keep.all():
            sources = sources[keep]
            destinations = destinations[keep]
        return sources, destinations

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Bernoulli-inject packets across all nodes for one cycle."""
        batch = self._draw_batch(cycle)
        if batch is None:
            return []
        sources, destinations = batch
        size = self.packet_size_flits
        return [
            Packet(
                source=source,
                destination=destination,
                size_flits=size,
                created_cycle=cycle,
            )
            for source, destination in zip(sources.tolist(), destinations.tolist())
        ]

    def packet_batch_for_cycle(
        self, cycle: int
    ) -> tuple[np.ndarray, np.ndarray, int, bool] | None:
        """Array form of :meth:`packets_for_cycle` for batch-capable backends.

        Returns ``(sources, destinations, size_flits, is_malicious)`` with no
        per-packet Python objects; the RNG stream is identical to the object
        path, so both backends simulate the same traffic.
        """
        batch = self._draw_batch(cycle)
        if batch is None:
            return None
        sources, destinations = batch
        return sources, destinations, self.packet_size_flits, False

    # -- helpers -----------------------------------------------------------
    def _id_bits(self) -> int:
        """Number of bits needed to index nodes (bit-permutation patterns)."""
        return max(1, (self.topology.num_nodes - 1).bit_length())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rate={self.injection_rate})"


class UniformRandomTraffic(SyntheticTraffic):
    """Each packet targets a uniformly random node (excluding the source)."""

    name = "uniform_random"

    def destination_for(self, source: int) -> int:
        num = self.topology.num_nodes
        destination = int(self.rng.integers(0, num - 1))
        if destination >= source:
            destination += 1
        return destination

    def destinations_for(self, sources: np.ndarray) -> np.ndarray:
        """One bulk draw per cycle; the PCG64 stream of ``size=k`` bounded
        integer draws is identical to ``k`` scalar draws, so results match
        the per-source path bit for bit (pinned by a regression test)."""
        num = self.topology.num_nodes
        destinations = self.rng.integers(0, num - 1, size=sources.size)
        return destinations + (destinations >= sources)


class TornadoTraffic(SyntheticTraffic):
    """Tornado pattern: shift half-minus-one positions along each dimension."""

    name = "tornado"
    deterministic = True

    def destination_for(self, source: int) -> int:
        x, y = self.topology.coordinates(source)
        columns, rows = self.topology.columns, self.topology.rows
        dest_x = (x + max(1, columns // 2 - 1)) % columns
        dest_y = (y + max(1, rows // 2 - 1)) % rows
        return self.topology.node_id(dest_x, dest_y)


class ShuffleTraffic(SyntheticTraffic):
    """Perfect-shuffle permutation on the node-id bits (rotate left by one)."""

    name = "shuffle"
    deterministic = True

    def destination_for(self, source: int) -> int:
        bits = self._id_bits()
        num = self.topology.num_nodes
        rotated = ((source << 1) | (source >> (bits - 1))) & ((1 << bits) - 1)
        return rotated % num


class NeighborTraffic(SyntheticTraffic):
    """Each node sends to its eastern neighbour (wrapping at the mesh edge)."""

    name = "neighbor"
    deterministic = True

    def destination_for(self, source: int) -> int:
        x, y = self.topology.coordinates(source)
        return self.topology.node_id((x + 1) % self.topology.columns, y)


class BitRotationTraffic(SyntheticTraffic):
    """Rotate the node-id bits right by one position."""

    name = "bit_rotation"
    deterministic = True

    def destination_for(self, source: int) -> int:
        bits = self._id_bits()
        num = self.topology.num_nodes
        rotated = (source >> 1) | ((source & 1) << (bits - 1))
        return rotated % num


class BitComplementTraffic(SyntheticTraffic):
    """Send to the bitwise complement of the node id."""

    name = "bit_complement"
    deterministic = True

    def destination_for(self, source: int) -> int:
        num = self.topology.num_nodes
        return (num - 1) - source


SYNTHETIC_PATTERNS: dict[str, type[SyntheticTraffic]] = {
    cls.name: cls
    for cls in (
        UniformRandomTraffic,
        TornadoTraffic,
        ShuffleTraffic,
        NeighborTraffic,
        BitRotationTraffic,
        BitComplementTraffic,
    )
}


def make_synthetic_traffic(
    name: str,
    topology: MeshTopology,
    injection_rate: float = 0.02,
    packet_size_flits: int = 4,
    seed: int = 0,
) -> SyntheticTraffic:
    """Instantiate a synthetic pattern by its benchmark name."""
    key = name.lower().replace(" ", "_").replace("-", "_")
    if key not in SYNTHETIC_PATTERNS:
        raise KeyError(
            f"unknown synthetic pattern {name!r}; known: {sorted(SYNTHETIC_PATTERNS)}"
        )
    return SYNTHETIC_PATTERNS[key](
        topology,
        injection_rate=injection_rate,
        packet_size_flits=packet_size_flits,
        seed=seed,
    )
