"""Cycle-driven NoC simulator that couples traffic sources to the mesh.

The simulator plays the role Gem5/Garnet plays in the paper: it advances the
mesh cycle by cycle, asks every attached traffic source (benign workloads and
the FDoS attacker) which packets to create, and lets observers — such as the
global performance monitor of :mod:`repro.monitor` — sample runtime features
at a fixed period.

:class:`NoCSimulator` is the only driver.  Data-fault scheduling and
activation, ingress, the network step, observer dispatch, ``run`` and
``drain`` exist once, here, and loop over the driver's ``lanes``: a solo
simulator is its own single lane, and the episode-batched
:class:`~repro.noc.batch_sim.BatchedNoCSimulator` subclasses it with one
lane per episode.  The per-cycle work over the lanes (ingress order and
observer dispatch) is planned once and rebuilt whenever a source or
observer is attached, so a solo step does no per-lane bookkeeping.  The
per-episode surface (sources, observers, defense hooks, results) is
defined once too, in ``_Episode``, and shared by the solo simulator and
every :class:`~repro.noc.batch_sim.LaneSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Protocol

import numpy as np

from repro.noc.backend import BACKENDS, build_network, resolve_backend
from repro.noc.packet import Packet
from repro.noc.route_provider import RouteProvider
from repro.noc.stats import LatencyStats
from repro.noc.topology import MeshTopology
from repro.obs.bus import BUS

__all__ = ["SimulationConfig", "NoCSimulator", "TrafficSource"]


class TrafficSource(Protocol):
    """Anything that can generate packets for a given cycle.

    Both the synthetic/PARSEC workload generators and the FDoS attacker of
    :mod:`repro.traffic` implement this protocol.
    """

    def packets_for_cycle(self, cycle: int) -> Iterable[Packet]:
        """Packets created during ``cycle`` (may be empty)."""
        ...


@dataclass
class SimulationConfig:
    """Static configuration of a simulation run.

    Defaults follow the paper's setup: Mesh-XY, one virtual network with a
    small number of VCs per port, 4-flit packets, and a warmup period before
    feature sampling starts so VCO/BOC frames describe steady-state traffic.
    """

    rows: int = 8
    columns: int = 0
    num_vcs: int = 4
    vc_depth: int = 4
    injection_bandwidth: int = 1
    source_queue_capacity: int = 512
    warmup_cycles: int = 64
    seed: int = 0
    #: Simulator backend: "" resolves REPRO_SIM_BACKEND (default "soa");
    #: "object" forces the router/VC/flit reference model.
    backend: str = ""

    def __post_init__(self) -> None:
        if self.columns == 0:
            self.columns = self.rows
        if self.rows <= 0 or self.columns <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.warmup_cycles < 0:
            raise ValueError("warmup_cycles must be non-negative")
        if self.backend and self.backend not in BACKENDS:
            raise ValueError(
                f"unknown simulator backend {self.backend!r}; "
                f"expected one of {BACKENDS}"
            )

    def topology(self) -> MeshTopology:
        return MeshTopology(rows=self.rows, columns=self.columns)


class _Episode:
    """The per-episode simulator surface: sources, observers, defense hooks.

    One definition shared by :class:`NoCSimulator` (a solo simulator is its
    own single episode) and :class:`repro.noc.batch_sim.LaneSimulator` (one
    episode of a batched run); the driver reads ``sources`` and
    ``_observers`` of every lane it advances.
    """

    def __init__(self, config, topology, backend, network, lane_index) -> None:
        self.config = config
        self.topology = topology
        self.backend = backend
        self.network = network
        #: Episode label of traces and samples (a batched run's lane index).
        self.lane_index = lane_index
        self.sources: list[TrafficSource] = []
        self._observers: list[tuple[int, Callable]] = []

    # -- wiring ------------------------------------------------------------
    def add_source(self, source: TrafficSource) -> None:
        """Attach a traffic source (benign workload or attacker).

        Attach sources through this method, not by editing ``sources``: the
        driver caches its per-cycle plan and rebuilds it on this call.
        """
        self.sources.append(source)
        self._driver()._plan = None

    def add_observer(self, period: int, callback: Callable) -> None:
        """Call ``callback(self)`` every ``period`` cycles after warmup."""
        if period <= 0:
            raise ValueError("observer period must be positive")
        self._observers.append((period, callback))
        self._driver()._plan = None

    # -- runtime defense hooks ------------------------------------------------
    def throttle_node(self, node_id: int, fraction: float) -> None:
        """Rate-limit ``node_id`` to ``fraction`` of the injection bandwidth.

        This is the countermeasure surface a runtime defense such as
        :class:`repro.defense.DL2FenceGuard` uses once attackers are
        localized; ``fraction=0.0`` quarantines the node entirely.
        """
        self.network.set_injection_limit(node_id, fraction)

    def quarantine_node(self, node_id: int) -> None:
        """Block all injection from ``node_id`` (limit 0.0)."""
        self.network.set_injection_limit(node_id, 0.0)

    def release_node(self, node_id: int) -> None:
        """Lift any injection restriction on ``node_id``."""
        self.network.set_injection_limit(node_id, 1.0)

    @property
    def restricted_nodes(self) -> list[int]:
        """Nodes currently throttled or quarantined."""
        return self.network.restricted_nodes

    # -- results ---------------------------------------------------------------
    @property
    def stats(self):
        """Network-level counters (delivered packets, drops, etc.)."""
        return self.network.stats

    def latency(self, benign_only: bool = True) -> LatencyStats:
        """Latency statistics over delivered packets (benign-only by default)."""
        return self.network.stats.latency(benign_only=benign_only)


class NoCSimulator(_Episode):
    """Drives a :class:`MeshNetwork` with one or more traffic sources.

    The only simulator driver: :class:`repro.noc.batch_sim.BatchedNoCSimulator`
    reuses it over a batched network whose episodes are its ``lanes``.
    """

    def __init__(self, config: SimulationConfig | None = None) -> None:
        config = config or SimulationConfig()
        topology = config.topology()
        backend = resolve_backend(config.backend)
        super().__init__(
            config, topology, backend, self._build_network(config, topology, backend), 0
        )
        self.cycle = 0
        # Array ingress: when both the source and the backend support batch
        # transfer, one vectorized hand-off per source replaces the
        # per-packet enqueue loop (same packets, same RNG stream).
        self._batch_ingress = hasattr(self.network, "enqueue_batch")
        # Per-cycle work over every lane, built on first use; see _make_plan.
        self._plan: tuple[list, list] | None = None
        # Data-plane faults: scheduled (cycle, dead_links, dead_routers)
        # activations plus the accumulated fault set already applied.
        self._pending_data_faults: list[tuple[int, tuple, tuple]] = []
        self._dead_links: set = set()
        self._dead_routers: set = set()

    def _build_network(self, config: SimulationConfig, topology, backend: str):
        return build_network(
            topology,
            backend=backend,
            num_vcs=config.num_vcs,
            vc_depth=config.vc_depth,
            injection_bandwidth=config.injection_bandwidth,
            source_queue_capacity=config.source_queue_capacity,
        )

    @property
    def lanes(self) -> list[_Episode]:
        """The episodes this driver advances: a solo simulator is its own."""
        return [self]

    def _driver(self) -> "NoCSimulator":
        return self

    # -- data-plane fault hooks ------------------------------------------------
    def schedule_data_fault(
        self, cycle: int, dead_links=(), dead_routers=()
    ) -> None:
        """Kill links/routers at the start of ``cycle`` (permanently).

        ``dead_links`` holds ``(node, Direction)`` pairs naming a physical
        (bidirectional) link; ``dead_routers`` holds node ids.  Faults
        accumulate: each activation rebuilds one
        :class:`~repro.noc.route_provider.RouteProvider` over the union of
        everything dead so far and installs it on the backend, which excises
        doomed in-flight packets atomically (see ``apply_data_faults``).  A
        batched network applies it to every episode.
        """
        if cycle < self.cycle:
            raise ValueError(
                f"cannot schedule a fault at past cycle {cycle} "
                f"(current cycle {self.cycle})"
            )
        self._pending_data_faults.append(
            (cycle, tuple(dead_links), tuple(dead_routers))
        )
        self._pending_data_faults.sort(key=lambda item: item[0])

    def inject_data_fault(self, dead_links=(), dead_routers=()) -> int:
        """Apply a link/router kill immediately (between cycles).

        Returns the number of in-flight packets excised.
        """
        self._dead_links.update(
            (int(node), direction) for node, direction in dead_links
        )
        self._dead_routers.update(int(node) for node in dead_routers)
        provider = RouteProvider(
            self.topology,
            dead_links=tuple(self._dead_links),
            dead_routers=tuple(self._dead_routers),
        )
        excised = self.network.apply_data_faults(provider)
        if BUS.active:
            BUS.emit(
                "fault_activated",
                cycle=self.cycle,
                dead_links=sorted(
                    [int(node), direction.name]
                    for node, direction in provider.dead_links
                ),
                dead_routers=sorted(int(n) for n in provider.dead_routers),
                excised=int(excised),
            )
        return excised

    @property
    def route_provider(self):
        """Active fault-aware route provider (None on a healthy mesh)."""
        return self.network.route_provider

    @property
    def dead_links(self) -> frozenset:
        """Directed dead links of the active fault set (normalized)."""
        provider = self.network.route_provider
        return provider.dead_links if provider is not None else frozenset()

    @property
    def dead_routers(self) -> frozenset:
        """Dead routers of the active fault set."""
        provider = self.network.route_provider
        return provider.dead_routers if provider is not None else frozenset()

    def _activate_due_faults(self, cycle: int) -> None:
        pending = self._pending_data_faults
        due = [fault for fault in pending if fault[0] <= cycle]
        if not due:
            return
        self._pending_data_faults = [f for f in pending if f[0] > cycle]
        links: list = []
        routers: list = []
        for _, dead_links, dead_routers in due:
            links.extend(dead_links)
            routers.extend(dead_routers)
        self.inject_data_fault(dead_links=links, dead_routers=routers)

    # -- execution ------------------------------------------------------------
    def step(self) -> None:
        """Advance the simulation (every lane) by a single cycle.

        Ingress runs source positions outer, lanes inner: every lane's
        position-0 source is drained before any position-1 source, so each
        lane enqueues in its own ``sources`` order (workload before
        attacker) and its packet stream is exactly a solo run's.
        Per-packet sources enqueue one packet at a time (so does every
        source on a backend without batch ingress).  A position's batch
        emissions go to the network together once its last lane is
        drained: one lane's as one ``enqueue_batch``, several lanes'
        grouped into cross-lane ``enqueue_group`` sweeps.
        """
        cycle = self.cycle
        if self._pending_data_faults:
            self._activate_due_faults(cycle)
        plan = self._plan
        if plan is None:
            plan = self._plan = self._make_plan()
        ingress, observers = plan
        batches: list = []
        for network, source, batched, closes_position in ingress:
            if batched:
                batch = source.packet_batch_for_cycle(cycle)
                if batch is not None:
                    batches.append((network, batch))
            else:
                for packet in source.packets_for_cycle(cycle):
                    network.enqueue_packet(packet)
            if closes_position and batches:
                if len(batches) == 1:
                    target, (sources, destinations, size_flits, malicious) = batches[0]
                    target.enqueue_batch(
                        sources, destinations, size_flits, cycle, malicious
                    )
                else:
                    self._enqueue_groups(batches, cycle)
                batches = []
        self.network.step(cycle)
        post_warmup = cycle - self.config.warmup_cycles
        if post_warmup > 0:
            for period, callback, lane in observers:
                if post_warmup % period == 0:
                    callback(self.lanes[lane])
        self.cycle += 1

    def _make_plan(self) -> tuple[list, list]:
        """The per-cycle work over every lane, in the order ``step`` runs it.

        Ingress entries are ``(network, source, batched, closes_position)``
        in source-position order with lanes inner; ``batched`` says the
        source hands over arrays (``packet_batch_for_cycle``) and the
        backend takes them.  Observer entries are ``(period, callback,
        lane index)`` in lane order.  Neither holds a lane itself, so a
        solo simulator's plan holds no reference back to it.
        """
        lanes = self.lanes
        ingress = []
        for position in range(max([len(lane.sources) for lane in lanes])):
            column = [lane for lane in lanes if position < len(lane.sources)]
            for lane in column:
                source = lane.sources[position]
                batched = self._batch_ingress and hasattr(
                    source, "packet_batch_for_cycle"
                )
                ingress.append((lane.network, source, batched, lane is column[-1]))
        observers = [
            (period, callback, index)
            for index, lane in enumerate(lanes)
            for period, callback in lane._observers
        ]
        return ingress, observers

    def _enqueue_groups(self, batches: list, cycle: int) -> None:
        """Several lanes' batch emissions of one source position, grouped."""
        groups: dict[tuple[int, bool], list] = {}
        for network, (sources, destinations, size_flits, malicious) in batches:
            groups.setdefault((int(size_flits), bool(malicious)), []).append(
                (network, np.asarray(sources), np.asarray(destinations))
            )
        for (size_flits, malicious), entries in groups.items():
            if len(entries) == 1:
                network, sources, destinations = entries[0]
                network.enqueue_batch(
                    sources, destinations, size_flits, cycle, malicious
                )
                continue
            self.network.enqueue_group(
                np.concatenate(
                    [
                        np.full(sources.size, network.lane_index, dtype=np.int64)
                        for network, sources, _ in entries
                    ]
                ),
                np.concatenate([sources for _, sources, _ in entries]),
                np.concatenate([destinations for _, _, destinations in entries]),
                size_flits,
                cycle,
                malicious,
            )

    def run(self, cycles: int) -> None:
        """Advance the simulation by ``cycles`` cycles."""
        if cycles < 0:
            raise ValueError("cycles must be non-negative")
        for _ in range(cycles):
            self.step()

    def drain(self, max_cycles: int = 10_000) -> int:
        """Run with no new injection until all in-flight traffic is delivered.

        Returns the number of extra cycles simulated.  Traffic sources are
        detached during the drain so the network empties.  Backlog stuck
        behind a quarantined interface is ignored — by policy it can never
        inject, so waiting on it would always hit ``max_cycles``.
        """
        # A plan without ingress drains no source; the next step replans.
        self._plan = ([], self._make_plan()[1])
        extra = 0
        try:
            while (
                self.network.in_flight_flits > 0
                or self.network.drainable_queued_flits > 0
            ) and extra < max_cycles:
                self.step()
                extra += 1
        finally:
            self._plan = None
        return extra

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NoCSimulator({self.topology.rows}x{self.topology.columns}, "
            f"cycle={self.cycle}, sources={len(self.sources)})"
        )
