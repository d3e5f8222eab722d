"""Common interface of the refined-DoS attack library.

The paper's headline claim is detection and localization of **refined**
denial-of-service, but a single constant-rate flood exercises only the
easiest corner of that threat model.  An :class:`AttackModel` is a frozen,
declarative description of one adversarial scenario — who injects, at whom,
and how the injection intensity evolves over the attack — that every layer
of the system can consume:

* the simulator, through :meth:`AttackModel.build_source`, which returns an
  :class:`AttackSource` traffic source with a **stream-identical** object
  path (``packets_for_cycle``) and vectorized batch path
  (``packet_batch_for_cycle``), so episodes reproduce bit for bit under both
  the object and the structure-of-arrays simulator backends;
* the defense evaluation, through :attr:`AttackModel.attackers` /
  :meth:`AttackModel.ground_truth_victims` (metrics only — the guard's
  decisions never read them);
* the experiment engine, whose artifact cache hashes the model dataclass
  directly into episode cache keys.

Concrete variants live in sibling modules (pulsed, ramping, migrating,
colluding, on-route) and are registered in :data:`repro.attacks.ATTACK_LIBRARY`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.noc.packet import Packet
from repro.noc.routing import xy_route_victims
from repro.noc.topology import MeshTopology

__all__ = ["AttackModel", "AttackSource"]


class AttackModel(ABC):
    """Declarative description of one refined-DoS scenario.

    Subclasses are frozen dataclasses: hashable into artifact-cache keys and
    safe to share across worker processes.  The model itself holds no
    mutable state — randomness lives in the :class:`AttackSource` built from
    it.
    """

    #: Registry key of the variant (e.g. ``"pulsed"``).
    name: str = "abstract"

    # -- emission plan -------------------------------------------------------
    @abstractmethod
    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Aligned ``(sources, victims)`` of every potential injection flow.

        One entry per flow that may inject at some point of the attack; the
        per-cycle intensity of each flow comes from :meth:`fir_profile_at`.
        """

    @abstractmethod
    def fir_profile_at(self, rel_cycle: int) -> np.ndarray | None:
        """Per-flow injection probabilities at ``rel_cycle`` since attack start.

        ``None`` marks a silent cycle (no RNG draw at all — e.g. the off
        phase of a pulsed flood); otherwise a float array aligned with
        :meth:`emitters`, entries in [0, 1].
        """

    def emits_between(self, rel_start: int, rel_end: int) -> bool:
        """True when any cycle of ``[rel_start, rel_end)`` can emit.

        Window-level ground truth for the monitor's ``attack_active`` flag:
        an instantaneous probe would mislabel duty-cycled attacks whose
        bursts fall between sampling instants.  The default answers from
        the range's first cycle (every non-pulsed variant emits on all
        cycles of its window); intermittent variants override it.
        """
        if rel_end <= rel_start:
            return False
        profile = self.fir_profile_at(rel_start)
        return profile is not None and bool((profile > 0.0).any())

    # -- ground truth (evaluation only) --------------------------------------
    # NOTE: ``attackers`` is deliberately *not* a base-class property — most
    # variants declare it as a dataclass field, and a base property would
    # become that field's spurious default.  Every subclass provides it.
    attackers: tuple[int, ...]

    @property
    def victims(self) -> tuple[int, ...]:
        """All flood target node ids, sorted."""
        _, victims = self.emitters()
        return tuple(sorted(set(victims)))

    @property
    def containment_nodes(self) -> tuple[int, ...]:
        """Nodes that must be simultaneously fenced to call the attack contained."""
        return self.attackers

    def ground_truth_victims(self, topology: MeshTopology) -> set[int]:
        """Every router any flow of the attack traverses under XY routing."""
        victims: set[int] = set()
        for source, victim in zip(*self.emitters()):
            victims.update(xy_route_victims(topology, source, victim))
        return victims

    # -- wiring ---------------------------------------------------------------
    def build_source(
        self,
        topology: MeshTopology,
        seed: int = 0,
        packet_size_flits: int = 4,
        start_cycle: int = 0,
        end_cycle: int | None = None,
    ) -> "AttackSource":
        """The simulator traffic source realising this attack."""
        return AttackSource(
            self,
            topology,
            seed=seed,
            packet_size_flits=packet_size_flits,
            start_cycle=start_cycle,
            end_cycle=end_cycle,
        )

    def describe(self) -> str:
        """One-line human-readable description."""
        sources, victims = self.emitters()
        return f"{self.name}: {sorted(set(sources))} -> {sorted(set(victims))}"

    def validate(self, topology: MeshTopology) -> None:
        """Raise when any referenced node falls outside ``topology``."""
        sources, victims = self.emitters()
        if not sources:
            raise ValueError(f"{self.name} attack has no emitters")
        for node in (*sources, *victims):
            if node not in topology:
                raise ValueError(f"node {node} outside the {topology!r} mesh")
        for source, victim in zip(sources, victims):
            if source == victim:
                raise ValueError(f"flow {source}->{victim} floods its own source")


class AttackSource:
    """Traffic source driven by an :class:`AttackModel`'s emission plan.

    The object-building and array-batch paths share one vectorized RNG draw
    per active cycle (``rng.random(num_flows)``), so the injected packet
    stream is identical whichever path the simulator backend takes.
    """

    #: Marker the global performance monitor uses to track ground-truth
    #: "attack active" flags without importing every attack class.
    is_attack_source = True

    def __init__(
        self,
        model: AttackModel,
        topology: MeshTopology,
        seed: int = 0,
        packet_size_flits: int = 4,
        start_cycle: int = 0,
        end_cycle: int | None = None,
    ) -> None:
        if packet_size_flits < 1:
            raise ValueError("packet_size_flits must be >= 1")
        if start_cycle < 0:
            raise ValueError("start_cycle must be non-negative")
        if end_cycle is not None and end_cycle <= start_cycle:
            raise ValueError("end_cycle must be after start_cycle")
        model.validate(topology)
        self.model = model
        self.topology = topology
        self.packet_size_flits = int(packet_size_flits)
        self.start_cycle = int(start_cycle)
        self.end_cycle = end_cycle
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.packets_generated = 0
        sources, victims = model.emitters()
        self._flow_sources = np.asarray(sources, dtype=np.int64)
        self._flow_victims = np.asarray(victims, dtype=np.int64)

    # -- ground-truth window ---------------------------------------------------
    def in_window(self, cycle: int) -> bool:
        """True when ``cycle`` falls inside the configured attack window."""
        if cycle < self.start_cycle:
            return False
        if self.end_cycle is not None and cycle >= self.end_cycle:
            return False
        return True

    def is_active_in(self, start: int, end: int) -> bool:
        """True when the attack can emit at any cycle of ``[start, end)``.

        The monitor labels whole sampling windows with this, so a pulsed
        attack bursting *between* two sampling instants still marks the
        window attack-active.
        """
        lo = max(start, self.start_cycle)
        hi = end if self.end_cycle is None else min(end, self.end_cycle)
        if hi <= lo:
            return False
        return self.model.emits_between(lo - self.start_cycle, hi - self.start_cycle)

    # -- TrafficSource protocol ------------------------------------------------
    def _draw_batch(self, cycle: int) -> tuple[np.ndarray, np.ndarray] | None:
        """Flows injecting during ``cycle`` as (sources, victims), or None.

        Shared by both emission paths, so the stream is identical across
        backends: one ``rng.random(num_flows)`` call per non-silent window
        cycle; cycles outside the window draw nothing.
        """
        if not self.in_window(cycle):
            return None
        profile = self.model.fir_profile_at(cycle - self.start_cycle)
        if profile is None:
            return None
        keep = self.rng.random(self._flow_sources.size) < profile
        sources = self._flow_sources[keep]
        self.packets_generated += sources.size
        return sources, self._flow_victims[keep]

    def packets_for_cycle(self, cycle: int) -> list[Packet]:
        """Flooding packets injected by all active flows during ``cycle``."""
        batch = self._draw_batch(cycle)
        if batch is None:
            return []
        sources, victims = batch
        return [
            Packet(
                source=source,
                destination=victim,
                size_flits=self.packet_size_flits,
                created_cycle=cycle,
                is_malicious=True,
            )
            for source, victim in zip(sources.tolist(), victims.tolist())
        ]

    def packet_batch_for_cycle(
        self, cycle: int
    ) -> tuple[np.ndarray, np.ndarray, int, bool] | None:
        """Array form of :meth:`packets_for_cycle` for batch-capable backends."""
        batch = self._draw_batch(cycle)
        if batch is None or batch[0].size == 0:
            return None
        sources, victims = batch
        return sources, victims, self.packet_size_flits, True

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AttackSource({self.model.describe()}, "
            f"window=[{self.start_cycle}, {self.end_cycle}))"
        )
