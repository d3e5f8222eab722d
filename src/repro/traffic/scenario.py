"""Attack-scenario composition used for dataset generation and evaluation.

Section 2.3 of the paper defines the threat model: one or more malicious
nodes flood a single victim with protocol-legal packets that overlay the
benign workload and follow the default XY routes, so every router on the
way becomes a Routing-Path Victim.  The intensity is the **Flooding
Injection Rate (FIR)** in [0, 1], the per-attacker, per-cycle injection
probability; near 1 the NoC saturates ("system crashed" in Figure 1).

:class:`AttackScenario` is that constant-rate flood, expressed as an
:class:`~repro.attacks.AttackModel` so it drives the simulator through the
same :class:`~repro.attacks.AttackSource` as every refined variant.  The
paper simulates "18 attack scenarios under 0.8 FIR across 6 + 3
benchmarks", mixing single- and dual-attacker patterns; the reproducible
:class:`ScenarioGenerator` draws such scenarios for a given mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.attacks.base import AttackModel
from repro.noc.topology import MeshTopology
from repro.traffic.parsec import PARSEC_WORKLOADS
from repro.traffic.synthetic import SYNTHETIC_PATTERNS

__all__ = [
    "AttackScenario",
    "MultiAttackScenario",
    "ScenarioGenerator",
    "benchmark_names",
]


def benchmark_names(include_parsec: bool = True) -> list[str]:
    """All benchmark names of the paper's evaluation (6 STP + 3 PARSEC)."""
    names = list(SYNTHETIC_PATTERNS)
    if include_parsec:
        names.extend(PARSEC_WORKLOADS)
    return names


@dataclass(frozen=True)
class AttackScenario(AttackModel):
    """A constant-rate flood: every attacker floods ``victim`` at ``fir``.

    Not registered in :data:`repro.attacks.ATTACK_LIBRARY` — the library
    holds the *refined* variants the robustness matrix sweeps.

    Attributes
    ----------
    attackers:
        Malicious node ids (1 or 2 in the paper's evaluation).
    victim:
        Target victim node id.
    fir:
        Flooding Injection Rate for all attackers; ``fir=0`` never emits.
    benchmark:
        Name of the benign workload the attack overlays (one of the 6 STP
        patterns or 3 PARSEC workloads); informational only.
    """

    attackers: tuple[int, ...]
    victim: int
    fir: float = 0.8
    benchmark: str = "uniform_random"

    name = "constant"

    def __post_init__(self) -> None:
        if not self.attackers:
            raise ValueError("a scenario needs at least one attacker")
        if self.victim in self.attackers:
            raise ValueError("victim cannot be an attacker")
        if not 0.0 <= self.fir <= 1.0:
            raise ValueError("fir must be in [0, 1]")

    @property
    def num_attackers(self) -> int:
        return len(self.attackers)

    def emitters(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        return self.attackers, (self.victim,) * len(self.attackers)

    def fir_profile_at(self, rel_cycle: int) -> np.ndarray | None:
        if self.fir == 0.0:
            return None
        return np.full(len(self.attackers), self.fir, dtype=np.float64)

    def describe(self) -> str:
        """One-line human-readable description."""
        return (
            f"{self.num_attackers} attacker(s) {list(self.attackers)} -> victim "
            f"{self.victim} @ FIR {self.fir} on {self.benchmark}"
        )


@dataclass(frozen=True)
class MultiAttackScenario:
    """N simultaneous flooding flows aimed at pairwise-disjoint victims.

    The paper handles multi-attacker cases through iterative sampling rounds:
    quarantining the loudest localized attacker lets the next round's frames
    reveal the rest (Figure 3's multi-attacker rules).  This object composes
    independent :class:`AttackScenario` flows — each with its own victim —
    into one concurrent threat, which is the distributed-DoS shape related
    work (topology-aware NoC DDoS) identifies as the realistic model.  An
    episode runs ``flows`` as its tuple of attack models.

    Attributes
    ----------
    flows:
        The component single-victim scenarios running simultaneously.  Every
        flow keeps its own FIR, so asymmetric ("loud + quiet") attacks are
        expressible.
    benchmark:
        Benign workload the combined attack overlays; informational only.
    """

    flows: tuple[AttackScenario, ...]
    benchmark: str = "uniform_random"

    def __post_init__(self) -> None:
        if not self.flows:
            raise ValueError("a multi-attack scenario needs at least one flow")
        victims = [flow.victim for flow in self.flows]
        if len(set(victims)) != len(victims):
            raise ValueError("flows must target pairwise-disjoint victims")
        attackers: set[int] = set()
        for flow in self.flows:
            overlap = attackers.intersection(flow.attackers)
            if overlap:
                raise ValueError(f"attacker nodes {sorted(overlap)} appear in two flows")
            attackers.update(flow.attackers)
        if attackers.intersection(victims):
            raise ValueError("an attacker of one flow cannot be a victim of another")

    # -- aggregate views ----------------------------------------------------
    @property
    def attackers(self) -> tuple[int, ...]:
        """All malicious node ids across flows, sorted."""
        return tuple(sorted(a for flow in self.flows for a in flow.attackers))

    @property
    def victims(self) -> tuple[int, ...]:
        """The target victim of every flow, sorted."""
        return tuple(sorted(flow.victim for flow in self.flows))

    @property
    def num_attackers(self) -> int:
        return sum(flow.num_attackers for flow in self.flows)

    @property
    def num_flows(self) -> int:
        return len(self.flows)

    def with_fir(self, fir: float) -> "MultiAttackScenario":
        """Copy with every flow's FIR replaced."""
        return MultiAttackScenario(
            flows=tuple(replace(flow, fir=fir) for flow in self.flows),
            benchmark=self.benchmark,
        )

    def with_firs(self, firs: tuple[float, ...]) -> "MultiAttackScenario":
        """Copy with per-flow FIRs — asymmetric ("loud + quiet") attacks."""
        if len(firs) != len(self.flows):
            raise ValueError(
                f"got {len(firs)} FIRs for {len(self.flows)} flows"
            )
        return MultiAttackScenario(
            flows=tuple(
                replace(flow, fir=float(fir)) for flow, fir in zip(self.flows, firs)
            ),
            benchmark=self.benchmark,
        )

    def ground_truth_victims(self, topology: MeshTopology) -> set[int]:
        """Union of every flow's Routing-Path Victims plus target victims."""
        victims: set[int] = set()
        for flow in self.flows:
            victims.update(flow.ground_truth_victims(topology))
        return victims

    def describe(self) -> str:
        """One-line human-readable description."""
        flows = "; ".join(
            f"{list(flow.attackers)}->{flow.victim}@{flow.fir:g}" for flow in self.flows
        )
        return f"{self.num_flows} concurrent flows [{flows}] on {self.benchmark}"


class ScenarioGenerator:
    """Reproducible random generator of single/dual-attacker scenarios."""

    def __init__(self, topology: MeshTopology, seed: int = 0) -> None:
        self.topology = topology
        self.rng = np.random.default_rng(seed)

    def random_scenario(
        self,
        num_attackers: int = 1,
        fir: float = 0.8,
        benchmark: str = "uniform_random",
        min_distance: int = 2,
    ) -> AttackScenario:
        """Draw a scenario with distinct attackers at least ``min_distance`` hops away."""
        if num_attackers < 1:
            raise ValueError("num_attackers must be >= 1")
        num_nodes = self.topology.num_nodes
        if num_attackers >= num_nodes:
            raise ValueError("too many attackers for this mesh")
        for _ in range(1000):
            victim = int(self.rng.integers(0, num_nodes))
            candidates = [
                node
                for node in self.topology.nodes()
                if node != victim
                and self.topology.manhattan_distance(node, victim) >= min_distance
            ]
            if len(candidates) < num_attackers:
                continue
            attackers = tuple(
                int(a)
                for a in self.rng.choice(candidates, size=num_attackers, replace=False)
            )
            return AttackScenario(
                attackers=attackers, victim=victim, fir=fir, benchmark=benchmark
            )
        raise RuntimeError("could not sample a valid scenario")  # pragma: no cover

    def random_multi_scenario(
        self,
        num_flows: int = 2,
        fir: float = 0.8,
        benchmark: str = "uniform_random",
        min_distance: int = 2,
        min_victim_separation: int = 3,
        attackers_per_flow: int = 1,
        allow_on_route: bool = False,
    ) -> MultiAttackScenario:
        """Draw ``num_flows`` concurrent flooding flows on disjoint victims.

        Victims are kept at least ``min_victim_separation`` hops apart so the
        flows congest different mesh regions and no node plays two roles
        (attacker or victim) across flows.  By default no attacker sits on
        another flow's XY route either: an attacker inside the fused victim
        set is geometrically indistinguishable from a route turning point,
        the one single-window blind spot of the Table-Like Method.
        ``allow_on_route=True`` lifts that exclusion — the adversarial
        placement the cross-window evidence accumulator exists to catch
        (see :class:`repro.attacks.OnRouteFloodAttack` for the deterministic
        library variant).
        """
        if num_flows < 1:
            raise ValueError("num_flows must be >= 1")
        for _ in range(1000):
            flows: list[AttackScenario] = []
            used: set[int] = set()
            victims: list[int] = []
            for _flow in range(num_flows):
                candidate = self._draw_flow(
                    fir, benchmark, min_distance, attackers_per_flow, used, victims,
                    min_victim_separation,
                )
                if candidate is None:
                    break
                flows.append(candidate)
                used.update(candidate.attackers)
                used.add(candidate.victim)
                victims.append(candidate.victim)
            if len(flows) == num_flows and (
                allow_on_route or not self._routes_cross_attackers(flows)
            ):
                return MultiAttackScenario(flows=tuple(flows), benchmark=benchmark)
        raise RuntimeError("could not sample a valid multi-attack scenario")

    def _routes_cross_attackers(self, flows: list[AttackScenario]) -> bool:
        """True when any attacker lies on another flow's routing path."""
        attackers = {a for flow in flows for a in flow.attackers}
        for flow in flows:
            route = flow.ground_truth_victims(self.topology)
            others = attackers.difference(flow.attackers)
            if route.intersection(others):
                return True
        return False

    def _draw_flow(
        self,
        fir: float,
        benchmark: str,
        min_distance: int,
        attackers_per_flow: int,
        used: set[int],
        victims: list[int],
        min_victim_separation: int,
    ) -> AttackScenario | None:
        """One attempt at drawing a flow avoiding ``used`` nodes."""
        for _ in range(50):
            victim = int(self.rng.integers(0, self.topology.num_nodes))
            if victim in used:
                continue
            if any(
                self.topology.manhattan_distance(victim, other) < min_victim_separation
                for other in victims
            ):
                continue
            candidates = [
                node
                for node in self.topology.nodes()
                if node not in used
                and node != victim
                and self.topology.manhattan_distance(node, victim) >= min_distance
            ]
            if len(candidates) < attackers_per_flow:
                continue
            attackers = tuple(
                int(a)
                for a in self.rng.choice(
                    candidates, size=attackers_per_flow, replace=False
                )
            )
            return AttackScenario(
                attackers=attackers, victim=victim, fir=fir, benchmark=benchmark
            )
        return None
