"""Property-based sweep of the Table-Like Method.

For every attacker x victim placement the abnormal-frame pattern is derived
*geometrically* from XY routing (no simulation, no CNN): a direction's
victim set is exactly the set of routers whose input port of that direction
carries the attack flow.  On this perfect evidence the TLM must recover a
candidate superset that

* contains the true attacker,
* never names the target victim, and
* never names a route turning point (any Routing-Path Victim).

The sweep is exhaustive over all placements on 4x4 through 8x8 meshes —
a parametrized brute-force enumeration, no hypothesis dependency needed.
Multi-attacker scenarios are exercised through the paper's iterative
sampling rounds: quarantining every recovered attacker must surface the
remaining ones within a bounded number of rounds.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.tlm import TableLikeMethod, estimate_attacker_count
from repro.monitor.labeling import attack_port_loads
from repro.noc.route_provider import RouteProvider
from repro.noc.routing import UnroutableError, xy_route_path, xy_route_victims
from repro.noc.topology import Direction, MeshTopology
from repro.traffic.scenario import AttackScenario, MultiAttackScenario

from tests.core.test_tlm import attackers_of


def geometric_direction_victims(
    topology: MeshTopology, flows: list[AttackScenario]
) -> dict[Direction, set[int]]:
    """Per-direction victim node sets implied by the flows' XY routes."""
    victims: dict[Direction, set[int]] = {d: set() for d in Direction.cardinal()}
    for flow in flows:
        loads = attack_port_loads(topology, flow)
        for direction in Direction.cardinal():
            ys, xs = np.nonzero(loads[direction])
            victims[direction].update(
                topology.node_id(int(x), int(y)) for y, x in zip(ys, xs)
            )
    return victims


def fused_ground_truth(topology: MeshTopology, flows: list[AttackScenario]) -> set[int]:
    union: set[int] = set()
    for flow in flows:
        union.update(flow.ground_truth_victims(topology))
    return union


@pytest.mark.parametrize("rows", [4, 5, 6, 7, 8])
def test_single_attacker_superset_exhaustive(rows):
    """Every (attacker, victim) placement: superset holds, no false roles."""
    topology = MeshTopology(rows=rows)
    tlm = TableLikeMethod(topology)
    for attacker in topology.nodes():
        for victim in topology.nodes():
            if attacker == victim:
                continue
            flow = AttackScenario(attackers=(attacker,), victim=victim)
            direction_victims = geometric_direction_victims(topology, [flow])
            fused = fused_ground_truth(topology, [flow])
            recovered = attackers_of(tlm, direction_victims, fused_victims=fused)
            route = set(xy_route_victims(topology, attacker, victim))
            context = f"{rows}x{rows}: attacker {attacker} -> victim {victim}"
            assert attacker in recovered, f"attacker missed ({context})"
            assert victim not in recovered, f"victim accused ({context})"
            assert not route.intersection(recovered), (
                f"route turning point accused ({context})"
            )
            assert estimate_attacker_count(topology, direction_victims) >= 1


@pytest.mark.parametrize("rows", [4, 6, 8])
def test_multi_attacker_iterative_rounds(rows):
    """Quarantine-and-resample recovers every attacker of disjoint floods.

    A single round may legitimately surface only a subset (one attacker can
    shadow another's evidence), but the paper's iterative procedure —
    quarantine what was localized, re-derive the frames from the remaining
    flows — must terminate with every attacker found, and must never accuse
    a victim or a route node of the still-active flows.
    """
    topology = MeshTopology(rows=rows)
    tlm = TableLikeMethod(topology)
    from repro.traffic.scenario import ScenarioGenerator

    generator = ScenarioGenerator(topology, seed=rows)
    for _ in range(25):
        scenario = generator.random_multi_scenario(
            num_flows=2, min_victim_separation=2
        )
        remaining = list(scenario.flows)
        recovered_total: set[int] = set()
        for _round in range(len(remaining) + 2):
            if not remaining:
                break
            direction_victims = geometric_direction_victims(topology, remaining)
            fused = fused_ground_truth(topology, remaining)
            recovered = set(
                attackers_of(tlm, direction_victims, fused_victims=fused)
            )
            victims = {flow.victim for flow in remaining}
            assert not victims.intersection(recovered), scenario.describe()
            newly_found = {
                a for flow in remaining for a in flow.attackers if a in recovered
            }
            assert newly_found, (
                f"round recovered no active attacker: {scenario.describe()}"
            )
            recovered_total.update(newly_found)
            remaining = [
                flow
                for flow in remaining
                if not set(flow.attackers).issubset(recovered_total)
            ]
        assert not remaining, (
            f"iterative rounds failed to surface every attacker: "
            f"{scenario.describe()} (found {sorted(recovered_total)})"
        )
        assert set(scenario.attackers).issubset(recovered_total)


# -- faulty-link axis ---------------------------------------------------------
#
# When the data plane detours around dead links/routers the attack flow no
# longer follows XY, so the geometric evidence must be derived from the live
# route provider — and the TLM, walking the same provider, must keep its
# properties on the *detoured* route.


def _hop_direction(topology, a, b):
    ax, ay = topology.coordinates(a)
    bx, by = topology.coordinates(b)
    if bx == ax + 1:
        return Direction.EAST
    if bx == ax - 1:
        return Direction.WEST
    if by == ay + 1:
        return Direction.NORTH
    return Direction.SOUTH


def _provider_direction_victims(topology, provider, path):
    """Per-direction victim sets implied by one flow's *live* route.

    A flit travelling in direction ``d`` into node ``b`` occupies ``b``'s
    input port on the opposite side — the side the abnormal frame names.
    """
    victims: dict[Direction, set[int]] = {d: set() for d in Direction.cardinal()}
    for a, b in zip(path, path[1:]):
        travel = _hop_direction(topology, a, b)
        victims[travel.opposite].add(b)
    return victims


def _fault_axes(rows):
    topology = MeshTopology(rows=rows)
    node = topology.node_id(2, min(2, rows - 2))
    yield topology, RouteProvider(topology, dead_links=((node, Direction.NORTH),))
    if rows == 5:
        yield topology, RouteProvider(topology, dead_routers=(12,))


@pytest.mark.parametrize("rows", [4, 5, 6])
def test_single_attacker_superset_under_faults(rows):
    """The TLM keeps its role guarantees on every detoured placement.

    Exhaustive over all routable (attacker, victim) pairs under the
    canonical dead link (and a dead router on the 5x5): the attacker is
    always recovered, the victim never accused, every accusation stays
    within one hop of the live route, and placements whose detour happens
    to coincide with XY accuse no route node at all (the fault-free
    guarantee degrades only where the geometry actually changed).
    """
    for topology, provider in _fault_axes(rows):
        tlm = TableLikeMethod(topology, route_provider=provider)
        for attacker in topology.nodes():
            for victim in topology.nodes():
                if attacker == victim:
                    continue
                try:
                    path = provider.route_path(attacker, victim)
                except UnroutableError:
                    continue  # west-first strands the pair; no flow exists
                direction_victims = _provider_direction_victims(
                    topology, provider, path
                )
                fused = set(path) - {attacker}
                recovered = set(
                    attackers_of(tlm, direction_victims, fused_victims=fused)
                )
                context = (
                    f"{rows}x{rows} {provider.describe()}: "
                    f"attacker {attacker} -> victim {victim}"
                )
                assert attacker in recovered, f"attacker missed ({context})"
                assert victim not in recovered, f"victim accused ({context})"
                near_route = set(path)
                for node in path:
                    for direction in Direction.cardinal():
                        neighbor = topology.neighbor(node, direction)
                        if neighbor is not None:
                            near_route.add(neighbor)
                assert recovered <= near_route, (
                    f"accusation beyond one hop of the live route ({context})"
                )
                if path == xy_route_path(topology, attacker, victim):
                    assert not fused.intersection(recovered), (
                        f"route node accused on an XY-identical pair ({context})"
                    )


def test_dead_link_prunes_impossible_candidates():
    """A candidate whose egress link is dead cannot be the sender.

    The EAST abnormal frame names a node whose east input port carries the
    flow; the one-hop candidate east of it only qualifies if its WEST
    egress link is alive.  Killing that link must remove the candidate —
    while the true attacker (whose egress the flow demonstrably crossed)
    is never filtered.
    """
    topology = MeshTopology(rows=4)
    victim = topology.node_id(1, 1)
    candidate = topology.node_id(2, 1)
    direction_victims = {d: set() for d in Direction.cardinal()}
    direction_victims[Direction.EAST] = {victim}

    live = TableLikeMethod(topology, route_provider=RouteProvider(topology))
    assert candidate in attackers_of(
        live, direction_victims, fused_victims={victim}
    )

    dead = RouteProvider(
        topology, dead_links=((candidate, Direction.WEST),)
    )
    pruned = TableLikeMethod(topology, route_provider=dead)
    assert candidate not in attackers_of(
        pruned, direction_victims, fused_victims={victim}
    )
